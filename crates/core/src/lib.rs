//! `tucker-core` — the Tucker tensor decomposition for compression of
//! large-scale scientific data, sequential and distributed.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Austin, Ballard & Kolda, *Parallel Tensor Compression for Large-Scale
//! Scientific Data*, IPDPS 2016):
//!
//! * **ST-HOSVD and HOOI** (Algs. 1–2) — the [`dist`] module provides the
//!   block-distributed tensor (Sec. IV), the parallel TTM / Gram /
//!   eigenvector kernels (Algs. 3–5), and the one ST-HOSVD loop and the one
//!   HOOI loop, built on the message-passing runtime in `tucker-distmem`.
//!   The sequential entries [`sthosvd`] and [`hooi`] are those loops run on
//!   a one-rank world, over their input borrowed in place; [`streaming`] is
//!   the out-of-core ST-HOSVD.
//!
//! Every kernel and driver has one entry point. It takes the
//! [`ExecContext`](tucker_exec::ExecContext) to run on explicitly
//! (`ExecContext::global()` for the whole pool, `dist::hybrid_ctx` for a
//! rank's share of it), and every driver returns its [`CoreError`] instead
//! of panicking: [`try_st_hosvd_ctx`], [`try_hooi_ctx`],
//! [`try_st_hosvd_streaming_ctx`], and `dist::try_dist_st_hosvd_ctx` /
//! `dist::try_dist_hooi_ctx`. Invalid input, or input whose squared norm is
//! not finite, comes back as a typed error before any eigensolve.
//! * **Other algorithms** — [`thosvd`] (the classical truncated HOSVD
//!   baseline) and [`reconstruct`] (full and partial reconstruction,
//!   eq. (1)).
//! * **Compression machinery** — [`rank`] (ε-driven rank selection),
//!   [`error`] (mode-wise error analysis, the error bound eq. (3), and
//!   compression ratios), and [`ordering`] (mode-ordering strategies,
//!   Sec. VIII-C).
//!
//! # Quick start
//!
//! ```
//! use tucker_core::prelude::*;
//! use tucker_tensor::DenseTensor;
//!
//! // A small synthetic 3-way tensor.
//! let x = DenseTensor::from_fn(&[20, 18, 16], |idx| {
//!     let (i, j, k) = (idx[0] as f64, idx[1] as f64, idx[2] as f64);
//!     (0.05 * i).sin() * (0.07 * j).cos() + 0.01 * k
//! });
//!
//! // Compress to a relative error of 1e-4 on the whole thread pool.
//! let ctx = ExecContext::global();
//! let opts = SthosvdOptions::with_tolerance(1e-4);
//! let result = try_st_hosvd_ctx(&x, &opts, ctx).expect("valid input");
//!
//! // Reconstruct and check the error.
//! let x_hat = result.tucker.reconstruct_ctx(ctx);
//! let err = tucker_tensor::normalized_rms_error(&x, &x_hat);
//! assert!(err <= 1e-4);
//! assert!(result.tucker.compression_ratio(x.dims()) > 1.0);
//! ```

pub mod dist;
pub mod error;
pub mod hooi;
pub mod ordering;
pub mod rank;
pub mod reconstruct;
pub mod sthosvd;
pub mod streaming;
pub mod thosvd;
pub mod tucker;
pub mod validate;

pub use error::{compression_ratio, error_bound, mode_wise_error_curves, ModeErrorCurve};
pub use hooi::{try_hooi_ctx, HooiOptions, HooiResult};
pub use ordering::ModeOrder;
pub use rank::{select_rank_by_threshold, RankSelection};
pub use reconstruct::{
    reconstruct_element, reconstruct_elements, reconstruct_subtensor_ctx, PointContraction,
};
pub use sthosvd::{try_st_hosvd_ctx, SthosvdOptions, SthosvdResult};
pub use streaming::{try_st_hosvd_streaming_ctx, StreamingOptions};
pub use thosvd::{t_hosvd, ThosvdResult};
pub use tucker::TuckerTensor;
pub use validate::{CoreError, RankError, ShapeError};

/// Unwraps the result of a `try_*` entry point for the three panicking forms
/// the benchmark binary keeps, with the one message they share:
/// `"{what}: invalid input: {e}"`.
pub(crate) fn valid_or_panic<T>(what: &str, r: Result<T, CoreError>) -> T {
    r.unwrap_or_else(|e| panic!("{what}: invalid input: {e}"))
}

/// Convenience re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::dist::{DistTensor, DistTucker};
    pub use crate::error::{compression_ratio, error_bound, mode_wise_error_curves};
    pub use crate::hooi::{try_hooi_ctx, HooiOptions, HooiResult};
    pub use crate::ordering::ModeOrder;
    pub use crate::rank::RankSelection;
    pub use crate::reconstruct::{reconstruct_element, reconstruct_subtensor_ctx};
    pub use crate::sthosvd::{try_st_hosvd_ctx, SthosvdOptions, SthosvdResult};
    pub use crate::streaming::{try_st_hosvd_streaming_ctx, StreamingOptions};
    pub use crate::thosvd::t_hosvd;
    pub use crate::tucker::TuckerTensor;
    pub use crate::validate::{CoreError, RankError, ShapeError};
    pub use tucker_exec::ExecContext;
}

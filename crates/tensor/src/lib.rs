//! Dense tensors, logical mode-n unfoldings, and the local computational
//! kernels (TTM and Gram) of the parallel Tucker decomposition.
//!
//! Storage convention follows the paper (Sec. IV-C): a tensor is stored so that
//! its mode-1 unfolding is in column-major order, i.e. the first mode varies
//! fastest in memory ("natural"/Fortran order). Unfolding in any mode is purely
//! logical — no data is moved — and the local kernels process the resulting
//! block structure with BLAS-3 calls from [`tucker_linalg`].
//!
//! Module map:
//! * [`dense`]  — [`DenseTensor`]: dimensions, index math, element access.
//! * [`layout`] — the logical mode-n unfolding view and its block structure.
//! * [`ttm`](mod@ttm)    — tensor-times-matrix products (single mode and chains).
//! * [`gram`](mod@gram)   — Gram matrices of unfoldings, `S = Y(n) Y(n)ᵀ`.
//! * [`norms`]  — tensor norms and the error metrics reported in the paper.
//! * [`slice`](mod@slice)  — subtensor extraction/insertion (for partial reconstruction).
//! * [`stream`] — the [`SlabSource`] trait and slab kernels of the
//!   out-of-core pipeline (last-mode slabs, bit-identical to the in-memory
//!   kernels for every slab width).

pub mod dense;
pub mod gram;
pub mod layout;
pub mod norms;
pub mod slice;
pub mod stream;
pub mod ttm;

pub use dense::{DenseTensor, SlabRangeError};
pub use gram::{gram_accumulate_ctx, gram_ctx, gram_pair_ctx};
pub use layout::Unfolding;
pub use norms::{frob_norm, max_abs_diff, normalized_rms_error, relative_error};
pub use slice::{extract_subtensor, SubtensorSpec};
pub use stream::{take_slab, ttm_slab_chain_ctx, ttm_slab_ctx, SlabSource};
pub use ttm::{multi_ttm_ctx, ttm_chain_ctx, ttm_ctx, ttm_into_ctx, ttm_slice_ctx, TtmTranspose};

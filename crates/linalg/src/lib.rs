//! Dense linear algebra kernels for the parallel Tucker decomposition.
//!
//! The paper (Austin, Ballard & Kolda, IPDPS 2016) relies on vendor BLAS/LAPACK
//! (`dgemm`, `dsyrk`, `dsyevx`) for all local computation. This crate provides
//! from-scratch, pure-Rust replacements with the same mathematical contracts:
//!
//! * [`Matrix`] — a dense, row-major, owned matrix of `f64`.
//! * [`gemm`](mod@gemm) — general matrix-matrix multiplication with transpose options,
//!   cache-blocked and optionally multi-threaded.
//! * [`syrk`](mod@syrk) — symmetric rank-k update `C = A Aᵀ` (the Gram kernel).
//! * [`eig`] — symmetric eigendecomposition (Householder tridiagonalization +
//!   implicit-shift QL, with a cyclic Jacobi fallback), returning eigenpairs in
//!   descending eigenvalue order as the Tucker rank-selection logic requires.
//! * [`qr`] — Householder QR factorization (the numerical-stability option
//!   discussed in Sec. IX of the paper).
//! * [`svd`] — one-sided Jacobi SVD (direct singular vectors, the alternative to
//!   the Gram-matrix approach).
//!
//! All kernels operate on `f64` only, matching the double-precision setting of
//! the paper's experiments.

pub mod blas1;
pub mod blocking;
pub mod eig;
pub mod gemm;
pub mod matrix;
pub mod microkernel;
pub mod pack;
pub mod qr;
pub mod simd;
pub mod svd;
pub mod syrk;

pub use blas1::{axpy, dot, nrm2, scal};
pub use blocking::{current_blocking, detected_caches, force_blocking, Blocking};
pub use eig::{sym_eig_ctx, sym_eig_desc, sym_eig_reference, sym_eig_unblocked, SymEig};
pub use gemm::{gemm, gemm_ctx, gemm_into, gemm_into_ctx, gemm_slices_ctx, Transpose};
pub use matrix::Matrix;
pub use qr::{householder_qr_ctx, householder_qr_reference, householder_qr_unblocked, QrFactors};
pub use simd::{current_tier, detected_tier, force_tier, supported_tiers, SimdTier};
pub use svd::{jacobi_svd_ctx, jacobi_svd_reference, jacobi_svd_unblocked, Svd};
pub use syrk::{syrk, syrk_ctx, syrk_into, syrk_rows_slices, triangular_scatter_mirror};

/// Machine-epsilon-scale tolerance used by iterative kernels in this crate.
pub const EPS: f64 = f64::EPSILON;

/// Returns true when `a` and `b` agree to within `tol` absolutely or relatively.
///
/// Used throughout the test suites of this workspace; exposed here so dependent
/// crates share a single definition.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-10));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-12), 1e-10));
        assert!(!approx_eq(1e12, 1.01e12, 1e-10));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-15));
        assert!(approx_eq(0.0, 1e-16, 1e-15));
    }
}

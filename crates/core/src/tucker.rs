//! The Tucker tensor: a core tensor plus one factor matrix per mode.

use serde::{Deserialize, Serialize};
use tucker_linalg::Matrix;
use tucker_tensor::{DenseTensor, TtmTranspose};

/// A Tucker decomposition `X ≈ G ×₁ U⁽¹⁾ ×₂ U⁽²⁾ ⋯ ×_N U⁽ᴺ⁾`.
///
/// `core` has dimensions `R_1 × … × R_N` and `factors[n]` is `I_n × R_n` with
/// (approximately) orthonormal columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuckerTensor {
    /// The core tensor `G`.
    pub core: DenseTensor,
    /// The factor matrices `U⁽ⁿ⁾`, one per mode, each `I_n × R_n`.
    pub factors: Vec<Matrix>,
}

impl TuckerTensor {
    /// Creates a Tucker tensor from a core and factor matrices, validating shapes.
    ///
    /// # Panics
    /// Panics if the number of factors differs from the core order, or if any
    /// factor's column count does not match the corresponding core dimension.
    pub fn new(core: DenseTensor, factors: Vec<Matrix>) -> Self {
        assert_eq!(
            core.ndims(),
            factors.len(),
            "TuckerTensor: need one factor matrix per core mode"
        );
        for (n, f) in factors.iter().enumerate() {
            assert_eq!(
                f.cols(),
                core.dim(n),
                "TuckerTensor: factor {n} has {} columns but core mode {n} has size {}",
                f.cols(),
                core.dim(n)
            );
        }
        TuckerTensor { core, factors }
    }

    /// Number of modes.
    pub fn ndims(&self) -> usize {
        self.core.ndims()
    }

    /// The reduced dimensions `R_1, …, R_N` (the core's shape).
    pub fn ranks(&self) -> Vec<usize> {
        self.core.dims().to_vec()
    }

    /// The original (reconstructed) dimensions `I_1, …, I_N`.
    pub fn original_dims(&self) -> Vec<usize> {
        self.factors.iter().map(|f| f.rows()).collect()
    }

    /// Number of stored values: `∏ R_n + Σ I_n·R_n` (core plus factors), the
    /// denominator of the paper's compression-ratio formula (Sec. VII-B).
    pub fn storage(&self) -> usize {
        let core: usize = self.core.len();
        let factors: usize = self.factors.iter().map(|f| f.rows() * f.cols()).sum();
        core + factors
    }

    /// Compression ratio `C = ∏ I_n / (∏ R_n + Σ I_n·R_n)` relative to the
    /// given original dimensions.
    pub fn compression_ratio(&self, original_dims: &[usize]) -> f64 {
        assert_eq!(original_dims.len(), self.ndims());
        let full: f64 = original_dims.iter().map(|&d| d as f64).product();
        full / self.storage() as f64
    }

    /// Reconstructs the full tensor `X̃ = G × {U⁽ⁿ⁾}` (eq. (1) of the paper).
    ///
    /// The products run in natural mode order ([`tucker_tensor::ttm_chain_ctx`]).
    /// The trailing modes whose factors grow them form the chain's fused
    /// expanding tail: they run tile by tile on the pool in cache-sized
    /// buffers, so their intermediates are never formed and each output
    /// element is written once. The bits are those of applying the
    /// products one by one.
    pub fn reconstruct(&self) -> DenseTensor {
        self.reconstruct_ctx(tucker_exec::ExecContext::global())
    }

    /// [`TuckerTensor::reconstruct`] on an explicit execution context.
    pub fn reconstruct_ctx(&self, ctx: &tucker_exec::ExecContext) -> DenseTensor {
        let refs: Vec<&Matrix> = self.factors.iter().collect();
        tucker_tensor::ttm_chain_ctx(ctx, &self.core, &refs, TtmTranspose::NoTranspose)
    }

    /// The norm of the core tensor, `‖G‖`. For factors with orthonormal columns
    /// this equals the norm of the reconstruction, which is how HOOI tracks the
    /// model fit (Alg. 2 line 10).
    pub fn core_norm(&self) -> f64 {
        self.core.norm()
    }

    /// Checks that every factor has (approximately) orthonormal columns.
    pub fn factors_orthonormal(&self, tol: f64) -> bool {
        self.factors.iter().all(|f| f.has_orthonormal_columns(tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tucker() -> TuckerTensor {
        // Core 2x2, factors 4x2 and 3x2 (orthonormal columns from identity blocks).
        let core = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let u0 = Matrix::from_fn(4, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let u1 = Matrix::from_fn(3, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        TuckerTensor::new(core, vec![u0, u1])
    }

    #[test]
    fn shapes_and_storage() {
        let t = small_tucker();
        assert_eq!(t.ranks(), vec![2, 2]);
        assert_eq!(t.original_dims(), vec![4, 3]);
        assert_eq!(t.storage(), 4 + 8 + 6);
        assert_eq!(t.ndims(), 2);
    }

    #[test]
    fn compression_ratio_formula() {
        let t = small_tucker();
        let ratio = t.compression_ratio(&[4, 3]);
        assert!((ratio - 12.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_embeds_core() {
        let t = small_tucker();
        let x = t.reconstruct();
        assert_eq!(x.dims(), &[4, 3]);
        // With identity-block factors, the top-left 2x2 of X is the core.
        assert_eq!(x.get(&[0, 0]), t.core.get(&[0, 0]));
        assert_eq!(x.get(&[1, 1]), t.core.get(&[1, 1]));
        assert_eq!(x.get(&[3, 2]), 0.0);
    }

    #[test]
    fn core_norm_equals_reconstruction_norm_for_orthonormal_factors() {
        let t = small_tucker();
        let x = t.reconstruct();
        assert!((t.core_norm() - x.norm()).abs() < 1e-12);
        assert!(t.factors_orthonormal(1e-12));
    }

    #[test]
    #[should_panic]
    fn mismatched_factor_cols_panics() {
        let core = DenseTensor::zeros(&[2, 2]);
        let u0 = Matrix::zeros(4, 3); // wrong: 3 cols vs core dim 2
        let u1 = Matrix::zeros(3, 2);
        TuckerTensor::new(core, vec![u0, u1]);
    }

    #[test]
    #[should_panic]
    fn wrong_factor_count_panics() {
        let core = DenseTensor::zeros(&[2, 2]);
        TuckerTensor::new(core, vec![Matrix::zeros(4, 2)]);
    }
}

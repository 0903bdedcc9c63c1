//! Random Tucker tensors with controlled structure.
//!
//! Two families are provided:
//!
//! * [`random_low_rank`] / [`NoisyLowRank`] — an exactly low-multilinear-rank
//!   tensor (random core times random orthonormal factors) plus optional white
//!   noise. Used throughout the test suites and in the weak/strong scaling
//!   experiments (the paper's scaling runs also use synthetic data with a known
//!   core size, Sec. VIII-C/D/E).
//! * [`random_tucker_with_spectra`] — a tensor whose mode-wise singular values
//!   follow prescribed [`SpectralDecay`] profiles, used to emulate datasets of
//!   different compressibility.

use crate::spectra::SpectralDecay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tucker_exec::ExecContext;
use tucker_linalg::qr::householder_qr_ctx;
use tucker_linalg::Matrix;
use tucker_tensor::{ttm_chain_ctx, DenseTensor, TtmTranspose};

/// Configuration for an exactly-low-rank tensor plus noise.
#[derive(Debug, Clone)]
pub struct NoisyLowRank {
    /// Global tensor dimensions.
    pub dims: Vec<usize>,
    /// Multilinear rank of the noise-free part.
    pub ranks: Vec<usize>,
    /// Relative Frobenius norm of the additive white noise (0 disables noise).
    pub noise_level: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl NoisyLowRank {
    /// Generates the tensor.
    pub fn generate(&self) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = low_rank_from_rng(&mut rng, &self.dims, &self.ranks);
        if self.noise_level > 0.0 {
            let noise = DenseTensor::from_fn(&self.dims, |_| rng.gen_range(-1.0..1.0));
            let scale = self.noise_level * x.norm() / noise.norm().max(1e-300);
            for (xi, ni) in x.as_mut_slice().iter_mut().zip(noise.as_slice()) {
                *xi += scale * ni;
            }
        }
        x
    }
}

/// Generates an exactly low-multilinear-rank tensor from a seed.
pub fn random_low_rank(seed: u64, dims: &[usize], ranks: &[usize]) -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    low_rank_from_rng(&mut rng, dims, ranks)
}

fn low_rank_from_rng(rng: &mut StdRng, dims: &[usize], ranks: &[usize]) -> DenseTensor {
    assert_eq!(dims.len(), ranks.len());
    for (&d, &r) in dims.iter().zip(ranks.iter()) {
        assert!(r >= 1 && r <= d, "rank must satisfy 1 <= r <= dim");
    }
    let core = DenseTensor::from_fn(ranks, |_| rng.gen_range(-1.0..1.0));
    let factors: Vec<Matrix> = dims
        .iter()
        .zip(ranks.iter())
        .map(|(&d, &r)| random_orthonormal(rng, d, r))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    ttm_chain_ctx(
        ExecContext::global(),
        &core,
        &refs,
        TtmTranspose::NoTranspose,
    )
}

/// A random `rows × cols` matrix with orthonormal columns (thin Q of a QR).
pub fn random_orthonormal(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    assert!(cols <= rows, "random_orthonormal: need cols <= rows");
    let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
    householder_qr_ctx(ExecContext::global(), &m).q
}

/// Generates a tensor whose mode-n unfolding has (approximately) the singular
/// value profile `spectra[n]`.
///
/// Construction: full orthonormal factors `Q_n` (size `I_n × I_n`) and a core
/// whose entry at multi-index `(i_1, …, i_N)` is a standard normal draw scaled
/// by `∏_n σ_n(i_n)`. The mode-n Gram matrix of the result then has expected
/// eigenvalues proportional to `σ_n(i)²` (up to the cross-mode constant), so
/// the relative decay per mode — which is what determines compressibility — is
/// exactly the prescribed profile.
pub fn random_tucker_with_spectra(
    seed: u64,
    dims: &[usize],
    spectra: &[SpectralDecay],
) -> DenseTensor {
    assert_eq!(dims.len(), spectra.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let sigmas: Vec<Vec<f64>> = dims
        .iter()
        .zip(spectra.iter())
        .map(|(&d, s)| s.generate(d))
        .collect();
    // Core with per-index scaling.
    let core = DenseTensor::from_fn(dims, |idx| {
        let scale: f64 = idx.iter().enumerate().map(|(n, &i)| sigmas[n][i]).product();
        // Box-Muller-free normal-ish draw: sum of uniforms is close enough and cheap.
        let g: f64 = (0..4).map(|_| rng.gen_range(-0.5..0.5)).sum::<f64>();
        scale * g
    });
    let factors: Vec<Matrix> = dims
        .iter()
        .map(|&d| random_orthonormal(&mut rng, d, d))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    ttm_chain_ctx(
        ExecContext::global(),
        &core,
        &refs,
        TtmTranspose::NoTranspose,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_linalg::eig::sym_eig_desc;
    use tucker_tensor::gram_ctx;

    #[test]
    fn low_rank_tensor_has_exact_rank() {
        let x = random_low_rank(7, &[12, 10, 8], &[3, 2, 4]);
        for (n, &expected) in [3usize, 2, 4].iter().enumerate() {
            let eig = sym_eig_desc(&gram_ctx(ExecContext::global(), &x, n));
            let max = eig.values[0];
            let numerical_rank = eig.values.iter().filter(|&&v| v > 1e-10 * max).count();
            assert_eq!(numerical_rank, expected, "mode {n}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_low_rank(42, &[6, 5, 4], &[2, 2, 2]);
        let b = random_low_rank(42, &[6, 5, 4], &[2, 2, 2]);
        let c = random_low_rank(43, &[6, 5, 4], &[2, 2, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_level_controls_residual() {
        let clean = NoisyLowRank {
            dims: vec![10, 10, 10],
            ranks: vec![2, 2, 2],
            noise_level: 0.0,
            seed: 11,
        }
        .generate();
        let noisy = NoisyLowRank {
            dims: vec![10, 10, 10],
            ranks: vec![2, 2, 2],
            noise_level: 0.1,
            seed: 11,
        }
        .generate();
        let rel = clean.sub(&noisy).norm() / clean.norm();
        assert!((rel - 0.1).abs() < 0.02, "noise level off: {rel}");
    }

    #[test]
    fn orthonormal_factory_produces_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = random_orthonormal(&mut rng, 20, 7);
        assert!(q.has_orthonormal_columns(1e-10));
    }

    #[test]
    fn spectra_control_mode_wise_decay() {
        // Mode 0 decays fast, mode 1 decays slowly: the Gram eigenvalue decay
        // must reflect that ordering.
        let dims = [20usize, 20, 6];
        let spectra = [
            SpectralDecay::Exponential { rate: 1.0 },
            SpectralDecay::Power { exponent: 0.25 },
            SpectralDecay::Exponential { rate: 0.1 },
        ];
        let x = random_tucker_with_spectra(5, &dims, &spectra);
        let decay_at = |mode: usize, k: usize| -> f64 {
            let eig = sym_eig_desc(&gram_ctx(ExecContext::global(), &x, mode));
            eig.values[k].max(1e-300) / eig.values[0]
        };
        // After 10 indices, the fast mode has decayed by orders of magnitude
        // more than the slow mode.
        let fast = decay_at(0, 10);
        let slow = decay_at(1, 10);
        assert!(
            fast < slow * 1e-3,
            "expected mode 0 ({fast:e}) to decay much faster than mode 1 ({slow:e})"
        );
    }

    #[test]
    #[should_panic]
    fn rank_larger_than_dim_panics() {
        random_low_rank(1, &[4, 4], &[5, 2]);
    }
}

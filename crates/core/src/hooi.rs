//! Higher-order orthogonal iteration (HOOI), Alg. 2 of the paper.
//!
//! HOOI is an alternating optimization that refines an initial Tucker
//! decomposition (here the ST-HOSVD). Each outer iteration cycles through the
//! modes: for mode `n`, the tensor is multiplied by every *other* factor
//! transposed, the Gram matrix of the result's mode-n unfolding is formed, and
//! its leading eigenvectors replace `U⁽ⁿ⁾`. The fit is tracked through
//! `‖X‖² − ‖G‖²` (line 10), which decreases monotonically.
//!
//! The algorithm itself lives once, in [`crate::dist`]: [`hooi_ctx`] runs
//! [`crate::dist::try_dist_hooi_ctx`] on the one-rank world, over the input
//! borrowed as that world's only block.

use crate::dist::{self, DistHooiResult};
use crate::sthosvd::SthosvdOptions;
use crate::tucker::TuckerTensor;
use crate::validate::CoreError;
use serde::{Deserialize, Serialize};
use tucker_exec::ExecContext;
use tucker_tensor::DenseTensor;

/// Options controlling HOOI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HooiOptions {
    /// Options for the ST-HOSVD initialization (rank selection + mode order).
    pub init: SthosvdOptions,
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Stop when the decrease of `‖X‖² − ‖G‖²` between outer iterations falls
    /// below this fraction of `‖X‖²`.
    pub fit_tolerance: f64,
}

impl HooiOptions {
    /// Tolerance-driven compression, at most `max_iterations` HOOI sweeps.
    pub fn with_tolerance(eps: f64, max_iterations: usize) -> Self {
        HooiOptions {
            init: SthosvdOptions::with_tolerance(eps),
            max_iterations,
            fit_tolerance: 1e-10,
        }
    }

    /// Fixed ranks, at most `max_iterations` HOOI sweeps.
    pub fn with_ranks(ranks: Vec<usize>, max_iterations: usize) -> Self {
        HooiOptions {
            init: SthosvdOptions::with_ranks(ranks),
            max_iterations,
            fit_tolerance: 1e-10,
        }
    }
}

/// Result of a HOOI run.
#[derive(Debug, Clone)]
pub struct HooiResult {
    /// The refined decomposition.
    pub tucker: TuckerTensor,
    /// The reduced dimensions (fixed after initialization).
    pub ranks: Vec<usize>,
    /// The value of `‖X‖² − ‖G‖²` after initialization and after each outer
    /// iteration (so `fit_history.len() == iterations + 1`).
    pub fit_history: Vec<f64>,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

impl HooiResult {
    /// The relative reconstruction error estimate derived from the final fit:
    /// `sqrt((‖X‖² − ‖G‖²)/‖X‖²)` — exact for orthonormal factors.
    pub fn relative_error_estimate(&self, norm_x_sq: f64) -> f64 {
        let last = *self.fit_history.last().unwrap_or(&0.0);
        if norm_x_sq <= 0.0 {
            0.0
        } else {
            (last.max(0.0) / norm_x_sq).sqrt()
        }
    }

    /// The result of a one-rank run, whose core block is the whole core.
    fn from_one_rank(r: DistHooiResult) -> Self {
        HooiResult {
            tucker: TuckerTensor::new(r.tucker.core.into_local(), r.tucker.factors),
            ranks: r.ranks,
            fit_history: r.fit_history,
            iterations: r.iterations,
        }
    }
}

/// Computes a Tucker decomposition by HOOI (Alg. 2), initialized with
/// ST-HOSVD, on the global execution context.
pub fn hooi(x: &DenseTensor, opts: &HooiOptions) -> HooiResult {
    hooi_ctx(x, opts, ExecContext::global())
}

/// [`hooi`] on an explicit execution context. The TTM intermediates of every
/// factor update are recycled through a workspace (see
/// [`crate::dist::try_dist_hooi_ctx`]). Results are bit-identical across
/// thread counts.
///
/// # Panics
/// Panics on structurally invalid input (see
/// [`crate::sthosvd::st_hosvd`]); use [`try_hooi_ctx`] for a
/// [`CoreError`] instead.
pub fn hooi_ctx(x: &DenseTensor, opts: &HooiOptions, ctx: &ExecContext) -> HooiResult {
    crate::valid_or_panic("hooi", try_hooi_ctx(x, opts, ctx))
}

/// Fallible [`hooi_ctx`]: validates the initialization options (shape, mode
/// order, rank selection) and returns a [`CoreError`] instead of panicking.
/// On valid input the result is the same, bit for bit.
pub fn try_hooi_ctx(
    x: &DenseTensor,
    opts: &HooiOptions,
    ctx: &ExecContext,
) -> Result<HooiResult, CoreError> {
    dist::on_one_rank(x, |comm, dx| dist::try_dist_hooi_ctx(comm, dx, opts, ctx))
        .map(HooiResult::from_one_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::st_hosvd;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_linalg::Matrix;
    use tucker_tensor::{normalized_rms_error, ttm_chain, TtmTranspose};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    fn low_rank_plus_noise(
        rng: &mut StdRng,
        dims: &[usize],
        ranks: &[usize],
        noise: f64,
    ) -> DenseTensor {
        let core = DenseTensor::from_fn(ranks, |_| rng.gen_range(-1.0..1.0));
        let factors: Vec<Matrix> = dims
            .iter()
            .zip(ranks.iter())
            .map(|(&d, &r)| {
                let m = Matrix::from_fn(d, r, |_, _| rng.gen_range(-1.0..1.0));
                tucker_linalg::qr::householder_qr(&m).q
            })
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let mut x = ttm_chain(&core, &refs, TtmTranspose::NoTranspose);
        if noise > 0.0 {
            let xnorm = x.norm();
            let e = random_tensor(rng, dims);
            let scale = noise * xnorm / e.norm();
            for (xi, ei) in x.as_mut_slice().iter_mut().zip(e.as_slice()) {
                *xi += scale * ei;
            }
        }
        x
    }

    #[test]
    fn exact_low_rank_recovery() {
        let mut rng = StdRng::seed_from_u64(90);
        let x = low_rank_plus_noise(&mut rng, &[10, 9, 8], &[3, 3, 3], 0.0);
        let result = hooi(&x, &HooiOptions::with_tolerance(1e-6, 3));
        let rec = result.tucker.reconstruct();
        assert!(normalized_rms_error(&x, &rec) < 1e-6);
        assert_eq!(result.ranks, vec![3, 3, 3]);
    }

    #[test]
    fn fit_decreases_monotonically() {
        let mut rng = StdRng::seed_from_u64(91);
        let x = low_rank_plus_noise(&mut rng, &[10, 10, 10], &[3, 3, 3], 0.3);
        let result = hooi(&x, &HooiOptions::with_ranks(vec![3, 3, 3], 6));
        for w in result.fit_history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * x.norm_sq(),
                "fit increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn hooi_not_worse_than_sthosvd() {
        let mut rng = StdRng::seed_from_u64(92);
        let x = low_rank_plus_noise(&mut rng, &[12, 10, 9], &[4, 3, 3], 0.5);
        let st = st_hosvd(&x, &SthosvdOptions::with_ranks(vec![4, 3, 3]));
        let ho = hooi(&x, &HooiOptions::with_ranks(vec![4, 3, 3], 5));
        let st_err = normalized_rms_error(&x, &st.tucker.reconstruct());
        let ho_err = normalized_rms_error(&x, &ho.tucker.reconstruct());
        assert!(ho_err <= st_err + 1e-10);
    }

    #[test]
    fn fit_matches_reconstruction_error() {
        // ‖X‖² − ‖G‖² == ‖X − G × {U}‖² for orthonormal factors.
        let mut rng = StdRng::seed_from_u64(93);
        let x = low_rank_plus_noise(&mut rng, &[9, 8, 7], &[3, 3, 3], 0.4);
        let result = hooi(&x, &HooiOptions::with_ranks(vec![3, 3, 3], 3));
        let rec = result.tucker.reconstruct();
        let direct = x.sub(&rec).norm_sq();
        let fit = *result.fit_history.last().unwrap();
        assert!((direct - fit).abs() < 1e-8 * x.norm_sq());
    }

    #[test]
    fn zero_iterations_allowed() {
        let mut rng = StdRng::seed_from_u64(94);
        let x = random_tensor(&mut rng, &[6, 6, 6]);
        let result = hooi(&x, &HooiOptions::with_ranks(vec![2, 2, 2], 0));
        assert_eq!(result.iterations, 0);
        assert_eq!(result.fit_history.len(), 1);
        // Result equals the ST-HOSVD initialization.
        let st = st_hosvd(&x, &SthosvdOptions::with_ranks(vec![2, 2, 2]));
        let a = result.tucker.reconstruct();
        let b = st.tucker.reconstruct();
        assert!(normalized_rms_error(&a, &b) < 1e-12);
    }

    #[test]
    fn converges_early_when_fit_stalls() {
        let mut rng = StdRng::seed_from_u64(95);
        let x = low_rank_plus_noise(&mut rng, &[8, 8, 8], &[2, 2, 2], 0.0);
        let result = hooi(&x, &HooiOptions::with_tolerance(1e-10, 50));
        // Exact low-rank data converges immediately; far fewer than 50 sweeps.
        assert!(result.iterations <= 3);
    }

    #[test]
    fn relative_error_estimate_matches_actual() {
        let mut rng = StdRng::seed_from_u64(96);
        let x = low_rank_plus_noise(&mut rng, &[9, 9, 9], &[3, 3, 3], 0.2);
        let result = hooi(&x, &HooiOptions::with_ranks(vec![3, 3, 3], 4));
        let actual = normalized_rms_error(&x, &result.tucker.reconstruct());
        let estimate = result.relative_error_estimate(x.norm_sq());
        assert!((actual - estimate).abs() < 1e-6 * (1.0 + actual));
    }

    #[test]
    fn factors_remain_orthonormal() {
        let mut rng = StdRng::seed_from_u64(97);
        let x = random_tensor(&mut rng, &[8, 7, 6]);
        let result = hooi(&x, &HooiOptions::with_ranks(vec![3, 3, 3], 3));
        assert!(result.tucker.factors_orthonormal(1e-8));
    }
}

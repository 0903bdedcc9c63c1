//! Sequentially-truncated higher-order SVD (ST-HOSVD), Alg. 1 of the paper.
//!
//! For each mode (in a configurable order) the algorithm forms the Gram matrix
//! of the current tensor's unfolding, takes its leading eigenvectors as the
//! factor matrix, and immediately shrinks the tensor by a transposed TTM. The
//! truncation of earlier modes makes later modes cheaper — the property the
//! mode-ordering experiments (Fig. 8b) exploit.
//!
//! The algorithm itself lives once, in [`crate::dist`]: [`st_hosvd_ctx`]
//! validates its input and runs [`crate::dist::try_dist_st_hosvd_ctx`] on the
//! one-rank world, over the input borrowed as that world's only block. The
//! input is therefore read in place: the first processed mode's Gram and TTM
//! read the borrowed `x`, and only already-shrunk tensors are ever owned.
//! Peak memory is about the input plus the first mode's TTM output (plus,
//! briefly, the next mode's smaller output) — never a second copy of the
//! input.

use crate::dist::{self, DistSthosvdResult};
use crate::ordering::ModeOrder;
use crate::rank::RankSelection;
use crate::tucker::TuckerTensor;
use crate::validate::CoreError;
use serde::{Deserialize, Serialize};
use tucker_exec::ExecContext;
use tucker_tensor::DenseTensor;

/// Options controlling ST-HOSVD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SthosvdOptions {
    /// How the reduced dimensions are chosen.
    pub rank: RankSelection,
    /// The order in which modes are processed.
    pub order: ModeOrder,
}

impl SthosvdOptions {
    /// Tolerance-driven compression with the natural mode order — the paper's
    /// default configuration.
    pub fn with_tolerance(eps: f64) -> Self {
        SthosvdOptions {
            rank: RankSelection::Tolerance(eps),
            order: ModeOrder::Natural,
        }
    }

    /// Fixed target ranks with the natural mode order (used by the performance
    /// experiments of Sec. VIII).
    pub fn with_ranks(ranks: Vec<usize>) -> Self {
        SthosvdOptions {
            rank: RankSelection::Fixed(ranks),
            order: ModeOrder::Natural,
        }
    }

    /// Replaces the mode-processing order.
    pub fn order(mut self, order: ModeOrder) -> Self {
        self.order = order;
        self
    }
}

/// The result of an ST-HOSVD run.
#[derive(Debug, Clone)]
pub struct SthosvdResult {
    /// The computed decomposition.
    pub tucker: TuckerTensor,
    /// The reduced dimension chosen in each mode (indexed by mode, not by
    /// processing order).
    pub ranks: Vec<usize>,
    /// The descending Gram eigenvalues observed in each mode at the time that
    /// mode was processed (indexed by mode).
    pub mode_eigenvalues: Vec<Vec<f64>>,
    /// The sum of discarded eigenvalues over all modes — the quantity bounded
    /// by `ε²‖X‖²` in eq. (3); its square root over `‖X‖` is an a-priori bound
    /// on the relative reconstruction error.
    pub discarded_energy: f64,
    /// `‖X‖²` of the input tensor: the trace of the first processed mode's
    /// Gram, summed over the diagonal in ascending order.
    pub norm_x_sq: f64,
    /// The order in which modes were processed.
    pub processed_order: Vec<usize>,
}

impl SthosvdResult {
    /// The a-priori bound on the normalized RMS error implied by the discarded
    /// eigenvalues (eq. (3)): `sqrt(Σ discarded) / ‖X‖`.
    pub fn error_bound(&self) -> f64 {
        if self.norm_x_sq <= 0.0 {
            return 0.0;
        }
        (self.discarded_energy.max(0.0) / self.norm_x_sq).sqrt()
    }

    /// The result of a one-rank run, whose core block is the whole core.
    fn from_one_rank(r: DistSthosvdResult) -> Self {
        SthosvdResult {
            tucker: TuckerTensor::new(r.tucker.core.into_local(), r.tucker.factors),
            ranks: r.ranks,
            mode_eigenvalues: r.mode_eigenvalues,
            discarded_energy: r.discarded_energy,
            norm_x_sq: r.norm_x_sq,
            processed_order: r.processed_order,
        }
    }
}

/// Computes the ST-HOSVD of `x` (Alg. 1) on the global execution context.
///
/// # Panics
/// Panics on structurally invalid input (empty/zero-extent shape, fixed
/// ranks exceeding the mode dims, a non-permutation custom order); use
/// [`try_st_hosvd_ctx`] for a [`CoreError`] instead.
pub fn st_hosvd(x: &DenseTensor, opts: &SthosvdOptions) -> SthosvdResult {
    st_hosvd_ctx(x, opts, ExecContext::global())
}

/// [`st_hosvd`] on an explicit execution context: the Gram and TTM kernels of
/// every mode run on the context's share of the process pool. Results are
/// bit-identical for every thread count (see `docs/ARCHITECTURE.md` §4).
///
/// # Panics
/// Panics on structurally invalid input; use [`try_st_hosvd_ctx`] for a
/// [`CoreError`] instead.
pub fn st_hosvd_ctx(x: &DenseTensor, opts: &SthosvdOptions, ctx: &ExecContext) -> SthosvdResult {
    crate::valid_or_panic("st_hosvd", try_st_hosvd_ctx(x, opts, ctx))
}

/// Fallible [`st_hosvd_ctx`]: validates the input shape, mode order, and rank
/// selection, returning a [`CoreError`] instead of panicking. On valid input
/// the result is the same, bit for bit.
pub fn try_st_hosvd_ctx(
    x: &DenseTensor,
    opts: &SthosvdOptions,
    ctx: &ExecContext,
) -> Result<SthosvdResult, CoreError> {
    dist::on_one_rank(x, |comm, dx| {
        dist::try_dist_st_hosvd_ctx(comm, dx, opts, ctx)
    })
    .map(SthosvdResult::from_one_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_linalg::Matrix;
    use tucker_tensor::{normalized_rms_error, ttm_chain, TtmTranspose};

    /// Builds an exactly low-rank tensor: random core × random orthonormal factors.
    fn low_rank_tensor(rng: &mut StdRng, dims: &[usize], ranks: &[usize]) -> DenseTensor {
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
        ttm_chain(&core, &refs, TtmTranspose::NoTranspose)
    }

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn exact_recovery_of_low_rank_tensor() {
        // Note: ε cannot be pushed to machine precision with the Gram-matrix
        // approach (the paper's Sec. II-B / IX caveat), so use 1e-6.
        let mut rng = StdRng::seed_from_u64(70);
        let x = low_rank_tensor(&mut rng, &[12, 10, 8], &[3, 4, 2]);
        let result = st_hosvd(&x, &SthosvdOptions::with_tolerance(1e-6));
        assert_eq!(result.ranks, vec![3, 4, 2]);
        let rec = result.tucker.reconstruct();
        assert!(normalized_rms_error(&x, &rec) < 1e-6);
    }

    #[test]
    fn fixed_ranks_are_respected() {
        let mut rng = StdRng::seed_from_u64(71);
        let x = random_tensor(&mut rng, &[10, 9, 8]);
        let result = st_hosvd(&x, &SthosvdOptions::with_ranks(vec![4, 3, 2]));
        assert_eq!(result.ranks, vec![4, 3, 2]);
        assert_eq!(result.tucker.core.dims(), &[4, 3, 2]);
        assert_eq!(result.tucker.factors[0].shape(), (10, 4));
    }

    #[test]
    fn error_bound_holds_for_random_data() {
        // eq. (3): the actual reconstruction error is bounded by the bound
        // derived from discarded eigenvalues, and also by eps itself.
        let mut rng = StdRng::seed_from_u64(72);
        let x = random_tensor(&mut rng, &[12, 11, 10]);
        for eps in [0.5, 0.2, 0.05] {
            let result = st_hosvd(&x, &SthosvdOptions::with_tolerance(eps));
            let rec = result.tucker.reconstruct();
            let err = normalized_rms_error(&x, &rec);
            assert!(
                err <= result.error_bound() + 1e-10,
                "error {err} exceeds bound {}",
                result.error_bound()
            );
            assert!(err <= eps + 1e-10, "error {err} exceeds tolerance {eps}");
        }
    }

    #[test]
    fn tighter_tolerance_gives_larger_ranks() {
        let mut rng = StdRng::seed_from_u64(73);
        let x = random_tensor(&mut rng, &[14, 12, 10]);
        let loose = st_hosvd(&x, &SthosvdOptions::with_tolerance(0.5));
        let tight = st_hosvd(&x, &SthosvdOptions::with_tolerance(0.01));
        for n in 0..3 {
            assert!(tight.ranks[n] >= loose.ranks[n]);
        }
    }

    #[test]
    fn factors_have_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(74);
        let x = random_tensor(&mut rng, &[9, 8, 7]);
        let result = st_hosvd(&x, &SthosvdOptions::with_ranks(vec![4, 4, 4]));
        assert!(result.tucker.factors_orthonormal(1e-8));
    }

    #[test]
    fn mode_order_does_not_change_exact_recovery() {
        let mut rng = StdRng::seed_from_u64(75);
        let x = low_rank_tensor(&mut rng, &[10, 8, 9], &[2, 3, 2]);
        for order in [
            ModeOrder::Natural,
            ModeOrder::Custom(vec![2, 0, 1]),
            ModeOrder::LargestFirst,
            ModeOrder::SmallestFirst,
        ] {
            let opts = SthosvdOptions::with_tolerance(1e-6).order(order);
            let result = st_hosvd(&x, &opts);
            let rec = result.tucker.reconstruct();
            assert!(normalized_rms_error(&x, &rec) < 1e-6);
            assert_eq!(result.ranks, vec![2, 3, 2]);
        }
    }

    #[test]
    fn eigenvalues_are_recorded_per_mode() {
        let mut rng = StdRng::seed_from_u64(76);
        let x = random_tensor(&mut rng, &[6, 5, 4]);
        let result = st_hosvd(&x, &SthosvdOptions::with_tolerance(0.1));
        // The first processed mode sees the full tensor: its eigenvalues sum to ‖X‖².
        let first = result.processed_order[0];
        let sum: f64 = result.mode_eigenvalues[first].iter().sum();
        assert!((sum - x.norm_sq()).abs() < 1e-8 * x.norm_sq());
        for n in 0..3 {
            assert_eq!(result.mode_eigenvalues[n].len(), x.dim(n));
        }
    }

    #[test]
    fn core_norm_tracks_captured_energy() {
        // ‖X‖² − ‖G‖² equals the energy discarded across modes (approximately,
        // and exactly bounded by it).
        let mut rng = StdRng::seed_from_u64(77);
        let x = random_tensor(&mut rng, &[8, 8, 8]);
        let result = st_hosvd(&x, &SthosvdOptions::with_tolerance(0.3));
        let lost = x.norm_sq() - result.tucker.core.norm_sq();
        assert!(lost >= -1e-9);
        assert!(lost <= result.discarded_energy + 1e-9 * x.norm_sq());
    }

    #[test]
    fn compression_ratio_improves_with_looser_tolerance() {
        let mut rng = StdRng::seed_from_u64(78);
        // A tensor with decaying spectrum so tolerance actually changes ranks.
        let base = low_rank_tensor(&mut rng, &[16, 14, 12], &[5, 5, 5]);
        let noise = random_tensor(&mut rng, &[16, 14, 12]);
        let mut x = base.clone();
        let scale = 1e-3 * base.norm() / noise.norm();
        for (xi, ni) in x.as_mut_slice().iter_mut().zip(noise.as_slice()) {
            *xi += scale * ni;
        }
        let loose = st_hosvd(&x, &SthosvdOptions::with_tolerance(1e-1));
        let tight = st_hosvd(&x, &SthosvdOptions::with_tolerance(1e-6));
        assert!(
            loose.tucker.compression_ratio(x.dims()) >= tight.tucker.compression_ratio(x.dims())
        );
    }
}

//! Truncated higher-order SVD (T-HOSVD) — the classical baseline.
//!
//! Unlike ST-HOSVD, the T-HOSVD computes every factor matrix from the Gram
//! matrix of the *original* tensor's unfoldings (no sequential truncation), and
//! only then forms the core. It is never cheaper than ST-HOSVD but its error
//! analysis (De Lathauwer et al.) underlies the rank-selection rule and the
//! error bound eq. (3), which is why the paper uses it as the reference point
//! in Sec. VII-B. It also provides the mode-wise eigenvalue spectra of the
//! original tensor used for the Fig. 6 curves.

use crate::rank::{discarded_tail, RankSelection};
use crate::tucker::TuckerTensor;
use tucker_linalg::eig::sym_eig_desc;
use tucker_linalg::Matrix;
use tucker_tensor::{gram, multi_ttm, DenseTensor, TtmTranspose};

/// Result of a T-HOSVD computation.
#[derive(Debug, Clone)]
pub struct ThosvdResult {
    /// The computed decomposition.
    pub tucker: TuckerTensor,
    /// The chosen reduced dimensions, per mode.
    pub ranks: Vec<usize>,
    /// The descending eigenvalues of the Gram matrix of each mode's unfolding
    /// of the **original** tensor (exactly the spectra plotted in Fig. 6).
    pub mode_eigenvalues: Vec<Vec<f64>>,
    /// Total discarded eigenvalue energy, Σₙ Σ_{i>Rₙ} λ⁽ⁿ⁾ᵢ.
    pub discarded_energy: f64,
    /// `‖X‖²` of the input: the trace of the mode-0 Gram.
    pub norm_x_sq: f64,
}

impl ThosvdResult {
    /// The a-priori error bound of eq. (3): `‖X − X̃‖ ≤ sqrt(Σ discarded)`,
    /// normalized by `‖X‖`.
    pub fn error_bound(&self) -> f64 {
        if self.norm_x_sq <= 0.0 {
            return 0.0;
        }
        (self.discarded_energy.max(0.0) / self.norm_x_sq).sqrt()
    }
}

/// Computes the T-HOSVD of `x` with the given rank-selection rule.
pub fn t_hosvd(x: &DenseTensor, rank: &RankSelection) -> ThosvdResult {
    let nmodes = x.ndims();
    // ‖X‖² is the trace of the mode-0 Gram, set before its rank selection.
    let mut norm_x_sq = 0.0;

    let mut factors: Vec<Matrix> = Vec::with_capacity(nmodes);
    let mut ranks = Vec::with_capacity(nmodes);
    let mut mode_eigenvalues = Vec::with_capacity(nmodes);
    let mut discarded_energy = 0.0;

    // Every factor comes from the original tensor.
    for n in 0..nmodes {
        let s = gram(x, n);
        if n == 0 {
            norm_x_sq = s.trace();
        }
        let eig = sym_eig_desc(&s);
        let r = rank.select(n, &eig.values, norm_x_sq, nmodes);
        discarded_energy += discarded_tail(&eig.values, r);
        factors.push(eig.leading_vectors(r));
        ranks.push(r);
        mode_eigenvalues.push(eig.values);
    }

    // Core: G = X ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ.
    let opts: Vec<Option<&Matrix>> = factors.iter().map(Some).collect();
    let order: Vec<usize> = (0..nmodes).collect();
    let core = multi_ttm(x, &opts, TtmTranspose::Transpose, &order);

    ThosvdResult {
        tucker: TuckerTensor::new(core, factors),
        ranks,
        mode_eigenvalues,
        discarded_energy,
        norm_x_sq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::{st_hosvd, SthosvdOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_tensor::{normalized_rms_error, ttm_chain};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

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

    #[test]
    fn exact_recovery_of_low_rank_tensor() {
        let mut rng = StdRng::seed_from_u64(80);
        let x = low_rank_tensor(&mut rng, &[10, 9, 8], &[3, 2, 4]);
        let result = t_hosvd(&x, &RankSelection::Tolerance(1e-6));
        assert_eq!(result.ranks, vec![3, 2, 4]);
        let rec = result.tucker.reconstruct();
        assert!(normalized_rms_error(&x, &rec) < 1e-6);
    }

    #[test]
    fn error_bound_eq3_holds() {
        let mut rng = StdRng::seed_from_u64(81);
        let x = random_tensor(&mut rng, &[10, 10, 10]);
        for eps in [0.6, 0.3, 0.1] {
            let result = t_hosvd(&x, &RankSelection::Tolerance(eps));
            let rec = result.tucker.reconstruct();
            let err = normalized_rms_error(&x, &rec);
            assert!(err <= result.error_bound() + 1e-10);
            assert!(err <= eps + 1e-10);
        }
    }

    #[test]
    fn sthosvd_error_not_worse_than_thosvd_bound() {
        // The paper (Sec. VII-B) notes the ST-HOSVD error is bounded above by
        // the T-HOSVD bound when using the same ranks.
        let mut rng = StdRng::seed_from_u64(82);
        let x = random_tensor(&mut rng, &[9, 9, 9]);
        let th = t_hosvd(&x, &RankSelection::Fixed(vec![4, 4, 4]));
        let st = st_hosvd(&x, &SthosvdOptions::with_ranks(vec![4, 4, 4]));
        let th_err = normalized_rms_error(&x, &th.tucker.reconstruct());
        let st_err = normalized_rms_error(&x, &st.tucker.reconstruct());
        assert!(st_err <= th.error_bound() + 1e-10);
        // Both are valid approximations of comparable quality.
        assert!(th_err < 1.0 && st_err < 1.0);
    }

    #[test]
    fn mode_eigenvalues_sum_to_norm_squared() {
        let mut rng = StdRng::seed_from_u64(83);
        let x = random_tensor(&mut rng, &[7, 6, 5]);
        let result = t_hosvd(&x, &RankSelection::Fixed(vec![7, 6, 5]));
        for ev in &result.mode_eigenvalues {
            let sum: f64 = ev.iter().sum();
            assert!((sum - x.norm_sq()).abs() < 1e-8 * x.norm_sq());
        }
    }

    #[test]
    fn full_rank_thosvd_is_exact() {
        let mut rng = StdRng::seed_from_u64(84);
        let x = random_tensor(&mut rng, &[5, 6, 4]);
        let result = t_hosvd(&x, &RankSelection::Fixed(vec![5, 6, 4]));
        let rec = result.tucker.reconstruct();
        assert!(normalized_rms_error(&x, &rec) < 1e-10);
        assert!((result.error_bound()).abs() < 1e-7);
    }
}

//! Rank selection for the Tucker decomposition.
//!
//! The paper drives compression by a user-specified relative error tolerance ε:
//! Alg. 1 line 5 picks, in each mode, the smallest `R_n` such that the sum of
//! the discarded Gram eigenvalues is at most `ε²‖X‖²/N`. Fixed ranks and
//! maximum-rank caps are also supported (the performance experiments of
//! Sec. VIII use fixed ranks).

/// How the reduced dimensions `R_n` are chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum RankSelection {
    /// Use exactly these ranks (clamped to the mode sizes).
    Fixed(Vec<usize>),
    /// Choose each `R_n` from the relative error tolerance ε via the
    /// eigenvalue-tail rule of Alg. 1 line 5.
    Tolerance(f64),
    /// Tolerance-driven selection, but never exceed the given per-mode caps.
    ToleranceWithMax(f64, Vec<usize>),
}

impl RankSelection {
    /// The error tolerance carried by this selection (0 for fixed ranks).
    pub fn tolerance(&self) -> f64 {
        match self {
            RankSelection::Fixed(_) => 0.0,
            RankSelection::Tolerance(eps) | RankSelection::ToleranceWithMax(eps, _) => *eps,
        }
    }

    /// Chooses the rank for mode `n` given the descending eigenvalues of the
    /// current Gram matrix, the squared norm of the **original** tensor, and
    /// the number of modes `n_modes`.
    pub fn select(
        &self,
        mode: usize,
        eigenvalues_desc: &[f64],
        norm_x_sq: f64,
        n_modes: usize,
    ) -> usize {
        match self {
            RankSelection::Fixed(ranks) => ranks[mode].min(eigenvalues_desc.len()).max(1),
            RankSelection::Tolerance(eps) => {
                let threshold = eps * eps * norm_x_sq / n_modes as f64;
                select_rank_by_threshold(eigenvalues_desc, threshold)
            }
            RankSelection::ToleranceWithMax(eps, caps) => {
                let threshold = eps * eps * norm_x_sq / n_modes as f64;
                select_rank_by_threshold(eigenvalues_desc, threshold)
                    .min(caps[mode])
                    .max(1)
            }
        }
    }
}

/// Returns the smallest `R` such that the sum of `eigenvalues_desc[R..]` is at
/// most `threshold` (Alg. 1 line 5). Eigenvalues must be sorted in descending
/// order; tiny negative values (numerical noise from the eigensolver) are
/// clamped to zero. Always returns at least 1.
pub fn select_rank_by_threshold(eigenvalues_desc: &[f64], threshold: f64) -> usize {
    let n = eigenvalues_desc.len();
    if n == 0 {
        return 1;
    }
    // Cumulative tail sums from the back.
    let mut tail = 0.0f64;
    let mut rank = n;
    // Walk from the smallest eigenvalue: while dropping the next one keeps the
    // discarded sum within the threshold, reduce the rank.
    for r in (1..=n).rev() {
        let lambda = eigenvalues_desc[r - 1].max(0.0);
        if tail + lambda <= threshold && r > 1 {
            tail += lambda;
            rank = r - 1;
        } else {
            break;
        }
    }
    rank.max(1)
}

/// The sum of the discarded eigenvalues for a chosen rank (used to assemble the
/// a-priori error bound of eq. (3)).
pub fn discarded_tail(eigenvalues_desc: &[f64], rank: usize) -> f64 {
    eigenvalues_desc[rank.min(eigenvalues_desc.len())..]
        .iter()
        .map(|&v| v.max(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_when_threshold_zero() {
        let ev = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(select_rank_by_threshold(&ev, 0.0), 4);
    }

    #[test]
    fn drops_small_tail() {
        let ev = [100.0, 10.0, 0.5, 0.4];
        // tail {0.4} = 0.4 <= 1.0, tail {0.5,0.4} = 0.9 <= 1.0, adding 10 exceeds.
        assert_eq!(select_rank_by_threshold(&ev, 1.0), 2);
    }

    #[test]
    fn boundary_is_inclusive() {
        let ev = [10.0, 1.0, 1.0];
        assert_eq!(select_rank_by_threshold(&ev, 2.0), 1);
        assert_eq!(select_rank_by_threshold(&ev, 1.9999), 2);
    }

    #[test]
    fn never_returns_zero() {
        let ev = [1e-20, 1e-21];
        assert_eq!(select_rank_by_threshold(&ev, 1.0), 1);
        assert_eq!(select_rank_by_threshold(&[], 1.0), 1);
    }

    #[test]
    fn negative_noise_is_clamped() {
        let ev = [5.0, 1.0, -1e-14];
        assert_eq!(select_rank_by_threshold(&ev, 0.5), 2);
    }

    #[test]
    fn fixed_selection_clamps_to_available() {
        let sel = RankSelection::Fixed(vec![10, 2]);
        assert_eq!(sel.select(0, &[1.0, 1.0, 1.0], 3.0, 2), 3);
        assert_eq!(sel.select(1, &[1.0, 1.0, 1.0], 3.0, 2), 2);
    }

    #[test]
    fn tolerance_selection_uses_norm_and_mode_count() {
        // eps^2 * ||X||^2 / N = 0.01 * 100 / 2 = 0.5
        let sel = RankSelection::Tolerance(0.1);
        let ev = [90.0, 9.0, 0.6, 0.4];
        assert_eq!(sel.select(0, &ev, 100.0, 2), 3);
        // With a looser tolerance the threshold is 50: drop 0.4+0.6+9.0 = 10 <= 50.
        let sel2 = RankSelection::Tolerance(1.0);
        assert_eq!(sel2.select(0, &ev, 100.0, 2), 1);
    }

    #[test]
    fn tolerance_with_max_caps_rank() {
        let sel = RankSelection::ToleranceWithMax(1e-12, vec![2]);
        let ev = [10.0, 5.0, 3.0, 2.0];
        assert_eq!(sel.select(0, &ev, 20.0, 1), 2);
    }

    #[test]
    fn discarded_tail_sums_tail() {
        let ev = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(discarded_tail(&ev, 2), 3.0);
        assert_eq!(discarded_tail(&ev, 4), 0.0);
        assert_eq!(discarded_tail(&ev, 10), 0.0);
    }

    #[test]
    fn tolerance_accessor() {
        assert_eq!(RankSelection::Fixed(vec![1]).tolerance(), 0.0);
        assert_eq!(RankSelection::Tolerance(1e-3).tolerance(), 1e-3);
    }
}

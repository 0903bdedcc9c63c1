//! Error analysis and compression metrics (Sec. VII-B of the paper).
//!
//! The compressibility of a dataset is governed by the decay of the mode-wise
//! Gram eigenvalues `λ⁽ⁿ⁾ᵢ` of the original tensor. This module computes:
//!
//! * **mode-wise error curves** (Fig. 6): for each mode `n` and candidate rank
//!   `R`, the normalized tail `sqrt(Σ_{i>R} λ⁽ⁿ⁾ᵢ)/‖X‖`;
//! * the **a-priori error bound** of eq. (3);
//! * the **compression ratio** formula `C = ∏I_n / (∏R_n + ΣI_n·R_n)`;
//! * the rank vector implied by a tolerance ε, read off the error curves —
//!   exactly how the paper annotates Fig. 6 with the `ε/√N` threshold line.

use tucker_exec::ExecContext;
use tucker_linalg::eig::sym_eig_desc;
use tucker_tensor::{gram_ctx, DenseTensor};

/// The mode-wise error curve of one tensor mode (one line of Fig. 6).
#[derive(Debug, Clone)]
pub struct ModeErrorCurve {
    /// The mode this curve describes.
    pub mode: usize,
    /// Descending eigenvalues of the Gram matrix `X(n)·X(n)ᵀ`.
    pub eigenvalues: Vec<f64>,
    /// `tail_error[r] = sqrt(Σ_{i ≥ r} λᵢ)/‖X‖` for `r = 0 … I_n` — the
    /// normalized mode-wise RMS error if the mode were truncated to rank `r`.
    pub tail_error: Vec<f64>,
}

impl ModeErrorCurve {
    /// The smallest rank whose tail error is at most `threshold` (the
    /// intersection of the curve with the dotted `ε/√N` line in Fig. 6).
    pub fn rank_for_threshold(&self, threshold: f64) -> usize {
        for (r, &err) in self.tail_error.iter().enumerate() {
            if err <= threshold {
                return r.max(1);
            }
        }
        self.eigenvalues.len()
    }
}

/// Computes the mode-wise error curves of a tensor (the data behind Fig. 6).
pub fn mode_wise_error_curves(x: &DenseTensor) -> Vec<ModeErrorCurve> {
    let norm = x.norm();
    (0..x.ndims())
        .map(|n| {
            let s = gram_ctx(ExecContext::global(), x, n);
            let eig = sym_eig_desc(&s);
            let eigenvalues: Vec<f64> = eig.values.iter().map(|&v| v.max(0.0)).collect();
            let tail_error = tail_errors(&eigenvalues, norm);
            ModeErrorCurve {
                mode: n,
                eigenvalues,
                tail_error,
            }
        })
        .collect()
}

/// Converts descending eigenvalues into normalized tail errors
/// `tail[r] = sqrt(Σ_{i ≥ r} λᵢ)/‖X‖` for `r = 0 … len`.
fn tail_errors(eigenvalues_desc: &[f64], norm_x: f64) -> Vec<f64> {
    let n = eigenvalues_desc.len();
    let mut tails = vec![0.0f64; n + 1];
    let mut acc = 0.0;
    for r in (0..n).rev() {
        acc += eigenvalues_desc[r].max(0.0);
        tails[r] = acc;
    }
    let denom = if norm_x > 0.0 { norm_x } else { 1.0 };
    tails.iter().map(|&t| t.sqrt() / denom).collect()
}

/// The a-priori bound of eq. (3): given per-mode eigenvalues and chosen ranks,
/// `‖X − X̃‖² ≤ Σ_n Σ_{i > R_n} λ⁽ⁿ⁾ᵢ`; returns the normalized bound
/// `sqrt(Σ…)/‖X‖`.
pub fn error_bound(curves: &[ModeErrorCurve], ranks: &[usize], norm_x: f64) -> f64 {
    assert_eq!(curves.len(), ranks.len(), "error_bound: arity mismatch");
    let mut total = 0.0;
    for (curve, &r) in curves.iter().zip(ranks.iter()) {
        total += curve.eigenvalues[r.min(curve.eigenvalues.len())..]
            .iter()
            .map(|&v| v.max(0.0))
            .sum::<f64>();
    }
    if norm_x > 0.0 {
        total.sqrt() / norm_x
    } else {
        0.0
    }
}

/// Ranks implied by a relative error tolerance ε, read off the mode-wise curves
/// with the paper's per-mode threshold `ε/√N`.
pub fn ranks_for_tolerance(curves: &[ModeErrorCurve], eps: f64) -> Vec<usize> {
    let n = curves.len() as f64;
    let threshold = eps / n.sqrt();
    curves
        .iter()
        .map(|c| c.rank_for_threshold(threshold))
        .collect()
}

/// The compression ratio `C = ∏ I_n / (∏ R_n + Σ I_n·R_n)` (Sec. VII-B).
pub fn compression_ratio(original_dims: &[usize], ranks: &[usize]) -> f64 {
    assert_eq!(original_dims.len(), ranks.len());
    let full: f64 = original_dims.iter().map(|&d| d as f64).product();
    let core: f64 = ranks.iter().map(|&r| r as f64).product();
    let factors: f64 = original_dims
        .iter()
        .zip(ranks.iter())
        .map(|(&d, &r)| (d * r) as f64)
        .sum();
    full / (core + factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::{try_st_hosvd_ctx, SthosvdOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_tensor::normalized_rms_error;

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn tail_errors_are_decreasing_and_start_at_one() {
        let mut rng = StdRng::seed_from_u64(110);
        let x = random_tensor(&mut rng, &[8, 7, 6]);
        for curve in mode_wise_error_curves(&x) {
            // tail[0] = ‖X‖/‖X‖ = 1 (all energy discarded).
            assert!((curve.tail_error[0] - 1.0).abs() < 1e-8);
            // tail[I_n] = 0 (nothing discarded).
            assert!(curve.tail_error.last().unwrap().abs() < 1e-8);
            for w in curve.tail_error.windows(2) {
                assert!(w[1] <= w[0] + 1e-12);
            }
        }
    }

    #[test]
    fn rank_for_threshold_crossing() {
        let curve = ModeErrorCurve {
            mode: 0,
            eigenvalues: vec![9.0, 0.9, 0.09, 0.01],
            tail_error: tail_errors(&[9.0, 0.9, 0.09, 0.01], 10.0f64.sqrt()),
        };
        // tail[0]=1.0, tail[1]≈0.316, tail[2]=0.1, tail[3]≈0.0316, tail[4]=0.
        assert_eq!(curve.rank_for_threshold(1.1), 1);
        assert_eq!(curve.rank_for_threshold(0.05), 3);
        assert_eq!(curve.rank_for_threshold(0.15), 2);
        assert_eq!(curve.rank_for_threshold(1e-9), 4);
    }

    #[test]
    fn error_bound_dominates_actual_error() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(111);
        let x = random_tensor(&mut rng, &[9, 8, 7]);
        let curves = mode_wise_error_curves(&x);
        let ranks = vec![5, 4, 4];
        let bound = error_bound(&curves, &ranks, x.norm());
        let st = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(ranks), ctx).unwrap();
        let err = normalized_rms_error(&x, &st.tucker.reconstruct_ctx(ctx));
        assert!(err <= bound + 1e-10, "error {err} exceeds bound {bound}");
    }

    #[test]
    fn ranks_for_tolerance_match_sthosvd_behaviour() {
        // The ranks read off the Fig. 6 curves are an upper bound on what
        // ST-HOSVD (which benefits from sequential truncation) selects.
        let mut rng = StdRng::seed_from_u64(112);
        let x = random_tensor(&mut rng, &[10, 9, 8]);
        let curves = mode_wise_error_curves(&x);
        let eps = 0.3;
        let curve_ranks = ranks_for_tolerance(&curves, eps);
        let st = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        for (n, (&cr, &sr)) in curve_ranks.iter().zip(st.ranks.iter()).enumerate() {
            assert!(
                sr <= cr + 1,
                "mode {n}: ST-HOSVD rank {sr} unexpectedly larger than curve rank {cr}"
            );
        }
    }

    #[test]
    fn compression_ratio_matches_paper_formula() {
        // HCCI row of Tab. II: dims 672x672x33x627, ranks (297,279,29,153) → C ≈ 25.
        let c = compression_ratio(&[672, 672, 33, 627], &[297, 279, 29, 153]);
        assert!((c - 25.0).abs() < 1.0, "expected ~25, got {c}");
        // SP row: dims 500x500x500x11x50, ranks (81,129,127,7,32) → C ≈ 231.
        let c = compression_ratio(&[500, 500, 500, 11, 50], &[81, 129, 127, 7, 32]);
        assert!((c - 231.0).abs() < 3.0, "expected ~231, got {c}");
    }

    #[test]
    fn compression_ratio_of_no_compression_is_below_one() {
        let c = compression_ratio(&[10, 10], &[10, 10]);
        assert!(c < 1.0);
    }

    #[test]
    fn curves_cover_every_mode() {
        let mut rng = StdRng::seed_from_u64(113);
        let x = random_tensor(&mut rng, &[5, 4, 3, 2]);
        let curves = mode_wise_error_curves(&x);
        assert_eq!(curves.len(), 4);
        for (n, c) in curves.iter().enumerate() {
            assert_eq!(c.mode, n);
            assert_eq!(c.eigenvalues.len(), x.dim(n));
            assert_eq!(c.tail_error.len(), x.dim(n) + 1);
        }
    }
}

//! Property-based tests (proptest) for the core invariants of the system.
//!
//! Each property is phrased over randomly drawn tensor shapes and contents, so
//! these tests sweep a much wider region of the input space than the unit
//! tests: unfolding index maps, TTM linearity and commutativity, Gram
//! positivity, the ε-guarantee of ST-HOSVD, partial-reconstruction consistency,
//! normalization round-trips, and collective correctness.

use proptest::prelude::*;
use tucker_core::prelude::*;
use tucker_core::rank::select_rank_by_threshold;
use tucker_linalg::Matrix;
use tucker_tensor::layout::{unfold_index, Unfolding};
use tucker_tensor::{
    extract_subtensor, gram_ctx, normalized_rms_error, ttm_ctx, DenseTensor, SubtensorSpec,
    TtmTranspose,
};

/// Strategy: a small tensor shape of 2–4 modes with dims in 2..=7.
fn shape_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=7, 2..=4)
}

/// Strategy: a tensor with the given shape and values in [-1, 1].
fn tensor_strategy(dims: Vec<usize>) -> impl Strategy<Value = DenseTensor> {
    let len: usize = dims.iter().product();
    prop::collection::vec(-1.0f64..1.0, len)
        .prop_map(move |data| DenseTensor::from_vec(&dims, data))
}

fn arbitrary_tensor() -> impl Strategy<Value = DenseTensor> {
    shape_strategy().prop_flat_map(tensor_strategy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unfolding_preserves_every_element(x in arbitrary_tensor(), mode_sel in 0usize..4) {
        let mode = mode_sel % x.ndims();
        let unf = Unfolding::new(x.dims(), mode);
        let m = unf.materialize(&x);
        // Every tensor element appears exactly once at the predicted position.
        for (idx, v) in x.indexed_iter() {
            let (r, c) = unfold_index(x.dims(), mode, &idx);
            prop_assert_eq!(m.get(r, c), v);
        }
        prop_assert_eq!(m.rows() * m.cols(), x.len());
    }

    #[test]
    fn ttm_is_linear_in_the_tensor(x in arbitrary_tensor(), mode_sel in 0usize..4, scale in -2.0f64..2.0) {
        let ctx = ExecContext::global();
        let mode = mode_sel % x.ndims();
        let k = 3usize;
        let v = Matrix::from_fn(k, x.dim(mode), |i, j| ((i * 7 + j * 3) as f64 * 0.1).sin());
        let y1 = ttm_ctx(ctx, &x, &v, mode, TtmTranspose::NoTranspose);
        let mut xs = x.clone();
        xs.scale(scale);
        let y2 = ttm_ctx(ctx, &xs, &v, mode, TtmTranspose::NoTranspose);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((a * scale - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ttm_in_distinct_modes_commutes(x in arbitrary_tensor()) {
        let ctx = ExecContext::global();
        prop_assume!(x.ndims() >= 2);
        let v0 = Matrix::from_fn(2, x.dim(0), |i, j| ((i + j) as f64 * 0.2).cos());
        let v1 = Matrix::from_fn(2, x.dim(1), |i, j| ((2 * i + j) as f64 * 0.15).sin());
        let inner = ttm_ctx(ctx, &x, &v0, 0, TtmTranspose::NoTranspose);
        let a = ttm_ctx(ctx, &inner, &v1, 1, TtmTranspose::NoTranspose);
        let inner = ttm_ctx(ctx, &x, &v1, 1, TtmTranspose::NoTranspose);
        let b = ttm_ctx(ctx, &inner, &v0, 0, TtmTranspose::NoTranspose);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn gram_is_symmetric_positive_semidefinite(x in arbitrary_tensor(), mode_sel in 0usize..4) {
        let mode = mode_sel % x.ndims();
        let s = gram_ctx(ExecContext::global(), &x, mode);
        for i in 0..s.rows() {
            prop_assert!(s.get(i, i) >= -1e-10);
            for j in 0..s.cols() {
                prop_assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-10);
            }
        }
        // Trace equals the squared norm.
        let trace: f64 = (0..s.rows()).map(|i| s.get(i, i)).sum();
        prop_assert!((trace - x.norm_sq()).abs() < 1e-8 * (1.0 + x.norm_sq()));
    }

    #[test]
    fn sthosvd_respects_the_tolerance(x in arbitrary_tensor(), eps_exp in 1u32..4) {
        let ctx = ExecContext::global();
        let eps = 10f64.powi(-(eps_exp as i32));
        let result = try_st_hosvd_ctx(&x, &SthosvdOptions::with_tolerance(eps), ctx).unwrap();
        let rec = result.tucker.reconstruct_ctx(ctx);
        let err = normalized_rms_error(&x, &rec);
        prop_assert!(err <= eps + 1e-10, "error {} above tolerance {}", err, eps);
        // Factors are orthonormal and ranks never exceed dims.
        prop_assert!(result.tucker.factors_orthonormal(1e-7));
        for (r, d) in result.ranks.iter().zip(x.dims()) {
            prop_assert!(r <= d);
        }
    }

    #[test]
    fn full_rank_decomposition_is_exact(x in arbitrary_tensor()) {
        let ctx = ExecContext::global();
        let ranks = x.dims().to_vec();
        let result = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(ranks), ctx).unwrap();
        let rec = result.tucker.reconstruct_ctx(ctx);
        prop_assert!(normalized_rms_error(&x, &rec) < 1e-9);
    }

    #[test]
    fn partial_reconstruction_agrees_with_full(x in arbitrary_tensor()) {
        let ctx = ExecContext::global();
        let result = try_st_hosvd_ctx(&x, &SthosvdOptions::with_tolerance(1e-2), ctx).unwrap();
        let full = result.tucker.reconstruct_ctx(ctx);
        // Take the first half of every mode.
        let spec = SubtensorSpec::from_ranges(
            &x.dims().iter().map(|&d| (0, (d / 2).max(1))).collect::<Vec<_>>(),
        );
        let partial = tucker_core::reconstruct_subtensor_ctx(&result.tucker, &spec, ctx);
        let expected = extract_subtensor(&full, &spec);
        for (a, b) in partial.as_slice().iter().zip(expected.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_selection_never_discards_more_than_threshold(
        eigenvalues in prop::collection::vec(0.0f64..10.0, 1..20),
        threshold in 0.0f64..5.0,
    ) {
        let mut ev = eigenvalues;
        ev.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let r = select_rank_by_threshold(&ev, threshold);
        prop_assert!(r >= 1 && r <= ev.len());
        let discarded: f64 = ev[r..].iter().sum();
        prop_assert!(discarded <= threshold + 1e-12);
        // Keeping one fewer would either exceed the threshold or hit the floor of 1.
        if r > 1 {
            let one_less: f64 = ev[r - 1..].iter().sum();
            prop_assert!(one_less > threshold);
        }
    }

    #[test]
    fn normalization_round_trip(x in arbitrary_tensor(), mode_sel in 0usize..4) {
        let mode = mode_sel % x.ndims();
        let original = x.clone();
        let mut work = x;
        let norm = tucker_scidata::normalize_per_slice(&mut work, mode);
        norm.invert(&mut work);
        for (a, b) in work.as_slice().iter().zip(original.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn collectives_sum_correctly(p in 1usize..6, len in 1usize..20) {
        let results = tucker_distmem::spmd(p, move |comm| {
            let group = tucker_distmem::SubCommunicator::world_group(&comm);
            let data: Vec<f64> = (0..len).map(|i| (i + comm.rank()) as f64).collect();
            tucker_distmem::collectives::all_reduce(&group, &data)
        });
        for r in &results {
            for (i, &v) in r.iter().enumerate() {
                let expected: f64 = (0..p).map(|rank| (i + rank) as f64).sum();
                prop_assert!((v - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn compression_ratio_formula_is_consistent(
        dims in prop::collection::vec(2usize..30, 2..5),
    ) {
        let ranks: Vec<usize> = dims.iter().map(|&d| (d / 2).max(1)).collect();
        let c = tucker_core::compression_ratio(&dims, &ranks);
        let full: f64 = dims.iter().map(|&d| d as f64).product();
        let stored: f64 = ranks.iter().map(|&r| r as f64).product::<f64>()
            + dims.iter().zip(&ranks).map(|(&d, &r)| (d * r) as f64).sum::<f64>();
        prop_assert!((c - full / stored).abs() < 1e-9 * c.abs());
    }
}

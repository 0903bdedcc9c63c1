//! End-to-end integration tests: generate scientific-like data, compress it,
//! reconstruct it, and check every guarantee the paper states.

use parallel_tucker::prelude::*;
use tucker_core::error::{error_bound, mode_wise_error_curves, ranks_for_tolerance};
use tucker_core::hooi::{try_hooi_ctx, HooiOptions};
use tucker_core::thosvd::t_hosvd;
use tucker_core::RankSelection;
use tucker_scidata::normalize_per_slice;

/// A small but structured combustion-like dataset used across these tests.
fn small_dataset() -> DenseTensor {
    let ds = tucker_scidata::DatasetPreset::Hcci.surrogate_config(1, 31);
    // shrink for test speed
    let cfg = tucker_scidata::CombustionConfig {
        grid: vec![20, 20],
        n_variables: 8,
        n_timesteps: 12,
        ..ds
    };
    let mut field = cfg.generate().data;
    normalize_per_slice(&mut field, 2);
    field
}

#[test]
fn tolerance_guarantee_holds_across_epsilons() {
    let ctx = ExecContext::global();
    let x = small_dataset();
    for eps in [1e-1, 1e-2, 1e-3, 1e-4] {
        let result = try_st_hosvd_ctx(&x, &SthosvdOptions::with_tolerance(eps), ctx).unwrap();
        let rec = result.tucker.reconstruct_ctx(ctx);
        let err = normalized_rms_error(&x, &rec);
        assert!(
            err <= eps + 1e-12,
            "eps={eps}: actual error {err} exceeds the requested tolerance"
        );
        assert!(err <= result.error_bound() + 1e-12);
    }
}

#[test]
fn compression_improves_monotonically_with_epsilon() {
    let x = small_dataset();
    let mut previous_ratio = f64::INFINITY;
    for eps in [1e-1, 1e-2, 1e-3, 1e-4] {
        let result = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let ratio = result.tucker.compression_ratio(x.dims());
        assert!(
            ratio <= previous_ratio + 1e-12,
            "tighter tolerance must not compress better: {ratio} > {previous_ratio}"
        );
        previous_ratio = ratio;
    }
}

#[test]
fn hooi_never_degrades_sthosvd() {
    let ctx = ExecContext::global();
    let x = small_dataset();
    let st = try_st_hosvd_ctx(&x, &SthosvdOptions::with_tolerance(1e-2), ctx).unwrap();
    let ho = try_hooi_ctx(&x, &HooiOptions::with_ranks(st.ranks.clone(), 3), ctx).unwrap();
    let st_err = normalized_rms_error(&x, &st.tucker.reconstruct_ctx(ctx));
    let ho_err = normalized_rms_error(&x, &ho.tucker.reconstruct_ctx(ctx));
    assert!(ho_err <= st_err + 1e-12);
    for w in ho.fit_history.windows(2) {
        assert!(w[1] <= w[0] + 1e-9 * x.norm_sq());
    }
}

#[test]
fn thosvd_sthosvd_and_hooi_agree_on_well_separated_data() {
    // For data with clear low-rank structure the three algorithms find
    // essentially the same approximation quality at fixed ranks.
    let ctx = ExecContext::global();
    let x = NoisyLowRank {
        dims: vec![16, 14, 12],
        ranks: vec![4, 3, 3],
        noise_level: 0.05,
        seed: 8,
    }
    .generate();
    let ranks = vec![4usize, 3, 3];
    let th = t_hosvd(&x, &RankSelection::Fixed(ranks.clone()));
    let st = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(ranks.clone()), ctx).unwrap();
    let ho = try_hooi_ctx(&x, &HooiOptions::with_ranks(ranks, 3), ctx).unwrap();
    let eth = normalized_rms_error(&x, &th.tucker.reconstruct_ctx(ctx));
    let est = normalized_rms_error(&x, &st.tucker.reconstruct_ctx(ctx));
    let eho = normalized_rms_error(&x, &ho.tucker.reconstruct_ctx(ctx));
    assert!((eth - est).abs() < 0.2 * eth.max(est));
    assert!(eho <= est + 1e-12);
    assert!(eho <= eth + 1e-12);
}

#[test]
fn mode_wise_curves_predict_achievable_ranks() {
    let ctx = ExecContext::global();
    let x = small_dataset();
    let curves = mode_wise_error_curves(&x);
    let eps = 1e-2;
    let curve_ranks = ranks_for_tolerance(&curves, eps);
    // Compressing with exactly those ranks satisfies the eq. (3) bound and the
    // bound itself respects eps.
    let bound = error_bound(&curves, &curve_ranks, x.norm());
    assert!(bound <= eps + 1e-12);
    let st = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(curve_ranks), ctx).unwrap();
    let err = normalized_rms_error(&x, &st.tucker.reconstruct_ctx(ctx));
    assert!(err <= bound + 1e-12);
}

#[test]
fn normalization_then_compression_round_trips_to_physical_units() {
    // Compress normalized data, reconstruct, de-normalize, and compare with the
    // original physical-units field — the full pipeline a user would run.
    let ctx = ExecContext::global();
    let cfg = tucker_scidata::CombustionConfig {
        grid: vec![16, 16],
        n_variables: 6,
        n_timesteps: 10,
        n_kernels: 5,
        species_rank: 3,
        kernel_width: 0.15,
        drift: 0.2,
        noise_level: 1e-5,
        seed: 77,
    };
    let physical = cfg.generate().data;
    let mut normalized = physical.clone();
    let norm = normalize_per_slice(&mut normalized, 2);

    let result = try_st_hosvd_ctx(&normalized, &SthosvdOptions::with_tolerance(1e-5), ctx).unwrap();
    let mut rec = result.tucker.reconstruct_ctx(ctx);
    norm.invert(&mut rec);

    let err = normalized_rms_error(&physical, &rec);
    assert!(
        err < 1e-3,
        "physical-units reconstruction error too large: {err}"
    );
}

#[test]
fn relative_compressibility_ordering_matches_paper() {
    // SP most compressible, TJLR least (Fig. 7), at eps = 1e-3, on reduced-size
    // surrogates for test speed.
    let eps = 1e-3;
    let ratio_for = |preset: DatasetPreset| -> f64 {
        let mut cfg = preset.surrogate_config(1, 100);
        // Shrink all surrogates to comparable small sizes for test runtime.
        cfg.grid = cfg.grid.iter().map(|&g| (g / 2).max(8)).collect();
        cfg.n_timesteps = cfg.n_timesteps.min(8);
        let mut data = cfg.generate().data;
        normalize_per_slice(&mut data, cfg.grid.len());
        let result = try_st_hosvd_ctx(
            &data,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        tucker_core::compression_ratio(data.dims(), &result.ranks)
    };
    let sp = ratio_for(DatasetPreset::Sp);
    let hcci = ratio_for(DatasetPreset::Hcci);
    let tjlr = ratio_for(DatasetPreset::Tjlr);
    assert!(
        sp > tjlr,
        "SP ({sp:.1}x) should compress better than TJLR ({tjlr:.1}x)"
    );
    assert!(
        hcci > tjlr,
        "HCCI ({hcci:.1}x) should compress better than TJLR ({tjlr:.1}x)"
    );
}

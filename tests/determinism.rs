//! Determinism contract of the execution layer (ISSUE 3, renegotiated for the
//! packed SIMD microkernels in ISSUE 8 — `docs/ARCHITECTURE.md` §4).
//!
//! The contract is per output element: one running accumulator, seeded from
//! the beta-scaled C, adding `fl(fl(alpha·a)·b)` terms in ascending
//! contraction order, no FMA on any SIMD tier. Every kernel routed through
//! `tucker-exec` partitions only *output* index space and preserves that
//! recurrence, so the decompositions must be **bit-identical** — not merely
//! close — for every thread count: 1 thread, a small pool, and an
//! oversubscribed pool (more threads than this machine has cores). These
//! properties sweep random odd shapes and all modes through TTM, Gram,
//! ST-HOSVD, and HOOI, comparing raw `f64` slices with exact equality.
//! (`crates/linalg/tests/microkernel.rs` pins the same recurrence per kernel
//! and `tests/simd_tiers.rs` pins it across `TUCKER_SIMD` tiers; CI re-runs
//! this suite under `TUCKER_SIMD=scalar` and `auto`.)

use proptest::prelude::*;
use tucker_core::hooi::HooiOptions;
use tucker_core::sthosvd::SthosvdOptions;
use tucker_core::{try_hooi_ctx, try_st_hosvd_ctx};
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;
use tucker_tensor::{gram_ctx, ttm_ctx, DenseTensor, TtmTranspose};

/// Pools under test: sequential, a small pool, and an oversubscribed pool
/// (32 threads is far more than the CI machines have cores).
const THREAD_COUNTS: [usize; 2] = [4, 32];

/// Strategy: a 2–4-way tensor with deliberately odd, uneven dims (3..=9) so
/// chunk boundaries land mid-block in every partitioner.
fn arbitrary_tensor() -> impl Strategy<Value = DenseTensor> {
    prop::collection::vec(3usize..=9, 2..=4).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1.0f64..1.0, len)
            .prop_map(move |data| DenseTensor::from_vec(&dims, data))
    })
}

/// A deterministic dense matrix for TTM tests.
fn test_matrix(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 13 + j * 7) as f64 * 0.17 + phase).sin()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ttm_is_bit_identical_across_thread_counts(
        x in arbitrary_tensor(),
        mode_sel in 0usize..4,
        k in 1usize..6,
    ) {
        let mode = mode_sel % x.ndims();
        let baseline_ctx = ExecContext::new(1);
        for (trans, v) in [
            (TtmTranspose::NoTranspose, test_matrix(k, x.dim(mode), 0.3)),
            (TtmTranspose::Transpose, test_matrix(x.dim(mode), k, 0.7)),
        ] {
            let baseline = ttm_ctx(&baseline_ctx, &x, &v, mode, trans);
            for threads in THREAD_COUNTS {
                let ctx = ExecContext::new(threads);
                let out = ttm_ctx(&ctx, &x, &v, mode, trans);
                prop_assert_eq!(out.as_slice(), baseline.as_slice());
            }
        }
    }

    #[test]
    fn gram_is_bit_identical_across_thread_counts(
        x in arbitrary_tensor(),
        mode_sel in 0usize..4,
    ) {
        let mode = mode_sel % x.ndims();
        let baseline = gram_ctx(&ExecContext::new(1), &x, mode);
        for threads in THREAD_COUNTS {
            let s = gram_ctx(&ExecContext::new(threads), &x, mode);
            prop_assert_eq!(s.as_slice(), baseline.as_slice());
        }
    }

    #[test]
    fn st_hosvd_is_bit_identical_across_thread_counts(x in arbitrary_tensor()) {
        let opts = SthosvdOptions::with_tolerance(0.2);
        let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
        for threads in THREAD_COUNTS {
            let r = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(threads)).unwrap();
            prop_assert_eq!(&r.ranks, &baseline.ranks);
            prop_assert_eq!(
                r.tucker.core.as_slice(),
                baseline.tucker.core.as_slice()
            );
            for (a, b) in r.tucker.factors.iter().zip(baseline.tucker.factors.iter()) {
                prop_assert_eq!(a.as_slice(), b.as_slice());
            }
            prop_assert_eq!(r.discarded_energy, baseline.discarded_energy);
        }
    }

    #[test]
    fn hooi_is_bit_identical_across_thread_counts(x in arbitrary_tensor()) {
        let ranks: Vec<usize> = x.dims().iter().map(|&d| d.min(2)).collect();
        let opts = HooiOptions::with_ranks(ranks, 2);
        let baseline = try_hooi_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
        for threads in THREAD_COUNTS {
            let r = try_hooi_ctx(&x, &opts, &ExecContext::new(threads)).unwrap();
            prop_assert_eq!(r.iterations, baseline.iterations);
            prop_assert_eq!(&r.fit_history, &baseline.fit_history);
            prop_assert_eq!(
                r.tucker.core.as_slice(),
                baseline.tucker.core.as_slice()
            );
            for (a, b) in r.tucker.factors.iter().zip(baseline.tucker.factors.iter()) {
                prop_assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }
}

/// Shapes sized to actually clear the parallel work thresholds (the proptest
/// shapes above keep the suite fast but mostly exercise the small-problem
/// fallbacks; this test forces the pool paths).
#[test]
fn large_kernels_are_bit_identical_across_thread_counts() {
    let x = DenseTensor::from_fn(&[40, 36, 34], |idx| {
        let mut v = 0.3;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.11 * i as f64).sin();
        }
        v
    });
    let opts = SthosvdOptions::with_ranks(vec![9, 8, 7]);
    let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
    for threads in [2usize, 4, 8, 32] {
        let ctx = ExecContext::new(threads);
        let r = try_st_hosvd_ctx(&x, &opts, &ctx).unwrap();
        assert_eq!(r.tucker.core.as_slice(), baseline.tucker.core.as_slice());
        for (a, b) in r.tucker.factors.iter().zip(baseline.tucker.factors.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Reconstruction exercises the NoTranspose TTM chain at full size.
        let rec = baseline.tucker.reconstruct_ctx(&ExecContext::new(1));
        let rec_t = r.tucker.reconstruct_ctx(&ctx);
        assert_eq!(rec.as_slice(), rec_t.as_slice());
    }
}

/// The same determinism contract across *transport backends* (ISSUE 10):
/// under the env-selected backend (`TUCKER_TRANSPORT`, `TUCKER_RANKS` — the
/// knobs CI's TCP re-runs of this suite turn), two distributed ST-HOSVD
/// runs of the same program must be bit-identical on every rank, whether
/// the ranks are threads or spawned processes.
#[test]
fn env_transport_repeated_dist_runs_are_bit_identical() {
    use tucker_core::dist::{hybrid_ctx, try_dist_st_hosvd_ctx, DistTensor};
    use tucker_distmem::{Communicator, ProcGrid};
    use tucker_net::{env_ranks, spmd_transport, test_exec_args, transport_from_env, SpmdHandle};

    let kind = transport_from_env();
    let p = env_ranks();
    let grid = match p {
        1 => vec![1usize, 1, 1],
        2 => vec![2, 1, 1],
        4 => vec![2, 2, 1],
        8 => vec![2, 2, 2],
        other => vec![other, 1, 1],
    };
    let x = DenseTensor::from_fn(&[12, 10, 8], |idx| {
        let mut v = 1.0;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.17 * i as f64).sin();
        }
        v
    });
    let opts = SthosvdOptions::with_ranks(vec![4, 3, 3]);
    let exec = test_exec_args("env_transport_repeated_dist_runs_are_bit_identical");
    let run = |name: &'static str| -> SpmdHandle<Vec<f64>> {
        let x = x.clone();
        let opts = opts.clone();
        spmd_transport(
            kind,
            name,
            ProcGrid::new(&grid),
            &exec,
            move |comm: Communicator| {
                let dx = DistTensor::from_global(&comm, &x);
                let r = try_dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm)).unwrap();
                match r.tucker.gather_to_root(&comm) {
                    Some(t) => {
                        let mut out: Vec<f64> = t.core.as_slice().to_vec();
                        for f in &t.factors {
                            out.extend_from_slice(f.as_slice());
                        }
                        out
                    }
                    None => vec![],
                }
            },
        )
    };
    let first = run("det_env_first");
    let second = run("det_env_second");
    assert!(
        !first.results[0].is_empty(),
        "rank 0 must gather the decomposition"
    );
    if matches!(kind, tucker_net::TransportKind::Tcp) && p > 1 {
        let wire: u64 = first.stats.iter().map(|s| s.wire_bytes_sent).sum();
        assert!(wire > 0, "a tcp run must move real bytes on the wire");
    }
    for r in 0..grid.iter().product::<usize>() {
        assert_eq!(
            first.results[r].len(),
            second.results[r].len(),
            "rank {r}: result shapes diverge between repeated runs"
        );
        for (i, (a, b)) in first.results[r].iter().zip(&second.results[r]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "rank {r}, word {i}: repeated {} runs diverge: {a:e} vs {b:e}",
                kind.label()
            );
        }
    }
}

/// A decomposition with deterministic core and factors: `ranks` → `dims`.
fn decomposition(ranks: &[usize], dims: &[usize]) -> tucker_core::TuckerTensor {
    let core = DenseTensor::from_fn(ranks, |idx| {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) as f64 * 0.41 * i as f64 + 0.2).sin())
            .sum()
    });
    let factors = dims
        .iter()
        .zip(ranks)
        .enumerate()
        .map(|(n, (&d, &r))| test_matrix(d, r, 0.3 * n as f64))
        .collect();
    tucker_core::TuckerTensor::new(core, factors)
}

/// A hand-written chain of single-mode products in `order`: the reference
/// every reconstruction must equal bit for bit.
fn per_mode_chain(
    ctx: &ExecContext,
    core: &DenseTensor,
    factors: &[Matrix],
    order: &[usize],
) -> DenseTensor {
    order.iter().fold(core.clone(), |cur, &n| {
        ttm_ctx(ctx, &cur, &factors[n], n, TtmTranspose::NoTranspose)
    })
}

/// Full reconstructions and windows take the fused expanding tail of the
/// TTM chain whenever the chain ends in growing modes `m..N−1` and the
/// leading extent holds two tiles. The battery compares them with a
/// per-mode `ttm_ctx` chain in the same order, bit for bit, on shapes that
/// cross every seam: tail lengths 1 to N−1, a tail cut short by a mode of
/// rank equal to its dimension, rank 1, a leading extent that is not a
/// multiple of the tile width, one below two tiles, 1-way and 2-way
/// tensors, and slice windows of an SP-like shape — at 1, 2, 4 and 16
/// threads, under every supported SIMD tier and two blockings.
#[test]
fn reconstructions_equal_the_per_mode_chain_bit_for_bit() {
    use tucker_core::ordering::window_order;
    use tucker_core::reconstruct::reconstruct_subtensor_ctx;
    use tucker_linalg::blocking::{force_blocking, Blocking};
    use tucker_linalg::simd::{current_tier, force_tier, supported_tiers};
    use tucker_tensor::SubtensorSpec;

    let cases: [(&[usize], &[usize]); 9] = [
        (&[4], &[90]),                            // 1-way: no tail
        (&[3, 2], &[75, 5]),                      // 2-way, tail of 1, ragged last tile
        (&[3, 2], &[50, 5]),                      // leading extent below two tiles
        (&[3, 2, 3], &[99, 6, 7]),                // tail of up to 2
        (&[4, 2, 3, 2], &[130, 5, 6, 4]),         // tail of up to 3
        (&[4, 5, 3, 2], &[70, 5, 6, 4]),          // rank = dim in mode 1 cuts the tail
        (&[4, 3, 3], &[80, 6, 3]),                // rank = dim in the last mode: no tail
        (&[1, 1, 1], &[67, 5, 9]),                // rank 1
        (&[5, 5, 5, 2, 6], &[12, 12, 12, 8, 16]), // SP-like
    ];
    let decompositions: Vec<_> = cases
        .iter()
        .map(|(ranks, dims)| decomposition(ranks, dims))
        .collect();
    let contexts: Vec<ExecContext> = [1usize, 2, 4, 16].map(ExecContext::new).into();
    let blockings = [
        Blocking {
            mc: 8,
            kc: 3,
            nc: 4,
        },
        Blocking {
            mc: 16,
            kc: 16,
            nc: 16,
        },
    ];
    let (prev_tier, prev_blocking) = (current_tier(), tucker_linalg::blocking::current_blocking());
    for blocking in blockings {
        force_blocking(blocking);
        for tier in supported_tiers() {
            assert!(force_tier(tier), "cannot force supported tier {tier:?}");
            for ctx in &contexts {
                for t in &decompositions {
                    let dims = t.original_dims();
                    let natural: Vec<usize> = (0..dims.len()).collect();
                    let want = per_mode_chain(ctx, &t.core, &t.factors, &natural);
                    let got = t.reconstruct_ctx(ctx);
                    assert_eq!(got.dims(), want.dims());
                    assert!(
                        got.as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "reconstruct {dims:?}, {tier:?}, {blocking:?}, {} threads",
                        ctx.threads()
                    );
                    // Slices in the first, second and last mode, and a
                    // window cropped in every mode.
                    let last = dims.len() - 1;
                    let mut specs = vec![
                        SubtensorSpec::all(&dims).restrict_mode(0, vec![dims[0] / 2]),
                        SubtensorSpec::all(&dims).restrict_mode(last, vec![0]),
                        SubtensorSpec::from_ranges(
                            &dims.iter().map(|&d| (1, d - 1)).collect::<Vec<_>>(),
                        ),
                    ];
                    if dims.len() > 2 {
                        specs.push(SubtensorSpec::all(&dims).restrict_mode(1, vec![1]));
                    }
                    for spec in &specs {
                        let rows: Vec<Matrix> = (0..dims.len())
                            .map(|n| t.factors[n].select_rows(spec.mode_indices(n)))
                            .collect();
                        let order = window_order(&t.ranks(), &spec.sub_dims());
                        let want = per_mode_chain(ctx, &t.core, &rows, &order);
                        let got = reconstruct_subtensor_ctx(t, spec, ctx);
                        assert_eq!(got.dims(), want.dims());
                        assert!(
                            got.as_slice()
                                .iter()
                                .zip(want.as_slice())
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "window {:?} of {dims:?}, {tier:?}, {blocking:?}, {} threads",
                            spec.sub_dims(),
                            ctx.threads()
                        );
                    }
                }
            }
        }
    }
    force_tier(prev_tier);
    force_blocking(prev_blocking);
}

//! Cross-crate integration tests: the distributed algorithms (Algs. 3–5 and the
//! distributed ST-HOSVD / HOOI built on them) must agree with their sequential
//! counterparts on every processor grid, and their communication volume must
//! match the paper's α-β-γ model.

use parallel_tucker::prelude::*;
use tucker_core::dist::{
    dist_hooi, dist_hooi_ctx, dist_reconstruct, dist_st_hosvd_ctx, hybrid_ctx, parallel_gram,
    parallel_gram_ctx, parallel_ttm,
};
use tucker_core::hooi::{hooi, hooi_ctx, HooiOptions};
use tucker_distmem::runtime::spmd_with_grid_handle;
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;
use tucker_tensor::{gram, gram_ctx, ttm};

fn structured_tensor(dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = 1.0;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.17 * i as f64).sin();
        }
        v
    })
}

#[test]
fn distributed_sthosvd_matches_sequential_on_many_grids() {
    let dims = [12usize, 10, 8];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![4, 3, 3]);
    let seq = st_hosvd(&x, &opts);
    let seq_rec = seq.tucker.reconstruct();

    for grid_shape in [
        vec![1usize, 1, 1],
        vec![2, 1, 1],
        vec![1, 2, 2],
        vec![2, 2, 2],
        vec![3, 2, 1],
    ] {
        let x2 = x.clone();
        let opts2 = opts.clone();
        let results = spmd_with_grid(ProcGrid::new(&grid_shape), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            let r = dist_st_hosvd(&comm, &dx, &opts2);
            r.tucker.gather_to_root(&comm)
        });
        let dist_rec = results[0].as_ref().unwrap().reconstruct();
        let diff = normalized_rms_error(&seq_rec, &dist_rec);
        assert!(
            diff < 1e-8,
            "grid {grid_shape:?}: distributed reconstruction deviates by {diff}"
        );
    }
}

#[test]
fn distributed_hooi_matches_sequential() {
    let dims = [10usize, 9, 8];
    let x = structured_tensor(&dims);
    let opts = HooiOptions::with_ranks(vec![3, 3, 2], 2);
    let seq_err = normalized_rms_error(&x, &hooi(&x, &opts).tucker.reconstruct());

    let x2 = x.clone();
    let results = spmd_with_grid(ProcGrid::new(&[2, 1, 2]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = dist_hooi(&comm, &dx, &opts);
        r.tucker.gather_to_root(&comm)
    });
    let dist_err = normalized_rms_error(&x, &results[0].as_ref().unwrap().reconstruct());
    assert!(
        (seq_err - dist_err).abs() < 1e-8 * (1.0 + seq_err),
        "sequential {seq_err} vs distributed {dist_err}"
    );
}

#[test]
fn distributed_reconstruction_round_trip() {
    let dims = [12usize, 8, 10];
    let x = structured_tensor(&dims);
    let x2 = x.clone();
    let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = dist_st_hosvd(&comm, &dx, &SthosvdOptions::with_tolerance(1e-5));
        let rec = dist_reconstruct(&comm, &r.tucker);
        rec.gather_to_root(&comm)
    });
    let rec = results[0].as_ref().unwrap();
    assert!(normalized_rms_error(&x, rec) <= 1e-5 + 1e-12);
}

#[test]
fn parallel_kernels_match_sequential_on_a_4way_tensor() {
    let dims = [8usize, 6, 6, 4];
    let x = structured_tensor(&dims);
    let v = Matrix::from_fn(dims[1], 3, |i, j| ((i + 2 * j) as f64 * 0.3).cos());

    // Sequential references.
    let seq_ttm = ttm(&x, &v, 1, TtmTranspose::Transpose);
    let seq_gram = gram(&x, 2);

    let x2 = x.clone();
    let results = spmd_with_grid(ProcGrid::new(&[2, 1, 2, 1]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let z = parallel_ttm(&comm, &dx, &v, 1, TtmTranspose::Transpose);
        let s_block = parallel_gram(&comm, &dx, 2);
        (z.gather_to_root(&comm), dx.ranges()[2], s_block)
    });

    // TTM result.
    let gathered = results[0].0.as_ref().unwrap();
    assert!(normalized_rms_error(&seq_ttm, gathered) < 1e-12);

    // Gram result: assemble row blocks.
    let n2 = dims[2];
    let mut assembled = Matrix::zeros(n2, n2);
    for (_, (off, len), block) in &results {
        for r in 0..*len {
            assembled.row_mut(off + r).copy_from_slice(block.row(r));
        }
    }
    for i in 0..n2 {
        for j in 0..n2 {
            assert!((assembled.get(i, j) - seq_gram.get(i, j)).abs() < 1e-9);
        }
    }
}

#[test]
fn parallel_gram_rows_are_bitwise_sequential_when_only_mode_n_is_split() {
    // Grid [3,1,1] shifted to each mode n, with I_n = 16 split 6/5/5: the
    // ring sees received blocks whose mode-n extent differs from the local
    // one. For the split mode the column group is the whole world and the
    // row group is 1: every rank sees all unfolding columns in the
    // sequential order, so its rows of S must equal the sequential Gram's
    // bit for bit. For every other mode m the column group is 1 and the row
    // group is all 3 ranks: the all-reduce fixes its own summation order, so
    // those rows agree with the sequential Gram to round-off, and bitwise
    // across thread budgets and ranks.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let pool = ExecContext::new(4);
    for n in 0..3 {
        let mut dims = [13usize, 9, 11];
        dims[n] = 16;
        let mut grid_shape = [1usize; 3];
        grid_shape[n] = 3;
        let x = structured_tensor(&dims);
        let seq: Vec<Matrix> = (0..3)
            .map(|m| gram_ctx(&ExecContext::sequential(), &x, m))
            .collect();
        let mut reduced: Vec<Option<Vec<u64>>> = vec![None; 3];
        for budget in [1usize, 4] {
            let ctx = pool.with_budget(budget);
            let x2 = x.clone();
            let results = spmd_with_grid(ProcGrid::new(&grid_shape), move |comm| {
                let dx = DistTensor::from_global(&comm, &x2);
                let blocks: Vec<Matrix> = (0..3)
                    .map(|m| parallel_gram_ctx(&comm, &dx, m, &ctx))
                    .collect();
                (dx.ranges().to_vec(), blocks)
            });
            for (ranges, blocks) in &results {
                for m in 0..3 {
                    let (off, len) = ranges[m];
                    let want = &seq[m];
                    let got = &blocks[m];
                    assert_eq!(got.shape(), (len, dims[m]));
                    if m == n {
                        for r in 0..len {
                            assert_eq!(
                                bits(got.row(r)),
                                bits(want.row(off + r)),
                                "split mode {n}, budget {budget}, row {}",
                                off + r
                            );
                        }
                    } else {
                        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                            assert!(
                                (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                                "grid {grid_shape:?}, mode {m}: {a} vs {b}"
                            );
                        }
                        let first = reduced[m].get_or_insert_with(|| bits(got.as_slice()));
                        assert_eq!(
                            *first,
                            bits(got.as_slice()),
                            "grid {grid_shape:?}, mode {m}: budgets and ranks must agree bitwise"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn communication_volume_tracks_cost_model() {
    // Measure the words moved by a parallel Gram and compare against the
    // α-β-γ model's bandwidth term. The model counts critical-path words per
    // rank; the measured aggregate divided by P should be within a small
    // constant factor (collective implementations differ slightly).
    let dims = [16usize, 12, 8];
    let grid_shape = [2usize, 2, 2];
    let mode = 0;
    let x = structured_tensor(&dims);

    let handle = spmd_with_grid_handle(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        let _ = parallel_gram(&comm, &dx, mode);
    });
    let measured_words_per_rank =
        handle.total_stats().words_sent as f64 / handle.stats.len() as f64;

    let model = CostModel::new(ProcGrid::new(&grid_shape), MachineParams::edison_like());
    let predicted = model.gram(&dims, mode).words;

    assert!(
        measured_words_per_rank <= 4.0 * predicted + 64.0,
        "measured {measured_words_per_rank} words/rank far exceeds predicted {predicted}"
    );
    assert!(
        measured_words_per_rank >= 0.1 * predicted,
        "measured {measured_words_per_rank} words/rank suspiciously below predicted {predicted}"
    );
}

#[test]
fn ttm_communication_volume_matches_cost_model() {
    // The mode-aware reduce-scatter in `parallel_ttm` must move exactly the
    // β volume `(P_n − 1)·Ĵ_n·K/P` that `CostModel::ttm` (Alg. 3) charges per
    // rank — not the 2× volume of an all-reduce. Dimensions and grid are
    // chosen so every block divides evenly and the match is exact.
    let dims = [16usize, 12, 8];
    let grid_shape = [2usize, 2, 2];
    let mode = 0;
    let k = 8usize;
    let x = structured_tensor(&dims);
    let v = Matrix::from_fn(dims[mode], k, |i, j| ((i + 3 * j) as f64 * 0.2).sin());

    let handle = spmd_with_grid_handle(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        let _ = parallel_ttm(&comm, &dx, &v, mode, TtmTranspose::Transpose);
    });
    let measured = handle.total_stats().words_sent as f64 / handle.stats.len() as f64;

    let model = CostModel::new(ProcGrid::new(&grid_shape), MachineParams::edison_like());
    let predicted = model.ttm(&dims, mode, k).words;
    assert!(
        (measured - predicted).abs() < 1e-9,
        "measured {measured} words/rank, model predicts {predicted}"
    );

    // Uneven blocks (P_n does not divide K or I_n): the volume still tracks
    // the model to within rounding, and stays well below the all-reduce's 2×.
    let dims = [9usize, 6, 4];
    let k = 5usize;
    let x = structured_tensor(&dims);
    let v = Matrix::from_fn(dims[mode], k, |i, j| ((2 * i + j) as f64 * 0.15).cos());
    let handle = spmd_with_grid_handle(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        let _ = parallel_ttm(&comm, &dx, &v, mode, TtmTranspose::Transpose);
    });
    let measured = handle.total_stats().words_sent as f64 / handle.stats.len() as f64;
    let predicted = model.ttm(&dims, mode, k).words;
    assert!(
        measured <= 1.35 * predicted && measured >= 0.65 * predicted,
        "uneven blocks: measured {measured} words/rank vs predicted {predicted}"
    );
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bit patterns of a decomposition: the core, then every factor.
fn tucker_bits(t: &TuckerTensor) -> Vec<Vec<u64>> {
    std::iter::once(bits(t.core.as_slice()))
        .chain(t.factors.iter().map(|u| bits(u.as_slice())))
        .collect()
}

/// The sequential drivers are the one-rank case of the distributed ones, bit
/// for bit. ST-HOSVD: ranks, order, `‖X‖²`, discarded energy, every
/// eigenvalue, core and factors. HOOI (three forced sweeps): ranks, fit
/// history, core and factors. Over five shapes, the natural, largest-first
/// and a custom order, tolerance and fixed ranks, and 1, 2 and 4 threads.
#[test]
fn single_rank_distributed_run_is_exactly_sequential() {
    let shapes: [&[usize]; 5] = [
        &[9, 8, 7],
        &[13, 11, 6, 5],
        &[40, 33, 17],
        &[20, 20, 20, 5, 8],
        &[150, 9, 10],
    ];
    for dims in shapes {
        let x = structured_tensor(dims);
        let fixed: Vec<usize> = dims.iter().map(|&d| (d / 3).max(1)).collect();
        let reversed: Vec<usize> = (0..dims.len()).rev().collect();
        let cases = [
            SthosvdOptions::with_tolerance(1e-3),
            SthosvdOptions::with_tolerance(1e-6).order(ModeOrder::LargestFirst),
            SthosvdOptions::with_ranks(fixed).order(ModeOrder::Custom(reversed)),
        ];
        for opts in &cases {
            let hooi_opts = HooiOptions {
                init: opts.clone(),
                max_iterations: 3,
                fit_tolerance: f64::NEG_INFINITY,
            };
            for threads in [1, 2, 4] {
                let ctx = ExecContext::new(threads);
                let label = format!("{dims:?}, {opts:?}, {threads} threads");
                let st = st_hosvd_ctx(&x, opts, &ctx);
                let ho = hooi_ctx(&x, &hooi_opts, &ctx);
                let mut results = spmd_with_grid(ProcGrid::new(&vec![1; dims.len()]), |comm| {
                    let dx = DistTensor::from_global(&comm, &x);
                    let dst = dist_st_hosvd_ctx(&comm, &dx, opts, &ctx);
                    let dho = dist_hooi_ctx(&comm, &dx, &hooi_opts, &ctx);
                    let st_tucker = dst.tucker.gather_to_root(&comm).expect("one rank");
                    let ho_tucker = dho.tucker.gather_to_root(&comm).expect("one rank");
                    (dst, st_tucker, dho, ho_tucker)
                });
                let (dst, st_tucker, dho, ho_tucker) = results.remove(0);

                assert_eq!(dst.ranks, st.ranks, "{label}");
                assert_eq!(dst.processed_order, st.processed_order, "{label}");
                assert_eq!(dst.norm_x_sq.to_bits(), st.norm_x_sq.to_bits(), "{label}");
                assert_eq!(
                    dst.discarded_energy.to_bits(),
                    st.discarded_energy.to_bits(),
                    "{label}"
                );
                let eig_bits = |e: &[Vec<f64>]| e.iter().map(|v| bits(v)).collect::<Vec<_>>();
                assert_eq!(
                    eig_bits(&dst.mode_eigenvalues),
                    eig_bits(&st.mode_eigenvalues),
                    "{label}"
                );
                assert_eq!(tucker_bits(&st_tucker), tucker_bits(&st.tucker), "{label}");

                assert_eq!(dho.iterations, 3, "{label}");
                assert_eq!((dho.iterations, &dho.ranks), (ho.iterations, &ho.ranks));
                assert_eq!(bits(&dho.fit_history), bits(&ho.fit_history), "{label}");
                assert_eq!(tucker_bits(&ho_tucker), tucker_bits(&ho.tucker), "{label}");
            }
        }
    }
}

/// Every entry validates: on any grid, the distributed drivers reject what
/// the sequential ones reject, with the same panic message and the same
/// typed error.
#[test]
fn distributed_entries_validate_like_the_sequential_ones() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tucker_core::dist::{try_dist_hooi_ctx, try_dist_st_hosvd_ctx};
    use tucker_core::hooi::try_hooi_ctx;
    use tucker_core::sthosvd::try_st_hosvd_ctx;
    use tucker_distmem::try_spmd_with_grid_handle;

    let x = structured_tensor(&[6, 5, 4]);
    let opts = SthosvdOptions::with_ranks(vec![9, 2, 2]);
    let hooi_opts = HooiOptions::with_ranks(vec![9, 2, 2], 2);
    let panic_message = |f: &dyn Fn()| -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("invalid input must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    };
    let st_message = panic_message(&|| {
        st_hosvd(&x, &opts);
    });
    let hooi_message = panic_message(&|| {
        hooi(&x, &hooi_opts);
    });
    assert!(
        st_message.starts_with("st_hosvd: invalid input"),
        "{st_message}"
    );
    assert!(
        hooi_message.starts_with("hooi: invalid input"),
        "{hooi_message}"
    );
    let st_error = try_st_hosvd_ctx(&x, &opts, ExecContext::global()).err();
    let hooi_error = try_hooi_ctx(&x, &hooi_opts, ExecContext::global()).err();
    assert!(st_error.is_some() && hooi_error == st_error);

    for grid in [vec![1usize, 1, 1], vec![2, 1, 1]] {
        let st_panic = try_spmd_with_grid_handle(ProcGrid::new(&grid), |comm| {
            dist_st_hosvd(&comm, &DistTensor::from_global(&comm, &x), &opts);
        })
        .expect_err("dist_st_hosvd must reject ranks above an extent");
        assert_eq!(st_panic.message, st_message, "grid {grid:?}");
        let hooi_panic = try_spmd_with_grid_handle(ProcGrid::new(&grid), |comm| {
            dist_hooi(&comm, &DistTensor::from_global(&comm, &x), &hooi_opts);
        })
        .expect_err("dist_hooi must reject ranks above an extent");
        assert_eq!(hooi_panic.message, hooi_message, "grid {grid:?}");

        let errors = spmd_with_grid(ProcGrid::new(&grid), |comm| {
            let dx = DistTensor::from_global(&comm, &x);
            let ctx = hybrid_ctx(&comm);
            (
                try_dist_st_hosvd_ctx(&comm, &dx, &opts, &ctx).err(),
                try_dist_hooi_ctx(&comm, &dx, &hooi_opts, &ctx).err(),
            )
        });
        for (st, ho) in errors {
            assert_eq!(st, st_error, "grid {grid:?}");
            assert_eq!(ho, hooi_error, "grid {grid:?}");
        }
    }
}

/// The env-selected transport (`TUCKER_TRANSPORT` / `TUCKER_RANKS` — the
/// knobs CI's TCP re-runs of this suite turn) must preserve the
/// sequential-equivalence contract for the iterative HOOI too: real spawned
/// processes have to land on the same fit as the in-process reference.
#[test]
fn env_transport_distributed_hooi_matches_sequential() {
    use tucker_net::{
        env_ranks, spmd_transport, test_exec_args, transport_from_env, TransportKind,
    };

    let kind = transport_from_env();
    let p = env_ranks();
    let grid = match p {
        1 => vec![1usize, 1, 1],
        2 => vec![2, 1, 1],
        4 => vec![2, 2, 1],
        8 => vec![2, 2, 2],
        other => vec![other, 1, 1],
    };
    let dims = [10usize, 9, 8];
    let x = structured_tensor(&dims);
    let opts = HooiOptions::with_ranks(vec![3, 3, 2], 2);
    let seq_err = normalized_rms_error(&x, &hooi(&x, &opts).tucker.reconstruct());

    let x2 = x.clone();
    let exec = test_exec_args("env_transport_distributed_hooi_matches_sequential");
    let handle = spmd_transport(
        kind,
        "hooi_env",
        ProcGrid::new(&grid),
        &exec,
        move |comm: Communicator| -> Vec<f64> {
            let dx = DistTensor::from_global(&comm, &x2);
            let r = dist_hooi(&comm, &dx, &opts);
            match r.tucker.gather_to_root(&comm) {
                Some(t) => t.reconstruct().as_slice().to_vec(),
                None => vec![],
            }
        },
    );
    let rec = DenseTensor::from_vec(&dims, handle.results[0].clone());
    let dist_err = normalized_rms_error(&x, &rec);
    assert!(
        (seq_err - dist_err).abs() < 1e-8 * (1.0 + seq_err),
        "{} backend: sequential fit {seq_err} vs distributed {dist_err}",
        kind.label()
    );
    if matches!(kind, TransportKind::Tcp) && p > 1 {
        let wire: u64 = handle.stats.iter().map(|s| s.wire_bytes_sent).sum();
        assert!(wire > 0, "a tcp run must move real bytes on the wire");
    }
}

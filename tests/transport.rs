//! Multi-process transport tests: the `tucker-net` TCP backend must be a
//! drop-in, *bit-identical* replacement for the in-process backend.
//!
//! Every `#[test]` here that uses [`TransportKind::Tcp`] really spawns
//! worker processes: the launcher re-execs this very test binary with
//! `[test_name, "--exact"]` plus `TUCKER_NET_*` env vars, so each worker
//! runs exactly this test up to the same `spmd_transport` call and joins the
//! socket mesh as its assigned rank. Assertions therefore run in *every*
//! process — a worker that disagrees exits non-zero and fails the region.
//!
//! The capstones mirror the repo's determinism contract (ARCHITECTURE §10):
//! the same grid must produce bit-identical factor/core data and
//! byte-identical `.tkr` artifacts whether ranks are threads or processes.

use parallel_tucker::prelude::*;
use tucker_distmem::collectives::all_reduce;
use tucker_distmem::subcomm::SubCommunicator;
use tucker_net::{NetError, SpmdHandle};

fn structured_tensor(dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = 1.0;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.17 * i as f64).sin();
        }
        v
    })
}

/// Flattens a gathered Tucker decomposition to exact bit-comparable words.
fn tucker_bits(t: &tucker_core::tucker::TuckerTensor) -> Vec<f64> {
    let mut out: Vec<f64> = t.core.as_slice().to_vec();
    for f in &t.factors {
        out.extend_from_slice(f.as_slice());
    }
    out
}

fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit divergence at word {i}: {x:e} vs {y:e}"
        );
    }
}

#[test]
fn tcp_allreduce_matches_inproc_bitwise() {
    let grid = [2usize];
    let f = |comm: Communicator| -> Vec<f64> {
        let data: Vec<f64> = (0..64)
            .map(|i| ((comm.rank() + 1) as f64 * 0.37 * i as f64).sin())
            .collect();
        let g = SubCommunicator::world_group(&comm);
        all_reduce(&g, &data)
    };
    let inproc: SpmdHandle<Vec<f64>> = spmd_transport(
        TransportKind::InProc,
        "allreduce",
        ProcGrid::new(&grid),
        &test_exec_args("tcp_allreduce_matches_inproc_bitwise"),
        f,
    );
    let tcp: SpmdHandle<Vec<f64>> = spmd_transport(
        TransportKind::Tcp,
        "allreduce",
        ProcGrid::new(&grid),
        &test_exec_args("tcp_allreduce_matches_inproc_bitwise"),
        f,
    );
    for r in 0..2 {
        assert_same_bits(&inproc.results[r], &tcp.results[r], "all_reduce");
        // Logical volume (messages/words) is transport-invariant...
        assert_eq!(inproc.stats[r].words_sent, tcp.stats[r].words_sent);
        assert_eq!(inproc.stats[r].messages_sent, tcp.stats[r].messages_sent);
        // ...while wire bytes exist only where real sockets do.
        assert_eq!(inproc.stats[r].wire_bytes_sent, 0);
        assert!(tcp.stats[r].wire_bytes_sent > 0, "rank {r} sent no bytes?");
    }
}

#[test]
fn tcp_transport_kind_is_visible_to_ranks() {
    let h: SpmdHandle<Vec<f64>> = spmd_transport(
        TransportKind::Tcp,
        "kind-check",
        ProcGrid::new(&[2]),
        &test_exec_args("tcp_transport_kind_is_visible_to_ranks"),
        |comm: Communicator| -> Vec<f64> {
            assert_eq!(comm.transport_kind(), "tcp");
            vec![comm.rank() as f64]
        },
    );
    assert_eq!(h.results, vec![vec![0.0], vec![1.0]]);
}

#[test]
fn tcp_wire_bytes_are_exact_per_frame() {
    // One 37-word message rank 0 → rank 1, then one barrier. Every frame is
    // 5 bytes of framing + an 8-byte region stamp + an 8-byte count/seq, so:
    //   rank 0 sends MSG (21 + 8·37) and RELEASE (21)   = 338
    //   rank 1 sends BARRIER (21)                        = 21
    // and each side receives exactly what the other sent. The satellite
    // contract: framing overhead is *in* the counters, volumes stay exact.
    let words = 37usize;
    let h: SpmdHandle<Vec<f64>> = spmd_transport(
        TransportKind::Tcp,
        "byte-audit",
        ProcGrid::new(&[2]),
        &test_exec_args("tcp_wire_bytes_are_exact_per_frame"),
        move |comm: Communicator| -> Vec<f64> {
            let out = if comm.rank() == 0 {
                comm.send(1, &vec![0.5; words]);
                vec![]
            } else {
                comm.recv(0)
            };
            comm.barrier();
            out
        },
    );
    let msg = 21 + 8 * words as u64;
    assert_eq!(h.stats[0].wire_bytes_sent, msg + 21);
    assert_eq!(h.stats[0].wire_bytes_received, 21);
    assert_eq!(h.stats[1].wire_bytes_sent, 21);
    assert_eq!(h.stats[1].wire_bytes_received, msg + 21);
}

#[test]
fn tcp_dist_sthosvd_matches_inproc_bitwise() {
    let dims = [12usize, 10, 8];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![4, 3, 3]);
    let grid = [2usize, 1, 1];
    let exec = test_exec_args("tcp_dist_sthosvd_matches_inproc_bitwise");
    let f = {
        let x = x.clone();
        let opts = opts.clone();
        move |comm: Communicator| -> Vec<f64> {
            let dx = DistTensor::from_global(&comm, &x);
            let r = try_dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm)).unwrap();
            match r.tucker.gather_to_root(&comm) {
                Some(t) => tucker_bits(&t),
                None => vec![],
            }
        }
    };
    let inproc: SpmdHandle<Vec<f64>> = spmd_transport(
        TransportKind::InProc,
        "dist-sthosvd",
        ProcGrid::new(&grid),
        &exec,
        f.clone(),
    );
    let tcp: SpmdHandle<Vec<f64>> = spmd_transport(
        TransportKind::Tcp,
        "dist-sthosvd",
        ProcGrid::new(&grid),
        &exec,
        f,
    );
    assert!(!inproc.results[0].is_empty());
    assert_same_bits(&inproc.results[0], &tcp.results[0], "dist_st_hosvd");
    // Same algorithm, same grid — identical logical communication volume.
    for r in 0..2 {
        assert_eq!(inproc.stats[r].words_sent, tcp.stats[r].words_sent);
    }
}

#[test]
fn tcp_artifact_bytes_identical_on_2x2_grid() {
    // The transport contract's capstone: `try_dist_st_hosvd_ctx` on a 2×2 grid must
    // produce a byte-identical `.tkr` whether the four ranks are threads or
    // spawned processes. Rank 0 writes the artifact and ships its raw bytes
    // through the result table, so every *process* (launcher and workers
    // alike) performs the comparison against its own local in-process run.
    let dims = [12usize, 10, 8];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![4, 3, 3]);
    let grid = [2usize, 2, 1];
    let exec = test_exec_args("tcp_artifact_bytes_identical_on_2x2_grid");
    let make = |tag: &'static str| {
        let x = x.clone();
        let opts = opts.clone();
        move |comm: Communicator| -> Vec<u8> {
            let dx = DistTensor::from_global(&comm, &x);
            let r = try_dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm)).unwrap();
            match r.tucker.gather_to_root(&comm) {
                Some(t) => {
                    let path = std::env::temp_dir()
                        .join(format!("transport_{}_{tag}.tkr", std::process::id()));
                    write_tucker_ctx(
                        &path,
                        &t,
                        &StoreOptions::new(Codec::F64, 1e-6),
                        tucker_exec::ExecContext::global(),
                    )
                    .expect("write .tkr");
                    let bytes = std::fs::read(&path).expect("read .tkr back");
                    let _ = std::fs::remove_file(&path);
                    bytes
                }
                None => vec![],
            }
        }
    };
    let inproc: SpmdHandle<Vec<u8>> = spmd_transport(
        TransportKind::InProc,
        "tkr-identity",
        ProcGrid::new(&grid),
        &exec,
        make("inproc"),
    );
    let tcp: SpmdHandle<Vec<u8>> = spmd_transport(
        TransportKind::Tcp,
        "tkr-identity",
        ProcGrid::new(&grid),
        &exec,
        make("tcp"),
    );
    assert!(!inproc.results[0].is_empty(), "root wrote no artifact");
    assert_eq!(
        inproc.results[0], tcp.results[0],
        ".tkr artifact bytes diverge between transports"
    );
}

#[test]
fn tcp_session_is_reused_across_regions() {
    // Three regions in one test: one process fleet, three REGION handshakes.
    let exec = test_exec_args("tcp_session_is_reused_across_regions");
    let mut previous: Option<Vec<f64>> = None;
    for round in 0..3u64 {
        let h: SpmdHandle<Vec<f64>> = spmd_transport(
            TransportKind::Tcp,
            "reuse",
            ProcGrid::new(&[2]),
            &exec,
            move |comm: Communicator| -> Vec<f64> {
                let g = SubCommunicator::world_group(&comm);
                all_reduce(&g, &[(comm.rank() as f64 + 1.0) * (round as f64 + 1.0)])
            },
        );
        let expected = 3.0 * (round as f64 + 1.0);
        assert_eq!(h.results[0], vec![expected]);
        assert_eq!(h.results[1], vec![expected]);
        if let Some(prev) = previous.take() {
            assert_ne!(prev, h.results[0], "rounds should differ");
        }
        previous = Some(h.results[0].clone());
    }
}

#[test]
fn tcp_worker_panic_is_typed_and_poisons_the_session() {
    let exec = test_exec_args("tcp_worker_panic_is_typed_and_poisons_the_session");
    let err = try_spmd_transport(
        TransportKind::Tcp,
        "panic-region",
        ProcGrid::new(&[2]),
        &exec,
        |comm: Communicator| -> Vec<f64> {
            if comm.rank() == 1 {
                panic!("rank 1 exploded deliberately");
            }
            // Rank 0 blocks on the dead rank; the abort must fail it typed.
            comm.recv(1)
        },
    )
    .unwrap_err();
    match &err {
        NetError::RankPanicked { rank, message } => {
            assert_eq!(*rank, 1, "root cause misattributed: {err}");
            assert!(
                message.contains("exploded deliberately"),
                "message lost: {message}"
            );
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
    // The mesh is unknowable now: the next region must refuse immediately.
    let t0 = std::time::Instant::now();
    let err2 = try_spmd_transport(
        TransportKind::Tcp,
        "after-poison",
        ProcGrid::new(&[2]),
        &exec,
        |_comm: Communicator| -> Vec<f64> { vec![] },
    )
    .unwrap_err();
    assert!(
        matches!(err2, NetError::SessionPoisoned { .. }),
        "expected SessionPoisoned, got {err2:?}"
    );
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "poisoned session should fail fast"
    );
}

#[test]
fn env_selected_transport_runs_distributed_equivalence() {
    // The gate ci.sh re-runs with TUCKER_TRANSPORT=tcp and TUCKER_RANKS=2/4:
    // the backend and process count come from the environment, the
    // assertions don't change. Under the default (inproc) env this still
    // verifies the sequential/distributed agreement.
    let ctx = ExecContext::global();
    let kind = transport_from_env();
    let p = if kind == TransportKind::Tcp {
        env_ranks()
    } else {
        4
    };
    let grid: Vec<usize> = match p {
        1 => vec![1, 1, 1],
        2 => vec![2, 1, 1],
        4 => vec![2, 2, 1],
        8 => vec![2, 2, 2],
        other => vec![other, 1, 1],
    };
    let dims = [12usize, 10, 8];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![4, 3, 3]);
    let seq_rec = try_st_hosvd_ctx(&x, &opts, ctx)
        .unwrap()
        .tucker
        .reconstruct_ctx(ctx);
    let exec = test_exec_args("env_selected_transport_runs_distributed_equivalence");
    let h: SpmdHandle<Vec<f64>> =
        spmd_transport(kind, "env-equivalence", ProcGrid::new(&grid), &exec, {
            let x = x.clone();
            let opts = opts.clone();
            move |comm: Communicator| -> Vec<f64> {
                let dx = DistTensor::from_global(&comm, &x);
                let r = try_dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm)).unwrap();
                match r.tucker.gather_to_root(&comm) {
                    Some(t) => t.reconstruct_ctx(ctx).as_slice().to_vec(),
                    None => vec![],
                }
            }
        });
    let dist_rec = DenseTensor::from_vec(&dims, h.results[0].clone());
    let diff = normalized_rms_error(&seq_rec, &dist_rec);
    assert!(
        diff < 1e-8,
        "{} x {p}: distributed reconstruction deviates by {diff}",
        kind.label()
    );
}

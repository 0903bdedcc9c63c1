//! The distributed compress phase of `hcci_dist_tcp`: one SPMD region per
//! rep on grid `[2,1,…]` over `TransportKind::Tcp`, i.e. two real processes.
//!
//! The worker is this same binary re-exec'ed by `tucker-net` with the same
//! arguments, so it walks through `pipeline::run` up to this phase and meets
//! rank 0 in every region. How many regions there are is decided by rank 0's
//! clock, but through the region's result table — which every process
//! receives bit-identically — so all ranks agree on when to stop.

use std::path::Path;
use std::time::{Duration, Instant};

use tucker_core::dist::{dist_st_hosvd, DistTensor};
use tucker_distmem::{CostModel, MachineParams, ProcGrid, SpmdHandle, StatsSnapshot};
use tucker_net::frame::NET_FRAMES_SENT;
use tucker_net::{in_worker, spmd_transport, TransportKind};
use tucker_obs::metrics::Histogram;
use tucker_store::gather_and_write;
use tucker_tensor::DenseTensor;

use crate::pipeline::{
    artifact_hash, check_reps_identical, finish_recording, toggle_recording, Compressed, Cx,
};
use crate::procs;
use crate::spec::RANKS;
use crate::stats::median;

static REDUCE_SCATTER_US: Histogram = Histogram::new("distmem.reduce_scatter.us");
static ALL_REDUCE_US: Histogram = Histogram::new("distmem.all_reduce.us");

/// Slots of a region's per-rank result vector.
const TIMED: usize = 0;
const HOSVD: usize = 1;
const GATHER_WRITE: usize = 2;
const GRAM: usize = 3;
const EVECS: usize = 4;
const TTM: usize = 5;
const PHASE_ELAPSED: usize = 6;
const ERROR_BOUND: usize = 7;
const BYTES: usize = 8;
const RANKS_FROM: usize = 9;

fn grid_for(ndims: usize) -> ProcGrid {
    let mut shape = vec![1; ndims];
    shape[0] = RANKS;
    ProcGrid::new(&shape)
}

/// One region: distribute → barrier → **timed** `dist_st_hosvd` +
/// `gather_and_write` → barrier.
fn region(
    cx: &Cx,
    kind: TransportKind,
    x: &DenseTensor,
    path: &Path,
    phase_start: Instant,
) -> SpmdHandle<Vec<f64>> {
    let opts = cx.sthosvd_options();
    let store = cx.store_options();
    spmd_transport(
        kind,
        "compress",
        grid_for(x.ndims()),
        &cx.exec_args,
        |comm| -> Vec<f64> {
            let dx = DistTensor::from_global(&comm, x);
            comm.barrier();
            let t0 = Instant::now();
            let r = dist_st_hosvd(&comm, &dx, &opts);
            let t1 = Instant::now();
            let report = gather_and_write(&comm, &r.tucker, path, &store)
                .unwrap_or_else(|e| panic!("gather_and_write on rank {}: {e}", comm.rank()));
            comm.barrier();
            let t2 = Instant::now();
            let (gram, evecs, ttm) = r.timings.totals();
            let bound = if r.norm_x_sq > 0.0 {
                (r.discarded_energy.max(0.0) / r.norm_x_sq).sqrt()
            } else {
                0.0
            };
            let mut out = vec![
                (t2 - t0).as_secs_f64(),
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                gram,
                evecs,
                ttm,
                phase_start.elapsed().as_secs_f64(),
                bound,
                report.map_or(0.0, |rep| rep.bytes as f64),
            ];
            out.extend(r.ranks.iter().map(|&r| r as f64));
            out
        },
    )
}

/// The first region: spawns the worker processes and wires the mesh. Called
/// before set-up so that all ranks generate their input side by side; returns
/// the spawn + rendezvous seconds (a set-up cost).
pub fn rendezvous(cx: &mut Cx, ndims: usize) -> f64 {
    let span = cx.tr.enter("net.spawn_rendezvous");
    spmd_transport(
        TransportKind::Tcp,
        "hello",
        grid_for(ndims),
        &cx.exec_args,
        |comm| {
            comm.barrier();
            0.0f64
        },
    );
    let rendezvous_s = cx.tr.exit(span);
    cx.vals.set("net.spawn_rendezvous_s", rendezvous_s);
    rendezvous_s
}

/// Runs the distributed compress phase; `None` in a worker process.
pub fn compress_phase(cx: &mut Cx, x: &DenseTensor) -> Option<Compressed> {
    let path = cx.scratch.path("artifact.tkr");
    let grid = grid_for(x.ndims());
    let budget = cx.budget(0);

    let phase = cx.tr.enter("bench.compress_phase");
    let phase_start = Instant::now();
    let warmups = 1;
    let (mut reps, mut reps_on) = (Vec::new(), Vec::new());
    let mut hashes = Vec::new();
    let mut handles: Vec<SpmdHandle<Vec<f64>>> = Vec::new();
    let hists = [&REDUCE_SCATTER_US, &ALL_REDUCE_US];
    let mut hist0 = hists.map(|h| h.snapshot());
    let mut frames0 = NET_FRAMES_SENT.value();
    let mut n = 0;
    loop {
        let timed = n >= warmups;
        if n == warmups {
            hist0 = hists.map(|h| h.snapshot());
            frames0 = NET_FRAMES_SENT.value();
        }
        let on = timed && toggle_recording(cx, n - warmups);
        let span = cx.tr.enter("core.dist_region");
        let h = region(cx, TransportKind::Tcp, x, &path, phase_start);
        cx.tr.exit(span);
        n += 1;
        // Rank 0's numbers, identical in every process.
        let rank0_elapsed = h.results[0][PHASE_ELAPSED];
        if timed {
            cx.ops_attempted += 1;
            (if on { &mut reps_on } else { &mut reps }).push(h.results[0][TIMED]);
            hashes.push(artifact_hash(&path));
            handles.push(h);
        }
        let want = warmups + cx.min_reps();
        if n >= want && rank0_elapsed >= budget {
            break;
        }
    }
    finish_recording(cx, &reps, &reps_on);
    let timed_regions = handles.len() as f64;
    let hist1 = hists.map(|h| h.snapshot());
    let frames = (NET_FRAMES_SENT.value() - frames0) as f64 / timed_regions;

    // Last region: every rank reports its pid, so rank 0 can see them end.
    let bye = spmd_transport(
        TransportKind::Tcp,
        "bye",
        grid.clone(),
        &cx.exec_args,
        |_comm| std::process::id() as u64,
    );
    cx.tr.exit(phase);
    if in_worker() {
        return None;
    }
    // Rank 0's peak over the timed regions, before the in-process comparison
    // below puts both ranks' blocks into this process.
    let peak_rss_mb = crate::host::peak_rss_mb();
    let workers: Vec<u32> = bye.results[1..].iter().map(|&p| p as u32).collect();
    cx.checks.record(
        "workers_exited",
        procs::wait_for_exit(&workers, Duration::from_secs(20)),
        format!("worker pids {workers:?}"),
    );

    // ---- byte identity: across reps, and against the in-process backend ----
    check_reps_identical(cx, &hashes);
    let inproc_path = cx.scratch.path("inproc.tkr");
    let mut inproc_s = Vec::new();
    for _ in 0..if cx.trace { 2 } else { 1 } {
        let span = cx.tr.enter("core.dist_region_inproc");
        let h = region(cx, TransportKind::InProc, x, &inproc_path, phase_start);
        cx.tr.exit(span);
        inproc_s.push(h.results[0][TIMED]);
    }
    let last = handles.last().expect("at least MIN_REPS timed regions");
    let total: StatsSnapshot = last.total_stats();
    cx.checks.record(
        "tcp_artifact_equals_inproc",
        artifact_hash(&inproc_path) == hashes[0] && total.wire_bytes_sent > 0,
        format!("{} bytes on the wire per region", total.wire_bytes_sent),
    );
    let exact =
        |f: fn(&StatsSnapshot) -> u64| handles.iter().all(|h| f(&h.total_stats()) == f(&total));
    cx.checks.record(
        "comm_volume_repeats_exactly",
        exact(|s| s.words_sent) && exact(|s| s.messages_sent) && exact(|s| s.wire_bytes_sent),
        format!(
            "{} words, {} messages per region",
            total.words_sent, total.messages_sent
        ),
    );

    // ---- per-layer numbers (cheap; the traced run prints them) -------------
    let all_reps: Vec<f64> = reps.iter().chain(&reps_on).copied().collect();
    let tcp_s = median(&all_reps);
    let max_over_ranks = |slot: usize| -> f64 {
        median(
            &handles
                .iter()
                .map(|h| h.results.iter().map(|r| r[slot]).fold(0.0, f64::max))
                .collect::<Vec<_>>(),
        )
    };
    cx.vals.set("core.dist_gram_s", max_over_ranks(GRAM));
    cx.vals.set("core.dist_evecs_s", max_over_ranks(EVECS));
    cx.vals.set("core.dist_ttm_s", max_over_ranks(TTM));
    cx.vals
        .set("store.gather_write_s", max_over_ranks(GATHER_WRITE));
    cx.vals.set("distmem.words_sent", total.words_sent as f64);
    cx.vals
        .set("distmem.messages_sent", total.messages_sent as f64);
    cx.vals.set("net.wire_bytes", total.wire_bytes_sent as f64);
    cx.vals.set("net.frames_sent", frames);
    let mean_us = |i: usize| {
        let count = hist1[i].count - hist0[i].count;
        (hist1[i].sum_us - hist0[i].sum_us) as f64 / count.max(1) as f64
    };
    cx.vals.set("distmem.reduce_scatter_us", mean_us(0));
    cx.vals.set("distmem.all_reduce_us", mean_us(1));

    let ranks: Vec<usize> = last.results[0][RANKS_FROM..]
        .iter()
        .map(|&r| r as usize)
        .collect();
    if cx.trace {
        let overhead_s = tcp_s - median(&inproc_s);
        cx.vals.set("net.wire_overhead_s", overhead_s);
        cx.vals.set("net.comm_frac", overhead_s / tcp_s);
        cx.vals.set(
            "net.effective_gb_s",
            total.wire_bytes_sent as f64 / overhead_s.max(1e-9) / 1e9,
        );
        // The paper's Sec. VI validation against a real carrier: α-β-γ with
        // this run's measured machine parameters.
        let params = MachineParams::from_measurements(
            cx.vals.get("machine.peak_gflops_1t") * 1e9,
            cx.vals.get("machine.loopback_rtt_us") * 0.5e-6,
            cx.vals.get("machine.loopback_gb_s") * 1e9 / 8.0,
        );
        let order: Vec<usize> = (0..x.ndims()).collect();
        let cost = CostModel::new(grid, params).st_hosvd(x.dims(), &ranks, &order);
        let model_s = cost.time(&params);
        let hosvd_s = max_over_ranks(HOSVD);
        cx.vals.set("distmem.model_s", model_s);
        cx.vals.set("distmem.model_vs_measured", model_s / hosvd_s);
        cx.vals.set(
            "distmem.words_vs_model",
            last.max_stats().words_sent as f64 / cost.words.max(1.0),
        );
    }
    reps.extend(reps_on);
    Some(Compressed {
        path,
        bytes: last.results[0][BYTES] as u64,
        ranks,
        error_bound: last.results[0][ERROR_BOUND],
        reps,
        peak_rss_mb,
    })
}

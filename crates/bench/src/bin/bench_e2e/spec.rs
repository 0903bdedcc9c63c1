//! The normative tables: workloads, end-to-end metrics with their regression
//! bounds, and per-layer metrics with the end-to-end metric each is expected
//! to move. `BENCHMARK.json` at the repo root is generated from these tables
//! (`bench_e2e manifest`), and every run fills exactly these names.

use tucker_scidata::DatasetPreset;

use crate::json::Json;

/// How the compress phase of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressMode {
    /// `Compressor::new(&x)` on the resident tensor.
    InMemory,
    /// `Compressor::from_slabs(&FileSlabSource)` over a raw file written by
    /// a separate `prepare` process; the tensor is never resident.
    Streaming,
    /// `dist_st_hosvd` + `gather_and_write` on grid `[2,1,…]` over
    /// `TransportKind::Tcp`, two processes.
    DistTcp,
}

/// One workload: the same pipeline (compress → write → open → reconstruct →
/// serve queries) with a different input, compress mode and time split.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub preset: DatasetPreset,
    pub scale: usize,
    pub eps: f64,
    pub mode: CompressMode,
    /// `TUCKER_THREADS` of every process of the workload.
    pub threads: usize,
    /// `ServeConfig::cache_chunks` of the query phase.
    pub cache_chunks: usize,
    /// Share of `--seconds` given to the compress / reconstruct / query
    /// phase. The dominant share is the layer the workload was built for.
    pub share: [f64; 3],
    /// Thread budget of the compress and reconstruct phases (`None`: the
    /// whole pool). The serve workloads prepare their artifact on one
    /// thread: at SP x1 size a 2-thread compress is 20 ms of mostly pool
    /// wake-ups whose run median moves 20% between runs, a 1-thread one 1%.
    pub prep_threads: Option<usize>,
}

pub const RANKS: usize = 2;
pub const CLIENTS: usize = 2;

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sp_inmem",
        why: "Kernel-bound: SP x3 (382 MB) in memory, ranks [5,5,5,2,6], 11 KB artifact; tensor/linalg/exec do the work, store/net/serve almost none",
        preset: DatasetPreset::Sp,
        scale: 3,
        eps: 1e-3,
        mode: CompressMode::InMemory,
        threads: 2,
        cache_chunks: 64,
        share: [0.6, 0.15, 0.25],
        prep_threads: None,
    },
    Workload {
        name: "hcci_stream",
        why: "Out-of-core: HCCI x3 (106 MB) streamed from a raw file in width-1 slabs; slab kernels, file reads and an 8 MB artifact write, tensor never resident",
        preset: DatasetPreset::Hcci,
        scale: 3,
        eps: 5e-4,
        mode: CompressMode::Streaming,
        threads: 2,
        cache_chunks: 8,
        share: [0.6, 0.1, 0.3],
        prep_threads: None,
    },
    Workload {
        name: "hcci_dist_tcp",
        why: "Comm-heavy: the same HCCI x3 on grid [2,1,1,1] over loopback TCP, 2 processes x 1 thread, 199 MB on the wire per compress; net and distmem cost nothing elsewhere",
        preset: DatasetPreset::Hcci,
        scale: 3,
        eps: 5e-4,
        mode: CompressMode::DistTcp,
        threads: 1,
        cache_chunks: 8,
        share: [0.85, 0.05, 0.1],
        prep_threads: None,
    },
    Workload {
        name: "serve_small",
        why: "Wire-bound: 2 closed-loop clients on a 10 KB SP x1 artifact that fits the cache; framing, sessions, admission and syscalls dominate each op",
        preset: DatasetPreset::Sp,
        scale: 1,
        eps: 1e-3,
        mode: CompressMode::InMemory,
        threads: 2,
        cache_chunks: 64,
        share: [0.1, 0.05, 0.85],
        prep_threads: Some(1),
    },
    Workload {
        name: "serve_large",
        why: "Query-bound: 2 closed-loop clients on the 8 MB HCCI x3 artifact, 21 chunks behind an 8-chunk cache; chunk decode, cache churn and core contraction dominate",
        preset: DatasetPreset::Hcci,
        scale: 3,
        eps: 5e-4,
        mode: CompressMode::InMemory,
        threads: 2,
        cache_chunks: 8,
        share: [0.2, 0.05, 0.75],
        prep_threads: Some(1),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// Every workload reports every one of these (tracing off). `failed_frac` is
/// not in the list because it must be 0 and the driver's contract wants
/// metrics that never are: it travels as the `failed`/`attempted` pair.
pub static END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "compress_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "reconstruct_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "rel_error",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "compression_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this number should move; on
    /// every other pairing the prediction is "no change".
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as Hi, Lower as Lo};

/// Every traced run reports every one of these; a layer the workload never
/// enters reads 0 (e.g. `net.*` outside `hcci_dist_tcp`).
pub static PER_LAYER: [PerLayer; 84] = [
    // machine: bench-side probes, the denominators.
    pl(
        "machine.peak_gflops_1t",
        "GFLOP/s",
        Hi,
        "denominator of linalg.*_pct_peak; gamma of distmem.model_s",
    ),
    pl(
        "machine.peak_gflops_2t",
        "GFLOP/s",
        Hi,
        "denominator of linalg.*_pct_peak at 2 threads",
    ),
    pl(
        "machine.triad_gb_s",
        "GB/s",
        Hi,
        "ceiling for tensor.ttm_gb_s",
    ),
    pl(
        "machine.loopback_rtt_us",
        "us",
        Lo,
        "alpha of distmem.model_s; floor of query_p50_ms on serve_small",
    ),
    pl(
        "machine.loopback_gb_s",
        "GB/s",
        Hi,
        "beta of distmem.model_s; ceiling for net.effective_gb_s",
    ),
    // scidata
    pl("scidata.generate_s", "s", Lo, "setup_s (all)"),
    pl("scidata.generate_mb_s", "MB/s", Hi, "setup_s (all)"),
    // exec
    pl("exec.busy_frac", "ratio", Hi, "compress_s on sp_inmem"),
    pl(
        "exec.scatter_us",
        "us",
        Lo,
        "compress_s on hcci_stream (many small slab kernels), sp_inmem",
    ),
    pl("exec.speedup_2t", "ratio", Hi, "compress_s on sp_inmem"),
    // linalg
    pl(
        "linalg.gemm_gflops",
        "GFLOP/s",
        Hi,
        "compress_s on sp_inmem (mode-0 TTM shape)",
    ),
    pl("linalg.gemm_pct_peak", "%", Hi, "compress_s on sp_inmem"),
    pl(
        "linalg.gemm512_gflops",
        "GFLOP/s",
        Hi,
        "compress_s (square 512 reference shape)",
    ),
    pl(
        "linalg.syrk_gflops",
        "GFLOP/s",
        Hi,
        "compress_s on sp_inmem (mode-0 Gram shape)",
    ),
    pl("linalg.syrk_pct_peak", "%", Hi, "compress_s on sp_inmem"),
    pl(
        "linalg.eig_s",
        "s",
        Lo,
        "compress_s on hcci_* (large Gram matrices)",
    ),
    pl(
        "linalg.eig_frac",
        "ratio",
        Lo,
        "compress_s: ROADMAP B(c), below 0.05 means delete the blocked path",
    ),
    pl(
        "linalg.qr_gflops",
        "GFLOP/s",
        Hi,
        "nothing: QR is on no pipeline path today",
    ),
    pl(
        "linalg.svd_s",
        "s",
        Lo,
        "nothing: SVD is on no pipeline path today",
    ),
    // tensor
    pl("tensor.gram_s", "s", Lo, "compress_s on sp_inmem"),
    pl(
        "tensor.gram_gflops",
        "GFLOP/s",
        Hi,
        "compress_s on sp_inmem",
    ),
    pl("tensor.ttm_s", "s", Lo, "compress_s on sp_inmem"),
    pl("tensor.ttm_gflops", "GFLOP/s", Hi, "compress_s on sp_inmem"),
    pl(
        "tensor.ttm_gb_s",
        "GB/s",
        Hi,
        "compress_s on sp_inmem (computed bytes vs machine.triad_gb_s)",
    ),
    pl("tensor.norm_s", "s", Lo, "compress_s on sp_inmem"),
    pl("tensor.slab_gram_s", "s", Lo, "compress_s on hcci_stream"),
    pl("tensor.slab_ttm_s", "s", Lo, "compress_s on hcci_stream"),
    pl(
        "tensor.reconstruct_ttm_s",
        "s",
        Lo,
        "reconstruct_s on sp_inmem",
    ),
    // core
    pl("core.sthosvd_s", "s", Lo, "compress_s on sp_inmem, serve_*"),
    pl(
        "core.input_copy_s",
        "s",
        Lo,
        "compress_s, peak_rss_mb on sp_inmem (st_hosvd clones its input)",
    ),
    pl(
        "core.attrib_coverage",
        "ratio",
        Hi,
        "validity of the tensor/linalg attribution of compress_s",
    ),
    pl("core.streaming_s", "s", Lo, "compress_s on hcci_stream"),
    pl(
        "core.stream_slab_reads",
        "count",
        Lo,
        "compress_s, peak_rss_mb on hcci_stream",
    ),
    pl("core.stream_read_s", "s", Lo, "compress_s on hcci_stream"),
    pl("core.dist_gram_s", "s", Lo, "compress_s on hcci_dist_tcp"),
    pl("core.dist_evecs_s", "s", Lo, "compress_s on hcci_dist_tcp"),
    pl("core.dist_ttm_s", "s", Lo, "compress_s on hcci_dist_tcp"),
    pl("core.reconstruct_s", "s", Lo, "reconstruct_s (all)"),
    pl(
        "core.bound_tightness",
        "ratio",
        Lo,
        "rel_error (a-priori bound over achieved error)",
    ),
    // distmem
    pl(
        "distmem.words_sent",
        "count",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "distmem.messages_sent",
        "count",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "distmem.words_vs_model",
        "ratio",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "distmem.reduce_scatter_us",
        "us",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "distmem.all_reduce_us",
        "us",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "distmem.model_s",
        "s",
        Lo,
        "compress_s on hcci_dist_tcp (alpha-beta-gamma prediction)",
    ),
    pl(
        "distmem.model_vs_measured",
        "ratio",
        Hi,
        "compress_s on hcci_dist_tcp (paper Sec. VI validation)",
    ),
    // net
    pl("net.wire_bytes", "count", Lo, "compress_s on hcci_dist_tcp"),
    pl(
        "net.frames_sent",
        "count",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "net.wire_overhead_s",
        "s",
        Lo,
        "compress_s on hcci_dist_tcp (tcp region minus in-process region)",
    ),
    pl(
        "net.comm_frac",
        "ratio",
        Lo,
        "compress_s on hcci_dist_tcp: where ROADMAP B(b) overlap must show",
    ),
    pl(
        "net.effective_gb_s",
        "GB/s",
        Hi,
        "compress_s on hcci_dist_tcp (vs machine.loopback_gb_s)",
    ),
    pl(
        "net.spawn_rendezvous_s",
        "s",
        Lo,
        "setup_s on hcci_dist_tcp",
    ),
    // store
    pl(
        "store.write_s",
        "s",
        Lo,
        "compress_s on hcci_stream, serve_large",
    ),
    pl("store.encode_mb_s", "MB/s", Hi, "compress_s on hcci_stream"),
    pl(
        "store.gather_write_s",
        "s",
        Lo,
        "compress_s on hcci_dist_tcp",
    ),
    pl(
        "store.open_lazy_ms",
        "ms",
        Lo,
        "query_p50_ms first touch; serve.start_ms",
    ),
    pl(
        "store.open_eager_ms",
        "ms",
        Lo,
        "reconstruct_s on hcci_*, serve_large",
    ),
    pl(
        "store.decode_mb_s",
        "MB/s",
        Hi,
        "reconstruct_s; query_* on serve_large",
    ),
    pl(
        "store.query_element_ms",
        "ms",
        Lo,
        "query_p50_ms on serve_large",
    ),
    pl("store.query_range_ms", "ms", Lo, "query_qps on serve_large"),
    pl(
        "store.query_slice_ms",
        "ms",
        Lo,
        "query_p95_ms on serve_large",
    ),
    pl(
        "store.query_element_fit_ms",
        "ms",
        Lo,
        "query_p50_ms on serve_large if the cache held the working set",
    ),
    pl(
        "store.query_range_fit_ms",
        "ms",
        Lo,
        "query_qps on serve_large if the cache held the working set",
    ),
    pl(
        "store.query_slice_fit_ms",
        "ms",
        Lo,
        "query_p95_ms on serve_large if the cache held the working set",
    ),
    pl(
        "store.cache_hit_ratio",
        "ratio",
        Hi,
        "query_* on serve_large",
    ),
    pl(
        "store.decodes_per_query",
        "ratio",
        Lo,
        "query_* on serve_large",
    ),
    pl("store.evictions", "count", Lo, "query_* on serve_large"),
    // api
    pl(
        "api.facade_overhead_s",
        "s",
        Lo,
        "compress_s (all): expected ~0, the point of ROADMAP C",
    ),
    pl("api.plan_us", "us", Lo, "compress_s (all): expected ~0"),
    // serve
    pl(
        "serve.overhead_element_ms",
        "ms",
        Lo,
        "query_p50_ms on serve_small (client p50 minus direct reader)",
    ),
    pl(
        "serve.overhead_range_ms",
        "ms",
        Lo,
        "query_p50_ms on serve_small",
    ),
    pl(
        "serve.overhead_slice_ms",
        "ms",
        Lo,
        "query_p95_ms on serve_small",
    ),
    pl("serve.element_p50_ms", "ms", Lo, "query_p50_ms"),
    pl("serve.range_p50_ms", "ms", Lo, "query_p50_ms, query_qps"),
    pl("serve.slice_p50_ms", "ms", Lo, "query_p95_ms"),
    pl("serve.p99_ms", "ms", Lo, "tail beyond query_p95_ms"),
    pl(
        "serve.daemon_exec_ms",
        "ms",
        Lo,
        "query_* (client minus daemon = queue + wire)",
    ),
    pl(
        "serve.busy_rejections",
        "count",
        Lo,
        "failed ops on serve_*",
    ),
    pl("serve.payload_mb_s", "MB/s", Hi, "query_qps on serve_small"),
    pl("serve.connect_ms", "ms", Lo, "setup_s on serve_*"),
    pl("serve.start_ms", "ms", Lo, "setup_s on serve_*"),
    pl("serve.drain_ms", "ms", Lo, "teardown after the query phase"),
    // obs
    pl(
        "obs.trace_overhead_frac",
        "ratio",
        Lo,
        "every timing: traced over untraced compress reps, minus 1",
    ),
    pl("obs.spans", "count", Lo, "size of the written trace"),
];

/// How long one driver run measures; `all` defaults to it too.
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let dir = "crates/bench/src/bin/bench_e2e";
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{dir}/Cargo.toml"),
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    Json::obj()
        .with("command", Json::Arr(command))
        .with("paths", vec![dir])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.word())
                            .with("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.word())
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_driver_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(WORKLOADS
            .iter()
            .all(|w| (w.share.iter().sum::<f64>() - 1.0).abs() < 1e-9));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25 && unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(PER_LAYER
            .iter()
            .all(|m| unit_ok(m.unit) && !m.moves.is_empty()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let m = manifest();
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(m.to_pretty().len() < 64 * 1024);
        let Some(Json::Arr(cmd)) = m.get("command") else {
            panic!()
        };
        assert!(cmd.len() <= 32);
        assert!(cmd.iter().all(|c| c
            .as_str()
            .is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));
    }
}

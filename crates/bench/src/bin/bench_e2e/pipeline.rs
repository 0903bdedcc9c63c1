//! One workload, one process: set-up → compress → reconstruct → serve
//! queries → verify. Every workload runs this same pipeline; they differ in
//! input, compress mode and where `--seconds` is spent (see `spec`).
//!
//! With tracing off the run fills the end-to-end metrics. The traced run
//! spends half of each phase's time on the same calls under spans and the
//! other half on the per-layer probes of `layers` / `dist`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tucker_api::{Compressor, Open, TensorQuery, TuckerError, Written};
use tucker_core::sthosvd::SthosvdOptions;
use tucker_core::streaming::{st_hosvd_streaming_ctx, StreamingOptions};
use tucker_exec::ExecContext;
use tucker_obs::metrics::{Counter, Histogram};
use tucker_serve::{serve, ServeClient, ServeConfig};
use tucker_store::{Codec, StoreOptions, TkrReader};
use tucker_tensor::{relative_error, DenseTensor};

use crate::data::{self, FileSlabSource};
use crate::host::{self, Scratch};
use crate::json::Json;
use crate::ops::{fnv1a, run_on_client, run_on_reader, Class, OpStream, Reply, FNV_OFFSET};
use crate::report::{Checks, Report, Values};
use crate::spec::{CompressMode, Workload, CLIENTS};
use crate::stats;
use crate::trace::Tracer;
use crate::{dist, layers, procs};

static EXEC_BUSY_NS: Counter = Counter::new("exec.worker.busy_ns");
static EXEC_IDLE_NS: Counter = Counter::new("exec.worker.idle_ns");
static DECODE_BYTES: Counter = Counter::new("store.decode.bytes");
static OP_ELEMENT_US: Histogram = Histogram::new("serve.op.element.us");
static OP_RANGE_US: Histogram = Histogram::new("serve.op.range.us");
static OP_SLICE_US: Histogram = Histogram::new("serve.op.slice.us");

/// Full set-ups per run; `setup_s` is their median. Two, not more: one
/// set-up of SP x3 is 4.7 s, and set-ups are the largest fixed cost of a run.
const SETUP_REPS: usize = 2;
/// Timed reps a compress or reconstruct phase never goes below.
pub const MIN_REPS: usize = 3;
/// Registered name of the artifact behind the daemon.
const ARTIFACT: &str = "field";
/// Every `SAMPLE_EVERY`-th response of a client is fingerprinted and later
/// compared bit-for-bit with a direct reader.
const SAMPLE_EVERY: u64 = 10;
/// Client op spans kept per connection in a traced run.
const MAX_OP_SPANS: usize = 2000;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// This process's own arguments: what tucker-net re-execs workers with.
    pub exec_args: Vec<String>,
}

/// Everything a phase or probe needs.
pub struct Cx {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub scale: usize,
    pub exec_args: Vec<String>,
    pub exec: ExecContext,
    pub tr: Tracer,
    pub vals: Values,
    pub checks: Checks,
    pub details: Json,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub scratch: Scratch,
}

impl Cx {
    /// Seconds phase `p` (0 compress, 1 reconstruct, 2 query) may measure.
    pub fn budget(&self, p: usize) -> f64 {
        self.seconds * self.w.share[p] * if self.trace { 0.5 } else { 1.0 }
    }

    /// Timed compress reps a phase never goes below: [`MIN_REPS`], and one
    /// more in a traced run so both halves of the recording toggle get two.
    pub fn min_reps(&self) -> usize {
        MIN_REPS + self.trace as usize
    }

    /// The context the compress and reconstruct phases compute on: the
    /// pool, capped at the workload's `prep_threads`.
    pub fn prep_ctx(&self) -> ExecContext {
        match self.w.prep_threads {
            Some(n) => self.exec.with_budget(n),
            None => self.exec.clone(),
        }
    }

    pub fn sthosvd_options(&self) -> SthosvdOptions {
        SthosvdOptions::with_tolerance(self.w.eps)
    }

    pub fn store_options(&self) -> StoreOptions {
        StoreOptions::new(Codec::F32, self.w.eps)
    }

    fn op_failed(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.ops_failed += 1;
        eprintln!("bench_e2e: {what} failed: {err}");
    }
}

/// The workload's input as the compress phase sees it.
pub enum Input {
    Resident(DenseTensor),
    File(FileSlabSource),
}

/// What a compress phase leaves behind, whatever its mode.
pub struct Compressed {
    pub path: PathBuf,
    pub bytes: u64,
    pub ranks: Vec<usize>,
    /// `sqrt(Σ discarded) / ‖X‖`, the a-priori bound of eq. (3).
    pub error_bound: f64,
    pub reps: Vec<f64>,
    /// `VmHWM` right after the timed reps, before any verification.
    pub peak_rss_mb: f64,
}

/// Runs one workload in this process. `None` in a TCP worker process, whose
/// part ends with the compress phase.
pub fn run(args: &RunArgs) -> std::io::Result<Option<Report>> {
    let w = args.workload;
    let scale = if args.smoke { 1 } else { w.scale };
    let mut cx = Cx {
        w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        scale,
        exec_args: args.exec_args.clone(),
        exec: ExecContext::global().clone(),
        tr: Tracer::new(args.trace),
        vals: Values::default(),
        checks: Checks::default(),
        details: Json::obj(),
        ops_attempted: 0,
        ops_failed: 0,
        scratch: Scratch::create(w.name)?,
    };
    let jiffies = host::cpu_jiffies();
    let run_span = cx.tr.enter("bench.run");
    if cx.trace && !tucker_net::in_worker() {
        layers::machine(&mut cx);
        layers::exec_scatter(&mut cx);
    }

    // ---- set-up (never inside a timed region) -----------------------------
    let setup_span = cx.tr.enter("bench.setup");
    let rendezvous_s = if w.mode == CompressMode::DistTcp {
        let ndims = w.preset.surrogate_config(scale, data::DATA_SEED).grid.len() + 2;
        dist::rendezvous(&mut cx, ndims)
    } else {
        0.0
    };
    let (input, dims, mut setup_s) = setup(&mut cx)?;
    setup_s += rendezvous_s;
    cx.tr.exit(setup_span);
    let raw_bytes = dims.iter().product::<usize>() as f64 * 8.0;

    // ---- compress ----------------------------------------------------------
    host::reset_peak_rss();
    let comp = match (&input, w.mode) {
        (Input::Resident(x), CompressMode::DistTcp) => match dist::compress_phase(&mut cx, x) {
            Some(comp) => comp,
            None => return Ok(None),
        },
        _ => compress_local(&mut cx, &input),
    };
    let compress_s = stats::median(&comp.reps);

    // ---- where compress_s went (traced only) -------------------------------
    if cx.trace {
        let loaded;
        let x = match &input {
            Input::Resident(x) => x,
            Input::File(_) => {
                loaded = data::read_raw(&cx.scratch.path("input.raw"), &dims)?;
                &loaded
            }
        };
        compress_layers(&mut cx, x, &input, compress_s);
    }

    // ---- reconstruct -------------------------------------------------------
    let rec = reconstruct_phase(&mut cx, &comp.path);

    // ---- serve queries -----------------------------------------------------
    let direct_ms = if cx.trace {
        let budget = cx.budget(2);
        layers::store_replay(&mut cx, &comp.path, &dims, budget)
    } else {
        [0.0; 3]
    };
    let q = query_phase(&mut cx, &comp.path, &dims);
    setup_s += (q.start_ms + q.connect_ms) * 1e-3;

    // ---- verification (off the clock) --------------------------------------
    let verify_span = cx.tr.enter("bench.verify");
    let rel_error = match (&input, &rec) {
        (Input::Resident(x), Some(rec)) => relative_error(x, rec),
        (Input::File(src), Some(rec)) => data::slabwise_rel_error(src, rec),
        (_, None) => f64::NAN,
    };
    drop(rec);
    let budget = Open::lazy()
        .open(&comp.path)
        .map(|r| r.error_budget())
        .unwrap_or(f64::NAN);
    cx.checks.record(
        "rel_error_within_budget",
        rel_error <= budget,
        format!("rel_error {rel_error:.6e}, header error_budget {budget:.6e}"),
    );
    if let Input::File(_) = &input {
        verify_streaming_equals_in_memory(&mut cx, &comp, &dims)?;
    }
    verify_samples(&mut cx, &comp.path, &dims, &q);
    cx.tr.exit(verify_span);

    // ---- values -------------------------------------------------------------
    cx.vals.set("setup_s", setup_s);
    cx.vals.set_median("compress_s", &comp.reps);
    cx.vals.set("rel_error", rel_error);
    cx.vals
        .set("compression_ratio", raw_bytes / comp.bytes as f64);
    cx.vals.set("peak_rss_mb", comp.peak_rss_mb);
    query_values(&mut cx, &q, &direct_ms);
    cx.vals
        .set("core.bound_tightness", comp.error_bound / rel_error);
    cx.tr.exit(run_span);
    cx.vals.set("obs.spans", cx.tr.spans().len() as f64);

    let steal = host::steal_frac(jiffies);
    if steal > 0.05 {
        eprintln!(
            "bench_e2e: note: the hypervisor stole {:.0}% of CPU time during this run; timings are inflated",
            100.0 * steal
        );
    }
    cx.details
        .set("dims", dims.clone())
        .set("ranks", comp.ranks.clone())
        .set("artifact_bytes", comp.bytes)
        .set("raw_bytes", raw_bytes)
        .set("eps", w.eps)
        .set("compress_mode", format!("{:?}", w.mode))
        .set(
            "processes",
            if w.mode == CompressMode::DistTcp {
                crate::spec::RANKS
            } else {
                1
            },
        )
        .set(
            "transport",
            if w.mode == CompressMode::DistTcp {
                "tcp"
            } else {
                "none"
            },
        )
        .set("clients", CLIENTS)
        .set("cache_chunks", w.cache_chunks)
        .set("query_ops", q.ops())
        .set("seed", cx.seed)
        .set("seconds", cx.seconds)
        .set("smoke", cx.smoke)
        .set("cpu_steal_frac", steal)
        .set("host", host::fingerprint());
    if cx.trace {
        let mut layers = Json::obj();
        for (layer, secs) in cx.tr.layer_self_seconds() {
            layers.set(&layer, secs);
        }
        cx.details.set("layer_self_s", layers);
        let out = host::out_dir();
        std::fs::create_dir_all(&out)?;
        std::fs::write(
            out.join(format!("trace-{}.json", w.name)),
            cx.tr.chrome_trace(w.name).to_line(),
        )?;
    }
    Ok(Some(Report {
        workload: w.name,
        trace: cx.trace,
        values: cx.vals,
        checks: cx.checks,
        ops_attempted: cx.ops_attempted,
        ops_failed: cx.ops_failed,
        details: cx.details,
    }))
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// Generates (or, for the streaming workload, has a separate `prepare`
/// process generate and write) the input [`SETUP_REPS`] times over; returns
/// the last one, its dims, and the median seconds of one full set-up.
fn setup(cx: &mut Cx) -> std::io::Result<(Input, Vec<usize>, f64)> {
    // setup_s is an end-to-end metric; the traced run does not report it.
    let reps = if cx.smoke || cx.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut input = None;
    for _ in 0..reps {
        // One input resident at a time.
        drop(input.take());
        let t0 = Instant::now();
        let (made, gen_s) = match cx.w.mode {
            CompressMode::Streaming => {
                let raw = cx.scratch.path("input.raw");
                let (dims, gen_s) = procs::run_prepare(cx, &raw)?;
                (Input::File(FileSlabSource::open(&raw, &dims)?), gen_s)
            }
            _ => {
                let span = cx.tr.enter("scidata.generate_and_roll");
                let (x, gen_s) = data::generate(cx.w.preset, cx.scale, cx.seed);
                cx.tr.exit(span);
                (Input::Resident(x), gen_s)
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        generate_s.push(gen_s);
        input = Some(made);
    }
    let input = input.expect("at least one set-up");
    let dims = match &input {
        Input::Resident(x) => x.dims().to_vec(),
        Input::File(src) => tucker_tensor::SlabSource::dims(src).to_vec(),
    };
    cx.vals.set_median("scidata.generate_s", &generate_s);
    let mb = dims.iter().product::<usize>() as f64 * 8.0 / 1e6;
    cx.vals
        .set("scidata.generate_mb_s", mb / stats::median(&generate_s));
    cx.details.set("setup_reps_s", setup_s.clone());
    Ok((input, dims, stats::median(&setup_s)))
}

// ---------------------------------------------------------------------------
// compress (in-memory and streaming; the distributed phase is in `dist`)
// ---------------------------------------------------------------------------

/// The workload's compression, configured but not yet planned.
fn compressor<'a>(cx: &Cx, input: &'a Input) -> Compressor<'a> {
    let c = match input {
        Input::Resident(x) => Compressor::new(x),
        Input::File(src) => Compressor::from_slabs(src).slab_width(1),
    };
    let c = c.tolerance(cx.w.eps).codec(Codec::F32);
    match cx.w.prep_threads {
        Some(n) => c.threads(n),
        None => c,
    }
}

fn compress_once(cx: &Cx, input: &Input, path: &Path) -> Result<Written, TuckerError> {
    compressor(cx, input).write_to(path)
}

fn open_eager(cx: &Cx) -> Open {
    match cx.w.prep_threads {
        Some(n) => Open::eager().threads(n),
        None => Open::eager(),
    }
}

/// Fingerprint of the artifact on disk (0 if unreadable). Streams the file
/// through a small buffer: this runs between timed reps, and reading an 8 MB
/// artifact whole would show up in the phase's peak RSS.
pub fn artifact_hash(path: &Path) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut buf = [0u8; 1 << 16];
    let Ok(mut file) = std::fs::File::open(path) else {
        return 0;
    };
    loop {
        match std::io::Read::read(&mut file, &mut buf) {
            Ok(0) => return hash,
            Ok(n) => hash = fnv1a(hash, &buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return 0,
        }
    }
}

/// Every rep of a compress phase must leave the same artifact bytes.
pub fn check_reps_identical(cx: &mut Cx, hashes: &[u64]) {
    cx.checks.record(
        "artifact_bytes_identical_across_reps",
        hashes.windows(2).all(|h| h[0] == h[1]) && hashes.first().is_some_and(|&h| h != 0),
        format!(
            "{} reps, fingerprints {:x?}",
            hashes.len(),
            &hashes[..hashes.len().min(3)]
        ),
    );
}

/// Alternates span recording per timed rep in a traced run, so the traced
/// and untraced medians come from interleaved reps of the same phase.
pub fn toggle_recording(cx: &mut Cx, rep: usize) -> bool {
    let on = cx.trace && rep % 2 == 1;
    cx.tr.set_recording(on);
    on
}

/// Files `obs.trace_overhead_frac` from the two interleaved rep sets and
/// switches recording back on.
pub fn finish_recording(cx: &mut Cx, off: &[f64], on: &[f64]) {
    cx.tr.set_recording(cx.trace);
    if !off.is_empty() && !on.is_empty() {
        cx.vals.set(
            "obs.trace_overhead_frac",
            stats::median(on) / stats::median(off) - 1.0,
        );
    }
}

fn compress_local(cx: &mut Cx, input: &Input) -> Compressed {
    let path = cx.scratch.path("artifact.tkr");
    let budget = cx.budget(0);
    let phase = cx.tr.enter("bench.compress_phase");
    let t0 = Instant::now();
    // One warm-up rep: page cache, allocator arenas, pool threads.
    if let Err(e) = compress_once(cx, input, &path) {
        cx.op_failed("warm-up compress", &e);
    }
    if let Input::File(src) = input {
        src.take_read_stats();
    }
    let (busy0, idle0) = (EXEC_BUSY_NS.value(), EXEC_IDLE_NS.value());
    let (mut reps, mut reps_on) = (Vec::new(), Vec::new());
    let mut hashes = Vec::new();
    let mut last = None;
    let (mut slab_reads, mut read_s) = (Vec::new(), Vec::new());
    let mut attempts = 0;
    while reps.len() + reps_on.len() < cx.min_reps() || t0.elapsed().as_secs_f64() < budget {
        let on = toggle_recording(cx, attempts);
        attempts += 1;
        cx.ops_attempted += 1;
        let span = cx.tr.enter("api.write_to");
        let res = compress_once(cx, input, &path);
        let secs = cx.tr.exit(span);
        match res {
            Ok(written) => {
                (if on { &mut reps_on } else { &mut reps }).push(secs);
                last = Some(written);
            }
            Err(e) => {
                cx.op_failed("compress rep", &e);
                if attempts >= 3 * MIN_REPS && last.is_none() {
                    break;
                }
            }
        }
        hashes.push(artifact_hash(&path));
        if let Input::File(src) = input {
            let (n, s) = src.take_read_stats();
            slab_reads.push(n as f64);
            read_s.push(s);
        }
    }
    finish_recording(cx, &reps, &reps_on);
    let peak_rss_mb = host::peak_rss_mb();
    let busy = (EXEC_BUSY_NS.value() - busy0) as f64;
    let idle = (EXEC_IDLE_NS.value() - idle0) as f64;
    cx.vals.set("exec.busy_frac", busy / (busy + idle).max(1.0));
    cx.tr.exit(phase);

    check_reps_identical(cx, &hashes);
    if !slab_reads.is_empty() {
        cx.checks.record(
            "slab_reads_repeat_exactly",
            slab_reads.windows(2).all(|r| r[0] == r[1]),
            format!(
                "fill_slab calls per compress: {:?}",
                &slab_reads[..slab_reads.len().min(4)]
            ),
        );
        cx.vals.set("core.stream_slab_reads", slab_reads[0]);
        cx.vals.set_median("core.stream_read_s", &read_s);
    }
    reps.extend(reps_on);
    let (bytes, ranks, error_bound) = last.map_or((0, Vec::new(), f64::NAN), |w| {
        (
            w.report.bytes,
            w.compressed.ranks().to_vec(),
            w.compressed.sthosvd().map_or(f64::NAN, |r| r.error_bound()),
        )
    });
    Compressed {
        path,
        bytes,
        ranks,
        error_bound,
        reps,
        peak_rss_mb,
    }
}

/// The traced run's account of the compress phase, layer by layer.
fn compress_layers(cx: &mut Cx, x: &DenseTensor, input: &Input, compress_s: f64) {
    let opts = cx.sthosvd_options();
    let store = cx.store_options();
    let driver = layers::attribution(cx, x, &opts);
    layers::slab_kernels(cx, x, &driver);
    layers::linalg(cx, x, driver.ranks[0]);
    let probe_path = cx.scratch.path("probe.tkr");
    let write_s = layers::store_write_and_reconstruct(cx, &driver, &store, &probe_path);
    cx.vals
        .set("linalg.eig_frac", cx.vals.get("linalg.eig_s") / compress_s);

    let ctx = cx.prep_ctx();
    let mut plan_us = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        let plan = compressor(cx, input).plan();
        plan_us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(plan.is_ok());
    }
    cx.vals.set_median("api.plan_us", &plan_us);

    let kernel_s = match (input, cx.w.mode) {
        (Input::File(src), _) => {
            let stream = StreamingOptions::with_slab_width(1);
            let mut secs = Vec::new();
            for _ in 0..2 {
                secs.push(
                    cx.tr
                        .time("core.st_hosvd_streaming", || {
                            black_box(st_hosvd_streaming_ctx(src, &opts, &stream, &ctx))
                        })
                        .1,
                );
            }
            src.take_read_stats();
            cx.vals.set_median("core.streaming_s", &secs);
            Some(stats::median(&secs))
        }
        (_, CompressMode::InMemory) => Some(cx.vals.get("core.sthosvd_s")),
        // The distributed phase calls dist_st_hosvd directly: no facade.
        _ => None,
    };
    if let Some(kernel_s) = kernel_s {
        cx.vals
            .set("api.facade_overhead_s", compress_s - (kernel_s + write_s));
    }
}

// ---------------------------------------------------------------------------
// reconstruct
// ---------------------------------------------------------------------------

/// `Open::eager().open()` + full `reconstruct()`, repeated; returns the last
/// reconstruction for the error check.
fn reconstruct_phase(cx: &mut Cx, path: &Path) -> Option<DenseTensor> {
    let budget = cx.budget(1);
    let phase = cx.tr.enter("bench.reconstruct_phase");
    let t0 = Instant::now();
    let (mut reps, mut open_ms, mut rec_s, mut decode_mb_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut attempts = 0;
    // The first pass is the warm-up.
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < budget {
        attempts += 1;
        // Free the previous reconstruction first: two would double the peak.
        drop(last.take());
        let rep = cx.tr.enter("bench.reconstruct_rep");
        let decoded0 = DECODE_BYTES.value();
        let eager = open_eager(cx);
        let (reader, open_s) = cx.tr.time("store.open_eager", || eager.open(path));
        let decoded = (DECODE_BYTES.value() - decoded0) as f64;
        let (rec, r_s) = cx.tr.time("core.reconstruct", || {
            reader.and_then(|r| r.reconstruct().map_err(TuckerError::from))
        });
        let secs = cx.tr.exit(rep);
        if attempts == 1 {
            continue;
        }
        cx.ops_attempted += 1;
        match rec {
            Ok(rec) => {
                reps.push(secs);
                open_ms.push(open_s * 1e3);
                rec_s.push(r_s);
                decode_mb_s.push(decoded / open_s / 1e6);
                last = Some(rec);
            }
            Err(e) => {
                cx.op_failed("reconstruct rep", &e);
                if attempts > 3 * MIN_REPS {
                    break;
                }
            }
        }
    }
    cx.vals.set_median("reconstruct_s", &reps);
    cx.vals.set_median("store.open_eager_ms", &open_ms);
    cx.vals.set_median("store.decode_mb_s", &decode_mb_s);
    cx.vals.set_median("core.reconstruct_s", &rec_s);
    if cx.trace {
        let ctx = cx.exec.clone();
        let mut lazy_ms = Vec::new();
        for _ in 0..5 {
            let (r, secs) = cx.tr.time("store.open_lazy", || {
                TkrReader::open_with(path, cx.w.cache_chunks, &ctx)
            });
            black_box(r.is_ok());
            lazy_ms.push(secs * 1e3);
        }
        cx.vals.set_median("store.open_lazy_ms", &lazy_ms);
    }
    cx.tr.exit(phase);
    last
}

// ---------------------------------------------------------------------------
// serve queries
// ---------------------------------------------------------------------------

struct ClientLog {
    /// `(class, seconds)` of every completed op, in issue order.
    ops: Vec<(Class, f64)>,
    /// `(op index, fingerprint)` of the sampled responses.
    sampled: Vec<(u64, Reply)>,
    issued: u64,
    failed: u64,
    busy: u64,
    payload_values: u64,
    connect_ms: f64,
    spans: Vec<(Instant, f64)>,
}

pub struct QueryOut {
    clients: Vec<ClientLog>,
    wall_s: f64,
    pub start_ms: f64,
    pub connect_ms: f64,
    drain_ms: f64,
    daemon_exec_ms: f64,
}

impl QueryOut {
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops.len() as u64).sum()
    }
}

fn client_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    client: usize,
    dims: &[usize],
    start: &Barrier,
    budget: Duration,
    min_ops: u64,
) -> ClientLog {
    let mut log = ClientLog {
        ops: Vec::new(),
        sampled: Vec::new(),
        issued: 0,
        failed: 0,
        busy: 0,
        payload_values: 0,
        connect_ms: 0.0,
        spans: Vec::new(),
    };
    let t0 = Instant::now();
    let conn = ServeClient::connect(addr)
        .map_err(TuckerError::from)
        .and_then(|mut c| {
            c.open(ARTIFACT)?;
            Ok(c)
        });
    log.connect_ms = t0.elapsed().as_secs_f64() * 1e3;
    start.wait();
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_e2e: client {client} could not connect: {e}");
            log.issued = 1;
            log.failed = 1;
            return log;
        }
    };
    let mut stream = OpStream::new(seed, client, dims);
    let begin = Instant::now();
    while begin.elapsed() < budget || log.issued < min_ops {
        let op = stream.next_op();
        let t = Instant::now();
        let res = run_on_client(&op, &mut conn, ARTIFACT);
        let secs = t.elapsed().as_secs_f64();
        match res {
            Ok(raw) => {
                log.ops.push((op.class(), secs));
                log.payload_values += raw.values() as u64;
                if log.issued.is_multiple_of(SAMPLE_EVERY) {
                    log.sampled.push((log.issued, raw.reply()));
                }
                if log.spans.len() < MAX_OP_SPANS {
                    log.spans.push((t, secs));
                }
            }
            Err(e) => {
                log.failed += 1;
                if matches!(e, TuckerError::Busy { .. }) {
                    log.busy += 1;
                }
                // A dead connection would spin; a refused op is just counted.
                if log.failed > 100 {
                    break;
                }
            }
        }
        log.issued += 1;
    }
    log
}

/// Starts the daemon on the artifact and drives it with [`CLIENTS`]
/// closed-loop connections (each sends its next op when the previous reply
/// is in) for the phase's share of `--seconds`.
fn query_phase(cx: &mut Cx, path: &Path, dims: &[usize]) -> QueryOut {
    let budget = Duration::from_secs_f64(cx.budget(2));
    // 220 ops put 11 samples beyond the p95.
    let min_ops = if cx.smoke { 40 } else { 110 };
    let phase = cx.tr.enter("bench.query_phase");
    let hists = [&OP_ELEMENT_US, &OP_RANGE_US, &OP_SLICE_US];
    let before: Vec<_> = hists.iter().map(|h| h.snapshot()).collect();

    let t0 = Instant::now();
    let handle = serve(
        "127.0.0.1:0",
        &[(ARTIFACT.to_string(), path.to_path_buf())],
        ServeConfig {
            cache_chunks: cx.w.cache_chunks,
            ..ServeConfig::default()
        },
    );
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let handle = match handle {
        Ok(h) => h,
        Err(e) => {
            cx.checks.record("serve_start", false, e.to_string());
            cx.tr.exit(phase);
            return QueryOut {
                clients: Vec::new(),
                wall_s: 0.0,
                start_ms,
                connect_ms: 0.0,
                drain_ms: 0.0,
                daemon_exec_ms: 0.0,
            };
        }
    };
    let addr = handle.addr();
    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let seed = cx.seed;
    let (clients, wall_s) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let start = Arc::clone(&start);
                s.spawn(move || client_loop(addr, seed, c, dims, &start, budget, min_ops))
            })
            .collect();
        start.wait();
        let loop_span = cx.tr.enter("serve.closed_loop");
        let clients: Vec<ClientLog> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect();
        (clients, cx.tr.exit(loop_span))
    });
    for (c, log) in clients.iter().enumerate() {
        for &(at, secs) in &log.spans {
            cx.tr.add_foreign("serve.client_op", c as u32 + 1, at, secs);
        }
    }
    let (stats, drain_s) = cx.tr.time("serve.drain", || handle.shutdown());
    let (mut count, mut sum_us) = (0u64, 0u64);
    for (h, b) in hists.iter().zip(&before) {
        let a = h.snapshot();
        count += a.count - b.count;
        sum_us += a.sum_us - b.sum_us;
    }
    cx.tr.exit(phase);

    let issued: u64 = clients.iter().map(|c| c.issued).sum();
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    cx.ops_attempted += issued;
    cx.ops_failed += failed;
    cx.vals.set(
        "serve.busy_rejections",
        stats
            .busy_rejections
            .max(clients.iter().map(|c| c.busy).sum()) as f64,
    );
    QueryOut {
        connect_ms: stats::median(&clients.iter().map(|c| c.connect_ms).collect::<Vec<_>>()),
        clients,
        wall_s,
        start_ms,
        drain_ms: drain_s * 1e3,
        daemon_exec_ms: sum_us as f64 / count.max(1) as f64 / 1e3,
    }
}

/// Files the query metrics: throughput, the overall median and the highest
/// tail the sample supports (p95 needs ≥ 10 samples beyond it), then the
/// per-class and daemon-side numbers of the serve layer.
fn query_values(cx: &mut Cx, q: &QueryOut, direct_ms: &[f64; 3]) {
    let all: Vec<f64> = q
        .clients
        .iter()
        .flat_map(|c| c.ops.iter().map(|&(_, s)| s * 1e3))
        .collect();
    let sorted = stats::ascending(&all);
    cx.vals
        .set("query_qps", all.len() as f64 / q.wall_s.max(1e-9));
    cx.vals.set_median("query_p50_ms", &all);
    let p95 = stats::percentile_checked(&sorted, 0.95);
    cx.checks.record(
        "p95_has_ten_samples_beyond",
        cx.smoke || p95.is_some(),
        format!("{} ops completed", all.len()),
    );
    // Smoke runs are too short for a p95; they report the slowest op.
    cx.vals.set(
        "query_p95_ms",
        p95.unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0)),
    );
    cx.vals.set(
        "serve.p99_ms",
        stats::percentile_checked(&sorted, 0.99)
            .or(p95)
            .unwrap_or(0.0),
    );

    let names: [(&'static str, &'static str); 3] = [
        ("serve.element_p50_ms", "serve.overhead_element_ms"),
        ("serve.range_p50_ms", "serve.overhead_range_ms"),
        ("serve.slice_p50_ms", "serve.overhead_slice_ms"),
    ];
    for class in Class::ALL {
        let ms: Vec<f64> = q
            .clients
            .iter()
            .flat_map(|c| c.ops.iter().filter(|o| o.0 == class).map(|&(_, s)| s * 1e3))
            .collect();
        let (p50_name, overhead_name) = names[class.index()];
        cx.vals.set_median(p50_name, &ms);
        cx.vals
            .set(overhead_name, stats::median(&ms) - direct_ms[class.index()]);
    }
    let payload: u64 = q.clients.iter().map(|c| c.payload_values).sum();
    cx.vals.set(
        "serve.payload_mb_s",
        payload as f64 * 8.0 / 1e6 / q.wall_s.max(1e-9),
    );
    cx.vals.set("serve.daemon_exec_ms", q.daemon_exec_ms);
    cx.vals.set("serve.connect_ms", q.connect_ms);
    cx.vals.set("serve.start_ms", q.start_ms);
    cx.vals.set("serve.drain_ms", q.drain_ms);
}

// ---------------------------------------------------------------------------
// verification
// ---------------------------------------------------------------------------

/// The streamed artifact must be byte-identical to one in-memory
/// `Compressor::new` run on the same data.
fn verify_streaming_equals_in_memory(
    cx: &mut Cx,
    comp: &Compressed,
    dims: &[usize],
) -> std::io::Result<()> {
    let x = data::read_raw(&cx.scratch.path("input.raw"), dims)?;
    let path = cx.scratch.path("in_memory.tkr");
    let written = Compressor::new(&x)
        .tolerance(cx.w.eps)
        .codec(Codec::F32)
        .write_to(&path);
    let same = written.is_ok() && artifact_hash(&path) == artifact_hash(&comp.path);
    cx.checks.record(
        "streamed_artifact_equals_in_memory",
        same,
        format!(
            "in-memory run: {}",
            written.map_or_else(|e| e.to_string(), |w| format!("{} bytes", w.report.bytes))
        ),
    );
    Ok(())
}

/// Replays every sampled op on a direct reader and compares the response
/// bits. Each comparison counts as an attempted operation.
fn verify_samples(cx: &mut Cx, path: &Path, dims: &[usize], q: &QueryOut) {
    let reader = match TkrReader::open_with(path, 64, &cx.exec) {
        Ok(r) => r,
        Err(e) => {
            cx.checks.record("sample_reader_open", false, e.to_string());
            return;
        }
    };
    let (mut compared, mut mismatched) = (0u64, 0u64);
    for (c, log) in q.clients.iter().enumerate() {
        let mut stream = OpStream::new(cx.seed, c, dims);
        let mut consumed = 0u64;
        for &(index, reply) in &log.sampled {
            while consumed < index {
                stream.next_op();
                consumed += 1;
            }
            let op = stream.next_op();
            consumed += 1;
            compared += 1;
            match run_on_reader(&op, &reader) {
                Ok(raw) if raw.reply() == reply => {}
                _ => mismatched += 1,
            }
        }
    }
    cx.ops_attempted += compared;
    cx.ops_failed += mismatched;
    cx.checks.record(
        "served_responses_equal_direct_reader",
        mismatched == 0 && (compared > 0 || q.ops() == 0),
        format!("{compared} sampled responses compared bit-for-bit, {mismatched} differ"),
    );
}

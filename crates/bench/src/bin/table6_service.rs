//! Tab. VI (this repo's extension) — service-layer latency, throughput, and
//! a hard byte-identity gate (ISSUE 6).
//!
//! The paper's use case for compressed artifacts is *post hoc* analysis:
//! many analysts interrogating one archived simulation. This harness stands
//! up the `tucker-serve` daemon on a loopback socket with three artifacts
//! (one per codec: F64, F32, Q16) behind a shared chunk cache sized
//! **below** the total chunk inventory, then drives it with in-process load
//! generators:
//!
//! * ≥ 8 concurrent clients (override: `TUCKER_TABLE6_CLIENTS`), each
//!   running a deterministic mixed workload — ~40% single elements,
//!   20% element batches, 25% range reconstructions, 10% hyperslices,
//!   5% stats/list control calls — against artifacts picked pseudo-randomly
//!   per request.
//! * **Byte-identity gate (hard):** every data-carrying response is compared
//!   bit-for-bit (`f64::to_bits`) against a direct in-process
//!   [`TensorQuery`] reader on the same artifact. Any mismatch exits
//!   non-zero — the service layer must be a transport, not an approximation.
//!   A mismatch prints the op, the artifact and the window asked for.
//! * **Listing gate (hard, counted apart):** a `list` names every registered
//!   artifact once; a `stats` names only registered artifacts, none twice
//!   (readers open on first use, so it lists those opened so far); and a
//!   final `stats` after every client has finished names all of them.
//! * **Liveness gate (hard):** a watchdog aborts with a distinct exit code
//!   if the run wedges (lost reply, dead worker, stuck drain).
//! * Reported: per-operation p50/p99 latency, aggregate queries/sec, `Busy`
//!   retry count, and the server's shared-cache accounting (decoded chunks,
//!   hits, resident ≤ budget).
//!
//! Run: `cargo run --release -p tucker-bench --bin table6_service`
//! (set `TUCKER_TABLE6_SMOKE=1` for the quick CI shape).

use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tucker_api::{Open, TensorQuery, TuckerError};
use tucker_bench::{print_header, print_row};
use tucker_core::prelude::*;
use tucker_serve::{serve, ServeClient, ServeConfig};
use tucker_store::{Codec, TkrHeader, TkrMetadata, TkrWriter};
use tucker_tensor::DenseTensor;

/// Operation mix: cumulative per-mille thresholds over a `u64 % 1000` draw.
const MIX: [(Op, u64); 5] = [
    (Op::Element, 400),
    (Op::Elements, 600),
    (Op::Range, 850),
    (Op::Slice, 950),
    (Op::Control, 1000),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Element,
    Elements,
    Range,
    Slice,
    Control,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Element => "element",
            Op::Elements => "elements",
            Op::Range => "range",
            Op::Slice => "slice",
            Op::Control => "stats/list",
        }
    }
}

/// SplitMix64 — deterministic per-client stream, seeded by client id.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn wavy(dims: &[usize], phase: f64) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = phase;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 2) as f64 * 0.11 * i as f64 + phase).sin();
        }
        v
    })
}

/// Writes `t` with one core chunk per last-mode slab so the artifact has a
/// deep chunk directory (cache pressure needs many chunks, and the writer's
/// default target would pack these small cores into one chunk).
fn write_slab_chunked(path: &PathBuf, t: &TuckerTensor, codec: Codec, eps: f64) {
    let header = TkrHeader {
        dims: t.original_dims(),
        ranks: t.ranks(),
        eps,
        codec,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    let mut w = TkrWriter::create(path, header).expect("create artifact");
    for (n, u) in t.factors.iter().enumerate() {
        w.write_factor(n, u).expect("write factor");
    }
    let last = *t.core.dims().last().expect("non-scalar core");
    for s in 0..last {
        w.write_core_chunk(t.core.last_mode_slab(s, 1))
            .expect("write chunk");
    }
    w.finish().expect("finish artifact");
}

/// Client-side wire-request attempts per server opcode: every frame this
/// harness actually sent, busy-rejected retries included — exactly the
/// requests the daemon's per-opcode latency histograms observe.
#[derive(Default, Clone, Copy)]
struct WireAttempts {
    element: u64,
    elements: u64,
    range: u64,
    slice: u64,
    stats: u64,
    list: u64,
}

impl WireAttempts {
    fn add(&mut self, other: &WireAttempts) {
        self.element += other.element;
        self.elements += other.elements;
        self.range += other.range;
        self.slice += other.slice;
        self.stats += other.stats;
        self.list += other.list;
    }
}

struct ClientOutcome {
    /// (op, latency) per successful request.
    latencies: Vec<(Op, Duration)>,
    attempts: WireAttempts,
    busy_retries: u64,
    /// Data responses that differ from the direct reader.
    mismatches: u64,
    /// `stats`/`list` responses that break the daemon's listing contract.
    control_misses: u64,
}

/// What one request got wrong, in words that name the op, the artifact and
/// the window asked for.
enum Miss {
    Data(String),
    Control(String),
}

/// The daemon's listing contract: every listed name is registered, and none
/// appears twice.
fn lists_registered_once<'a>(listed: impl IntoIterator<Item = &'a str>, names: &[String]) -> bool {
    let mut seen: Vec<&str> = Vec::new();
    for name in listed {
        if !names.iter().any(|n| n == name) || seen.contains(&name) {
            return false;
        }
        seen.push(name);
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    id: usize,
    addr: std::net::SocketAddr,
    names: &[String],
    paths: &[PathBuf],
    dims: &[usize],
    ops: usize,
) -> Result<ClientOutcome, TuckerError> {
    let mut client = ServeClient::connect(addr).map_err(TuckerError::Io)?;
    // Each client keeps its own direct readers as the source of truth.
    let direct: Vec<_> = paths
        .iter()
        .map(|p| Open::eager().open(p))
        .collect::<Result<_, _>>()?;
    let mut rng = Rng(0x5EED_0000 + id as u64 * 0x1_0001);
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(ops),
        attempts: WireAttempts::default(),
        busy_retries: 0,
        mismatches: 0,
        control_misses: 0,
    };

    // Warm the connection with one untimed control request: the daemon's
    // accept loop polls every 20ms, so a fresh connection's first request
    // can absorb that much client-side wait before a session thread even
    // reads it — a delay the server-side histograms never see. It still
    // counts as a wire attempt (the server observes it).
    out.attempts.list += 1;
    client.list()?;

    for _ in 0..ops {
        let a = rng.below(names.len());
        let (name, reader) = (&names[a], &direct[a]);
        let draw = rng.next() % 1000;
        let op = MIX
            .iter()
            .find(|&&(_, hi)| draw < hi)
            .map(|&(op, _)| op)
            .unwrap_or(Op::Element);
        let started = Instant::now();
        let miss = match op {
            Op::Element => {
                let idx: Vec<usize> = dims.iter().map(|&d| rng.below(d)).collect();
                let got = retry_busy(&mut out.busy_retries, &mut out.attempts.element, || {
                    client.element(name, &idx)
                })?;
                let want = reader.element(&idx)?;
                (got.to_bits() != want.to_bits()).then(|| {
                    Miss::Data(format!(
                        "element of {name} at {idx:?}: daemon {got:e}, reader {want:e}"
                    ))
                })
            }
            Op::Elements => {
                let count = 4 + rng.below(13);
                let points: Vec<Vec<usize>> = (0..count)
                    .map(|_| dims.iter().map(|&d| rng.below(d)).collect())
                    .collect();
                let refs: Vec<&[usize]> = points.iter().map(Vec::as_slice).collect();
                let got = retry_busy(&mut out.busy_retries, &mut out.attempts.elements, || {
                    client.elements(name, &refs)
                })?;
                // The documented bit-exact reference for a batch is the
                // per-point element walk (the eager batch contraction is
                // only round-off-equivalent, by contract).
                let want: Vec<f64> = refs
                    .iter()
                    .map(|p| reader.element(p))
                    .collect::<Result<_, _>>()?;
                (!bits_equal(&got, &want))
                    .then(|| Miss::Data(format!("elements of {name} at {points:?}")))
            }
            Op::Range => {
                let ranges: Vec<(usize, usize)> = dims
                    .iter()
                    .map(|&d| {
                        let start = rng.below(d);
                        (start, 1 + rng.below(d - start))
                    })
                    .collect();
                let got = retry_busy(&mut out.busy_retries, &mut out.attempts.range, || {
                    client.reconstruct_range(name, &ranges)
                })?;
                let want = reader.reconstruct_range(&ranges)?;
                let same = got.dims() == want.dims() && bits_equal(got.as_slice(), want.as_slice());
                (!same).then(|| Miss::Data(format!("range of {name} over (start, len) {ranges:?}")))
            }
            Op::Slice => {
                let mode = rng.below(dims.len());
                let index = rng.below(dims[mode]);
                let got = retry_busy(&mut out.busy_retries, &mut out.attempts.slice, || {
                    client.reconstruct_slice(name, mode, index)
                })?;
                let want = reader.reconstruct_slice(mode, index)?;
                let same = got.dims() == want.dims() && bits_equal(got.as_slice(), want.as_slice());
                (!same).then(|| Miss::Data(format!("slice of {name}, mode {mode} index {index}")))
            }
            Op::Control => {
                if rng.next().is_multiple_of(2) {
                    // Readers open on first use and only then join the
                    // shared cache, so `stats` lists the artifacts some
                    // client has touched so far — not yet all of them.
                    out.attempts.stats += 1;
                    let stats = client.stats()?;
                    let listed: Vec<&str> =
                        stats.artifacts.iter().map(|a| a.name.as_str()).collect();
                    (!lists_registered_once(listed.iter().copied(), names))
                        .then(|| Miss::Control(format!("stats listed {listed:?}")))
                } else {
                    // `list` shows the whole registry, opened or not.
                    out.attempts.list += 1;
                    let listed: Vec<String> = client.list()?.into_iter().map(|a| a.name).collect();
                    let whole = listed.len() == names.len()
                        && lists_registered_once(listed.iter().map(String::as_str), names);
                    (!whole).then(|| Miss::Control(format!("list returned {listed:?}")))
                }
            }
        };
        out.latencies.push((op, started.elapsed()));
        match miss {
            Some(Miss::Data(what)) => {
                eprintln!("client {id}: not byte-identical to the direct reader: {what}");
                out.mismatches += 1;
            }
            Some(Miss::Control(what)) => {
                eprintln!(
                    "client {id}: {} broke the listing contract: {what}",
                    op.name()
                );
                out.control_misses += 1;
            }
            None => {}
        }
    }
    Ok(out)
}

/// Retries typed `Busy` backpressure (brief backoff); anything else is
/// final. Every call of `f` — busy rejections included — is one wire
/// request the server observed, so `attempts` counts them all.
fn retry_busy<T>(
    counter: &mut u64,
    attempts: &mut u64,
    mut f: impl FnMut() -> Result<T, TuckerError>,
) -> Result<T, TuckerError> {
    loop {
        *attempts += 1;
        match f() {
            Err(TuckerError::Busy { .. }) => {
                *counter += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            other => return other,
        }
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nearest-rank percentile: the `ceil(p·n)`-th smallest sample, with `p`
/// clamped to `[0, 1]` and the rank explicitly clamped to `1..=n` (so
/// `p = 0` is the minimum and `p = 1` the maximum, never out of bounds);
/// `ZERO` on an empty sample set. This is the same definition
/// `tucker_obs::metrics::HistSnapshot::quantile_us` uses, so the daemon
/// cross-check below compares like with like.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let p = p.clamp(0.0, 1.0);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Parses one `hist <name> count=N sum_us=S p50=X p99=Y` exposition line,
/// returning `(count, p50_us, p99_us)`.
fn parse_hist(exposition: &str, name: &str) -> Option<(u64, u64, u64)> {
    let prefix = format!("hist {name} ");
    let line = exposition.lines().find(|l| l.starts_with(&prefix))?;
    let (mut count, mut p50, mut p99) = (None, None, None);
    for field in line.split_whitespace().skip(2) {
        let (key, value) = field.split_once('=')?;
        let v = value.parse::<u64>().ok()?;
        match key {
            "count" => count = Some(v),
            "p50" => p50 = Some(v),
            "p99" => p99 = Some(v),
            _ => {}
        }
    }
    Some((count?, p50?, p99?))
}

/// Noise floor for the percentile cross-check: below this the loopback
/// round trip the client measures on top of the server's handle+write
/// window dominates, and bucket comparison is meaningless.
const XCHECK_FLOOR_US: u64 = 256;

/// Compares a client-measured percentile against the daemon's histogram
/// value for the same opcode: both are clamped to the noise floor and must
/// land within one power-of-two latency bucket of each other.
fn percentile_agrees(client_us: u64, server_us: u64) -> bool {
    let cb = tucker_obs::metrics::bucket_index(client_us.max(XCHECK_FLOOR_US));
    let sb = tucker_obs::metrics::bucket_index(server_us.max(XCHECK_FLOOR_US));
    cb.abs_diff(sb) <= 1
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn main() {
    let smoke = std::env::var("TUCKER_TABLE6_SMOKE").is_ok_and(|v| v == "1");
    let clients: usize = std::env::var("TUCKER_TABLE6_CLIENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c >= 1)
        .unwrap_or(8);
    // The smoke shape's 8 × 160 ops give every op class the percentile
    // cross-check covers at least 100 client samples (slices, the rarest,
    // draw 131), so a nearest-rank p99 is never the single largest sample
    // and one descheduled request cannot set it.
    let (dims, ops_per_client, eps) = if smoke {
        (vec![14usize, 12, 16], 160usize, 1e-3)
    } else {
        (vec![24usize, 20, 32], 250usize, 1e-4)
    };

    // One artifact per codec, slab-per-chunk; the shared budget holds about
    // a third of the chunk inventory so the cache is always under pressure.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let codecs = [Codec::F64, Codec::F32, Codec::Q16];
    let mut names = Vec::new();
    let mut paths = Vec::new();
    let mut total_chunks = 0usize;
    for (i, codec) in codecs.iter().enumerate() {
        let x = wavy(&dims, 0.3 + 0.7 * i as f64);
        let r = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let path = tmp.join(format!("table6_{pid}_{}.tkr", codec.name()));
        write_slab_chunked(&path, &r.tucker, *codec, eps);
        // Slab-per-chunk: the chunk inventory is the truncated last-mode rank.
        total_chunks += *r.tucker.core.dims().last().expect("non-scalar core");
        names.push(format!("field-{}", codec.name()));
        paths.push(path);
    }
    let budget = (total_chunks / 3).max(2);

    let registry: Vec<(String, PathBuf)> =
        names.iter().cloned().zip(paths.iter().cloned()).collect();
    let handle = serve(
        "127.0.0.1:0",
        &registry,
        ServeConfig {
            cache_chunks: budget,
            cache_stripes: 4,
            ..ServeConfig::default()
        },
    )
    .expect("daemon must bind a loopback port");
    let addr = handle.addr();

    println!(
        "Tab. VI — tucker-serve under concurrent load\n\
         ({clients} clients x {ops_per_client} ops, artifacts {dims:?} per codec {{F64, F32, Q16}},\n\
         \u{20}{total_chunks} chunks total vs shared budget {budget}, daemon on {addr})\n"
    );

    // Watchdog: the whole run must finish well inside the deadline budget.
    let finished = Arc::new(AtomicBool::new(false));
    let limit = if smoke { 120 } else { 600 };
    {
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let step = Duration::from_millis(200);
            let mut waited = Duration::ZERO;
            while waited.as_secs() < limit {
                if finished.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(step);
                waited += step;
            }
            eprintln!("table6_service: FAILED — run exceeded {limit}s; service wedged");
            exit(3);
        });
    }

    let wall = Instant::now();
    let failures = Arc::new(AtomicU64::new(0));
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..clients {
            let (names, paths, dims) = (&names, &paths, &dims);
            let failures = Arc::clone(&failures);
            joins.push(scope.spawn(move || {
                match run_client(id, addr, names, paths, dims, ops_per_client) {
                    Ok(outcome) => Some(outcome),
                    Err(e) => {
                        eprintln!("client {id}: fatal error: {e}");
                        failures.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            }));
        }
        joins
            .into_iter()
            .filter_map(|j| j.join().ok().flatten())
            .collect()
    });
    let elapsed = wall.elapsed();
    finished.store(true, Ordering::Release);

    let total_ops: usize = outcomes.iter().map(|o| o.latencies.len()).sum();
    let busy_retries: u64 = outcomes.iter().map(|o| o.busy_retries).sum();
    let mismatches: u64 = outcomes.iter().map(|o| o.mismatches).sum();
    let control_misses: u64 = outcomes.iter().map(|o| o.control_misses).sum();

    let widths = [12usize, 10, 12, 12];
    print_header(&["op", "count", "p50 (ms)", "p99 (ms)"], &widths);
    let mut per_op: Vec<(Op, Vec<Duration>)> = Vec::new();
    for op in [Op::Element, Op::Elements, Op::Range, Op::Slice, Op::Control] {
        let mut lat: Vec<Duration> = outcomes
            .iter()
            .flat_map(|o| o.latencies.iter())
            .filter(|&&(kind, _)| kind == op)
            .map(|&(_, d)| d)
            .collect();
        lat.sort_unstable();
        print_row(
            &[
                op.name().to_string(),
                lat.len().to_string(),
                ms(percentile(&lat, 0.50)),
                ms(percentile(&lat, 0.99)),
            ],
            &widths,
        );
        per_op.push((op, lat));
    }
    let mut all: Vec<Duration> = outcomes
        .iter()
        .flat_map(|o| o.latencies.iter().map(|&(_, d)| d))
        .collect();
    all.sort_unstable();
    println!(
        "\ntotal: {total_ops} ops in {:.2}s — {:.0} queries/sec, p50 {} ms, p99 {} ms, \
         {busy_retries} busy retries",
        elapsed.as_secs_f64(),
        total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        ms(percentile(&all, 0.50)),
        ms(percentile(&all, 0.99)),
    );

    // Server-side accounting, then a drained shutdown. The metrics scrape
    // comes first so the daemon's per-opcode histograms are compared
    // against exactly the load-generation traffic (the stats probe below
    // would otherwise land in `serve.op.stats.us` before the render).
    let mut probe = ServeClient::connect(addr).expect("metrics probe connects");
    let exposition = probe.metrics().expect("metrics probe answers");
    let stats = probe.stats().expect("stats probe answers");
    drop(probe);
    let stats_at_close = handle.shutdown();
    // Every client has finished, and every artifact was queried, so every
    // reader has opened: the final `stats` lists each registered name once.
    let final_names: Vec<&str> = stats.artifacts.iter().map(|a| a.name.as_str()).collect();
    let final_stats_whole = final_names.len() == names.len()
        && lists_registered_once(final_names.iter().copied(), &names);
    let resident: u64 = stats.artifacts.iter().map(|a| a.resident_chunks).sum();
    println!(
        "server: served {} responses, {} busy rejections, {} protocol errors",
        stats_at_close.served, stats_at_close.busy_rejections, stats_at_close.protocol_errors
    );
    for a in &stats.artifacts {
        println!(
            "  {:<12} decoded={:<5} hits={:<7} resident={}",
            a.name, a.decoded_chunks, a.cache_hits, a.resident_chunks
        );
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }

    // Cross-check the harness's own latency accounting against the daemon's
    // per-opcode histograms: request counts must match *exactly* (both
    // sides count every decoded wire request, busy rejections included),
    // and p50/p99 must land within one power-of-two bucket once above the
    // loopback noise floor.
    let mut attempts = WireAttempts::default();
    for o in &outcomes {
        attempts.add(&o.attempts);
    }
    let mut xcheck_failures = 0u64;
    println!("\ncross-check: client accounting vs daemon per-opcode histograms");
    let count_checks = [
        ("serve.op.element.us", attempts.element),
        ("serve.op.elements.us", attempts.elements),
        ("serve.op.range.us", attempts.range),
        ("serve.op.slice.us", attempts.slice),
        ("serve.op.stats.us", attempts.stats),
        ("serve.op.list.us", attempts.list),
    ];
    for (name, want) in count_checks {
        match parse_hist(&exposition, name) {
            Some((count, _, _)) if count == want => {
                println!("  {name:<24} count={count} matches client attempts exactly");
            }
            Some((count, _, _)) => {
                eprintln!("  {name:<24} count={count} != client attempts {want}");
                xcheck_failures += 1;
            }
            // A histogram nobody observed is never registered — only an
            // error if the client actually sent such requests.
            None if want == 0 => {}
            None => {
                eprintln!("  {name:<24} missing from the exposition ({want} attempts)");
                xcheck_failures += 1;
            }
        }
    }
    let pct_checks = [
        (Op::Element, "serve.op.element.us", attempts.element),
        (Op::Elements, "serve.op.elements.us", attempts.elements),
        (Op::Range, "serve.op.range.us", attempts.range),
        (Op::Slice, "serve.op.slice.us", attempts.slice),
    ];
    for (op, name, att) in pct_checks {
        let Some(lat) = per_op.iter().find(|(o, _)| *o == op).map(|(_, l)| l) else {
            continue;
        };
        // Skip under-sampled ops, and ops where busy retries put fast
        // rejection observations into the server distribution that the
        // client's per-success timings cannot contain.
        if lat.len() < 10 || att != lat.len() as u64 {
            continue;
        }
        let Some((_, sp50, sp99)) = parse_hist(&exposition, name) else {
            continue;
        };
        let cp50 = percentile(lat, 0.50).as_micros() as u64;
        let cp90 = percentile(lat, 0.90).as_micros() as u64;
        let cp99 = percentile(lat, 0.99).as_micros() as u64;
        // The p99 comparison is only meaningful when the client's own tail
        // is stable at bucket granularity (p99 within one power-of-two
        // bucket of p90). Otherwise the p99 sample — with ~100 samples it
        // is the largest one or two — is an isolated client-thread
        // deschedule the server-side window never contains (this harness
        // runs clients, sessions, and workers time-sliced on the same
        // machine), and the daemon cannot be expected to reproduce it.
        let tail_trusted = cp99 <= cp90.saturating_mul(2).max(XCHECK_FLOOR_US);
        let mut checks = vec![("p50", cp50, sp50)];
        if tail_trusted {
            checks.push(("p99", cp99, sp99));
        } else {
            println!(
                "  {name:<24} p99 client {cp99}us is an isolated scheduling spike \
                 (client p90 {cp90}us); skipping the tail comparison"
            );
        }
        for (which, c, s) in checks {
            if percentile_agrees(c, s) {
                println!("  {name:<24} {which} client {c}us ~ daemon {s}us (within one bucket)");
            } else {
                eprintln!("  {name:<24} {which} client {c}us vs daemon {s}us: beyond one bucket");
                xcheck_failures += 1;
            }
        }
    }

    let client_failures = failures.load(Ordering::Relaxed);
    let mut failed = false;
    if client_failures > 0 {
        eprintln!("table6_service: FAILED — {client_failures} client(s) aborted");
        failed = true;
    }
    if mismatches > 0 {
        eprintln!(
            "table6_service: FAILED — {mismatches} response(s) were not byte-identical \
             to the direct reader"
        );
        failed = true;
    }
    if control_misses > 0 {
        eprintln!(
            "table6_service: FAILED — {control_misses} stats/list response(s) listed an \
             unregistered or repeated artifact"
        );
        failed = true;
    }
    if !final_stats_whole {
        eprintln!(
            "table6_service: FAILED — the final stats listed {final_names:?}, \
             not every registered artifact once ({names:?})"
        );
        failed = true;
    }
    if resident > budget as u64 {
        eprintln!(
            "table6_service: FAILED — {resident} resident chunks exceed the shared budget {budget}"
        );
        failed = true;
    }
    if xcheck_failures > 0 {
        eprintln!(
            "table6_service: FAILED — {xcheck_failures} metrics cross-check(s) disagreed \
             with the daemon's histograms"
        );
        failed = true;
    }
    let expected_ops = (clients * ops_per_client) as u64;
    if (total_ops as u64) < expected_ops && client_failures == 0 {
        eprintln!("table6_service: FAILED — only {total_ops} of {expected_ops} ops completed");
        failed = true;
    }
    if failed {
        exit(1);
    }
    println!(
        "\nbyte-identity gate passed: every data response matched the direct reader bit-for-bit"
    );
}

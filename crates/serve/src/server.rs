//! The daemon: accept loop, per-connection sessions, a bounded worker pool,
//! admission control, deadlines, and graceful drain.
//!
//! # Architecture
//!
//! ```text
//! accept thread ──spawns──▶ session threads (one per connection)
//!                               │  read frame → decode → resolve artifact
//!                               │  admission: in_flight < queue_depth ?
//!                               ▼           no → typed Busy, stay connected
//!                           job channel (std::sync::mpsc)
//!                               ▼
//!                           worker threads (bounded pool; each query runs
//!                           on an ExecContext budget slice of the global
//!                           tucker-exec pool)
//! ```
//!
//! * **Session cap** — the accept thread itself counts live session
//!   threads; past [`ServeConfig::max_sessions`] it answers a typed `Busy`
//!   on the fresh socket and closes it *without spawning a thread*, so a
//!   connection flood is bounded at one write per reject
//!   (`ServeStats::shed_sessions` counts them).
//! * **Admission / backpressure** — one atomic in-flight counter, bumped
//!   *before* a job is queued and released by the worker after the reply is
//!   sent. At the cap ([`ServeConfig::queue_depth`]) the session answers a
//!   typed `Busy` (carrying the current depth) immediately instead of
//!   queueing — the client sees backpressure, the queue stays bounded.
//! * **Deadlines** — the session waits for its worker reply at most
//!   [`ServeConfig::deadline`] (measured from admission, so queue wait
//!   counts); on expiry the client gets a typed `Deadline` error, and the
//!   worker's eventual reply is discarded harmlessly. An expired job keeps
//!   its admission slot until the worker finishes it — deliberately, so a
//!   server drowning in slow queries sheds load as `Busy` instead of
//!   accepting ever more doomed work.
//! * **Protocol failures** — a payload that does not parse gets a typed
//!   protocol error and the connection stays usable; an unusable length
//!   prefix or a mid-frame disconnect drops only that connection. Sessions
//!   share nothing mutable but the registry, cache, and counters (all
//!   internally synchronized), so one misbehaving connection cannot poison
//!   another.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] flips the shutdown
//!   flag, wakes the accept thread out of its blocking `accept()` with a
//!   loopback self-connect and joins it, then joins sessions: each session
//!   finishes (and responds to) any request already in flight, refuses new
//!   frames with `ShuttingDown`, and exits at the next idle read. Only then
//!   is the job sender dropped — `std::sync::mpsc` receivers drain every
//!   queued job before reporting disconnection, so workers exit exactly
//!   when the queue is empty and no session can enqueue more.
//!
//! Readers are opened on first use (under the registry lock) with a
//! server-wide [`SharedChunkCache`], so every session of every artifact
//! shares one chunk budget and per-artifact hit/decode/resident accounting —
//! the `stats` opcode reports it.

use crate::metrics;
use crate::proto::{
    ArtifactInfo, ArtifactStats, RemoteHeader, Request, Response, ServeStats, ERR_BUSY,
    ERR_DEADLINE, ERR_INTERNAL, ERR_OPEN, ERR_PROTOCOL, ERR_QUERY, ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_ARTIFACT, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tucker_exec::ExecContext;
use tucker_net::frame::read_frame;
use tucker_net::NetError;
use tucker_store::{SharedChunkCache, TkrReader};

/// How long a session sleeps between polls while waiting for a frame to
/// start (also bounds shutdown latency), and how long the acceptor backs off
/// after a failed `accept`.
const IDLE_POLL: Duration = Duration::from_millis(20);
/// How long a session waits for the rest of a frame once its first byte
/// arrived, before dropping the connection as truncated.
const MID_FRAME_PATIENCE: Duration = Duration::from_secs(2);
/// Socket write timeout: a client that stops reading cannot pin a session
/// forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of a [`serve`] daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries (0 = `min(4, global pool threads)`).
    pub workers: usize,
    /// Admission cap: maximum requests in flight (queued + executing).
    pub queue_depth: usize,
    /// Per-request deadline, measured from admission (queue wait included).
    pub deadline: Duration,
    /// Shared chunk-cache budget in decoded chunks, across all artifacts.
    pub cache_chunks: usize,
    /// Lock stripes of the shared cache.
    pub cache_stripes: usize,
    /// Session-thread cap: maximum live connections (0 = unlimited). A
    /// connection over the cap is answered with a typed `Busy` *by the
    /// accept thread itself*, before any session thread is spawned — a
    /// connection flood costs the daemon one write per reject, not one
    /// thread per socket.
    pub max_sessions: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 32,
            deadline: Duration::from_secs(30),
            cache_chunks: 64,
            cache_stripes: 8,
            max_sessions: 256,
        }
    }
}

/// A registered artifact: its path, and the reader once first opened.
struct ArtifactEntry {
    path: PathBuf,
    reader: Option<Arc<TkrReader>>,
}

/// One admitted query plus the channel its reply goes back on.
struct Job {
    request: Request,
    reader: Arc<TkrReader>,
    reply: mpsc::Sender<Response>,
}

/// State shared by the accept loop, sessions, and workers.
struct Shared {
    shutdown: AtomicBool,
    registry: Mutex<HashMap<String, ArtifactEntry>>,
    cache: SharedChunkCache,
    query_ctx: ExecContext,
    in_flight: AtomicUsize,
    queue_depth: usize,
    deadline: Duration,
    max_sessions: usize,
    served: AtomicU64,
    busy: AtomicU64,
    shed: AtomicU64,
    proto_errors: AtomicU64,
    jobs: Mutex<Option<mpsc::Sender<Job>>>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

/// A running daemon: its bound address plus the handles needed to stop it.
///
/// Dropping the handle without calling [`ServerHandle::shutdown`] leaves
/// the daemon running detached for the rest of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The daemon's bound address (resolves ephemeral port 0 requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-wide shared chunk cache (stats and budget inspection).
    pub fn cache(&self) -> &SharedChunkCache {
        &self.shared.cache
    }

    /// Gracefully stops the daemon: stop accepting, let every session
    /// finish and answer its in-flight request, drain the worker queue,
    /// join every thread. Returns the final service counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The acceptor blocks in `accept()`; a throwaway connection to
            // our own port makes it return and see the flag. A failed wake-up
            // is retried unless the acceptor got out on its own.
            let wake = wake_addr(self.addr);
            while !h.is_finished() && TcpStream::connect_timeout(&wake, WRITE_TIMEOUT).is_err() {
                std::thread::sleep(IDLE_POLL);
            }
            let _ = h.join();
        }
        // Sessions are joined while the job sender is still alive, so their
        // in-flight requests complete and get their responses.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut sessions = self
                    .shared
                    .sessions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                sessions.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // Now nothing can enqueue: drop the sender so workers drain the
        // queue and exit.
        *self.shared.jobs.lock().unwrap_or_else(|e| e.into_inner()) = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        stats_snapshot(&self.shared)
    }
}

/// Starts the daemon on `addr` (use port 0 for an ephemeral port) serving
/// the `artifacts` registry of `name → path` pairs. Registration does not
/// open or validate the files — readers open on first use, and a missing or
/// corrupt file surfaces as a typed per-request error.
pub fn serve(
    addr: impl ToSocketAddrs,
    artifacts: &[(String, PathBuf)],
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;

    let pool = ExecContext::global();
    let workers = if config.workers == 0 {
        pool.threads().min(4).max(1)
    } else {
        config.workers
    };
    // Each concurrent query gets a budget slice of the one global pool —
    // workers are submitters, not nested pools, so total CPU stays bounded
    // by TUCKER_THREADS no matter how many requests are in flight.
    let query_ctx = pool.with_budget((pool.threads() / workers).max(1));

    let registry = artifacts
        .iter()
        .map(|(name, path)| {
            (
                name.clone(),
                ArtifactEntry {
                    path: path.clone(),
                    reader: None,
                },
            )
        })
        .collect();

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        registry: Mutex::new(registry),
        cache: SharedChunkCache::new(config.cache_chunks, config.cache_stripes),
        query_ctx,
        in_flight: AtomicUsize::new(0),
        queue_depth: config.queue_depth.max(1),
        deadline: config.deadline,
        max_sessions: config.max_sessions,
        served: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        proto_errors: AtomicU64::new(0),
        jobs: Mutex::new(Some(job_tx)),
        sessions: Mutex::new(Vec::new()),
    });

    let job_rx = Arc::new(Mutex::new(job_rx));
    let worker_handles = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&job_rx);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&rx, &shared))
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

fn stats_snapshot(shared: &Shared) -> ServeStats {
    ServeStats {
        served: shared.served.load(Ordering::Relaxed),
        busy_rejections: shared.busy.load(Ordering::Relaxed),
        shed_sessions: shared.shed.load(Ordering::Relaxed),
        protocol_errors: shared.proto_errors.load(Ordering::Relaxed),
        in_flight: shared.in_flight.load(Ordering::Relaxed) as u64,
        artifacts: shared
            .cache
            .artifacts()
            .into_iter()
            .map(|(name, s)| ArtifactStats {
                name,
                decoded_chunks: s.decoded_chunks as u64,
                cache_hits: s.cache_hits as u64,
                resident_chunks: s.resident_chunks as u64,
            })
            .collect(),
    }
}

/// Where [`ServerHandle::shutdown`] connects to wake the blocked acceptor:
/// the bound address, with a wildcard bind reached through loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Blocks in `accept()` — a new connection is picked up the moment it
/// arrives, not at the next poll — until shutdown's wake-up connection (or
/// any other) makes it return with the flag set; that socket is dropped
/// unserved.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                // Session cap: decide *before* spawning, so a connection
                // flood costs one synchronous write per reject rather than
                // one thread per socket. Finished handles are pruned first —
                // the cap counts live sessions, not historical ones.
                let live = {
                    let mut sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
                    sessions.retain(|h| !h.is_finished());
                    sessions.len()
                };
                if shared.max_sessions > 0 && live >= shared.max_sessions {
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    metrics::SHED_SESSIONS.inc();
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let _ = write_response(
                        &mut stream,
                        &Response::Err {
                            code: ERR_BUSY,
                            in_flight: live as u64,
                            message: format!(
                                "session cap {} reached; retry later",
                                shared.max_sessions
                            ),
                        },
                    );
                    continue; // the socket closes here, unserved
                }
                let shared_session = Arc::clone(shared);
                let handle = std::thread::spawn(move || session_loop(stream, &shared_session));
                let mut sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.push(handle);
            }
            // A failing accept (descriptor exhaustion, say) must not spin.
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

fn err_response(code: u8, message: String) -> Response {
    Response::Err {
        code,
        in_flight: 0,
        message,
    }
}

/// Writes one response frame; `false` drops the connection.
fn write_response(stream: &mut TcpStream, resp: &Response) -> bool {
    // A response too large for the frame cap (pre-checked for tensor data;
    // belt and braces here) degrades to a query error.
    let frame = resp
        .frame()
        .or_else(|e| err_response(ERR_QUERY, format!("response exceeds frame cap: {e}")).frame());
    frame.is_ok_and(|frame| stream.write_all(&frame).is_ok())
}

fn session_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    loop {
        // Idle between frames, the session polls the shutdown flag every
        // IDLE_POLL; once a frame has started, a stall longer than
        // MID_FRAME_PATIENCE drops the connection.
        let idle = || !shared.shutdown.load(Ordering::SeqCst);
        let payload = match read_frame(&mut stream, MAX_REQUEST_FRAME, MID_FRAME_PATIENCE, idle) {
            Ok(payload) => payload,
            Err(NetError::FrameTooLarge { len, .. }) => {
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                metrics::PROTO_ERRORS.inc();
                let resp = err_response(
                    ERR_PROTOCOL,
                    format!(
                        "frame length {len} outside the accepted range 1..={MAX_REQUEST_FRAME}"
                    ),
                );
                // The stream position is unrecoverable after a bad prefix:
                // answer, then drop the connection.
                let _ = write_response(&mut stream, &resp);
                return;
            }
            // A close, shutdown while idle, a stalled frame or a dead
            // socket: end the session without answering.
            Err(_) => return,
        };

        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary is intact, so the connection survives a
                // payload that does not parse.
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                metrics::PROTO_ERRORS.inc();
                if !write_response(&mut stream, &err_response(ERR_PROTOCOL, e.to_string())) {
                    return;
                }
                continue;
            }
        };

        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = write_response(
                &mut stream,
                &err_response(ERR_SHUTTING_DOWN, "server is shutting down".to_string()),
            );
            return;
        }

        // Every successfully decoded request — busy rejections and typed
        // failures included — lands in its opcode's latency histogram,
        // observed around execution *and* the reply write so the numbers
        // match what a client on this connection actually waits.
        let op_hist = metrics::op_histogram(&request);
        let op_started = Instant::now();
        let response = handle_request(request, shared);
        let ok = write_response(&mut stream, &response);
        op_hist.observe(op_started.elapsed());
        if matches!(response, Response::Err { .. }) {
            // Typed request failures keep the session; only counters differ.
        } else {
            shared.served.fetch_add(1, Ordering::Relaxed);
            metrics::REQUESTS.inc();
        }
        if !ok {
            return;
        }
    }
}

/// Resolves a registered artifact to its (lazily opened) shared reader.
fn resolve_reader(name: &str, shared: &Shared) -> Result<Arc<TkrReader>, Response> {
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let entry = registry.get_mut(name).ok_or_else(|| {
        err_response(
            ERR_UNKNOWN_ARTIFACT,
            format!("artifact `{name}` is not registered"),
        )
    })?;
    if let Some(reader) = &entry.reader {
        return Ok(Arc::clone(reader));
    }
    match TkrReader::open_shared(&entry.path, name, &shared.cache, &shared.query_ctx) {
        Ok(reader) => {
            let reader = Arc::new(reader);
            entry.reader = Some(Arc::clone(&reader));
            Ok(reader)
        }
        Err(e) => Err(err_response(
            ERR_OPEN,
            format!("artifact `{name}` failed to open: {e}"),
        )),
    }
}

fn handle_request(request: Request, shared: &Arc<Shared>) -> Response {
    match request {
        // Control-plane requests answer inline: they touch no core chunks,
        // so they bypass admission and stay responsive under load.
        Request::List => {
            let registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
            let mut items: Vec<ArtifactInfo> = registry
                .iter()
                .map(|(name, entry)| ArtifactInfo {
                    name: name.clone(),
                    opened: entry.reader.is_some(),
                })
                .collect();
            items.sort_by(|a, b| a.name.cmp(&b.name));
            Response::List(items)
        }
        Request::Stats => Response::Stats(stats_snapshot(shared)),
        Request::Metrics => Response::Metrics(metrics_exposition(shared)),
        Request::Open { name } => match resolve_reader(&name, shared) {
            Ok(reader) => Response::Open(remote_header(&reader)),
            Err(resp) => resp,
        },
        // Data-plane requests go through admission and the worker pool.
        compute => {
            let name = match request_artifact(&compute) {
                Some(n) => n.to_string(),
                None => {
                    return err_response(ERR_INTERNAL, "request has no artifact".to_string());
                }
            };
            let reader = match resolve_reader(&name, shared) {
                Ok(r) => r,
                Err(resp) => return resp,
            };

            // Admission: reserve a slot or reject with the observed depth.
            if shared
                .in_flight
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                    (d < shared.queue_depth).then_some(d + 1)
                })
                .is_err()
            {
                shared.busy.fetch_add(1, Ordering::Relaxed);
                metrics::BUSY_REJECTIONS.inc();
                return Response::Err {
                    code: ERR_BUSY,
                    in_flight: shared.in_flight.load(Ordering::Relaxed) as u64,
                    message: format!("admission cap {} reached; retry later", shared.queue_depth),
                };
            }

            metrics::IN_FLIGHT.inc();

            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                request: compute,
                reader,
                reply: reply_tx,
            };
            let sent = {
                let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
                match jobs.as_ref() {
                    Some(tx) => tx.send(job).is_ok(),
                    None => false,
                }
            };
            if !sent {
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                metrics::IN_FLIGHT.dec();
                return err_response(ERR_SHUTTING_DOWN, "server is shutting down".to_string());
            }

            match reply_rx.recv_timeout(shared.deadline) {
                Ok(resp) => resp,
                Err(mpsc::RecvTimeoutError::Timeout) => err_response(
                    ERR_DEADLINE,
                    format!("request missed its {:?} deadline", shared.deadline),
                ),
                // The worker died mid-job (it catches panics, so this is
                // a process-level failure).
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    err_response(ERR_INTERNAL, "worker failed to reply".to_string())
                }
            }
        }
    }
}

fn request_artifact(request: &Request) -> Option<&str> {
    match request {
        Request::Open { name }
        | Request::ReconstructRange { name, .. }
        | Request::ReconstructSlice { name, .. }
        | Request::Element { name, .. }
        | Request::Elements { name, .. } => Some(name),
        Request::List | Request::Stats | Request::Metrics => None,
    }
}

/// The `metrics` opcode's payload: the whole process registry rendered by
/// `tucker_obs::metrics::render`, followed by per-artifact cache gauges
/// (`serve.artifact.<name>.*`, sorted by artifact name) derived from the
/// same [`SharedChunkCache`] accounting the `stats` opcode reports.
fn metrics_exposition(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = tucker_obs::metrics::render();
    let mut artifacts = shared.cache.artifacts();
    artifacts.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, s) in artifacts {
        let _ = writeln!(
            out,
            "gauge serve.artifact.{name}.decoded_chunks {}",
            s.decoded_chunks
        );
        let _ = writeln!(
            out,
            "gauge serve.artifact.{name}.cache_hits {}",
            s.cache_hits
        );
        let _ = writeln!(
            out,
            "gauge serve.artifact.{name}.resident_chunks {}",
            s.resident_chunks
        );
    }
    out
}

fn remote_header(reader: &TkrReader) -> RemoteHeader {
    let h = reader.header();
    RemoteHeader {
        dims: h.dims.iter().map(|&d| d as u64).collect(),
        ranks: h.ranks.iter().map(|&r| r as u64).collect(),
        codec: h.codec,
        eps: h.eps,
        quant_error_bound: h.quant_error_bound,
        chunk_count: reader.chunk_count() as u64,
        file_bytes: reader.file_bytes(),
    }
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>, shared: &Shared) {
    loop {
        // Holding the lock across the blocking recv is deliberate: exactly
        // one idle worker waits on the channel, the rest queue on the mutex
        // (same discipline as the tucker-exec pool). Disconnection is
        // reported only once the queue is empty, which is the drain
        // guarantee shutdown relies on.
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(job) = job else { return };
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&job.request, &job.reader)
        }))
        .unwrap_or_else(|_| err_response(ERR_INTERNAL, "query execution panicked".to_string()));
        // Send before releasing the admission slot so the cap always covers
        // work the pool has actually committed to.
        let _ = job.reply.send(response);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        metrics::IN_FLIGHT.dec();
    }
}

/// Overflow-proof `u64 → usize` for index conversion: values beyond
/// `usize::MAX` saturate and fail shape validation downstream.
fn as_index(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Rejects reconstructions whose raw values alone would overflow the
/// response frame.
fn tensor_fits(dims: &[usize]) -> bool {
    dims.iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .and_then(|n| n.checked_mul(8))
        .is_some_and(|bytes| bytes + 1024 <= MAX_RESPONSE_FRAME as u64)
}

fn tensor_response(t: tucker_tensor::DenseTensor) -> Response {
    Response::Tensor {
        dims: t.dims().iter().map(|&d| d as u64).collect(),
        data: t.into_vec(),
    }
}

fn execute(request: &Request, reader: &TkrReader) -> Response {
    match request {
        Request::ReconstructRange { ranges, .. } => {
            let ranges: Vec<(usize, usize)> = ranges
                .iter()
                .map(|&(s, l)| (as_index(s), as_index(l)))
                .collect();
            let out_dims: Vec<usize> = ranges.iter().map(|&(_, l)| l).collect();
            if !tensor_fits(&out_dims) {
                return err_response(
                    ERR_QUERY,
                    "requested window exceeds the response frame cap".to_string(),
                );
            }
            match reader.reconstruct_range(&ranges) {
                Ok(t) => tensor_response(t),
                Err(e) => err_response(ERR_QUERY, e.to_string()),
            }
        }
        Request::ReconstructSlice { mode, index, .. } => {
            let mut out_dims = reader.header().dims.clone();
            if let Some(d) = out_dims.get_mut(as_index(*mode)) {
                *d = 1;
            }
            if !tensor_fits(&out_dims) {
                return err_response(
                    ERR_QUERY,
                    "requested slice exceeds the response frame cap".to_string(),
                );
            }
            match reader.reconstruct_slice(as_index(*mode), as_index(*index)) {
                Ok(t) => tensor_response(t),
                Err(e) => err_response(ERR_QUERY, e.to_string()),
            }
        }
        Request::Element { idx, .. } => {
            let idx: Vec<usize> = idx.iter().map(|&i| as_index(i)).collect();
            match reader.element(&idx) {
                Ok(v) => Response::Scalar(v),
                Err(e) => err_response(ERR_QUERY, e.to_string()),
            }
        }
        Request::Elements { ndims, points, .. } => {
            let ndims = (*ndims as usize).max(1);
            let points: Vec<Vec<usize>> = points
                .chunks(ndims)
                .map(|p| p.iter().map(|&i| as_index(i)).collect())
                .collect();
            let refs: Vec<&[usize]> = points.iter().map(|p| p.as_slice()).collect();
            match reader.elements(&refs) {
                Ok(vs) => Response::Vector(vs),
                Err(e) => err_response(ERR_QUERY, e.to_string()),
            }
        }
        // Open/List/Stats/Metrics never reach the worker pool.
        Request::Open { .. } | Request::List | Request::Stats | Request::Metrics => err_response(
            ERR_INTERNAL,
            "control request routed to a worker".to_string(),
        ),
    }
}

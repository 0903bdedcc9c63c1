//! Multi-process SPMD: spawn `P` worker processes of the current binary and
//! run the same closure as rank 0 here and rank `r` there.
//!
//! # Model
//!
//! The classic MPI trick, adapted to a test/bench binary: the launcher
//! re-execs `current_exe()` with caller-chosen arguments (for a test binary:
//! `[test_name, "--exact"]`, so the worker runs *exactly one* test) and a
//! small set of `TUCKER_NET_*` environment variables carrying the worker's
//! rank, world size, the launcher's rendezvous address and a job id. Because
//! every process deterministically executes the same program, the worker
//! reaches the same [`spmd_transport`] call sites in the same order as the
//! launcher — SPMD at process granularity.
//!
//! # Rendezvous
//!
//! Rank 0 binds a loopback listener before spawning. Each worker binds its
//! own listener, dials rank 0 and sends `HELLO(job, rank, world, addr)`;
//! once all `P-1` hellos are in, rank 0 replies with `ADDRS` (the full
//! address table) and every worker dials every lower-ranked worker
//! (identifying itself with a `PEER` frame), yielding a full mesh. The
//! accept loop polls worker liveness (`try_wait`) so a worker that dies
//! before connecting is a typed [`NetError::WorkerExited`], not a hang, and
//! the whole phase is bounded by `TUCKER_NET_TIMEOUT_MS`.
//!
//! # Regions
//!
//! Each [`spmd_transport`] call is a *region*, numbered in call order. Rank 0
//! opens it with a `REGION(idx, name, grid)` header (workers verify all
//! three — a divergent program is a typed [`NetError::RegionMismatch`]),
//! both sides run the closure over a region-stamped [`TcpTransport`], then
//! workers send `RESULT(stats, bytes)` and rank 0 broadcasts the full
//! `TABLE` back, so every process returns an identical [`SpmdHandle`] —
//! including the per-rank [`StatsSnapshot`]s, whose wire-byte counters cover
//! every frame header. Closure results cross the wire as exact
//! [`Wire`] bytes (`f64` via `to_bits`), so the table is bit-identical in
//! every process.
//!
//! A panicking rank sends `ABORT` to its peers (their blocking calls fail
//! with the rank attribution) and `PANIC` to rank 0, which picks the root
//! cause exactly like `distmem::try_spmd_with_grid_handle` and aborts the
//! region everywhere. The socket mesh is unknowable after that, so the
//! session is *poisoned*: further regions fail immediately with
//! [`NetError::SessionPoisoned`].
//!
//! Sessions are cached per `(exec_args, world)` — a program with many
//! same-sized regions (fig8's sweep, the equivalence tests) spawns its
//! workers once. A worker participates only in regions whose grid size
//! matches its world; differently-sized regions run in-process locally, so
//! multi-`P` programs work unchanged.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tucker_distmem::{
    try_spmd_with_grid_handle, CommStats, Communicator, ProcGrid, SpmdHandle, StatsSnapshot, Wire,
};

use crate::error::NetError;
use crate::frame::{
    encode_frame, recv_frame, split_op, write_frame, NET_CONNECT, OP_ABORT, OP_ADDRS, OP_BARRIER,
    OP_HELLO, OP_MSG, OP_PANIC, OP_PEER, OP_REGION, OP_RELEASE, OP_RESULT, OP_TABLE, STAGING,
};
use crate::tcp::{lock_clean, send_abort, PeerLink, TcpTransport};

/// Which backend an SPMD region runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Ranks as threads over in-process channels (the default; the
    /// bit-identity reference backend).
    InProc,
    /// Ranks as spawned processes over a loopback TCP mesh.
    Tcp,
}

impl TransportKind {
    /// Short label (`"inproc"` / `"tcp"`), matching `Communicator::transport_kind`.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Reads `TUCKER_TRANSPORT` (`inproc` default, `tcp` for real processes).
pub fn transport_from_env() -> TransportKind {
    match std::env::var("TUCKER_TRANSPORT") {
        Ok(v) if v.eq_ignore_ascii_case("tcp") => TransportKind::Tcp,
        _ => TransportKind::InProc,
    }
}

/// Reads `TUCKER_RANKS` — the process count the distributed gates should use
/// (default 2). Grid shapes stay the caller's business; this is just `P`.
pub fn env_ranks() -> usize {
    std::env::var("TUCKER_RANKS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&p| p > 0)
        .unwrap_or(2)
}

/// True in a spawned worker process (`TUCKER_NET_RANK` is set).
pub fn in_worker() -> bool {
    std::env::var_os("TUCKER_NET_RANK").is_some()
}

/// Rendezvous/read deadline: `TUCKER_NET_TIMEOUT_MS`, default 60 s.
fn net_timeout() -> Duration {
    let ms = std::env::var("TUCKER_NET_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(60_000);
    Duration::from_millis(ms)
}

/// The exec arguments that make a re-exec'ed *test binary* run exactly the
/// test it was spawned from: `[test_path, "--exact"]`.
pub fn test_exec_args(test_path: &str) -> Vec<String> {
    vec![test_path.to_string(), "--exact".to_string()]
}

/// The identity a worker process is born with.
#[derive(Debug, Clone)]
struct WorkerEnv {
    rank: usize,
    world: usize,
    addr: String,
    job: String,
}

fn worker_env() -> Result<WorkerEnv, NetError> {
    fn var(name: &str) -> Result<String, NetError> {
        std::env::var(name).map_err(|_| NetError::Handshake {
            detail: format!("worker is missing {name}"),
        })
    }
    let rank = var("TUCKER_NET_RANK")?
        .parse::<usize>()
        .map_err(|e| NetError::Handshake {
            detail: format!("bad TUCKER_NET_RANK: {e}"),
        })?;
    let world = var("TUCKER_NET_WORLD")?
        .parse::<usize>()
        .map_err(|e| NetError::Handshake {
            detail: format!("bad TUCKER_NET_WORLD: {e}"),
        })?;
    if rank == 0 || rank >= world {
        return Err(NetError::Handshake {
            detail: format!("worker rank {rank} out of range for world {world}"),
        });
    }
    Ok(WorkerEnv {
        rank,
        world,
        addr: var("TUCKER_NET_ADDR")?,
        job: var("TUCKER_NET_JOB")?,
    })
}

/// One wired-up process mesh, alive for the rest of the process (or until an
/// abort poisons it).
pub struct NetSession {
    rank: usize,
    world: usize,
    links: Vec<Option<Arc<PeerLink>>>,
    region_counter: AtomicU64,
    poisoned: Mutex<Option<String>>,
}

impl NetSession {
    /// World size (process count, launcher included).
    pub fn world(&self) -> usize {
        self.world
    }

    fn link(&self, peer: usize) -> Result<&Arc<PeerLink>, NetError> {
        match self.links.get(peer) {
            Some(Some(l)) => Ok(l),
            _ => Err(NetError::Malformed {
                detail: format!("rank {} has no link to peer {peer}", self.rank),
            }),
        }
    }

    fn check_poisoned(&self) -> Result<(), NetError> {
        match &*lock_clean(&self.poisoned) {
            Some(why) => Err(NetError::SessionPoisoned {
                detail: why.clone(),
            }),
            None => Ok(()),
        }
    }

    fn poison(&self, why: &str) {
        let mut slot = lock_clean(&self.poisoned);
        if slot.is_none() {
            *slot = Some(why.to_string());
        }
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Mirrors `distmem`'s cascade heuristic, extended with the wire-level
/// symptoms of a dead peer: failures *caused by* another rank's death should
/// not be blamed as root causes.
fn is_cascade(msg: &str) -> bool {
    msg.contains("has terminated")
        || msg.contains("aborted by rank")
        || msg.contains("timed out")
        || msg.contains("connection closed")
}

fn pick_root(fails: &[(usize, String)]) -> (usize, String) {
    fails
        .iter()
        .find(|(_, m)| !is_cascade(m))
        .unwrap_or(&fails[0])
        .clone()
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

static JOB_SEQ: AtomicU64 = AtomicU64::new(0);

/// Live parent-side sessions, keyed by (joined exec args, world size).
type SessionMap = Mutex<HashMap<(String, usize), Arc<NetSession>>>;

fn parent_sessions() -> &'static SessionMap {
    static MAP: OnceLock<SessionMap> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

fn parent_session(exec_args: &[String], world: usize) -> Result<Arc<NetSession>, NetError> {
    let key = (exec_args.join("\u{1f}"), world);
    let mut map = lock_clean(parent_sessions());
    if let Some(s) = map.get(&key) {
        return Ok(Arc::clone(s));
    }
    let session = Arc::new(create_parent_session(exec_args, world)?);
    map.insert(key, Arc::clone(&session));
    Ok(session)
}

fn kill_all(children: &mut [(usize, Child)]) {
    for (_, c) in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

fn create_parent_session(exec_args: &[String], world: usize) -> Result<NetSession, NetError> {
    let timeout = net_timeout();
    let _span = tucker_obs::span!("net.rendezvous", world = world);
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| NetError::from_io(&e, "bind rendezvous listener"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| NetError::from_io(&e, "rendezvous local_addr"))?;
    let job = format!(
        "{}-{}",
        std::process::id(),
        JOB_SEQ.fetch_add(1, Ordering::SeqCst)
    );
    let exe = std::env::current_exe().map_err(|e| NetError::Spawn {
        detail: format!("current_exe: {e}"),
    })?;
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(world - 1);
    for rank in 1..world {
        let spawned = Command::new(&exe)
            .args(exec_args)
            .env("TUCKER_NET_RANK", rank.to_string())
            .env("TUCKER_NET_WORLD", world.to_string())
            .env("TUCKER_NET_ADDR", addr.to_string())
            .env("TUCKER_NET_JOB", &job)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(c) => children.push((rank, c)),
            Err(e) => {
                kill_all(&mut children);
                return Err(NetError::Spawn {
                    detail: format!("spawn worker rank {rank}: {e}"),
                });
            }
        }
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::from_io(&e, "listener nonblocking"))?;
    let deadline = Instant::now() + timeout;
    let mut streams: Vec<Option<(TcpStream, String)>> = (0..world).map(|_| None).collect();
    let mut connected = 0usize;
    while connected < world - 1 {
        match listener.accept() {
            Ok((mut s, _)) => {
                let hello = (|| -> Result<(usize, String), NetError> {
                    s.set_nonblocking(false)
                        .map_err(|e| NetError::from_io(&e, "accepted socket blocking"))?;
                    s.set_read_timeout(Some(timeout))
                        .map_err(|e| NetError::from_io(&e, "accepted socket timeout"))?;
                    let (hjob, hrank, hworld, haddr): (String, u64, u64, String) =
                        recv_handshake(&mut s, OP_HELLO, "HELLO")?;
                    let hrank = hrank as usize;
                    if hjob != job || hworld as usize != world {
                        return Err(NetError::Handshake {
                            detail: format!(
                                "HELLO for job '{hjob}' world {hworld}, \
                                 expected '{job}' world {world}"
                            ),
                        });
                    }
                    if hrank == 0 || hrank >= world || streams[hrank].is_some() {
                        return Err(NetError::Handshake {
                            detail: format!("HELLO from unexpected rank {hrank}"),
                        });
                    }
                    Ok((hrank, haddr))
                })();
                match hello {
                    Ok((hrank, haddr)) => {
                        NET_CONNECT.inc();
                        streams[hrank] = Some((s, haddr));
                        connected += 1;
                    }
                    Err(e) => {
                        kill_all(&mut children);
                        return Err(e);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (rank, c) in children.iter_mut() {
                    if let Ok(Some(status)) = c.try_wait() {
                        let rank = *rank;
                        kill_all(&mut children);
                        return Err(NetError::WorkerExited {
                            rank,
                            detail: format!("during rendezvous, status {status}"),
                        });
                    }
                }
                if Instant::now() > deadline {
                    kill_all(&mut children);
                    return Err(NetError::Timeout {
                        detail: format!(
                            "rendezvous: {connected}/{} workers connected within {timeout:?}",
                            world - 1
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(NetError::from_io(&e, "rendezvous accept"));
            }
        }
    }
    // All hellos in: publish the address table, then arm each socket as a
    // buffered PeerLink. Index 0 is the launcher itself (never dialed).
    let mut addr_table: Vec<String> = vec![String::new(); world];
    for (rank, slot) in streams.iter().enumerate().skip(1) {
        if let Some((_, a)) = slot {
            addr_table[rank] = a.clone();
        }
    }
    let mut body = Vec::new();
    (job.clone(), addr_table).encode(&mut body);
    let mut links: Vec<Option<Arc<PeerLink>>> = (0..world).map(|_| None).collect();
    for (rank, slot) in streams.into_iter().enumerate() {
        if let Some((mut s, _)) = slot {
            if let Err(e) = write_frame(&mut s, OP_ADDRS, &body, None) {
                kill_all(&mut children);
                return Err(e);
            }
            match PeerLink::new(s, timeout) {
                Ok(l) => links[rank] = Some(Arc::new(l)),
                Err(e) => {
                    kill_all(&mut children);
                    return Err(e);
                }
            }
        }
    }
    // Reap workers in the background so finished children never linger as
    // zombies; the session itself outlives them on purpose.
    for (_, mut c) in children {
        let _ = std::thread::Builder::new()
            .name("tucker-net-reaper".into())
            .spawn(move || {
                let _ = c.wait();
            });
    }
    Ok(NetSession {
        rank: 0,
        world,
        links,
        region_counter: AtomicU64::new(0),
        poisoned: Mutex::new(None),
    })
}

/// Dials `addr` until it answers or `deadline` passes.
fn connect_with_retry(addr: &str, deadline: Instant) -> Result<TcpStream, NetError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(NetError::Timeout {
                        detail: format!("connect {addr}: {e}"),
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn worker_session(env: &WorkerEnv) -> Result<Arc<NetSession>, NetError> {
    static SESSION: OnceLock<Result<Arc<NetSession>, NetError>> = OnceLock::new();
    SESSION
        .get_or_init(|| create_worker_session(env).map(Arc::new))
        .clone()
}

fn create_worker_session(env: &WorkerEnv) -> Result<NetSession, NetError> {
    let timeout = net_timeout();
    let _span = tucker_obs::span!("net.rendezvous", world = env.world);
    let deadline = Instant::now() + timeout;
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| NetError::from_io(&e, "bind worker listener"))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| NetError::from_io(&e, "worker local_addr"))?
        .to_string();
    // Dial the launcher and introduce ourselves.
    let mut to_parent = connect_with_retry(&env.addr, deadline)?;
    to_parent
        .set_read_timeout(Some(timeout))
        .map_err(|e| NetError::from_io(&e, "parent socket timeout"))?;
    let mut hello = Vec::new();
    (env.job.clone(), env.rank as u64, env.world as u64, my_addr).encode(&mut hello);
    write_frame(&mut to_parent, OP_HELLO, &hello, None)?;
    NET_CONNECT.inc();
    // The launcher answers with everyone's addresses once all hellos are in.
    let (ajob, addrs): (String, Vec<String>) = recv_handshake(&mut to_parent, OP_ADDRS, "ADDRS")?;
    if ajob != env.job || addrs.len() != env.world {
        return Err(NetError::Handshake {
            detail: format!(
                "ADDRS for job '{ajob}' with {} entries, expected '{}' with {}",
                addrs.len(),
                env.job,
                env.world
            ),
        });
    }
    let mut links: Vec<Option<Arc<PeerLink>>> = (0..env.world).map(|_| None).collect();
    links[0] = Some(Arc::new(PeerLink::new(to_parent, timeout)?));
    // Dial every lower-ranked worker; accept from every higher-ranked one.
    let mut peer_id = Vec::new();
    (env.job.clone(), env.rank as u64).encode(&mut peer_id);
    for peer in 1..env.rank {
        let mut s = connect_with_retry(&addrs[peer], deadline)?;
        s.set_read_timeout(Some(timeout))
            .map_err(|e| NetError::from_io(&e, "peer socket timeout"))?;
        write_frame(&mut s, OP_PEER, &peer_id, None)?;
        NET_CONNECT.inc();
        links[peer] = Some(Arc::new(PeerLink::new(s, timeout)?));
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::from_io(&e, "worker listener nonblocking"))?;
    let expected = env.world - 1 - env.rank;
    let mut accepted = 0usize;
    while accepted < expected {
        match listener.accept() {
            Ok((mut s, _)) => {
                s.set_nonblocking(false)
                    .map_err(|e| NetError::from_io(&e, "peer socket blocking"))?;
                s.set_read_timeout(Some(timeout))
                    .map_err(|e| NetError::from_io(&e, "peer socket timeout"))?;
                let (pjob, prank): (String, u64) = recv_handshake(&mut s, OP_PEER, "PEER")?;
                let prank = prank as usize;
                if pjob != env.job || prank <= env.rank || prank >= env.world {
                    return Err(NetError::Handshake {
                        detail: format!("PEER from unexpected rank {prank}"),
                    });
                }
                if links[prank].is_some() {
                    return Err(NetError::Handshake {
                        detail: format!("duplicate PEER from rank {prank}"),
                    });
                }
                NET_CONNECT.inc();
                links[prank] = Some(Arc::new(PeerLink::new(s, timeout)?));
                accepted += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(NetError::Timeout {
                        detail: format!(
                            "worker {} mesh wiring: {accepted}/{expected} peers within {timeout:?}",
                            env.rank
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(NetError::from_io(&e, "worker accept")),
        }
    }
    Ok(NetSession {
        rank: env.rank,
        world: env.world,
        links,
        region_counter: AtomicU64::new(0),
        poisoned: Mutex::new(None),
    })
}

/// Reads one rendezvous frame, which must carry `op` (`name` in errors), and
/// decodes its body.
pub(crate) fn recv_handshake<T: Wire>(
    s: &mut TcpStream,
    op: u8,
    name: &str,
) -> Result<T, NetError> {
    let payload = recv_frame(s, &mut Box::new([0; STAGING]), None)?.into_control();
    match split_op(&payload) {
        (got, body) if got == op => Ok(T::from_wire_bytes(body)?),
        (got, _) => Err(NetError::Handshake {
            detail: format!("expected {name}, got opcode {got:#04x}"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

/// Reads control frames, skipping any data-plane traffic still in flight
/// from an aborted region, and returns the first control payload. Bounded so
/// a babbling peer cannot spin us.
fn read_control_skipping(link: &PeerLink) -> Result<Vec<u8>, NetError> {
    for _ in 0..65_536 {
        let payload = link.read_control(None)?;
        match split_op(&payload).0 {
            OP_MSG | OP_BARRIER | OP_RELEASE => continue,
            _ => return Ok(payload),
        }
    }
    Err(NetError::Malformed {
        detail: "too many stray data frames before a control frame".into(),
    })
}

fn decode_abort(body: &[u8]) -> NetError {
    match <(u64, u64, String)>::from_wire_bytes(body) {
        Ok((_region, rank, message)) => NetError::RankPanicked {
            rank: rank as usize,
            message,
        },
        Err(e) => e.into(),
    }
}

fn parent_region<R, F>(
    session: &NetSession,
    name: &str,
    grid: &ProcGrid,
    f: &F,
) -> Result<SpmdHandle<R>, NetError>
where
    R: Wire + Send,
    F: Fn(Communicator) -> R + Send + Sync,
{
    session.check_poisoned()?;
    let region = session.region_counter.fetch_add(1, Ordering::SeqCst);
    let p = session.world;
    let _span = tucker_obs::span!("net.region", region = region, ranks = p);
    let start = Instant::now();
    // Open the region on every worker.
    let mut body = Vec::new();
    (region, name.to_string(), grid.shape().to_vec()).encode(&mut body);
    let frame = encode_frame(OP_REGION, &body)?;
    for w in 1..p {
        if let Err(e) = session.link(w)?.enqueue(frame.clone(), None) {
            session.poison(&format!(
                "region {region} ({name}): worker {w} unreachable: {e}"
            ));
            return Err(e);
        }
    }
    // Run rank 0 right here.
    let stats = CommStats::new_shared();
    let transport = TcpTransport::new(0, p, region, session.links.clone(), Arc::clone(&stats));
    let comm =
        Communicator::from_transport(grid.clone(), 0, Box::new(transport), Arc::clone(&stats));
    let own = catch_unwind(AssertUnwindSafe(|| f(comm)));
    // Collect every worker's outcome (result, panic, or wire failure).
    let mut enc: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
    let mut stats_tab: Vec<Option<StatsSnapshot>> = (0..p).map(|_| None).collect();
    let mut fails: Vec<(usize, String)> = Vec::new();
    if let Err(payload) = &own {
        let msg = panic_message(&**payload);
        // Unblock workers that are waiting on rank 0's data *before*
        // collecting, or the collection below would stall until their read
        // deadlines instead of cascading promptly.
        for w in 1..p {
            if let Ok(l) = session.link(w) {
                send_abort(l, region, 0, &msg);
            }
        }
        fails.push((0, msg));
    }
    enum Outcome {
        Done(StatsSnapshot, Vec<u8>),
        Failed(usize, String),
    }
    for w in 1..p {
        let outcome = session
            .link(w)
            .and_then(|l| read_control_skipping(l))
            .and_then(|payload| match split_op(&payload) {
                (OP_RESULT, body) => {
                    let (r, rank, snap, bytes) =
                        <(u64, u64, StatsSnapshot, Vec<u8>)>::from_wire_bytes(body)?;
                    if r != region || rank as usize != w {
                        return Err(NetError::Malformed {
                            detail: format!(
                                "RESULT for region {r} rank {rank}, \
                                 expected region {region} rank {w}"
                            ),
                        });
                    }
                    Ok(Outcome::Done(snap, bytes))
                }
                (OP_PANIC | OP_ABORT, body) => {
                    let (_r, rank, message) = <(u64, u64, String)>::from_wire_bytes(body)?;
                    Ok(Outcome::Failed(rank as usize, message))
                }
                (other, _) => Err(NetError::Malformed {
                    detail: format!("unexpected opcode {other:#04x} while collecting results"),
                }),
            });
        match outcome {
            Ok(Outcome::Done(snap, bytes)) => {
                stats_tab[w] = Some(snap);
                enc[w] = Some(bytes);
            }
            Ok(Outcome::Failed(rank, message)) => fails.push((rank, message)),
            Err(e) => fails.push((w, e.to_string())),
        }
    }
    if !fails.is_empty() {
        fails.sort_by_key(|(r, _)| *r);
        fails.dedup_by(|a, b| a.0 == b.0);
        let (rank, message) = pick_root(&fails);
        session.poison(&format!(
            "region {region} ({name}) aborted: rank {rank}: {message}"
        ));
        for w in 1..p {
            if let Ok(l) = session.link(w) {
                send_abort(l, region, rank, &message);
            }
        }
        return Err(NetError::RankPanicked { rank, message });
    }
    let own_val = match own {
        Ok(v) => v,
        Err(_) => unreachable!("rank 0 panic is in `fails`"),
    };
    stats_tab[0] = Some(stats.snapshot());
    enc[0] = Some(own_val.to_wire_bytes());
    let stats_vec: Vec<StatsSnapshot> = stats_tab
        .into_iter()
        .map(|s| s.expect("stats for every rank"))
        .collect();
    let res_vec: Vec<Vec<u8>> = enc
        .into_iter()
        .map(|b| b.expect("result bytes for every rank"))
        .collect();
    // Broadcast the full table so every process returns identical bits.
    let mut tbody = Vec::new();
    (region, stats_vec.clone(), res_vec.clone()).encode(&mut tbody);
    let tframe = encode_frame(OP_TABLE, &tbody)?;
    for w in 1..p {
        if let Err(e) = session.link(w)?.enqueue(tframe.clone(), None) {
            session.poison(&format!(
                "region {region} ({name}): table broadcast to {w}: {e}"
            ));
            return Err(e);
        }
    }
    // The table may be the launcher's last word before `main` returns and the
    // process exits; flush so the detached writer threads cannot drop it and
    // leave workers seeing a spurious EOF instead of their result table.
    for w in 1..p {
        if let Err(e) = session.link(w)?.flush(net_timeout()) {
            session.poison(&format!(
                "region {region} ({name}): table flush to {w}: {e}"
            ));
            return Err(e);
        }
    }
    let results = decode_results::<R>(&res_vec)?;
    Ok(SpmdHandle {
        results,
        stats: stats_vec,
        elapsed: start.elapsed().as_secs_f64(),
    })
}

fn decode_results<R: Wire>(res_vec: &[Vec<u8>]) -> Result<Vec<R>, NetError> {
    res_vec
        .iter()
        .map(|b| R::from_wire_bytes(b).map_err(NetError::from))
        .collect()
}

fn worker_region<R, F>(
    session: &NetSession,
    name: &str,
    grid: &ProcGrid,
    f: &F,
) -> Result<SpmdHandle<R>, NetError>
where
    R: Wire + Send,
    F: Fn(Communicator) -> R + Send + Sync,
{
    session.check_poisoned()?;
    let region = session.region_counter.fetch_add(1, Ordering::SeqCst);
    let rank = session.rank;
    let p = session.world;
    let _span = tucker_obs::span!("net.region", region = region, ranks = p);
    let start = Instant::now();
    // Wait for the launcher to open the region, and verify we agree on what
    // it is — a divergent SPMD program must fail loudly, not exchange bytes.
    let payload = match session.link(0)?.read_control(None) {
        Ok(x) => x,
        Err(e) => {
            session.poison(&format!("region {region}: no REGION header: {e}"));
            return Err(e);
        }
    };
    match split_op(&payload) {
        (OP_REGION, body) => {
            let (r, rname, rshape) = <(u64, String, Vec<usize>)>::from_wire_bytes(body)?;
            if r != region || rname != name || rshape != grid.shape() {
                let detail = format!(
                    "launcher opened region {r} '{rname}' grid {rshape:?}; \
                     worker {rank} is at region {region} '{name}' grid {:?}",
                    grid.shape()
                );
                let mut pbody = Vec::new();
                (region, rank as u64, detail.clone()).encode(&mut pbody);
                if let Ok(frame) = encode_frame(OP_PANIC, &pbody) {
                    let _ = session.link(0)?.enqueue(frame, None);
                }
                session.poison(&detail);
                return Err(NetError::RegionMismatch { detail });
            }
        }
        (OP_ABORT, body) => {
            let e = decode_abort(body);
            session.poison(&e.to_string());
            return Err(e);
        }
        (other, _) => {
            let e = NetError::Malformed {
                detail: format!("expected REGION header, got opcode {other:#04x}"),
            };
            session.poison(&e.to_string());
            return Err(e);
        }
    }
    let stats = CommStats::new_shared();
    let transport = TcpTransport::new(rank, p, region, session.links.clone(), Arc::clone(&stats));
    let comm =
        Communicator::from_transport(grid.clone(), rank, Box::new(transport), Arc::clone(&stats));
    match catch_unwind(AssertUnwindSafe(|| f(comm))) {
        Ok(val) => {
            let mut body = Vec::new();
            (region, rank as u64, stats.snapshot(), val.to_wire_bytes()).encode(&mut body);
            let frame = encode_frame(OP_RESULT, &body)?;
            if let Err(e) = session.link(0)?.enqueue(frame, None) {
                session.poison(&format!("region {region}: RESULT send: {e}"));
                return Err(e);
            }
            let table = session.link(0).and_then(|l| read_control_skipping(l));
            match table.as_deref().map(split_op) {
                Ok((OP_TABLE, tbody)) => {
                    let (r, stats_vec, res_vec) =
                        <(u64, Vec<StatsSnapshot>, Vec<Vec<u8>>)>::from_wire_bytes(tbody)?;
                    if r != region || res_vec.len() != p {
                        let e = NetError::Malformed {
                            detail: format!("TABLE for region {r}, expected {region}"),
                        };
                        session.poison(&e.to_string());
                        return Err(e);
                    }
                    let results = decode_results::<R>(&res_vec)?;
                    Ok(SpmdHandle {
                        results,
                        stats: stats_vec,
                        elapsed: start.elapsed().as_secs_f64(),
                    })
                }
                Ok((OP_ABORT, abody)) => {
                    let e = decode_abort(abody);
                    session.poison(&e.to_string());
                    Err(e)
                }
                Ok((other, _)) => {
                    let e = NetError::Malformed {
                        detail: format!("expected TABLE, got opcode {other:#04x}"),
                    };
                    session.poison(&e.to_string());
                    Err(e)
                }
                Err(e) => {
                    session.poison(&e.to_string());
                    Err(e.clone())
                }
            }
        }
        Err(payload) => {
            let msg = panic_message(&*payload);
            // Fail every peer's blocking data-plane calls with the rank
            // attribution — rank 0 included, since it may be inside its own
            // closure right now — then report to the launcher (the PANIC
            // frame feeds its result-collection loop) and wait for the
            // coordinated abort.
            for peer in 0..p {
                if peer != rank {
                    if let Ok(l) = session.link(peer) {
                        send_abort(l, region, rank, &msg);
                    }
                }
            }
            let mut pbody = Vec::new();
            (region, rank as u64, msg.clone()).encode(&mut pbody);
            if let Ok(frame) = encode_frame(OP_PANIC, &pbody) {
                let _ = session.link(0)?.enqueue(frame, None);
            }
            let reply = session.link(0).and_then(|l| read_control_skipping(l));
            let err = match reply.as_deref().map(split_op) {
                Ok((OP_ABORT, abody)) => decode_abort(abody),
                _ => NetError::RankPanicked { rank, message: msg },
            };
            session.poison(&err.to_string());
            Err(err)
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs `f` as one SPMD region on the selected backend, returning the same
/// [`SpmdHandle`] in every participating process, or a typed [`NetError`].
///
/// On [`TransportKind::InProc`] this is exactly
/// [`tucker_distmem::try_spmd_with_grid_handle`] (panics become
/// [`NetError::RankPanicked`]). On [`TransportKind::Tcp`], the first region
/// spawns `grid.size() - 1` worker processes re-exec'ed with `exec_args`
/// (see [`test_exec_args`]); inside a worker whose world size matches, the
/// call joins the mesh instead. A region whose grid size differs from the
/// worker's world runs in-process — multi-`P` sweeps work unchanged.
pub fn try_spmd_transport<R, F>(
    kind: TransportKind,
    name: &str,
    grid: ProcGrid,
    exec_args: &[String],
    f: F,
) -> Result<SpmdHandle<R>, NetError>
where
    R: Wire + Send,
    F: Fn(Communicator) -> R + Send + Sync,
{
    let inproc = |f: &F| {
        try_spmd_with_grid_handle(grid.clone(), f).map_err(|e| NetError::RankPanicked {
            rank: e.rank,
            message: e.message,
        })
    };
    match kind {
        TransportKind::InProc => inproc(&f),
        TransportKind::Tcp => {
            if in_worker() {
                let env = worker_env()?;
                if grid.size() != env.world {
                    return inproc(&f);
                }
                let session = worker_session(&env)?;
                worker_region(&session, name, &grid, &f)
            } else if grid.size() == 1 {
                // Nothing to distribute; a one-rank world needs no processes.
                inproc(&f)
            } else {
                let session = parent_session(exec_args, grid.size())?;
                parent_region(&session, name, &grid, &f)
            }
        }
    }
}

/// [`try_spmd_transport`], panicking with the typed error's message — the
/// drop-in analogue of [`tucker_distmem::spmd_with_grid_handle`] for call
/// sites that treat rank failure as fatal.
///
/// # Panics
/// Panics if the region fails (worker panic, spawn/rendezvous failure,
/// poisoned session).
pub fn spmd_transport<R, F>(
    kind: TransportKind,
    name: &str,
    grid: ProcGrid,
    exec_args: &[String],
    f: F,
) -> SpmdHandle<R>
where
    R: Wire + Send,
    F: Fn(Communicator) -> R + Send + Sync,
{
    match try_spmd_transport(kind, name, grid, exec_args, f) {
        Ok(h) => h,
        Err(e) => panic!("SPMD region '{name}' failed: {e}"),
    }
}

//! The TCP mesh transport: `tucker-distmem`'s [`Transport`] over real sockets.
//!
//! One [`PeerLink`] per peer carries all traffic between a fixed pair of
//! ranks, so per-pair program order is exactly socket FIFO order — the same
//! ordering guarantee the in-process channels give, which is what makes the
//! backends bit-identical (see `distmem::transport`).
//!
//! # Eager sends
//!
//! The in-process backend's sends are buffered and never block; the
//! collectives' shifted `sendrecv` exchanges rely on that for deadlock
//! freedom. A naive `write_all` would break it: two ranks pushing large ring
//! chunks at each other can both fill their kernel socket buffers and wedge.
//! Each link therefore owns a *writer thread* fed by an unbounded queue —
//! `send` enqueues the message and returns, restoring the eager contract;
//! wire bytes are counted at enqueue time against the rank's [`CommStats`].
//! A message travels as the owned `Vec<f64>` the caller handed over
//! (`send_vec`) or one copy of the caller's slice (`send`); the writer
//! thread streams it onto the socket through its own staging buffer.
//!
//! # Barriers
//!
//! A barrier is a centralized token exchange stamped with `(region, seq)`:
//! every worker sends `BARRIER` to rank 0, rank 0 collects all tokens and
//! sends `RELEASE` to every worker. Because barrier frames share the sockets
//! with messages, the reader buffers out-of-order traffic: a `MSG` that
//! arrives while waiting for a token is queued for the next `recv`, and a
//! token that arrives while waiting for a `MSG` is queued for the next
//! barrier. Every blocking read honours the link's deadline, so a lost peer
//! is a typed error, never a hang.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use tucker_distmem::transport::{Transport, TransportError};
use tucker_distmem::{CommStats, Wire};

use crate::error::NetError;
use crate::frame::{
    encode_frame, msg_frame_len, note_sent, recv_frame, split_op, write_frame, write_msg, Inbound,
    NET_CONNECT, OP_ABORT, OP_BARRIER, OP_PANIC, OP_PEER, OP_RELEASE, STAGING,
};

/// Locks a mutex, riding through poisoning (a panicked peer thread must not
/// turn into a second panic here — errors stay typed).
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reader-side state of one peer socket: the stream, the staging buffer
/// frames are read through, and queues for frames that arrived while a
/// different kind was being waited for.
struct ReadState {
    stream: TcpStream,
    staging: Box<[u8; STAGING]>,
    /// Buffered `MSG` payloads: `(region, words)`.
    inbox: VecDeque<(u64, Vec<f64>)>,
    /// Buffered `BARRIER` tokens: `(region, seq)`.
    barriers: VecDeque<(u64, u64)>,
    /// Buffered `RELEASE` tokens: `(region, seq)`.
    releases: VecDeque<(u64, u64)>,
}

/// What flows to the writer thread: an encoded control frame or a `MSG`'s
/// words to put on the wire, or a flush marker whose ack proves every
/// earlier frame reached `write_all`.
enum WriterMsg {
    Frame(Vec<u8>),
    Msg { region: u64, words: Vec<f64> },
    Flush(mpsc::Sender<()>),
}

/// A bidirectional, order-preserving connection to one peer rank.
pub struct PeerLink {
    write_tx: Mutex<Option<mpsc::Sender<WriterMsg>>>,
    writer_err: Arc<Mutex<Option<String>>>,
    read: Mutex<ReadState>,
}

impl PeerLink {
    /// Wraps a connected stream: disables Nagle, arms the read deadline, and
    /// starts the buffered writer thread.
    pub fn new(stream: TcpStream, timeout: Duration) -> Result<PeerLink, NetError> {
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::from_io(&e, "set_nodelay"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| NetError::from_io(&e, "set_read_timeout"))?;
        let mut write_half = stream
            .try_clone()
            .map_err(|e| NetError::from_io(&e, "clone stream for writer"))?;
        let (tx, rx) = mpsc::channel::<WriterMsg>();
        let writer_err = Arc::new(Mutex::new(None::<String>));
        let err_slot = Arc::clone(&writer_err);
        std::thread::Builder::new()
            .name("tucker-net-writer".into())
            .spawn(move || {
                use std::io::Write as _;
                let mut staging = Vec::with_capacity(4 + STAGING);
                while let Ok(msg) = rx.recv() {
                    let written = match msg {
                        WriterMsg::Frame(frame) => {
                            write_half.write_all(&frame).map_err(|e| e.to_string())
                        }
                        WriterMsg::Msg { region, words } => {
                            write_msg(&mut write_half, region, &words, &mut staging)
                                .map_err(|e| e.to_string())
                        }
                        WriterMsg::Flush(ack) => {
                            let _ = write_half.flush();
                            let _ = ack.send(());
                            continue;
                        }
                    };
                    if let Err(e) = written {
                        *lock_clean(&err_slot) = Some(e);
                        // Keep draining so senders never see a full queue;
                        // frames are dropped, the error is reported on the
                        // next enqueue, and flush acks still fire so nobody
                        // blocks.
                        while let Ok(m) = rx.recv() {
                            if let WriterMsg::Flush(ack) = m {
                                let _ = ack.send(());
                            }
                        }
                        return;
                    }
                }
                let _ = write_half.flush();
            })
            .map_err(|e| NetError::Io {
                detail: format!("spawn writer thread: {e}"),
            })?;
        Ok(PeerLink {
            write_tx: Mutex::new(Some(tx)),
            writer_err,
            read: Mutex::new(ReadState {
                stream,
                staging: Box::new([0; STAGING]),
                inbox: VecDeque::new(),
                barriers: VecDeque::new(),
                releases: VecDeque::new(),
            }),
        })
    }

    /// Enqueues an encoded frame for the writer thread (eager send). Counts
    /// the frame's full on-wire size against `stats` at enqueue time.
    pub fn enqueue(&self, frame: Vec<u8>, stats: Option<&CommStats>) -> Result<(), NetError> {
        let len = frame.len() as u64;
        self.push(WriterMsg::Frame(frame), len, stats)
    }

    /// Enqueues `words` as one `MSG` frame stamped `region` (eager send):
    /// the writer thread streams them from this buffer, so nothing is
    /// copied or encoded here. A message over [`crate::frame::MAX_FRAME`]
    /// is refused before it is queued. Counts the frame's full on-wire size
    /// against `stats` at enqueue time.
    fn enqueue_msg(
        &self,
        region: u64,
        words: Vec<f64>,
        stats: Option<&CommStats>,
    ) -> Result<(), NetError> {
        let len = msg_frame_len(words.len())?;
        self.push(WriterMsg::Msg { region, words }, len, stats)
    }

    /// Queues `msg` of `len` on-wire bytes for the writer thread.
    fn push(&self, msg: WriterMsg, len: u64, stats: Option<&CommStats>) -> Result<(), NetError> {
        if let Some(e) = lock_clean(&self.writer_err).clone() {
            return Err(NetError::Closed {
                detail: format!("writer failed earlier: {e}"),
            });
        }
        let guard = lock_clean(&self.write_tx);
        match guard.as_ref() {
            Some(tx) => match tx.send(msg) {
                Ok(()) => {
                    note_sent(len, stats);
                    Ok(())
                }
                Err(_) => Err(NetError::Closed {
                    detail: "writer thread gone".into(),
                }),
            },
            None => Err(NetError::Closed {
                detail: "link shut down".into(),
            }),
        }
    }

    /// Blocks until every frame enqueued before this call has been handed to
    /// the kernel (`write_all` returned). Needed before process exit: the
    /// writer thread is detached, so `std::process::exit` right after an
    /// `enqueue` can otherwise drop a final frame (e.g. the result `TABLE`)
    /// on the floor and peers see a spurious EOF.
    pub fn flush(&self, timeout: Duration) -> Result<(), NetError> {
        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        {
            let guard = lock_clean(&self.write_tx);
            match guard.as_ref() {
                Some(tx) => {
                    if tx.send(WriterMsg::Flush(ack_tx)).is_err() {
                        return Err(NetError::Closed {
                            detail: "writer thread gone".into(),
                        });
                    }
                }
                None => {
                    return Err(NetError::Closed {
                        detail: "link shut down".into(),
                    })
                }
            }
        }
        ack_rx
            .recv_timeout(timeout)
            .map_err(|_| NetError::Timeout {
                detail: "flush ack".into(),
            })?;
        if let Some(e) = lock_clean(&self.writer_err).clone() {
            return Err(NetError::Closed {
                detail: format!("writer failed earlier: {e}"),
            });
        }
        Ok(())
    }

    /// Decodes a region-stamped `(region, seq)` token body.
    fn decode_token(body: &[u8]) -> Result<(u64, u64), NetError> {
        Ok(<(u64, u64)>::from_wire_bytes(body)?)
    }

    /// Decodes an `ABORT` body into the typed error it announces.
    fn abort_error(body: &[u8]) -> NetError {
        match <(u64, u64, String)>::from_wire_bytes(body) {
            Ok((_region, rank, message)) => NetError::RankPanicked {
                rank: rank as usize,
                message,
            },
            Err(e) => e.into(),
        }
    }

    /// Receives the next `MSG` payload for `region`, buffering any barrier
    /// traffic that arrives first. The words are decoded while they are read
    /// (see [`crate::frame`]): the returned buffer is the only one the size
    /// of the message.
    pub fn recv_msg(&self, region: u64, stats: Option<&CommStats>) -> Result<Vec<f64>, NetError> {
        let mut guard = lock_clean(&self.read);
        let st = &mut *guard;
        if let Some((r, data)) = st.inbox.pop_front() {
            if r == region {
                return Ok(data);
            }
            return Err(NetError::Malformed {
                detail: format!("buffered message stamped region {r}, expected {region}"),
            });
        }
        loop {
            let payload = match recv_frame(&mut st.stream, &mut st.staging, stats)? {
                Inbound::Msg(r, data) => {
                    if r != region {
                        return Err(NetError::Malformed {
                            detail: format!("message stamped region {r}, expected {region}"),
                        });
                    }
                    return Ok(data);
                }
                Inbound::Control(payload) => payload,
            };
            let (op, body) = split_op(&payload);
            match op {
                OP_BARRIER => st.barriers.push_back(Self::decode_token(body)?),
                OP_RELEASE => st.releases.push_back(Self::decode_token(body)?),
                // A peer announcing its death unblocks us with the rank
                // attribution, whether it addressed us as a peer (ABORT) or
                // we are rank 0 hearing the launcher-bound report (PANIC).
                OP_ABORT | OP_PANIC => return Err(Self::abort_error(body)),
                other => {
                    return Err(NetError::Malformed {
                        detail: format!("unexpected opcode {other:#04x} while receiving"),
                    })
                }
            }
        }
    }

    /// Waits for the peer's `BARRIER` token for `(region, seq)`, buffering
    /// messages that arrive first.
    fn wait_barrier(
        &self,
        region: u64,
        seq: u64,
        stats: Option<&CommStats>,
    ) -> Result<(), NetError> {
        self.wait_token(region, seq, stats, /*release=*/ false)
    }

    /// Waits for rank 0's `RELEASE` token for `(region, seq)`.
    fn wait_release(
        &self,
        region: u64,
        seq: u64,
        stats: Option<&CommStats>,
    ) -> Result<(), NetError> {
        self.wait_token(region, seq, stats, /*release=*/ true)
    }

    fn wait_token(
        &self,
        region: u64,
        seq: u64,
        stats: Option<&CommStats>,
        release: bool,
    ) -> Result<(), NetError> {
        let mut guard = lock_clean(&self.read);
        let st = &mut *guard;
        let queue = if release {
            &mut st.releases
        } else {
            &mut st.barriers
        };
        if let Some(&(r, s)) = queue.front() {
            queue.pop_front();
            if (r, s) == (region, seq) {
                return Ok(());
            }
            return Err(NetError::Malformed {
                detail: format!("barrier token ({r},{s}) out of order, expected ({region},{seq})"),
            });
        }
        loop {
            let payload = match recv_frame(&mut st.stream, &mut st.staging, stats)? {
                Inbound::Msg(r, data) => {
                    st.inbox.push_back((r, data));
                    continue;
                }
                Inbound::Control(payload) => payload,
            };
            let (op, body) = split_op(&payload);
            match op {
                OP_BARRIER | OP_RELEASE => {
                    let tok = Self::decode_token(body)?;
                    if (op == OP_RELEASE) == release {
                        if tok == (region, seq) {
                            return Ok(());
                        }
                        return Err(NetError::Malformed {
                            detail: format!(
                                "barrier token ({},{}) out of order, expected ({region},{seq})",
                                tok.0, tok.1
                            ),
                        });
                    }
                    if op == OP_RELEASE {
                        st.releases.push_back(tok);
                    } else {
                        st.barriers.push_back(tok);
                    }
                }
                OP_ABORT | OP_PANIC => return Err(Self::abort_error(body)),
                other => {
                    return Err(NetError::Malformed {
                        detail: format!("unexpected opcode {other:#04x} at barrier"),
                    })
                }
            }
        }
    }

    /// Reads one control frame (region/result/table handshakes) and returns
    /// its payload, opcode first (see [`split_op`]); a stray `MSG` is read
    /// and returned as its opcode alone. Used only at region boundaries,
    /// where no message or barrier traffic is in flight on a correct SPMD
    /// program — anything unexpected is a typed protocol error.
    pub fn read_control(&self, stats: Option<&CommStats>) -> Result<Vec<u8>, NetError> {
        let mut guard = lock_clean(&self.read);
        let st = &mut *guard;
        recv_frame(&mut st.stream, &mut st.staging, stats).map(Inbound::into_control)
    }
}

/// A [`Transport`] endpoint over a mesh of [`PeerLink`]s for one SPMD region.
///
/// Cheap to construct per region: links are shared `Arc`s owned by the
/// session (or the caller, for hand-built meshes in tests), while the stats
/// handle and region stamp are per-region.
pub struct TcpTransport {
    rank: usize,
    world: usize,
    region: u64,
    links: Vec<Option<Arc<PeerLink>>>,
    stats: Arc<CommStats>,
    barrier_seq: AtomicU64,
}

impl TcpTransport {
    /// Assembles a transport from pre-wired links (`None` at `rank`'s index).
    pub fn new(
        rank: usize,
        world: usize,
        region: u64,
        links: Vec<Option<Arc<PeerLink>>>,
        stats: Arc<CommStats>,
    ) -> TcpTransport {
        TcpTransport {
            rank,
            world,
            region,
            links,
            stats,
            barrier_seq: AtomicU64::new(0),
        }
    }

    /// Wraps raw connected streams (index = peer rank, `None` at `rank`) —
    /// the hook the fault-injection battery uses to speak garbage at a
    /// transport from a hand-held socket.
    pub fn over_streams(
        rank: usize,
        world: usize,
        streams: Vec<Option<TcpStream>>,
        stats: Arc<CommStats>,
        timeout: Duration,
    ) -> Result<TcpTransport, NetError> {
        let mut links = Vec::with_capacity(world);
        for s in streams {
            links.push(match s {
                Some(s) => Some(Arc::new(PeerLink::new(s, timeout)?)),
                None => None,
            });
        }
        Ok(TcpTransport::new(rank, world, 0, links, stats))
    }

    /// The stats handle wire bytes are recorded into.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    fn link(&self, peer: usize) -> Result<&Arc<PeerLink>, TransportError> {
        match self.links.get(peer) {
            Some(Some(l)) => Ok(l),
            _ => Err(TransportError::Protocol {
                detail: format!("rank {} has no link to peer {peer}", self.rank),
            }),
        }
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    /// Copies `data` once, into a [`tucker_exec::zeroed`] buffer (huge
    /// pages when large), so the send stays eager; see [`Self::send_vec`].
    fn send(&self, dst: usize, data: &[f64]) -> Result<(), TransportError> {
        let mut words = tucker_exec::zeroed(data.len());
        words.copy_from_slice(data);
        self.send_vec(dst, words)
    }

    /// Hands `data` to the link's writer thread, which streams it onto the
    /// socket: no copy.
    fn send_vec(&self, dst: usize, data: Vec<f64>) -> Result<(), TransportError> {
        self.link(dst)?
            .enqueue_msg(self.region, data, Some(&self.stats))
            .map_err(|e| e.into_transport(dst))
    }

    fn recv(&self, src: usize) -> Result<Vec<f64>, TransportError> {
        let link = self.link(src)?;
        link.recv_msg(self.region, Some(&self.stats))
            .map_err(|e| e.into_transport(src))
    }

    fn barrier(&self) -> Result<(), TransportError> {
        let seq = self.barrier_seq.fetch_add(1, Ordering::SeqCst);
        if self.world == 1 {
            return Ok(());
        }
        let mut token = Vec::with_capacity(16);
        (self.region, seq).encode(&mut token);
        if self.rank == 0 {
            for w in 1..self.world {
                self.link(w)?
                    .wait_barrier(self.region, seq, Some(&self.stats))
                    .map_err(|e| e.into_transport(w))?;
            }
            let frame = encode_frame(OP_RELEASE, &token).map_err(|e| e.into_transport(0))?;
            for w in 1..self.world {
                self.link(w)?
                    .enqueue(frame.clone(), Some(&self.stats))
                    .map_err(|e| e.into_transport(w))?;
            }
        } else {
            let frame = encode_frame(OP_BARRIER, &token).map_err(|e| e.into_transport(0))?;
            self.link(0)?
                .enqueue(frame, Some(&self.stats))
                .map_err(|e| e.into_transport(0))?;
            self.link(0)?
                .wait_release(self.region, seq, Some(&self.stats))
                .map_err(|e| e.into_transport(0))?;
        }
        Ok(())
    }

    fn wire_bytes_sent(&self) -> u64 {
        self.stats.snapshot().wire_bytes_sent
    }
}

/// Sends an `ABORT` for `region` on a link, attributing it to `rank` with
/// `message`. Best effort — a dead link is ignored, the peer is gone anyway.
pub fn send_abort(link: &PeerLink, region: u64, rank: usize, message: &str) {
    let mut body = Vec::new();
    (region, rank as u64, message.to_string()).encode(&mut body);
    if let Ok(frame) = encode_frame(OP_ABORT, &body) {
        let _ = link.enqueue(frame, None);
    }
}

/// Builds a fully-wired loopback mesh of `p` transports *within one process*
/// (each rank on its own real socket pair). This is the TCP backend minus
/// the process launcher: tests use it to exercise real-socket framing,
/// barriers and fault injection without spawning.
pub fn local_mesh(p: usize, timeout: Duration) -> Result<Vec<TcpTransport>, NetError> {
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let l = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| NetError::from_io(&e, "bind local mesh listener"))?;
        addrs.push(
            l.local_addr()
                .map_err(|e| NetError::from_io(&e, "local_addr"))?,
        );
        listeners.push(l);
    }
    let mut streams: Vec<Vec<Option<TcpStream>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    // Dial lower ranks from higher ranks; identify each connection with a
    // one-frame rank header so the acceptor knows who called.
    for (j, row) in streams.iter_mut().enumerate() {
        for (addr, slot) in addrs.iter().zip(row.iter_mut()).take(j) {
            let mut s = TcpStream::connect(addr)
                .map_err(|e| NetError::from_io(&e, "local mesh connect"))?;
            write_frame(&mut s, OP_PEER, &(j as u64).to_wire_bytes(), None)?;
            NET_CONNECT.inc();
            *slot = Some(s);
        }
    }
    for (i, l) in listeners.iter().enumerate() {
        for _ in 0..p - 1 - i {
            let (mut s, _) = l
                .accept()
                .map_err(|e| NetError::from_io(&e, "local mesh accept"))?;
            s.set_read_timeout(Some(timeout))
                .map_err(|e| NetError::from_io(&e, "set_read_timeout"))?;
            let j = crate::launch::recv_handshake::<u64>(&mut s, OP_PEER, "PEER header")? as usize;
            if j >= p || j <= i {
                return Err(NetError::Malformed {
                    detail: format!("peer header names invalid rank {j}"),
                });
            }
            streams[i][j] = Some(s);
        }
    }
    let mut out = Vec::with_capacity(p);
    for (r, row) in streams.into_iter().enumerate() {
        out.push(TcpTransport::over_streams(
            r,
            p,
            row,
            CommStats::new_shared(),
            timeout,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(p: usize) -> Vec<TcpTransport> {
        local_mesh(p, Duration::from_secs(10)).expect("local mesh")
    }

    #[test]
    fn mesh_ring_exchange_matches_inproc_semantics() {
        let world = mesh(3);
        let results: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = world
                .into_iter()
                .enumerate()
                .map(|(r, t)| {
                    s.spawn(move || {
                        let next = (r + 1) % 3;
                        let prev = (r + 2) % 3;
                        t.send(next, &[r as f64 * 1.5]).unwrap();
                        t.recv(prev).unwrap()[0]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results, vec![3.0, 0.0, 1.5]);
    }

    #[test]
    fn per_pair_order_is_preserved() {
        let mut world = mesh(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                for k in 0..50 {
                    t0.send(1, &[k as f64]).unwrap();
                }
            });
            let h = s.spawn(move || {
                for k in 0..50 {
                    assert_eq!(t1.recv(0).unwrap(), vec![k as f64]);
                }
            });
            h.join().unwrap();
        });
    }

    #[test]
    fn barrier_synchronizes_mesh() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let world = mesh(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = world
                .into_iter()
                .map(|t| {
                    let counter = &counter;
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        t.barrier().unwrap();
                        assert_eq!(counter.load(Ordering::SeqCst), 4);
                        t.barrier().unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn eager_sends_do_not_deadlock_on_large_exchanges() {
        // Both sides push ~8 MB at each other before either reads — far past
        // any kernel socket buffer. The writer threads make this eager.
        let mut world = mesh(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        let big = vec![1.25f64; 1 << 20];
        std::thread::scope(|s| {
            let h0 = s.spawn({
                let big = big.clone();
                move || {
                    t0.send(1, &big).unwrap();
                    t0.recv(1).unwrap()
                }
            });
            let h1 = s.spawn({
                let big = big.clone();
                move || {
                    t1.send(0, &big).unwrap();
                    t1.recv(0).unwrap()
                }
            });
            assert_eq!(h0.join().unwrap().len(), 1 << 20);
            assert_eq!(h1.join().unwrap().len(), 1 << 20);
        });
    }

    #[test]
    fn payload_bits_survive_the_wire() {
        let mut world = mesh(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        let payload = vec![
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001), // a NaN with payload bits
            f64::MIN_POSITIVE / 2.0,               // subnormal
            1.0 + f64::EPSILON,                    // one ulp above 1
        ];
        std::thread::scope(|s| {
            let p2 = payload.clone();
            s.spawn(move || t0.send(1, &p2).unwrap());
            let got = s.spawn(move || t1.recv(0).unwrap()).join().unwrap();
            for (a, b) in payload.iter().zip(got.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        });
    }

    #[test]
    fn wire_bytes_are_exact() {
        // One message of W words costs 21 + 8W on the wire (4 len + 1 op +
        // 8 region + 8 count + 8W payload); nothing else moves.
        let mut world = mesh(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        let w = 37usize;
        std::thread::scope(|s| {
            let h1 = s.spawn(move || {
                let got = t1.recv(0).unwrap();
                assert_eq!(got.len(), w);
                t1.stats().snapshot()
            });
            let h0 = s.spawn(move || {
                t0.send(1, &vec![0.5; w]).unwrap();
                t0.stats().snapshot()
            });
            let s0 = h0.join().unwrap();
            let s1 = h1.join().unwrap();
            assert_eq!(s0.wire_bytes_sent, (21 + 8 * w) as u64);
            assert_eq!(s1.wire_bytes_received, (21 + 8 * w) as u64);
        });
    }

    #[test]
    fn dead_peer_recv_is_typed_not_hung() {
        let mut world = mesh(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        drop(t1); // rank 1 vanishes; its sockets close
        let err = t0.recv(1).unwrap_err();
        assert_eq!(err, TransportError::PeerGone { peer: 1 });
    }

    #[test]
    fn dead_peer_mid_barrier_is_typed_not_hung() {
        let world = local_mesh(2, Duration::from_millis(300)).unwrap();
        let mut it = world.into_iter();
        let t0 = it.next().unwrap();
        let t1 = it.next().unwrap();
        drop(t1);
        // Rank 0 waits for rank 1's token; the closed socket surfaces as a
        // typed error well before the deadline.
        let err = t0.barrier().unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::PeerGone { peer: 1 } | TransportError::Timeout { peer: 1, .. }
            ),
            "unexpected error: {err:?}"
        );
    }
}

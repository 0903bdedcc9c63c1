//! Length-prefix framing: the one frame codec of the workspace.
//!
//! The TCP mesh and `tucker-serve`'s daemon wire send the same frame: a
//! little-endian `u32` payload length, then the payload, whose first byte is
//! the opcode. Only this module knows it. [`encode_with`] writes a payload
//! into the frame's own buffer and fills in the prefix; [`read_frame`] checks
//! the declared length against the caller's cap *before* allocating, and
//! lets the caller decide what an idle socket at a frame boundary and a stall
//! inside a frame mean. Bodies are decoded with the bounds-checked
//! [`tucker_distmem::WireReader`], so arbitrary bytes can fail a decode but
//! never panic it or make it allocate unboundedly. Each wire brings its caps:
//! [`MAX_FRAME`] here, `MAX_REQUEST_FRAME` / `MAX_RESPONSE_FRAME` in
//! `tucker-serve`.
//!
//! `MSG` frames carry the bulk data and are streamed through a 64 KiB
//! staging buffer that each mesh link owns and reuses: `write_msg`
//! converts the words of the caller's `Vec<f64>` into the staging buffer one
//! chunk at a time and writes each chunk, and the mesh reader checks the
//! 21-byte head (prefix, opcode, region, count) and then decodes the words
//! chunk by chunk, as they arrive, into one `tucker_exec::zeroed` buffer.
//! No frame-sized byte buffer exists on either side. [`encode_msg_frame`]
//! and [`decode_msg`] are the same writer and reader over an in-memory
//! buffer, so the bytes they pin are the bytes a live link moves: exactly
//! those of the generic [`tucker_distmem::Wire`] encoding of
//! `(region, Vec<f64>)`.
//!
//! Every mesh byte that crosses a socket is counted here (`write_encoded`,
//! [`note_sent`], `recv_frame`), in both the process-wide `tucker-obs`
//! counters (`net.bytes_sent` / `net.bytes_recv`) and, when the caller passes
//! the rank's [`CommStats`], in the per-rank wire-byte counters — *including*
//! the 4-byte length prefix, the opcode and any frame header fields, so the
//! `CommStats` volume assertions stay exact.

use crate::error::NetError;
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};
use tucker_distmem::CommStats;
use tucker_obs::metrics::Counter;

/// Process-wide on-wire byte counters (both directions), frame overhead
/// included.
pub static NET_BYTES_SENT: Counter = Counter::new("net.bytes_sent");
/// See [`NET_BYTES_SENT`].
pub static NET_BYTES_RECV: Counter = Counter::new("net.bytes_recv");
/// Frames written to / read from sockets, process-wide.
pub static NET_FRAMES_SENT: Counter = Counter::new("net.frames_sent");
/// See [`NET_FRAMES_SENT`].
pub static NET_FRAMES_RECV: Counter = Counter::new("net.frames_recv");
/// Sockets successfully established (rendezvous + mesh wiring).
pub static NET_CONNECT: Counter = Counter::new("net.connect");

/// Maximum frame payload (opcode + body): 256 MiB. Large enough for any
/// per-rank tensor block the benches exchange, small enough that a hostile
/// length can't OOM the process.
pub const MAX_FRAME: u32 = 1 << 28;

// Opcodes. Rendezvous first, then region traffic.
/// Worker → launcher: `(job, rank, world, listen_addr)`.
pub const OP_HELLO: u8 = 0x01;
/// Launcher → worker: `(job, addrs)` — the full address table, index = rank.
pub const OP_ADDRS: u8 = 0x02;
/// Dialing worker → accepting worker: `(job, rank)`.
pub const OP_PEER: u8 = 0x03;
/// Launcher → worker: `(region, name, grid_shape)` — region start handshake.
pub const OP_REGION: u8 = 0x10;
/// Rank → rank: `(region, words…)` — one point-to-point `Vec<f64>` message.
pub const OP_MSG: u8 = 0x11;
/// Worker → rank 0: `(region, seq)` — barrier arrival token.
pub const OP_BARRIER: u8 = 0x12;
/// Rank 0 → worker: `(region, seq)` — barrier release.
pub const OP_RELEASE: u8 = 0x13;
/// Worker → rank 0: `(region, rank, stats, result_bytes)` — region result.
pub const OP_RESULT: u8 = 0x14;
/// Worker → rank 0: `(region, rank, message)` — the closure panicked.
pub const OP_PANIC: u8 = 0x15;
/// Rank 0 → worker: `(region, stats_table, result_table)` — all ranks' results.
pub const OP_TABLE: u8 = 0x16;
/// Any → any: `(region, rank, message)` — abandon the region (and session).
pub const OP_ABORT: u8 = 0x17;

/// Bytes of a `MSG` body ahead of its words: the `u64` region stamp and the
/// `u64` word count.
const MSG_HEADER: usize = 16;

/// Bytes of a `MSG` payload ahead of its words: the opcode and the header.
const MSG_HEAD: usize = 1 + MSG_HEADER;

/// Words a `MSG` moves per `write` or `read` call (64 KiB).
const CHUNK_WORDS: usize = 8192;

/// Size of a mesh link's staging buffer: the opcode and header of a `MSG`
/// and one chunk of its words. A frame's first read fills at most this much,
/// so a small frame of either kind arrives in one `read` after its prefix.
pub(crate) const STAGING: usize = MSG_HEAD + 8 * CHUNK_WORDS;

/// Checks a payload length against `1..=cap`.
fn payload_len(len: usize, cap: u32) -> Result<u32, NetError> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l >= 1 && l <= cap)
        .ok_or(NetError::FrameTooLarge {
            len: len as u64,
            max: cap as u64,
        })
}

/// Fills in the length prefix of `frame`: four reserved bytes, then the
/// payload.
fn seal(mut frame: Vec<u8>, cap: u32) -> Result<Vec<u8>, NetError> {
    let len = payload_len(frame.len().saturating_sub(4), cap)?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    Ok(frame)
}

/// Encodes one frame of at most `cap` payload bytes. `payload` appends the
/// payload, opcode first, to the frame's own buffer behind four reserved
/// bytes, which then receive its length: the payload is never copied into a
/// second buffer.
pub fn encode_with(cap: u32, payload: impl FnOnce(&mut Vec<u8>)) -> Result<Vec<u8>, NetError> {
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&[0; 4]);
    payload(&mut frame);
    seal(frame, cap)
}

/// Encodes one mesh frame (`length ‖ opcode ‖ body`), refusing bodies over
/// [`MAX_FRAME`] before allocating.
pub fn encode_frame(op: u8, body: &[u8]) -> Result<Vec<u8>, NetError> {
    payload_len(body.len().saturating_add(1), MAX_FRAME)?;
    encode_with(MAX_FRAME, |frame| {
        frame.reserve(1 + body.len());
        frame.push(op);
        frame.extend_from_slice(body);
    })
}

/// Appends 64-bit words back to back, little-endian, in one pass: the bulk
/// path of `MSG` bodies and of the daemon's tensors and index lists.
pub fn put_words(out: &mut Vec<u8>, words: impl Iterator<Item = u64>) {
    out.reserve(words.size_hint().0.saturating_mul(8));
    out.extend(words.flat_map(u64::to_le_bytes));
}

/// The on-wire size of a `MSG` frame of `words` words (prefix, opcode,
/// header and words), refusing one whose payload exceeds [`MAX_FRAME`].
pub(crate) fn msg_frame_len(words: usize) -> Result<u64, NetError> {
    let body_len = words.saturating_mul(8).saturating_add(MSG_HEADER);
    let payload = payload_len(body_len.saturating_add(1), MAX_FRAME)?;
    Ok(4 + u64::from(payload))
}

/// Writes one `MSG` frame — `length ‖ OP_MSG ‖ region ‖ count ‖ words` —
/// through `staging`, refusing payloads over [`MAX_FRAME`] before writing:
/// each write carries one chunk of `CHUNK_WORDS` words converted to their
/// little-endian bit patterns, and the first also carries the 21-byte head,
/// so a small message is one `write_all`. `staging` is cleared and reused;
/// nothing the size of the frame is allocated.
pub(crate) fn write_msg(
    w: &mut impl Write,
    region: u64,
    words: &[f64],
    staging: &mut Vec<u8>,
) -> Result<(), NetError> {
    let payload = msg_frame_len(words.len())? - 4;
    staging.clear();
    staging.extend_from_slice(&(payload as u32).to_le_bytes());
    staging.push(OP_MSG);
    staging.extend_from_slice(&region.to_le_bytes());
    staging.extend_from_slice(&(words.len() as u64).to_le_bytes());
    let mut rest = words;
    loop {
        let (now, later) = rest.split_at(rest.len().min(CHUNK_WORDS));
        put_words(staging, now.iter().map(|w| w.to_bits()));
        w.write_all(staging)
            .map_err(|e| NetError::from_io(&e, "write frame"))?;
        staging.clear();
        rest = later;
        if rest.is_empty() {
            return Ok(());
        }
    }
}

/// Encodes one `MSG` frame into a buffer: `write_msg` over a `Vec<u8>`.
/// The bytes are exactly those of
/// `encode_frame(OP_MSG, &(region, words).to_wire_bytes())`.
pub fn encode_msg_frame(region: u64, words: &[f64]) -> Result<Vec<u8>, NetError> {
    let mut frame = Vec::with_capacity(msg_frame_len(words.len())? as usize);
    write_msg(&mut frame, region, words, &mut Vec::new())?;
    Ok(frame)
}

/// Decodes a `MSG` body into `(region, words)`: the mesh reader's `MSG`
/// path over an in-memory body.
///
/// The declared word count must match the body length exactly; the words
/// are allocated from the body length, never from the declared count, so a
/// lying header cannot make the decoder allocate.
pub fn decode_msg(body: &[u8]) -> Result<(u64, Vec<f64>), NetError> {
    let len = body.len() + 1;
    let first = len.min(STAGING);
    let mut staging = Box::new([0u8; STAGING]);
    staging[0] = OP_MSG;
    staging[1..first].copy_from_slice(&body[..first - 1]);
    let mut rest = &body[first - 1..];
    let mut never = || false;
    let mut inc = Incoming::new(&mut rest, Duration::ZERO, &mut never);
    read_msg(&mut inc, len, &mut staging, first)
}

/// Reads the rest of a `MSG` payload of `len` bytes whose first `first`
/// bytes, opcode first, are in `staging`. The header is checked before
/// anything is allocated: the body must hold the 16-byte header and exactly
/// the declared count of words. The words are then decoded chunk by chunk
/// as they arrive, into one `tucker_exec::zeroed` buffer sized from `len`.
fn read_msg(
    inc: &mut Incoming<'_, impl Read>,
    len: usize,
    staging: &mut [u8; STAGING],
    first: usize,
) -> Result<(u64, Vec<f64>), NetError> {
    if len < MSG_HEAD {
        return Err(NetError::Malformed {
            detail: format!(
                "MSG body of {} bytes is shorter than its {MSG_HEADER}-byte header",
                len - 1
            ),
        });
    }
    let region = le_u64(&staging[1..9]);
    let count = le_u64(&staging[9..MSG_HEAD]);
    let bytes = len - MSG_HEAD;
    if !bytes.is_multiple_of(8) || count != (bytes / 8) as u64 {
        // Read the rest of the frame first, as a whole-frame read would:
        // the stream stays at a frame boundary, and a frame cut short is
        // reported as such.
        inc.skip(len - first, staging)?;
        return Err(NetError::Malformed {
            detail: format!("MSG declares {count} words but carries {bytes} payload bytes"),
        });
    }
    let mut words = tucker_exec::zeroed(bytes / 8);
    // The first read brought the head and the first chunk; each later read
    // brings one chunk.
    let mut chunks = words.chunks_mut(CHUNK_WORDS);
    if let Some(out) = chunks.next() {
        decode_words(&staging[MSG_HEAD..first], out);
    }
    for out in chunks {
        let buf = &mut staging[..8 * out.len()];
        inc.fill(buf)?;
        decode_words(buf, out);
    }
    Ok((region, words))
}

/// Decodes little-endian words from `bytes` into `out`, one per 8 bytes.
fn decode_words(bytes: &[u8], out: &mut [f64]) {
    for (w, b) in out.iter_mut().zip(bytes.as_chunks::<8>().0) {
        *w = f64::from_le_bytes(*b);
    }
}

/// The little-endian `u64` in the 8 bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

/// Writes an already-encoded frame, bumping the global and (optionally) the
/// per-rank wire counters by the full frame length.
fn write_encoded(
    w: &mut impl Write,
    frame: &[u8],
    stats: Option<&CommStats>,
) -> Result<(), NetError> {
    w.write_all(frame)
        .map_err(|e| NetError::from_io(&e, "write frame"))?;
    note_sent(frame.len() as u64, stats);
    Ok(())
}

/// Records `bytes` of outbound wire traffic (used by the buffered writer
/// path, where counting happens at enqueue time).
pub fn note_sent(bytes: u64, stats: Option<&CommStats>) {
    NET_BYTES_SENT.add(bytes);
    NET_FRAMES_SENT.inc();
    if let Some(s) = stats {
        s.record_wire_sent(bytes);
    }
}

/// Encodes and writes one frame in a single call (rendezvous path).
pub fn write_frame(
    w: &mut impl Write,
    op: u8,
    body: &[u8],
    stats: Option<&CommStats>,
) -> Result<(), NetError> {
    let frame = encode_frame(op, body)?;
    write_encoded(w, &frame, stats)
}

/// Reads one frame of at most `cap` payload bytes and returns the payload,
/// opcode first (never empty); with the bytes there, the prefix and the
/// payload take one `read` each. A declared length outside `1..=cap` is
/// [`NetError::FrameTooLarge`] before anything is allocated. A read that
/// times out before the frame's first byte asks `keep_waiting` whether to go
/// on (a daemon session polling its shutdown flag) or fail with
/// [`NetError::Timeout`] (a mesh link past its deadline); inside a frame,
/// timed-out reads are retried until no byte has arrived for `patience`. A
/// close before the first byte is [`NetError::Closed`], after it
/// [`NetError::Truncated`].
pub fn read_frame(
    r: &mut impl Read,
    cap: u32,
    patience: Duration,
    mut keep_waiting: impl FnMut() -> bool,
) -> Result<Vec<u8>, NetError> {
    let mut inc = Incoming::new(r, patience, &mut keep_waiting);
    let len = inc.prefix(cap)?;
    let mut payload = vec![0u8; len];
    inc.fill(&mut payload)?;
    Ok(payload)
}

/// The read side of one frame: the caller's timeout policy, and whether any
/// byte of the frame has arrived yet.
struct Incoming<'a, R> {
    r: &'a mut R,
    started: bool,
    patience: Duration,
    keep_waiting: &'a mut dyn FnMut() -> bool,
}

impl<'a, R: Read> Incoming<'a, R> {
    fn new(
        r: &'a mut R,
        patience: Duration,
        keep_waiting: &'a mut dyn FnMut() -> bool,
    ) -> Incoming<'a, R> {
        Incoming {
            r,
            started: false,
            patience,
            keep_waiting,
        }
    }

    /// Reads the length prefix and checks it against `1..=cap`.
    fn prefix(&mut self, cap: u32) -> Result<usize, NetError> {
        let mut prefix = [0u8; 4];
        self.fill(&mut prefix)?;
        Ok(payload_len(u32::from_le_bytes(prefix) as usize, cap)? as usize)
    }

    /// Reads and drops the frame's next `n` bytes through `buf`.
    fn skip(&mut self, mut n: usize, buf: &mut [u8]) -> Result<(), NetError> {
        while n > 0 {
            let m = n.min(buf.len());
            self.fill(&mut buf[..m])?;
            n -= m;
        }
        Ok(())
    }

    /// Fills `buf` with the frame's next bytes (see [`read_frame`] for the
    /// timeout and close policy).
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), NetError> {
        let mut filled = 0usize;
        let mut stalled_since: Option<Instant> = None;
        while filled < buf.len() {
            match self.r.read(&mut buf[filled..]) {
                Ok(0) if !self.started => {
                    return Err(NetError::Closed {
                        detail: "EOF at a frame boundary".into(),
                    })
                }
                Ok(0) => {
                    return Err(NetError::Truncated {
                        detail: format!("EOF inside a frame ({filled}/{} bytes)", buf.len()),
                    })
                }
                Ok(n) => {
                    filled += n;
                    self.started = true;
                    stalled_since = None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    let wait = if self.started {
                        stalled_since.get_or_insert_with(Instant::now).elapsed() < self.patience
                    } else {
                        (self.keep_waiting)()
                    };
                    if !wait {
                        return Err(NetError::from_io(&e, "read frame"));
                    }
                }
                Err(e) => return Err(NetError::from_io(&e, "read frame")),
            }
        }
        Ok(())
    }
}

/// One frame read off a mesh socket by [`recv_frame`].
#[derive(Debug)]
pub(crate) enum Inbound {
    /// A `MSG`: its region stamp and its words, decoded while read.
    Msg(u64, Vec<f64>),
    /// Any other frame: its payload, opcode first.
    Control(Vec<u8>),
}

impl Inbound {
    /// The payload of a control frame; a `MSG` (whose words only the data
    /// path wants) reduces to its opcode.
    pub(crate) fn into_control(self) -> Vec<u8> {
        match self {
            Inbound::Msg(..) => vec![OP_MSG],
            Inbound::Control(payload) => payload,
        }
    }
}

/// Reads one mesh frame through the link's `staging` buffer: [`MAX_FRAME`]
/// cap, and the socket's read deadline is final at a frame boundary and
/// inside a frame alike. The first read after the prefix fills at most
/// [`STAGING`] bytes; a `MSG` then streams its words (see the module docs),
/// any other frame reads the rest of its payload. Counts the full on-wire
/// size (prefix included) like [`write_encoded`].
pub(crate) fn recv_frame(
    r: &mut impl Read,
    staging: &mut [u8; STAGING],
    stats: Option<&CommStats>,
) -> Result<Inbound, NetError> {
    let mut never = || false;
    let mut inc = Incoming::new(r, Duration::ZERO, &mut never);
    let len = inc.prefix(MAX_FRAME)?;
    let first = len.min(STAGING);
    inc.fill(&mut staging[..first])?;
    let frame = if staging[0] == OP_MSG {
        let (region, words) = read_msg(&mut inc, len, staging, first)?;
        Inbound::Msg(region, words)
    } else {
        let mut payload = vec![0u8; len];
        payload[..first].copy_from_slice(&staging[..first]);
        inc.fill(&mut payload[first..])?;
        Inbound::Control(payload)
    };
    let on_wire = 4 + len as u64;
    NET_BYTES_RECV.add(on_wire);
    NET_FRAMES_RECV.inc();
    if let Some(s) = stats {
        s.record_wire_recv(on_wire);
    }
    Ok(frame)
}

/// Splits a payload from [`read_frame`] into its opcode and body. Opcode 0
/// is on neither wire, so the empty payload `read_frame` never returns would
/// land in every caller's unknown-opcode arm.
pub fn split_op(payload: &[u8]) -> (u8, &[u8]) {
    payload
        .split_first()
        .map_or((0, payload), |(&op, body)| (op, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_mesh(bytes: &[u8]) -> Result<Vec<u8>, NetError> {
        recv_frame(&mut Cursor::new(bytes), &mut Box::new([0; STAGING]), None)
            .map(Inbound::into_control)
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(OP_RESULT, &[1, 2, 3]).unwrap();
        assert_eq!(frame.len(), 4 + 1 + 3);
        let payload = read_mesh(&frame).unwrap();
        assert_eq!(split_op(&payload), (OP_RESULT, &[1u8, 2, 3][..]));
    }

    /// Hands out at most `step` bytes per `read`, so every fill of the
    /// streaming reader is split across calls.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn streamed_msgs_round_trip_across_chunk_boundaries() {
        let mut staging = Box::new([0; STAGING]);
        for len in [
            0,
            1,
            CHUNK_WORDS - 1,
            CHUNK_WORDS,
            CHUNK_WORDS + 1,
            2 * CHUNK_WORDS + 5,
        ] {
            let words: Vec<f64> = (0..len)
                .map(|i| f64::from_bits(i as u64 * 0x9e37_79b9))
                .collect();
            let frame = encode_msg_frame(9, &words).unwrap();
            assert_eq!(frame.len() as u64, msg_frame_len(len).unwrap());
            // A second frame behind the first must be left where it is.
            let mut wire = frame.clone();
            wire.extend_from_slice(&encode_frame(OP_BARRIER, &[]).unwrap());
            for step in [7, 4096, usize::MAX] {
                let mut r = Trickle { bytes: &wire, step };
                match recv_frame(&mut r, &mut staging, None).unwrap() {
                    Inbound::Msg(region, back) => {
                        assert_eq!(region, 9);
                        let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&back), bits(&words), "len {len} step {step}");
                    }
                    other => panic!("len {len}: expected a MSG, got {other:?}"),
                }
                let next = recv_frame(&mut r, &mut staging, None).unwrap();
                assert_eq!(next.into_control(), vec![OP_BARRIER]);
            }
            let (region, back) = decode_msg(&frame[5..]).unwrap();
            assert_eq!((region, back.len()), (9, len));
        }
    }

    #[test]
    fn empty_body_is_valid() {
        let frame = encode_frame(OP_BARRIER, &[]).unwrap();
        let payload = read_mesh(&frame).unwrap();
        assert_eq!(split_op(&payload), (OP_BARRIER, &[][..]));
    }

    #[test]
    fn zero_length_is_rejected() {
        assert!(matches!(
            read_mesh(&0u32.to_le_bytes()),
            Err(NetError::FrameTooLarge { len: 0, .. })
        ));
        assert!(matches!(
            encode_with(MAX_FRAME, |_| {}),
            Err(NetError::FrameTooLarge { len: 0, .. })
        ));
    }

    #[test]
    fn encode_rejects_oversized_body() {
        let frame = encode_with(3, |out| out.extend_from_slice(&[9, 8, 7])).unwrap();
        assert_eq!(frame, vec![3, 0, 0, 0, 9, 8, 7]);
        assert!(matches!(
            encode_with(3, |out| out.extend_from_slice(&[9, 8, 7, 6])),
            Err(NetError::FrameTooLarge { len: 4, max: 3 })
        ));
    }

    #[test]
    fn stats_count_full_on_wire_size() {
        let stats = CommStats::new_shared();
        let frame = encode_frame(OP_RESULT, &[0u8; 11]).unwrap();
        let mut sink = Vec::new();
        write_encoded(&mut sink, &frame, Some(&stats)).unwrap();
        let msg = encode_msg_frame(0, &[1.0, 2.0, 3.0]).unwrap();
        write_encoded(&mut sink, &msg, Some(&stats)).unwrap();
        let mut r = Cursor::new(&sink);
        let mut staging = Box::new([0; STAGING]);
        for _ in 0..2 {
            recv_frame(&mut r, &mut staging, Some(&stats)).unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.wire_bytes_sent, (4 + 1 + 11) + (21 + 3 * 8));
        assert_eq!(snap.wire_bytes_received, (4 + 1 + 11) + (21 + 3 * 8));
    }

    /// Serves `script` one step per `read`: `Some(bytes)` delivers them,
    /// `None` times out.
    struct Scripted(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(Some(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn boundary_timeouts_follow_the_caller_and_stalls_the_patience() {
        let script = |steps: Vec<Option<Vec<u8>>>| Scripted(steps.into());
        // At a boundary, `keep_waiting` decides: waiting through two
        // timeouts reads the frame; refusing is a Timeout.
        let mut polls = 0;
        let mut r = script(vec![None, None, Some(vec![1, 0, 0, 0]), Some(vec![7])]);
        let payload = read_frame(&mut r, 8, Duration::ZERO, || {
            polls += 1;
            true
        });
        assert_eq!((payload.unwrap(), polls), (vec![7], 2));
        let mut r = script(vec![None, Some(vec![1, 0, 0, 0]), Some(vec![7])]);
        assert!(matches!(
            read_frame(&mut r, 8, Duration::ZERO, || false),
            Err(NetError::Timeout { .. })
        ));
        // Inside a frame, a stall within the patience is ridden out (the
        // boundary policy is not asked); with no patience it is a Timeout.
        let steps = vec![
            Some(vec![2, 0]),
            None,
            Some(vec![0, 0]),
            Some(vec![7]),
            None,
            Some(vec![8]),
        ];
        let mut r = script(steps.clone());
        let payload = read_frame(&mut r, 8, Duration::from_secs(60), || false);
        assert_eq!(payload.unwrap(), vec![7, 8]);
        let mut r = script(steps);
        assert!(matches!(
            read_frame(&mut r, 8, Duration::ZERO, || true),
            Err(NetError::Timeout { .. })
        ));
    }
}

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
//! `MSG` frames carry the bulk data and have a single-pass codec of their
//! own ([`encode_msg_frame`] / [`decode_msg`]): one buffer per frame on the
//! way out, one conversion on the way in, and the same bytes the generic
//! [`tucker_distmem::Wire`] encoding of `(region, Vec<f64>)` would produce.
//!
//! Every mesh byte that crosses a socket is counted here ([`write_encoded`],
//! [`note_sent`], `recv_frame`), in both the process-wide `tucker-obs`
//! counters (`net.bytes_sent` / `net.bytes_recv`) and, when the caller passes
//! the rank's [`CommStats`], in the per-rank wire-byte counters — *including*
//! the 4-byte length prefix, the opcode and any frame header fields, so the
//! `CommStats` volume assertions stay exact.

use crate::error::NetError;
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};
use tucker_distmem::{CommStats, WireReader};
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

/// Encodes one `MSG` frame — `length ‖ OP_MSG ‖ region ‖ count ‖ words` —
/// into a single buffer, refusing payloads over [`MAX_FRAME`] before
/// allocating: the header is written once and the words in one pass, each
/// as its little-endian bit pattern. The bytes are exactly those of
/// `encode_frame(OP_MSG, &(region, words).to_wire_bytes())`.
pub fn encode_msg_frame(region: u64, words: &[f64]) -> Result<Vec<u8>, NetError> {
    let body_len = words.len().saturating_mul(8).saturating_add(MSG_HEADER);
    payload_len(body_len.saturating_add(1), MAX_FRAME)?;
    encode_with(MAX_FRAME, |frame| {
        frame.push(OP_MSG);
        frame.extend_from_slice(&region.to_le_bytes());
        frame.extend_from_slice(&(words.len() as u64).to_le_bytes());
        put_words(frame, words.iter().map(|w| w.to_bits()));
    })
}

/// Decodes a `MSG` body into `(region, words)` in one pass.
///
/// The declared word count must match the body length exactly; the words
/// are allocated from the body length, never from the declared count, so a
/// lying header cannot make the decoder allocate.
pub fn decode_msg(body: &[u8]) -> Result<(u64, Vec<f64>), NetError> {
    if body.len() < MSG_HEADER {
        return Err(NetError::Malformed {
            detail: format!(
                "MSG body of {} bytes is shorter than its {MSG_HEADER}-byte header",
                body.len()
            ),
        });
    }
    let mut r = WireReader::new(body);
    let region = r.u64()?;
    let count = r.u64()?;
    let words = r.remaining() / 8;
    if count != words as u64 || words * 8 != r.remaining() {
        return Err(NetError::Malformed {
            detail: format!(
                "MSG declares {count} words but carries {} payload bytes",
                r.remaining()
            ),
        });
    }
    Ok((region, r.f64s(words)?))
}

/// Writes an already-encoded frame, bumping the global and (optionally) the
/// per-rank wire counters by the full frame length.
pub fn write_encoded(
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
    let mut prefix = [0u8; 4];
    let mut started = false;
    fill(r, &mut prefix, &mut started, patience, &mut keep_waiting)?;
    let len = payload_len(u32::from_le_bytes(prefix) as usize, cap)?;
    let mut payload = vec![0u8; len as usize];
    fill(r, &mut payload, &mut started, patience, &mut keep_waiting)?;
    Ok(payload)
}

/// Fills `buf` for [`read_frame`]; `started` records whether any byte of the
/// frame has arrived.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    started: &mut bool,
    patience: Duration,
    keep_waiting: &mut impl FnMut() -> bool,
) -> Result<(), NetError> {
    let mut filled = 0usize;
    let mut stalled_since: Option<Instant> = None;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if !*started => {
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
                *started = true;
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let wait = if *started {
                    stalled_since.get_or_insert_with(Instant::now).elapsed() < patience
                } else {
                    keep_waiting()
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

/// Reads one mesh frame: [`MAX_FRAME`] cap, and the socket's read deadline
/// is final at a frame boundary and inside a frame alike. Counts the full
/// on-wire size (prefix included) like [`write_encoded`].
pub(crate) fn recv_frame(
    r: &mut impl Read,
    stats: Option<&CommStats>,
) -> Result<Vec<u8>, NetError> {
    let payload = read_frame(r, MAX_FRAME, Duration::ZERO, || false)?;
    let on_wire = 4 + payload.len() as u64;
    NET_BYTES_RECV.add(on_wire);
    NET_FRAMES_RECV.inc();
    if let Some(s) = stats {
        s.record_wire_recv(on_wire);
    }
    Ok(payload)
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
        recv_frame(&mut Cursor::new(bytes), None)
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(OP_MSG, &[1, 2, 3]).unwrap();
        assert_eq!(frame.len(), 4 + 1 + 3);
        let payload = read_mesh(&frame).unwrap();
        assert_eq!(split_op(&payload), (OP_MSG, &[1u8, 2, 3][..]));
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
        let frame = encode_frame(OP_MSG, &[0u8; 11]).unwrap();
        let mut sink = Vec::new();
        write_encoded(&mut sink, &frame, Some(&stats)).unwrap();
        recv_frame(&mut Cursor::new(&sink), Some(&stats)).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.wire_bytes_sent, 4 + 1 + 11);
        assert_eq!(snap.wire_bytes_received, 4 + 1 + 11);
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

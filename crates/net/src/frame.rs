//! Length-prefix framing for the TCP mesh.
//!
//! Identical discipline to `tucker-serve`'s wire protocol (`serve/src/proto.rs`):
//! every frame is a little-endian `u32` payload length followed by that many
//! bytes, the first of which is the opcode. The length is validated against
//! [`MAX_FRAME`] *before* any allocation, and control bodies are decoded with
//! the bounds-checked [`tucker_distmem::WireReader`] — arbitrary bytes can
//! fail a read but can never panic it or make it allocate unboundedly.
//!
//! `MSG` frames carry the bulk data and have a single-pass codec of their
//! own ([`encode_msg_frame`] / [`decode_msg`]): one buffer per frame on the
//! way out, one conversion on the way in, and the same bytes the generic
//! [`tucker_distmem::Wire`] encoding of `(region, Vec<f64>)` would produce.
//!
//! Every byte that crosses a socket is counted here, in both the process-wide
//! `tucker-obs` counters (`net.bytes_sent` / `net.bytes_recv`) and, when the
//! caller passes the rank's [`CommStats`], in the per-rank wire-byte counters
//! — *including* the 4-byte length prefix, the opcode and any frame header
//! fields, so the `CommStats` volume assertions stay exact (ISSUE 10
//! satellite: framing/header overhead is part of the measured volume).

use crate::error::NetError;
use std::io::{Read, Write};
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

/// Overhead bytes per frame beyond the body: 4-byte length prefix + opcode.
pub const FRAME_OVERHEAD: u64 = 5;

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

/// The 5-byte frame prefix (`length ‖ opcode`) for a body of `body_len`
/// bytes, refusing payloads over [`MAX_FRAME`].
fn frame_prefix(op: u8, body_len: usize) -> Result<[u8; 5], NetError> {
    let payload = (body_len as u64).saturating_add(1);
    if payload > MAX_FRAME as u64 {
        return Err(NetError::FrameTooLarge {
            len: payload,
            max: MAX_FRAME as u64,
        });
    }
    let [a, b, c, d] = (payload as u32).to_le_bytes();
    Ok([a, b, c, d, op])
}

/// Encodes one frame (`length ‖ opcode ‖ body`) into a fresh buffer.
pub fn encode_frame(op: u8, body: &[u8]) -> Result<Vec<u8>, NetError> {
    let prefix = frame_prefix(op, body.len())?;
    let mut out = Vec::with_capacity(prefix.len() + body.len());
    out.extend_from_slice(&prefix);
    out.extend_from_slice(body);
    Ok(out)
}

/// Encodes one `MSG` frame — `length ‖ OP_MSG ‖ region ‖ count ‖ words` —
/// into a single buffer: the header is written once and the words in one
/// pass, each as its little-endian bit pattern. The bytes are exactly those
/// of `encode_frame(OP_MSG, &(region, words).to_wire_bytes())`.
pub fn encode_msg_frame(region: u64, words: &[f64]) -> Result<Vec<u8>, NetError> {
    let body_len = words.len().saturating_mul(8).saturating_add(MSG_HEADER);
    let prefix = frame_prefix(OP_MSG, body_len)?;
    let mut out = vec![0u8; prefix.len() + body_len];
    let (head, payload) = out.split_at_mut(prefix.len() + MSG_HEADER);
    head[..5].copy_from_slice(&prefix);
    head[5..13].copy_from_slice(&region.to_le_bytes());
    head[13..].copy_from_slice(&(words.len() as u64).to_le_bytes());
    for (dst, w) in payload.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_bits().to_le_bytes());
    }
    Ok(out)
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
    let (head, payload) = body.split_at(MSG_HEADER);
    let region = le_u64(&head[..8]);
    let count = le_u64(&head[8..]);
    if payload.len() % 8 != 0 || count != (payload.len() / 8) as u64 {
        return Err(NetError::Malformed {
            detail: format!(
                "MSG declares {count} words but carries {} payload bytes",
                payload.len()
            ),
        });
    }
    let words = payload
        .chunks_exact(8)
        .map(|w| f64::from_bits(le_u64(w)))
        .collect();
    Ok((region, words))
}

/// Reads a little-endian `u64` from an 8-byte slice.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
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

/// Reads one frame; returns `(opcode, body)`.
///
/// The declared length is validated before allocating; a clean EOF at the
/// length prefix is [`NetError::Closed`], EOF mid-frame is
/// [`NetError::Truncated`], and a read past the socket's deadline is
/// [`NetError::Timeout`]. Counters are bumped by the full on-wire size
/// (prefix + opcode + body).
pub fn read_frame(r: &mut impl Read, stats: Option<&CommStats>) -> Result<(u8, Vec<u8>), NetError> {
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, "frame length prefix")?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(NetError::FrameTooLarge {
            len: len as u64,
            max: MAX_FRAME as u64,
        });
    }
    // The opcode is read on its own so the body lands in its final buffer.
    let mut op = [0u8; 1];
    read_exact_body(r, &mut op)?;
    let mut body = vec![0u8; len as usize - 1];
    read_exact_body(r, &mut body)?;
    let on_wire = 4 + len as u64;
    NET_BYTES_RECV.add(on_wire);
    NET_FRAMES_RECV.inc();
    if let Some(s) = stats {
        s.record_wire_recv(on_wire);
    }
    Ok((op[0], body))
}

/// `read_exact` for the frame prefix: a clean close before any byte is
/// `Closed`, a close after some bytes is `Truncated`.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), NetError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    NetError::Closed {
                        detail: format!("EOF before {what}"),
                    }
                } else {
                    NetError::Truncated {
                        detail: format!("EOF inside {what} ({filled}/{} bytes)", buf.len()),
                    }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io(&e, what)),
        }
    }
    Ok(())
}

/// `read_exact` for the frame body: any EOF is mid-frame, hence `Truncated`.
fn read_exact_body(r: &mut impl Read, buf: &mut [u8]) -> Result<(), NetError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(NetError::Truncated {
                    detail: format!("EOF inside frame body ({filled}/{} bytes)", buf.len()),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io(&e, "frame body")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(OP_MSG, &[1, 2, 3]).unwrap();
        assert_eq!(frame.len(), 4 + 1 + 3);
        let (op, body) = read_frame(&mut Cursor::new(&frame), None).unwrap();
        assert_eq!(op, OP_MSG);
        assert_eq!(body, vec![1, 2, 3]);
    }

    #[test]
    fn empty_body_is_valid() {
        let frame = encode_frame(OP_BARRIER, &[]).unwrap();
        let (op, body) = read_frame(&mut Cursor::new(&frame), None).unwrap();
        assert_eq!(op, OP_BARRIER);
        assert!(body.is_empty());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        match read_frame(&mut Cursor::new(&bytes), None) {
            Err(NetError::FrameTooLarge { len, .. }) => assert_eq!(len, u32::MAX as u64),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_is_rejected() {
        let bytes = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes), None),
            Err(NetError::FrameTooLarge { len: 0, .. })
        ));
    }

    #[test]
    fn clean_eof_is_closed_partial_is_truncated() {
        assert!(matches!(
            read_frame(&mut Cursor::new(&[] as &[u8]), None),
            Err(NetError::Closed { .. })
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(&[5u8, 0]), None),
            Err(NetError::Truncated { .. })
        ));
        // Full prefix, truncated body.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.push(OP_MSG);
        bytes.extend_from_slice(&[0; 10]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes), None),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn stats_count_full_on_wire_size() {
        let stats = CommStats::new_shared();
        let frame = encode_frame(OP_MSG, &[0u8; 11]).unwrap();
        let mut sink = Vec::new();
        write_encoded(&mut sink, &frame, Some(&stats)).unwrap();
        let (_, _) = read_frame(&mut Cursor::new(&sink), Some(&stats)).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.wire_bytes_sent, 4 + 1 + 11);
        assert_eq!(snap.wire_bytes_received, 4 + 1 + 11);
    }

    #[test]
    fn encode_rejects_oversized_body() {
        let body = vec![0u8; MAX_FRAME as usize];
        assert!(matches!(
            encode_frame(OP_MSG, &body),
            Err(NetError::FrameTooLarge { .. })
        ));
    }
}

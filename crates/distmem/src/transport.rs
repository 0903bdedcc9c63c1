//! The transport abstraction under [`crate::comm::Communicator`].
//!
//! A [`Transport`] moves `Vec<f64>` messages between the ranks of one SPMD
//! world and synchronizes them with a barrier. The communicator, the
//! collectives, the sub-communicators and every distributed algorithm above
//! them are written against this trait, so the *same* SPMD code runs on:
//!
//! * [`InProcTransport`] — today's simulated world: one OS thread per rank,
//!   unbounded channels per (source, destination) pair, `std::sync::Barrier`.
//! * `tucker-net`'s `TcpTransport` — one OS *process* per rank, a full mesh of
//!   length-prefix-framed loopback/LAN sockets (see `crates/net`).
//!
//! # Contract
//!
//! * Messages between a fixed (source, destination) pair are delivered in
//!   program order, like MPI point-to-point on a single tag.
//! * `send` is *eager*: it enqueues and returns without waiting for the
//!   matching receive. The collectives' shifted `sendrecv` exchanges rely on
//!   this for deadlock freedom, so a real-socket backend must buffer writes
//!   (the TCP backend queues frames on a per-peer writer thread).
//! * Payload bits are preserved exactly. A wire backend must encode each
//!   `f64` via its bit pattern ([`f64::to_bits`], little-endian), never
//!   through text or any lossy path. Together with program-order delivery
//!   this makes every backend bit-identical by construction: the collectives
//!   fix the reduction order, so the arithmetic is the same sequence of
//!   operations on the same operand bits no matter what carried them.
//! * Errors are *values*: a transport never panics for peer death, timeouts,
//!   or malformed traffic — it returns a [`TransportError`] and the
//!   communicator layer decides how to surface it.
//!
//! This module also defines [`Wire`], the exact (bit-preserving) byte
//! encoding used by the multi-process launcher to ship per-rank closure
//! results and [`crate::stats::StatsSnapshot`]s between processes.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// A typed failure from a [`Transport`] operation.
///
/// `Display` renders a one-line human-readable description; the communicator
/// embeds it in its panic message so SPMD panic propagation (see
/// [`crate::runtime::try_spmd_with_grid_handle`]) can tell original failures
/// from cascades.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's endpoint is gone (process exited, channel dropped, socket
    /// closed).
    PeerGone {
        /// World rank of the dead peer.
        peer: usize,
    },
    /// An I/O error talking to `peer`.
    Io {
        /// World rank of the peer involved.
        peer: usize,
        /// Human-readable detail from the OS.
        detail: String,
    },
    /// A blocking operation exceeded the transport's deadline.
    Timeout {
        /// World rank of the peer we were waiting on.
        peer: usize,
        /// What was being waited for.
        detail: String,
    },
    /// The peer spoke garbage: bad frame, wrong opcode, wrong world.
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A remote rank aborted the SPMD region (it panicked or saw a failure).
    Aborted {
        /// The rank that initiated the abort.
        rank: usize,
        /// The reason it gave.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerGone { peer } => {
                write!(f, "peer rank {peer} has terminated")
            }
            TransportError::Io { peer, detail } => {
                write!(f, "i/o error with rank {peer}: {detail}")
            }
            TransportError::Timeout { peer, detail } => {
                write!(f, "timed out waiting on rank {peer} ({detail})")
            }
            TransportError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            TransportError::Aborted { rank, detail } => {
                write!(f, "region aborted by rank {rank}: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Rank-to-rank message transport for one SPMD world.
///
/// See the module docs for the delivery/eagerness/bit-exactness contract.
pub trait Transport: Send {
    /// A short backend name (`"inproc"`, `"tcp"`) for diagnostics.
    fn kind(&self) -> &'static str;

    /// Sends `data` to world rank `dst`. Eager: must not wait for the
    /// matching receive.
    fn send(&self, dst: usize, data: &[f64]) -> Result<(), TransportError>;

    /// Sends an owned buffer, avoiding a copy where the backend allows it.
    fn send_vec(&self, dst: usize, data: Vec<f64>) -> Result<(), TransportError> {
        self.send(dst, &data)
    }

    /// Receives the next message from world rank `src` (blocking).
    fn recv(&self, src: usize) -> Result<Vec<f64>, TransportError>;

    /// Synchronizes all ranks of the world.
    fn barrier(&self) -> Result<(), TransportError>;

    /// On-wire bytes this rank has pushed toward peers, including framing
    /// and synchronization overhead. `0` for backends with no wire.
    fn wire_bytes_sent(&self) -> u64 {
        0
    }
}

/// The in-process backend: ranks are threads, messages are unbounded
/// channels, the barrier is [`std::sync::Barrier`].
///
/// This is exactly the pre-trait `Communicator` plumbing, moved behind
/// [`Transport`]; the bits it produces are unchanged.
pub struct InProcTransport {
    to_peer: Vec<Sender<Vec<f64>>>,
    from_peer: Vec<Receiver<Vec<f64>>>,
    barrier: Arc<Barrier>,
}

impl InProcTransport {
    /// Creates the transports for a `p`-rank in-process world, in rank order.
    pub fn create_world(p: usize) -> Vec<InProcTransport> {
        // One channel per (src, dst) pair: rank `dst` keeps the receiving
        // ends in source order, rank `src` the sending ends in destination
        // order.
        let mut to_peer: Vec<Vec<Sender<Vec<f64>>>> =
            (0..p).map(|_| Vec::with_capacity(p)).collect();
        let from_peer: Vec<Vec<Receiver<Vec<f64>>>> = (0..p)
            .map(|_dst| {
                to_peer
                    .iter_mut()
                    .map(|senders| {
                        let (tx, rx) = channel();
                        senders.push(tx);
                        rx
                    })
                    .collect()
            })
            .collect();
        let barrier = Arc::new(Barrier::new(p));
        to_peer
            .into_iter()
            .zip(from_peer)
            .map(|(to_peer, from_peer)| InProcTransport {
                to_peer,
                from_peer,
                barrier: Arc::clone(&barrier),
            })
            .collect()
    }
}

impl Transport for InProcTransport {
    fn kind(&self) -> &'static str {
        "inproc"
    }

    fn send(&self, dst: usize, data: &[f64]) -> Result<(), TransportError> {
        self.to_peer[dst]
            .send(data.to_vec())
            .map_err(|_| TransportError::PeerGone { peer: dst })
    }

    fn send_vec(&self, dst: usize, data: Vec<f64>) -> Result<(), TransportError> {
        self.to_peer[dst]
            .send(data)
            .map_err(|_| TransportError::PeerGone { peer: dst })
    }

    fn recv(&self, src: usize) -> Result<Vec<f64>, TransportError> {
        self.from_peer[src]
            .recv()
            .map_err(|_| TransportError::PeerGone { peer: src })
    }

    fn barrier(&self) -> Result<(), TransportError> {
        self.barrier.wait();
        Ok(())
    }
}

/// Failure decoding a [`Wire`] value from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(detail: impl Into<String>) -> Self {
        WireError {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.detail)
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked reader over a wire-encoded byte buffer: the one body
/// decoder of both wires (`tucker-net`'s mesh frames and `tucker-serve`'s
/// requests and responses).
///
/// Every access checks the remaining length and returns a typed error, and
/// every declared count is checked against the bytes present before anything
/// is allocated, so arbitrary bytes can never panic the decoder or make it
/// allocate unboundedly.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps `buf` for decoding from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "need {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(le_u64(self.take(8)?))
    }

    /// Reads an `f64` by bit pattern (exact).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a string sent as a `u32` byte length plus UTF-8 bytes, refusing
    /// a length over `max`; `what` names it in the error.
    pub fn str32(&mut self, max: usize, what: &str) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(WireError::new(format!(
                "{what} of {len} bytes exceeds cap {max}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::new(format!("{what} is not UTF-8")))
    }

    /// Reads `n` little-endian `u64`s in one pass.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        self.words(n, |w| w)
    }

    /// Reads `n` `f64`s by bit pattern (exact) in one pass.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        self.words(n, f64::from_bits)
    }

    fn words<T>(&mut self, n: usize, from: impl Fn(u64) -> T) -> Result<Vec<T>, WireError> {
        let len = n
            .checked_mul(8)
            .ok_or_else(|| WireError::new(format!("{n} words overflow the address space")))?;
        Ok(self
            .take(len)?
            .chunks_exact(8)
            .map(|w| from(le_u64(w)))
            .collect())
    }

    /// Asserts the buffer is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::new(format!(
                "{} trailing bytes after value",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A little-endian `u64` from an eight-byte slice.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(bytes);
    u64::from_le_bytes(a)
}

/// An exact, bit-preserving byte encoding for values that cross process
/// boundaries.
///
/// The multi-process launcher uses this to ship per-rank closure results and
/// stats between ranks: `decode(encode(x))` reproduces `x` bit for bit
/// (floats travel as [`f64::to_bits`]), so an SPMD region returns identical
/// values no matter which process computed them.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes from a buffer, requiring it to be fully consumed.
    fn from_wire_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::new(format!("invalid bool byte {b}"))),
        }
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| WireError::new(format!("usize overflow: {v}")))
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::new("invalid utf-8 in string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        // Every element consumes at least one byte, so a declared length
        // beyond the remaining bytes is malformed — reject before allocating.
        if n > r.remaining() {
            return Err(WireError::new(format!(
                "vec length {n} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::new(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_world_passes_messages() {
        let world = InProcTransport::create_world(2);
        let (t0, t1) = {
            let mut it = world.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        std::thread::scope(|s| {
            s.spawn(move || t0.send(1, &[1.0, 2.0]).unwrap());
            let got = s.spawn(move || t1.recv(0).unwrap()).join().unwrap();
            assert_eq!(got, vec![1.0, 2.0]);
        });
    }

    #[test]
    fn inproc_dead_peer_is_typed_error() {
        let mut world = InProcTransport::create_world(2);
        let t0 = world.remove(0);
        drop(world); // rank 1's endpoints are gone
        assert_eq!(
            t0.send(1, &[0.0]).unwrap_err(),
            TransportError::PeerGone { peer: 1 }
        );
        assert_eq!(
            t0.recv(1).unwrap_err(),
            TransportError::PeerGone { peer: 1 }
        );
    }

    #[test]
    fn wire_round_trips_exactly() {
        let v: (Vec<f64>, String, Option<u64>, Vec<usize>) = (
            vec![0.1, -0.0, f64::MIN_POSITIVE, 1e300],
            "héllo".to_string(),
            Some(42),
            vec![0, usize::MAX],
        );
        let bytes = v.to_wire_bytes();
        let back = <(Vec<f64>, String, Option<u64>, Vec<usize>)>::from_wire_bytes(&bytes).unwrap();
        assert_eq!(v.1, back.1);
        assert_eq!(v.2, back.2);
        assert_eq!(v.3, back.3);
        for (a, b) in v.0.iter().zip(back.0.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wire_nan_bits_survive() {
        let x = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = x.to_wire_bytes();
        let back = f64::from_wire_bytes(&bytes).unwrap();
        assert_eq!(x.to_bits(), back.to_bits());
    }

    #[test]
    fn wire_decode_is_bounds_checked() {
        // Truncated f64.
        assert!(f64::from_wire_bytes(&[1, 2, 3]).is_err());
        // Vec claiming more elements than bytes remain.
        let mut buf = Vec::new();
        1_000_000usize.encode(&mut buf);
        assert!(Vec::<f64>::from_wire_bytes(&buf).is_err());
        // Trailing garbage is rejected.
        let mut buf = 7u64.to_wire_bytes();
        buf.push(0);
        assert!(u64::from_wire_bytes(&buf).is_err());
        // Bad option tag.
        assert!(Option::<u64>::from_wire_bytes(&[9]).is_err());
        // Bad bool byte.
        assert!(bool::from_wire_bytes(&[2]).is_err());
    }

    #[test]
    fn transport_error_display_names_peer() {
        let e = TransportError::PeerGone { peer: 3 };
        assert!(e.to_string().contains("rank 3 has terminated"));
        let e = TransportError::Aborted {
            rank: 1,
            detail: "worker panicked".into(),
        };
        assert!(e.to_string().contains("aborted by rank 1"));
    }
}

//! Typed errors for the TCP transport and the multi-process launcher.
//!
//! Same philosophy as the rest of the fallible surface (ARCHITECTURE §7):
//! anything the network, a peer process, or a hostile byte stream can do to
//! us is a *returned value*, never a panic and never a hang — blocking calls
//! carry deadlines, malformed traffic fails decode, dead peers fail the next
//! operation. The fault-injection battery in `tests/transport_faults.rs`
//! pins this for truncated/oversized/garbage frames and mid-collective
//! disconnects.

use tucker_distmem::transport::TransportError;
use tucker_distmem::WireError;

/// Everything that can go wrong in `tucker-net`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A frame declared (or would carry) a payload length outside `1..=cap`.
    FrameTooLarge {
        /// The payload length.
        len: u64,
        /// The enforced cap ([`crate::frame::MAX_FRAME`] on the mesh).
        max: u64,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// What was being read.
        detail: String,
    },
    /// The peer closed the connection at a frame boundary.
    Closed {
        /// What was being read when the stream ended.
        detail: String,
    },
    /// A frame decoded to garbage: unknown opcode, bad body, wrong job id.
    Malformed {
        /// Human-readable description.
        detail: String,
    },
    /// An OS-level I/O failure.
    Io {
        /// Human-readable description from the OS.
        detail: String,
    },
    /// A blocking operation exceeded its deadline (the anti-wedge guarantee:
    /// a lost peer or a mismatched SPMD program surfaces here, never as a hang).
    Timeout {
        /// What was being waited for.
        detail: String,
    },
    /// The rendezvous/wire-up phase failed.
    Handshake {
        /// Human-readable description.
        detail: String,
    },
    /// Re-exec'ing the current binary for a worker rank failed.
    Spawn {
        /// Human-readable description.
        detail: String,
    },
    /// A worker process exited before (or during) rendezvous.
    WorkerExited {
        /// The worker's rank.
        rank: usize,
        /// Exit detail (status code if known).
        detail: String,
    },
    /// A rank's SPMD closure panicked; the region was aborted everywhere.
    RankPanicked {
        /// The rank identified as the root cause.
        rank: usize,
        /// Its panic message.
        message: String,
    },
    /// The worker and the launcher disagree about what region comes next —
    /// the SPMD program diverged between processes.
    RegionMismatch {
        /// What was expected vs. received.
        detail: String,
    },
    /// A previous region on this session aborted; the socket mesh is in an
    /// unknowable state, so further regions are refused (typed, immediate).
    SessionPoisoned {
        /// Why the session was poisoned.
        detail: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            NetError::Truncated { detail } => write!(f, "truncated frame: {detail}"),
            NetError::Closed { detail } => write!(f, "connection closed: {detail}"),
            NetError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            NetError::Io { detail } => write!(f, "i/o error: {detail}"),
            NetError::Timeout { detail } => write!(f, "timed out: {detail}"),
            NetError::Handshake { detail } => write!(f, "rendezvous failed: {detail}"),
            NetError::Spawn { detail } => write!(f, "worker spawn failed: {detail}"),
            NetError::WorkerExited { rank, detail } => {
                write!(f, "worker rank {rank} exited prematurely: {detail}")
            }
            NetError::RankPanicked { rank, message } => {
                write!(f, "SPMD rank {rank} panicked: {message}")
            }
            NetError::RegionMismatch { detail } => {
                write!(f, "SPMD region mismatch between processes: {detail}")
            }
            NetError::SessionPoisoned { detail } => {
                write!(f, "session poisoned by an earlier abort: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Malformed { detail: e.detail }
    }
}

impl NetError {
    /// Maps an `std::io::Error` into the matching typed variant.
    pub fn from_io(e: &std::io::Error, what: &str) -> NetError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout {
                detail: format!("{what}: {e}"),
            },
            std::io::ErrorKind::UnexpectedEof => NetError::Truncated {
                detail: format!("{what}: {e}"),
            },
            std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => NetError::Closed {
                detail: format!("{what}: {e}"),
            },
            _ => NetError::Io {
                detail: format!("{what}: {e}"),
            },
        }
    }

    /// Converts into the [`TransportError`] the communicator layer reports,
    /// attributing the failure to `peer`.
    pub fn into_transport(self, peer: usize) -> TransportError {
        match self {
            // A vanished endpoint mid-region means the peer process died: the
            // same condition the in-process backend reports when a rank's
            // channel endpoints drop.
            NetError::Closed { .. } | NetError::Truncated { .. } => {
                TransportError::PeerGone { peer }
            }
            NetError::Timeout { detail } => TransportError::Timeout { peer, detail },
            NetError::RankPanicked { rank, message } => TransportError::Aborted {
                rank,
                detail: message,
            },
            NetError::FrameTooLarge { .. } | NetError::Malformed { .. } => {
                TransportError::Protocol {
                    detail: self.to_string(),
                }
            }
            other => TransportError::Io {
                peer,
                detail: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_kind_mapping() {
        let t = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow");
        match NetError::from_io(&t, "recv") {
            NetError::Timeout { detail } => assert!(detail.contains("recv")),
            e => panic!("wrong variant: {e:?}"),
        }
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        match NetError::from_io(&eof, "frame body") {
            NetError::Truncated { .. } => {}
            e => panic!("wrong variant: {e:?}"),
        }
    }

    #[test]
    fn transport_mapping_keeps_cascade_semantics() {
        // Closed sockets map to PeerGone so the SPMD cascade heuristic in
        // distmem ("has terminated") classifies them as symptoms.
        let e = NetError::Closed { detail: "x".into() }.into_transport(3);
        assert_eq!(e, TransportError::PeerGone { peer: 3 });
        assert!(e.to_string().contains("has terminated"));
    }
}

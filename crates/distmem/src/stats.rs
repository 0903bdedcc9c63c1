//! Per-rank communication counters.
//!
//! Every point-to-point send and every collective records the number of
//! messages and `f64` words a rank sends and receives. The paper's α-β-γ model
//! (Tab. I) predicts exactly these quantities, so the integration tests compare
//! the predicted words/messages against these counters, and the scaling
//! harnesses use them to attribute time between computation and communication.
//!
//! Since the TCP backend (PR 10), a rank additionally tracks *wire bytes*:
//! the real on-the-wire byte count including frame headers, message framing
//! and barrier/synchronization traffic. For the in-process backend these stay
//! zero; for the TCP backend they are exact (every frame byte is counted at
//! the framing layer), so volume assertions like
//! `wire_bytes == frames·overhead + words·8` hold with equality.

use crate::transport::{Wire, WireError, WireReader};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tucker_obs::metrics::Counter;

/// Process-wide mirrors of the per-rank counters (see `tucker-obs`): every
/// `record_*` also bumps these, so the global metrics registry sees the sum
/// over all simulated ranks without touching the per-rank `StatsSnapshot`
/// accounting the α-β-γ tests pin.
static MESSAGES_SENT: Counter = Counter::new("distmem.messages_sent");
static WORDS_SENT: Counter = Counter::new("distmem.words_sent");
static MESSAGES_RECEIVED: Counter = Counter::new("distmem.messages_received");
static WORDS_RECEIVED: Counter = Counter::new("distmem.words_received");
static COLLECTIVE_CALLS: Counter = Counter::new("distmem.collectives");

/// Mutable, thread-safe communication counters for one rank.
#[derive(Debug, Default)]
pub struct CommStats {
    messages_sent: AtomicU64,
    words_sent: AtomicU64,
    messages_received: AtomicU64,
    words_received: AtomicU64,
    collective_calls: AtomicU64,
    wire_bytes_sent: AtomicU64,
    wire_bytes_received: AtomicU64,
}

/// An immutable snapshot of a rank's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of point-to-point messages sent (collective-internal sends included).
    pub messages_sent: u64,
    /// Number of `f64` words sent.
    pub words_sent: u64,
    /// Number of point-to-point messages received.
    pub messages_received: u64,
    /// Number of `f64` words received.
    pub words_received: u64,
    /// Number of collective operations this rank participated in.
    pub collective_calls: u64,
    /// Real on-wire bytes sent, including framing/header/barrier overhead.
    /// Zero on the in-process backend (no wire).
    pub wire_bytes_sent: u64,
    /// Real on-wire bytes received, including framing/header/barrier overhead.
    pub wire_bytes_received: u64,
}

impl CommStats {
    /// Creates zeroed counters wrapped for sharing with the rank's communicator.
    pub fn new_shared() -> Arc<CommStats> {
        Arc::new(CommStats::default())
    }

    /// Records a sent message of `words` `f64` words.
    pub fn record_send(&self, words: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.words_sent.fetch_add(words as u64, Ordering::Relaxed);
        MESSAGES_SENT.inc();
        WORDS_SENT.add(words as u64);
    }

    /// Records a received message of `words` `f64` words.
    pub fn record_recv(&self, words: usize) {
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.words_received
            .fetch_add(words as u64, Ordering::Relaxed);
        MESSAGES_RECEIVED.inc();
        WORDS_RECEIVED.add(words as u64);
    }

    /// Records participation in one collective operation.
    pub fn record_collective(&self) {
        self.collective_calls.fetch_add(1, Ordering::Relaxed);
        COLLECTIVE_CALLS.inc();
    }

    /// Records `bytes` pushed onto the wire (frame headers included).
    /// Called by wire transports only — the in-process backend never does.
    pub fn record_wire_sent(&self, bytes: u64) {
        self.wire_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` read off the wire (frame headers included).
    pub fn record_wire_recv(&self, bytes: u64) {
        self.wire_bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.messages_sent.store(0, Ordering::Relaxed);
        self.words_sent.store(0, Ordering::Relaxed);
        self.messages_received.store(0, Ordering::Relaxed);
        self.words_received.store(0, Ordering::Relaxed);
        self.collective_calls.store(0, Ordering::Relaxed);
        self.wire_bytes_sent.store(0, Ordering::Relaxed);
        self.wire_bytes_received.store(0, Ordering::Relaxed);
    }

    /// Takes an immutable snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            words_sent: self.words_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            words_received: self.words_received.load(Ordering::Relaxed),
            collective_calls: self.collective_calls.load(Ordering::Relaxed),
            wire_bytes_sent: self.wire_bytes_sent.load(Ordering::Relaxed),
            wire_bytes_received: self.wire_bytes_received.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Aggregates per-rank snapshots into a machine-wide total.
    pub fn total(snaps: &[StatsSnapshot]) -> StatsSnapshot {
        let mut acc = StatsSnapshot::default();
        for s in snaps {
            acc.messages_sent += s.messages_sent;
            acc.words_sent += s.words_sent;
            acc.messages_received += s.messages_received;
            acc.words_received += s.words_received;
            acc.collective_calls += s.collective_calls;
            acc.wire_bytes_sent += s.wire_bytes_sent;
            acc.wire_bytes_received += s.wire_bytes_received;
        }
        acc
    }

    /// Maximum over ranks — the critical-path view used by the cost model.
    pub fn max(snaps: &[StatsSnapshot]) -> StatsSnapshot {
        let mut acc = StatsSnapshot::default();
        for s in snaps {
            acc.messages_sent = acc.messages_sent.max(s.messages_sent);
            acc.words_sent = acc.words_sent.max(s.words_sent);
            acc.messages_received = acc.messages_received.max(s.messages_received);
            acc.words_received = acc.words_received.max(s.words_received);
            acc.collective_calls = acc.collective_calls.max(s.collective_calls);
            acc.wire_bytes_sent = acc.wire_bytes_sent.max(s.wire_bytes_sent);
            acc.wire_bytes_received = acc.wire_bytes_received.max(s.wire_bytes_received);
        }
        acc
    }
}

impl Wire for StatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.messages_sent.encode(out);
        self.words_sent.encode(out);
        self.messages_received.encode(out);
        self.words_received.encode(out);
        self.collective_calls.encode(out);
        self.wire_bytes_sent.encode(out);
        self.wire_bytes_received.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StatsSnapshot {
            messages_sent: r.u64()?,
            words_sent: r.u64()?,
            messages_received: r.u64()?,
            words_received: r.u64()?,
            collective_calls: r.u64()?,
            wire_bytes_sent: r.u64()?,
            wire_bytes_received: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = CommStats::default();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(100);
        s.record_collective();
        let snap = s.snapshot();
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.words_sent, 150);
        assert_eq!(snap.messages_received, 1);
        assert_eq!(snap.words_received, 100);
        assert_eq!(snap.collective_calls, 1);
        assert_eq!(snap.wire_bytes_sent, 0);
    }

    #[test]
    fn wire_bytes_are_separate_from_words() {
        let s = CommStats::default();
        s.record_send(10);
        s.record_wire_sent(10 * 8 + 21);
        s.record_wire_recv(13);
        let snap = s.snapshot();
        assert_eq!(snap.words_sent, 10);
        assert_eq!(snap.wire_bytes_sent, 101);
        assert_eq!(snap.wire_bytes_received, 13);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = CommStats::default();
        s.record_send(10);
        s.record_recv(10);
        s.record_wire_sent(99);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn total_and_max_aggregation() {
        let snaps = vec![
            StatsSnapshot {
                messages_sent: 1,
                words_sent: 10,
                messages_received: 2,
                words_received: 20,
                collective_calls: 1,
                wire_bytes_sent: 100,
                wire_bytes_received: 7,
            },
            StatsSnapshot {
                messages_sent: 3,
                words_sent: 5,
                messages_received: 1,
                words_received: 50,
                collective_calls: 2,
                wire_bytes_sent: 40,
                wire_bytes_received: 70,
            },
        ];
        let total = StatsSnapshot::total(&snaps);
        assert_eq!(total.messages_sent, 4);
        assert_eq!(total.words_sent, 15);
        assert_eq!(total.words_received, 70);
        assert_eq!(total.wire_bytes_sent, 140);
        assert_eq!(total.wire_bytes_received, 77);
        let max = StatsSnapshot::max(&snaps);
        assert_eq!(max.messages_sent, 3);
        assert_eq!(max.words_sent, 10);
        assert_eq!(max.words_received, 50);
        assert_eq!(max.collective_calls, 2);
        assert_eq!(max.wire_bytes_sent, 100);
        assert_eq!(max.wire_bytes_received, 70);
    }

    #[test]
    fn snapshot_wire_round_trip() {
        let snap = StatsSnapshot {
            messages_sent: 1,
            words_sent: 2,
            messages_received: 3,
            words_received: 4,
            collective_calls: 5,
            wire_bytes_sent: 6,
            wire_bytes_received: 7,
        };
        let back = StatsSnapshot::from_wire_bytes(&snap.to_wire_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn concurrent_updates_are_counted() {
        let s = CommStats::new_shared();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_send(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().messages_sent, 8000);
        assert_eq!(s.snapshot().words_sent, 8000);
    }
}

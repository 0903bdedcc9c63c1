//! # tucker-net — the real multi-process distributed backend
//!
//! Everything below `tucker-distmem`'s [`Transport`] trait, made real: rank
//! threads become rank *processes*, in-process channels become a full mesh of
//! loopback TCP sockets, and the paper's communication volumes become bytes
//! you can watch cross a socket. The SPMD surface is unchanged — the same
//! closure that runs under `spmd_with_grid_handle` runs under
//! [`spmd_transport`], and the determinism contract extends across the
//! boundary: **the same grid produces bit-identical answers on both
//! backends**, because messages carry exact `f64` bit patterns
//! (`to_bits`/`from_bits`, no text round-trip) and per-pair delivery order
//! is socket FIFO order, exactly the per-pair channel order the in-process
//! backend guarantees.
//!
//! ## Module map
//!
//! | module | provides |
//! |--------|----------|
//! | [`frame`] | the workspace's one length-prefix frame codec (the mesh's and `tucker-serve`'s), opcodes, on-wire byte counters |
//! | [`error`] | [`NetError`] — every failure typed, nothing panics, nothing hangs |
//! | [`tcp`] | [`TcpTransport`]: the `Transport` impl; eager writer threads, region-stamped barriers |
//! | [`launch`] | worker spawning, rendezvous, the region protocol, [`spmd_transport`] |
//!
//! ## Choosing a backend
//!
//! Call sites select with [`TransportKind`], usually via
//! [`transport_from_env`]:
//!
//! - `TUCKER_TRANSPORT=inproc` (default): ranks as threads, zero processes.
//! - `TUCKER_TRANSPORT=tcp`: ranks as spawned processes of the current
//!   binary, `TUCKER_RANKS` of them by convention ([`env_ranks`]).
//!
//! The fault battery (`tests/transport_faults.rs`) pins the failure surface:
//! truncated, oversized and garbage frames fail decode with typed errors;
//! a peer that dies mid-collective fails the survivors' blocking calls
//! within the deadline (`TUCKER_NET_TIMEOUT_MS`, default 60 s) — never a
//! hang, never a panic.

#![deny(missing_docs)]

pub mod error;
pub mod frame;
pub mod launch;
pub mod tcp;

pub use error::NetError;
pub use launch::{
    env_ranks, in_worker, spmd_transport, test_exec_args, transport_from_env, try_spmd_transport,
    NetSession, TransportKind,
};
pub use tcp::{local_mesh, PeerLink, TcpTransport};

// Re-export the pieces of the distmem surface that appear in our signatures,
// so tests and benches can depend on one crate for the distributed story.
pub use tucker_distmem::transport::{Transport, TransportError};
pub use tucker_distmem::{SpmdHandle, StatsSnapshot, Wire};

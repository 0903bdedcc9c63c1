//! Simulated distributed-memory runtime for the parallel Tucker decomposition.
//!
//! The paper runs on MPI over a Cray XC30. This crate substitutes an
//! in-process message-passing runtime (see docs/ARCHITECTURE.md §1): every
//! MPI *rank* becomes an OS thread with its own private data, communicating
//! only through typed point-to-point channels and collectives implemented on
//! top of them.
//! Nothing is shared behind the API — algorithms written against
//! [`Communicator`] have the same structure they would have against MPI, and
//! the runtime records exactly how many messages and words each rank moves so
//! the paper's α-β-γ analysis (Tab. I, Secs. V–VI) can be validated against
//! measured communication volumes and extrapolated to large machines.
//!
//! Module map:
//! * [`grid`]        — the logical N-way processor grid of Sec. IV.
//! * [`transport`]   — the [`transport::Transport`] trait under the communicator
//!   (in-process channels here; TCP mesh in `tucker-net`) and the exact
//!   [`transport::Wire`] encoding for cross-process values.
//! * [`comm`]        — point-to-point communicator between ranks.
//! * [`collectives`] — broadcast, reduce, all-reduce, all-gather, reduce-scatter.
//! * [`subcomm`]     — communicators over processor-grid slices (mode columns/rows).
//! * [`stats`]       — per-rank communication counters.
//! * [`costmodel`]   — the α-β-γ cost model of Tab. I and Secs. V–VI.
//! * [`runtime`]     — SPMD launcher: run a closure on every rank and collect results.

pub mod collectives;
pub mod comm;
pub mod costmodel;
pub mod grid;
pub mod runtime;
pub mod stats;
pub mod subcomm;
pub mod transport;

pub use comm::Communicator;
pub use costmodel::{CostModel, KernelCost, MachineParams};
pub use grid::ProcGrid;
pub use runtime::{
    spmd, spmd_with_grid, spmd_with_grid_handle, try_spmd_with_grid_handle, SpmdError, SpmdHandle,
};
pub use stats::{CommStats, StatsSnapshot};
pub use subcomm::SubCommunicator;
pub use transport::{InProcTransport, Transport, TransportError, Wire, WireError, WireReader};

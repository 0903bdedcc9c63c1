//! `tucker-exec` — the shared-pool execution layer of the workspace.
//!
//! The paper's per-node performance model (Sec. IX) assumes a threaded BLAS:
//! one process per node, many cores per process. This crate supplies the
//! equivalent for the pure-Rust kernels of this reproduction:
//!
//! * [`ExecContext`] — a cheap, cloneable handle to a **persistent** thread
//!   pool. The pool is created once (per process via [`ExecContext::global`],
//!   or explicitly via [`ExecContext::new`]) and reused by every kernel
//!   invocation; no pipeline kernel ever spawns a thread per call.
//! * deterministic scatter primitives — [`ExecContext::run`],
//!   [`ExecContext::for_each_chunk`], [`ExecContext::for_each_slot`] and the
//!   [`chunk_ranges`] / [`triangle_row_chunks`] partitioners. Work is always
//!   split into **disjoint output regions** with a fixed per-element
//!   accumulation order, so kernel results are bit-identical for every thread
//!   count (the determinism contract documented in
//!   `docs/ARCHITECTURE.md` §4).
//! * [`Workspace`] — a recycling pool of `Vec<f64>` buffers so iterative
//!   drivers (the HOOI inner loop in particular) stop allocating fresh
//!   tensors every sweep, plus 64-byte-aligned [`AlignedBuf`] buffers
//!   ([`Workspace::take_aligned`]) for the GEMM/SYRK panel packing of
//!   `tucker-linalg`.
//! * [`zeroed`] — the one constructor of large zeroed `f64` buffers: a plain
//!   `vec![0.0; len]` whose whole 2 MiB pages are advised for transparent
//!   huge pages on Linux x86-64 once it spans 8 MiB, so one first-touch
//!   fault maps 2 MiB instead of 4 KB.
//!
//! The pool size of the global context is `TUCKER_THREADS` when set to a
//! positive integer, otherwise `std::thread::available_parallelism()`.
//! Hybrid "ranks × threads" execution (the MPI+OpenMP model of TuckerMPI)
//! shares one global pool: each simulated rank derives a budget-limited view
//! with [`ExecContext::with_budget`], so the total worker count stays bounded
//! by the machine, not by `ranks × threads`.

mod pages;
pub mod pool;
pub mod workspace;

pub use pages::zeroed;
pub use pool::{chunk_ranges, triangle_row_chunks, ExecContext, ScopedJob, PAR_MIN_WORK};
pub use workspace::{AlignedBuf, Workspace, BUFFER_ALIGN};

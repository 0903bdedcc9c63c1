//! `tucker-serve` — a concurrent compression-artifact query daemon.
//!
//! The rest of the workspace answers queries in-process: open a `.tkr`
//! artifact, call [`TensorQuery`](tucker_api::TensorQuery) methods, done.
//! This crate puts that surface behind a socket so many clients — separate
//! processes, separate machines — can interrogate one set of artifacts
//! while sharing a **single decoded-chunk budget** instead of each paying
//! for its own cache.
//!
//! Everything is hand-rolled over `std::net`; there is no async runtime
//! and no external dependency. The pieces:
//!
//! - [`proto`] — the requests and responses, carried in `tucker-net`'s
//!   frames (the workspace's one frame codec). Both directions
//!   are fully bounds-checked: a hostile peer gets a typed
//!   [`ProtocolError`](tucker_api::ProtocolError), never a panic or an
//!   unbounded allocation.
//! - [`server`] — [`serve`] starts the daemon: a non-blocking accept loop,
//!   one lightweight session thread per connection, and a **bounded worker
//!   pool** (backed by the shared [`ExecContext`](tucker_exec::ExecContext)
//!   pool) that executes reconstructions. Admission control caps queued
//!   work — excess requests are refused with a typed `Busy` instead of
//!   piling up — and every request carries a server-side deadline.
//!   Readers for all sessions share one
//!   [`SharedChunkCache`](tucker_store::SharedChunkCache), so a chunk decoded for one client
//!   is a cache hit for every other. [`ServerHandle::shutdown`] drains
//!   in-flight requests before returning.
//! - [`client`] — [`ServeClient`], the matching blocking client, which
//!   maps wire errors back onto the [`TuckerError`](tucker_api::TuckerError)
//!   hierarchy so remote callers handle exactly the errors local callers
//!   do.
//! - [`metrics`] — the daemon's instruments in the process-wide
//!   `tucker-obs` registry: a latency histogram per opcode, service-total
//!   mirrors, and the in-flight gauge. The `metrics` opcode (and
//!   [`ServeClient::metrics`]) scrapes the whole registry as a text
//!   exposition, so a live daemon's kernel counters, cache accounting, and
//!   per-opcode latency quantiles are one request away.
//!
//! # Quickstart
//!
//! ```
//! use tucker_serve::{serve, ServeClient, ServeConfig};
//! # use tucker_api::Compressor;
//! # use tucker_tensor::DenseTensor;
//! # let dir = std::env::temp_dir();
//! # let path = dir.join("tucker_serve_doctest.tkr");
//! # let x = DenseTensor::from_fn(&[8, 7, 6], |i| (i[0] + 2 * i[1]) as f64 - 0.5 * i[2] as f64);
//! # Compressor::new(&x).tolerance(1e-6).write_to(&path)?;
//! // Bind an ephemeral port and register artifacts by name.
//! let handle = serve(
//!     "127.0.0.1:0",
//!     &[("wave".to_string(), path.clone())],
//!     ServeConfig::default(),
//! )?;
//!
//! let mut client = ServeClient::connect(handle.addr())?;
//! let header = client.open("wave")?;
//! let window = client.reconstruct_range("wave", &[(1, 3), (0, 7), (2, 2)])?;
//! assert_eq!(window.dims(), &[3, 7, 2]);
//!
//! let stats = handle.shutdown(); // drains in-flight work first
//! assert!(stats.served >= 2);
//! # assert_eq!(header.dims, vec![8, 7, 6]);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::ServeClient;
pub use proto::{ArtifactInfo, ArtifactStats, RemoteHeader, Request, Response, ServeStats};
pub use server::{serve, ServeConfig, ServerHandle};

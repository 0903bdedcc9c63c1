//! `parallel-tucker` — an umbrella crate re-exporting the whole workspace.
//!
//! **Start with [`api`]** (`tucker-api`): the unified public surface — the
//! fallible [`Compressor`](tucker_api::Compressor) builder over every
//! pipeline variant, the backend-agnostic
//! [`TensorQuery`](tucker_api::TensorQuery) reader interface behind
//! [`Open`](tucker_api::Open), and the
//! [`TuckerError`](tucker_api::TuckerError) hierarchy. The remaining crates
//! are the layers underneath:
//!
//! * [`exec`]    — the shared-pool execution layer: persistent thread pool,
//!   [`ExecContext`](tucker_exec::ExecContext), reusable workspaces.
//! * [`linalg`]  — dense linear algebra kernels (GEMM, SYRK, QR, eig, SVD).
//! * [`tensor`]  — dense tensors, logical unfoldings, local TTM/Gram kernels,
//!   the [`SlabSource`](tucker_tensor::SlabSource) streaming seam.
//! * [`distmem`] — the simulated distributed-memory runtime and α-β-γ cost model.
//! * [`core`]    — sequential and distributed ST-HOSVD / HOOI / T-HOSVD,
//!   reconstruction, rank selection, error analysis, input validation.
//! * [`scidata`] — synthetic combustion-surrogate datasets and normalization.
//! * [`store`]   — the `.tkr` compressed-tensor container, quantized codecs,
//!   and partial-reconstruction queries.
//! * [`serve`]   — the query daemon: a `std::net` TCP service exposing
//!   registered artifacts to concurrent clients over a length-prefixed
//!   binary protocol, with a shared decoded-chunk cache, bounded worker
//!   pool, and graceful drain.
//! * [`net`]     — the *real* multi-process distributed backend: a TCP mesh
//!   transport behind `distmem`'s `Transport` trait, a launcher that
//!   re-execs the current binary as worker ranks, and exact on-wire byte
//!   accounting. `TUCKER_TRANSPORT=tcp` switches the SPMD entry points in
//!   `tucker-net` from threads to spawned processes, bit-identically.
//! * [`obs`]     — workspace-wide observability: the process-global metrics
//!   registry (counters, gauges, latency histograms; `TUCKER_METRICS=0`
//!   turns every instrument into a no-op) and structured span tracing
//!   (`TUCKER_TRACE=<path>` exports JSON-lines or chrome-trace). Every
//!   layer above records into it; the daemon serves it over the wire.
//!
//! See the repository README for a guided tour and the `examples/` directory
//! for runnable end-to-end programs (all written against [`api`]).

pub use tucker_api as api;
pub use tucker_core as core;
pub use tucker_distmem as distmem;
pub use tucker_exec as exec;
pub use tucker_linalg as linalg;
pub use tucker_net as net;
pub use tucker_obs as obs;
pub use tucker_scidata as scidata;
pub use tucker_serve as serve;
pub use tucker_store as store;
pub use tucker_tensor as tensor;

/// Commonly used items, re-exported for convenience. The facade types
/// ([`Compressor`](tucker_api::Compressor), [`Open`](tucker_api::Open),
/// [`TensorQuery`](tucker_api::TensorQuery),
/// [`TuckerError`](tucker_api::TuckerError)) come first; the direct kernel
/// entry points remain available for code that addresses a specific layer.
pub mod prelude {
    pub use tucker_api::{
        Compressed, CompressionPlan, Compressor, KernelPath, Open, PlanError, Reader, Refine,
        TensorQuery, TuckerError, Written,
    };
    pub use tucker_core::dist::{
        dist_hooi, dist_reconstruct, dist_st_hosvd, hybrid_ctx, try_dist_hooi_ctx,
        try_dist_st_hosvd_ctx, DistTensor, DistTucker,
    };
    pub use tucker_core::prelude::*;
    pub use tucker_distmem::{
        spmd, spmd_with_grid, Communicator, CostModel, MachineParams, ProcGrid,
    };
    pub use tucker_exec::{ExecContext, Workspace};
    pub use tucker_linalg::Matrix;
    pub use tucker_net::{
        env_ranks, spmd_transport, test_exec_args, transport_from_env, try_spmd_transport,
        TransportKind,
    };
    pub use tucker_scidata::{DatasetPreset, NoisyLowRank, SpectralDecay};
    pub use tucker_serve::{serve, ServeClient, ServeConfig, ServerHandle};
    pub use tucker_store::{
        gather_and_write, write_tucker_ctx, Codec, SharedChunkCache, StoreOptions, TkrArtifact,
        TkrMetadata, TkrReader,
    };
    pub use tucker_tensor::{
        normalized_rms_error, DenseTensor, SlabSource, SubtensorSpec, TtmTranspose,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let x = DenseTensor::from_fn(&[8, 7, 6], |idx| (idx[0] + idx[1] * idx[2]) as f64);
        let result = st_hosvd(&x, &SthosvdOptions::with_tolerance(1e-3));
        let rec = result.tucker.reconstruct();
        assert!(normalized_rms_error(&x, &rec) <= 1e-3);
    }

    #[test]
    fn builder_facade_matches_direct_call() {
        let x = DenseTensor::from_fn(&[8, 7, 6], |idx| (idx[0] + idx[1] * idx[2]) as f64);
        let direct = st_hosvd(&x, &SthosvdOptions::with_tolerance(1e-3));
        let built = Compressor::new(&x)
            .tolerance(1e-3)
            .run()
            .expect("valid input must plan");
        assert_eq!(built.kernel(), KernelPath::InMemory);
        assert_eq!(
            built.tucker().core.as_slice(),
            direct.tucker.core.as_slice()
        );
    }
}

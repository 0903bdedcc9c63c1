//! The [`Compressor`] builder: one entry point over every pipeline variant.
//!
//! The workspace has three compression drivers — the ST-HOSVD and HOOI loops
//! of `tucker_core::dist` (which the in-memory entries run on a one-rank
//! world) and the streaming ST-HOSVD — plus the `.tkr` writers
//! (`write_tucker_ctx`, `compress_streaming`, `gather_and_write`). This
//! module adds nothing algorithmic on top of them. A [`Compressor`]
//! composes *which* of them to run:
//!
//! | source | `.refine(..)`? | kernel dispatched |
//! |---|---|---|
//! | [`Compressor::new`] (resident tensor)     | no  | `try_st_hosvd_ctx` (one-rank `try_dist_st_hosvd_ctx`) |
//! | [`Compressor::new`]                       | yes | `try_hooi_ctx` (one-rank `try_dist_hooi_ctx`) |
//! | [`Compressor::from_slabs`] (out-of-core)  | no  | `try_st_hosvd_streaming_ctx` |
//! | [`Compressor::from_slabs`]                | yes | rejected ([`PlanError::RefineNeedsResident`]) |
//! | [`Compressor::distributed`] (grid)        | no  | `try_dist_st_hosvd_ctx` per rank + gather |
//! | [`Compressor::distributed`]               | yes | `try_dist_hooi_ctx` per rank + gather |
//!
//! and both sinks — [`CompressionPlan::run`] (in-memory result) and
//! [`CompressionPlan::write_to`] (a `.tkr` artifact via
//! `write_tucker_ctx`) — dispatch to those existing kernels, so the
//! output is **bit-identical** to calling them directly (pinned by
//! `tests/api_equivalence.rs`). All validation happens at
//! [`Compressor::plan`] time through the `tucker_core::validate` /
//! `tucker_store` typed-error layers: no input, however malformed, panics.

use crate::error::{PlanError, TuckerError};
use std::path::Path;
use tucker_core::dist::{try_dist_hooi_ctx, try_dist_st_hosvd_ctx, DistTensor};
use tucker_core::rank::RankSelection;
use tucker_core::validate::{self, RankError};
use tucker_core::{
    try_hooi_ctx, try_st_hosvd_ctx, try_st_hosvd_streaming_ctx, HooiOptions, HooiResult, ModeOrder,
    SthosvdOptions, SthosvdResult, StreamingOptions, TuckerTensor,
};
use tucker_distmem::runtime::spmd_with_grid_handle;
use tucker_distmem::ProcGrid;
use tucker_exec::ExecContext;
use tucker_store::{write_tucker_ctx, Codec, EncodeReport, StoreOptions, TkrMetadata};
use tucker_tensor::{DenseTensor, SlabSource};

/// Where the input tensor lives.
enum SourceKind<'a> {
    /// A resident tensor.
    Dense(&'a DenseTensor),
    /// An out-of-core source yielding whole last-mode slabs.
    Slabs(&'a dyn SlabSource),
    /// A (logically) global tensor block-distributed over a processor grid
    /// by the simulated runtime.
    Dist {
        global: &'a DenseTensor,
        grid: ProcGrid,
    },
}

impl SourceKind<'_> {
    fn dims(&self) -> &[usize] {
        match self {
            SourceKind::Dense(x) => x.dims(),
            SourceKind::Slabs(s) => s.dims(),
            SourceKind::Dist { global, .. } => global.dims(),
        }
    }
}

/// HOOI refinement settings for [`Compressor::refine`]: how many alternating
/// sweeps to run on top of the ST-HOSVD initialization, and when to stop
/// early. (The initialization itself — ranks, tolerance, mode order — comes
/// from the builder, so it cannot disagree with the rest of the plan.)
#[derive(Debug, Clone, PartialEq)]
pub struct Refine {
    /// Maximum number of outer HOOI iterations.
    pub max_iterations: usize,
    /// Stop when the decrease of `‖X‖² − ‖G‖²` between outer iterations
    /// falls below this fraction of `‖X‖²`.
    pub fit_tolerance: f64,
}

impl Refine {
    /// At most `n` HOOI sweeps with the default fit tolerance (`1e-10`, the
    /// same default as [`HooiOptions`]).
    pub fn sweeps(n: usize) -> Refine {
        Refine {
            max_iterations: n,
            fit_tolerance: 1e-10,
        }
    }

    /// Replaces the early-stopping fit tolerance.
    pub fn fit_tolerance(mut self, tol: f64) -> Refine {
        self.fit_tolerance = tol;
        self
    }
}

/// Which kernel pipeline a [`CompressionPlan`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// `tucker_core::try_st_hosvd_ctx` on a resident tensor.
    InMemory,
    /// `tucker_core::try_hooi_ctx` (ST-HOSVD init + HOOI sweeps).
    InMemoryRefined,
    /// `tucker_core::streaming::try_st_hosvd_streaming_ctx` over slabs.
    Streaming,
    /// `tucker_core::dist::try_dist_st_hosvd_ctx` on every rank of the grid,
    /// gathered to root.
    Distributed,
    /// `tucker_core::dist::try_dist_hooi_ctx` on every rank, gathered.
    DistributedRefined,
}

impl KernelPath {
    /// A short label of the pipeline for logs and reports: the algorithm's
    /// name, prefixed `dist_` on a processor grid.
    pub fn name(&self) -> &'static str {
        match self {
            KernelPath::InMemory => "st_hosvd",
            KernelPath::InMemoryRefined => "hooi",
            KernelPath::Streaming => "st_hosvd_streaming",
            KernelPath::Distributed => "dist_st_hosvd",
            KernelPath::DistributedRefined => "dist_hooi",
        }
    }
}

/// Communication accounting of a distributed run (absent on the sequential
/// and streaming paths).
#[derive(Debug, Clone, Copy)]
pub struct DistRunInfo {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Wall-clock seconds of the SPMD region.
    pub elapsed: f64,
    /// Total messages sent across all ranks.
    pub messages_sent: u64,
    /// Total words sent across all ranks.
    pub words_sent: u64,
}

/// What a compression run produced: the decomposition plus the full
/// diagnostics of whichever kernel ran.
#[derive(Debug, Clone)]
pub enum CompressedOutput {
    /// An ST-HOSVD result (in-memory, streaming, or gathered distributed).
    Sthosvd(SthosvdResult),
    /// A HOOI-refined result (in-memory or gathered distributed).
    Hooi(HooiResult),
}

/// The result of [`CompressionPlan::run`].
#[derive(Debug, Clone)]
pub struct Compressed {
    output: CompressedOutput,
    kernel: KernelPath,
    dist: Option<DistRunInfo>,
}

impl Compressed {
    /// The computed decomposition.
    pub fn tucker(&self) -> &TuckerTensor {
        match &self.output {
            CompressedOutput::Sthosvd(r) => &r.tucker,
            CompressedOutput::Hooi(r) => &r.tucker,
        }
    }

    /// Consumes the result, keeping only the decomposition.
    pub fn into_tucker(self) -> TuckerTensor {
        match self.output {
            CompressedOutput::Sthosvd(r) => r.tucker,
            CompressedOutput::Hooi(r) => r.tucker,
        }
    }

    /// The reduced dimension chosen in each mode.
    pub fn ranks(&self) -> &[usize] {
        match &self.output {
            CompressedOutput::Sthosvd(r) => &r.ranks,
            CompressedOutput::Hooi(r) => &r.ranks,
        }
    }

    /// Which kernel pipeline produced this result.
    pub fn kernel(&self) -> KernelPath {
        self.kernel
    }

    /// The full diagnostics of the kernel that ran.
    pub fn output(&self) -> &CompressedOutput {
        &self.output
    }

    /// Consumes the result, returning the kernel diagnostics.
    pub fn into_output(self) -> CompressedOutput {
        self.output
    }

    /// The ST-HOSVD diagnostics, when no refinement ran.
    pub fn sthosvd(&self) -> Option<&SthosvdResult> {
        match &self.output {
            CompressedOutput::Sthosvd(r) => Some(r),
            CompressedOutput::Hooi(_) => None,
        }
    }

    /// The HOOI diagnostics, when refinement ran.
    pub fn hooi(&self) -> Option<&HooiResult> {
        match &self.output {
            CompressedOutput::Sthosvd(_) => None,
            CompressedOutput::Hooi(r) => Some(r),
        }
    }

    /// Communication accounting, when the distributed path ran.
    pub fn dist_info(&self) -> Option<&DistRunInfo> {
        self.dist.as_ref()
    }
}

/// The result of [`CompressionPlan::write_to`]: the in-memory result plus
/// the encode report of the artifact on disk.
#[derive(Debug, Clone)]
pub struct Written {
    /// The compression result (as [`CompressionPlan::run`] would return).
    pub compressed: Compressed,
    /// Sizes and codec error of the written artifact.
    pub report: EncodeReport,
}

/// Builder for one compression run over any ingest path.
///
/// ```
/// use tucker_api::Compressor;
/// use tucker_tensor::DenseTensor;
///
/// let x = DenseTensor::from_fn(&[12, 10, 8], |idx| {
///     (0.3 * idx[0] as f64).sin() + 0.05 * (idx[1] * idx[2]) as f64
/// });
/// let result = Compressor::new(&x).tolerance(1e-3).run()?;
/// assert!(result.tucker().compression_ratio(x.dims()) > 1.0);
/// # Ok::<(), tucker_api::TuckerError>(())
/// ```
pub struct Compressor<'a> {
    source: SourceKind<'a>,
    rank: Option<RankSelection>,
    order: ModeOrder,
    refine: Option<Refine>,
    slab_width: usize,
    threads: Option<usize>,
    codec: Codec,
    declared_eps: Option<f64>,
    meta: TkrMetadata,
}

impl<'a> Compressor<'a> {
    fn with_source(source: SourceKind<'a>) -> Self {
        Compressor {
            source,
            rank: None,
            order: ModeOrder::Natural,
            refine: None,
            slab_width: 1,
            threads: None,
            codec: Codec::F64,
            declared_eps: None,
            meta: TkrMetadata::default(),
        }
    }

    /// Compresses a resident tensor (the in-memory pipeline).
    pub fn new(x: &'a DenseTensor) -> Self {
        Compressor::with_source(SourceKind::Dense(x))
    }

    /// Compresses an out-of-core slab source (the streaming pipeline; peak
    /// memory `O(slab + truncated tensor)`). A resident [`DenseTensor`] is
    /// its own slab source, so this also works for testing the streaming
    /// path against in-memory data.
    pub fn from_slabs(src: &'a dyn SlabSource) -> Self {
        Compressor::with_source(SourceKind::Slabs(src))
    }

    /// Compresses a global tensor block-distributed over `grid` on the
    /// simulated message-passing runtime: every rank runs the parallel
    /// kernels (Algs. 3–5) on its block and the result is gathered to root.
    pub fn distributed(global: &'a DenseTensor, grid: ProcGrid) -> Self {
        Compressor::with_source(SourceKind::Dist { global, grid })
    }

    /// Sets ε-driven rank selection (Alg. 1 line 5): in each mode, keep the
    /// smallest rank whose discarded eigenvalue tail stays within
    /// `ε²‖X‖²/N`. Overrides any earlier target.
    pub fn tolerance(mut self, eps: f64) -> Self {
        self.rank = Some(RankSelection::Tolerance(eps));
        self
    }

    /// Sets fixed per-mode target ranks. Overrides any earlier target.
    pub fn ranks(mut self, ranks: impl Into<Vec<usize>>) -> Self {
        self.rank = Some(RankSelection::Fixed(ranks.into()));
        self
    }

    /// Sets an arbitrary [`RankSelection`] (e.g. tolerance with per-mode
    /// caps). Overrides any earlier target.
    pub fn rank_selection(mut self, sel: RankSelection) -> Self {
        self.rank = Some(sel);
        self
    }

    /// Sets the mode-processing order (default: natural). Streaming sources
    /// require an order that processes the last mode last.
    pub fn order(mut self, order: ModeOrder) -> Self {
        self.order = order;
        self
    }

    /// Adds HOOI refinement sweeps on top of the ST-HOSVD initialization.
    /// Supported for resident and distributed sources; a streaming source is
    /// rejected at [`Compressor::plan`] time.
    pub fn refine(mut self, refine: Refine) -> Self {
        self.refine = Some(refine);
        self
    }

    /// Last-mode steps per slab for the streaming path (default 1 — the
    /// strictest memory profile). Ignored by the other ingest paths. The
    /// results are bit-identical for every width.
    pub fn slab_width(mut self, width: usize) -> Self {
        self.slab_width = width.max(1);
        self
    }

    /// Caps the parallelism budget: the plan runs on a view of the global
    /// pool whose scatters split into at most `n` chunks. A distributed plan
    /// splits the budget hybrid-style across its ranks (each rank scatters
    /// with `max(1, n / ranks)`), exactly like the default, which uses the
    /// whole global pool. Results are bit-identical for every setting.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the value codec for [`CompressionPlan::write_to`]
    /// (default: lossless [`Codec::F64`]).
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Declares the relative decomposition error recorded in written
    /// artifact headers (feeding readers' `error_budget()`). Defaults to
    /// the [`tolerance`](Compressor::tolerance) when one was set, and to
    /// `0.0` for fixed-rank plans — fixed-rank truncation error is
    /// data-dependent, so callers who know it (e.g. from
    /// [`SthosvdResult::error_bound`]) should declare it here before
    /// shipping the artifact.
    pub fn declared_eps(mut self, eps: f64) -> Self {
        self.declared_eps = Some(eps);
        self
    }

    /// Attaches provenance metadata to written artifacts.
    pub fn meta(mut self, meta: TkrMetadata) -> Self {
        self.meta = meta;
        self
    }

    /// Validates the whole configuration against the source's shape and
    /// freezes it into an executable [`CompressionPlan`]. Every malformed
    /// input — empty or zero-extent shapes, ranks exceeding mode dims, bad
    /// tolerances, non-permutation orders, refinement on a streaming source,
    /// a grid that does not fit the tensor — is a typed [`TuckerError`]
    /// here; nothing panics later.
    pub fn plan(self) -> Result<CompressionPlan<'a>, TuckerError> {
        let rank = self.rank.ok_or(PlanError::NoTarget)?;
        let sth = SthosvdOptions {
            rank,
            order: self.order,
        };
        let dims = self.source.dims();
        if let Some(refine) = &self.refine {
            if !refine.fit_tolerance.is_finite() || refine.fit_tolerance < 0.0 {
                return Err(RankError::BadTolerance {
                    eps: refine.fit_tolerance,
                }
                .into());
            }
        }
        if let Some(eps) = self.declared_eps {
            if !eps.is_finite() || eps < 0.0 {
                return Err(RankError::BadTolerance { eps }.into());
            }
        }
        // Metadata destined for the artifact header is checked against the
        // shape now, so a bad label count cannot surface as an IO error
        // after the whole compression has already run.
        self.meta.validate(dims.len())?;
        let kernel = match &self.source {
            SourceKind::Dense(_) => {
                validate::validate_sthosvd_inputs(dims, &sth)?;
                if self.refine.is_some() {
                    KernelPath::InMemoryRefined
                } else {
                    KernelPath::InMemory
                }
            }
            SourceKind::Slabs(_) => {
                if self.refine.is_some() {
                    return Err(PlanError::RefineNeedsResident.into());
                }
                validate::validate_streaming_inputs(dims, &sth)?;
                KernelPath::Streaming
            }
            SourceKind::Dist { grid, .. } => {
                validate::validate_sthosvd_inputs(dims, &sth)?;
                validate::validate_grid(dims, grid.shape())?;
                if self.refine.is_some() {
                    KernelPath::DistributedRefined
                } else {
                    KernelPath::Distributed
                }
            }
        };
        let eps = self.declared_eps.unwrap_or_else(|| sth.rank.tolerance());
        Ok(CompressionPlan {
            source: self.source,
            sth,
            stream: StreamingOptions::with_slab_width(self.slab_width),
            refine: self.refine,
            threads: self.threads,
            store: StoreOptions::new(self.codec, eps).with_meta(self.meta),
            kernel,
        })
    }

    /// [`Compressor::plan`] followed by [`CompressionPlan::run`].
    pub fn run(self) -> Result<Compressed, TuckerError> {
        self.plan()?.run()
    }

    /// [`Compressor::plan`] followed by [`CompressionPlan::write_to`].
    pub fn write_to(self, path: impl AsRef<Path>) -> Result<Written, TuckerError> {
        self.plan()?.write_to(path)
    }
}

/// A validated, executable compression configuration. Produced by
/// [`Compressor::plan`]; every input check has already passed, so the only
/// failures left are environmental (IO).
pub struct CompressionPlan<'a> {
    source: SourceKind<'a>,
    sth: SthosvdOptions,
    stream: StreamingOptions,
    refine: Option<Refine>,
    threads: Option<usize>,
    store: StoreOptions,
    kernel: KernelPath,
}

impl CompressionPlan<'_> {
    /// Which kernel pipeline this plan dispatches to.
    pub fn kernel(&self) -> KernelPath {
        self.kernel
    }

    /// The resolved decomposition options (rank selection + mode order).
    pub fn options(&self) -> &SthosvdOptions {
        &self.sth
    }

    /// The store options (codec, declared ε, metadata) used by
    /// [`CompressionPlan::write_to`].
    pub fn store_options(&self) -> &StoreOptions {
        &self.store
    }

    /// The sequential-or-pooled execution context this plan computes on.
    fn exec(&self) -> ExecContext {
        let global = ExecContext::global();
        match self.threads {
            Some(n) => global.with_budget(n),
            None => global.clone(),
        }
    }

    /// Runs the planned pipeline and returns the decomposition with full
    /// kernel diagnostics. Dispatches to the exact existing kernel path (see
    /// the module docs) — the result is bit-identical to direct calls.
    pub fn run(&self) -> Result<Compressed, TuckerError> {
        let ctx = self.exec();
        match &self.source {
            SourceKind::Dense(x) => match &self.refine {
                None => Ok(Compressed {
                    output: CompressedOutput::Sthosvd(try_st_hosvd_ctx(x, &self.sth, &ctx)?),
                    kernel: self.kernel,
                    dist: None,
                }),
                Some(refine) => {
                    let opts = HooiOptions {
                        init: self.sth.clone(),
                        max_iterations: refine.max_iterations,
                        fit_tolerance: refine.fit_tolerance,
                    };
                    Ok(Compressed {
                        output: CompressedOutput::Hooi(try_hooi_ctx(x, &opts, &ctx)?),
                        kernel: self.kernel,
                        dist: None,
                    })
                }
            },
            SourceKind::Slabs(src) => Ok(Compressed {
                output: CompressedOutput::Sthosvd(try_st_hosvd_streaming_ctx(
                    src,
                    &self.sth,
                    &self.stream,
                    &ctx,
                )?),
                kernel: self.kernel,
                dist: None,
            }),
            SourceKind::Dist { global, grid } => self.run_distributed(global, grid),
        }
    }

    /// The distributed dispatch: an SPMD region over the grid, each rank
    /// compressing its block with the parallel kernels (hybrid
    /// ranks × threads on the shared pool), the decomposition gathered to
    /// root exactly as the direct `try_dist_st_hosvd_ctx` + `gather_to_root` calls
    /// would.
    fn run_distributed(
        &self,
        global: &DenseTensor,
        grid: &ProcGrid,
    ) -> Result<Compressed, TuckerError> {
        let nranks = grid.size();
        let refine = &self.refine;
        let sth = &self.sth;
        let threads = self.threads;
        let handle = spmd_with_grid_handle(
            grid.clone(),
            move |comm| -> Result<Option<CompressedOutput>, tucker_core::validate::CoreError> {
                let ctx = {
                    let global_ctx = ExecContext::global();
                    let budget = threads.unwrap_or(global_ctx.threads());
                    global_ctx.with_budget((budget / comm.size().max(1)).max(1))
                };
                let dx = DistTensor::from_global(&comm, global);
                match refine {
                    None => {
                        let r = try_dist_st_hosvd_ctx(&comm, &dx, sth, &ctx)?;
                        let gathered = r.tucker.gather_to_root(&comm);
                        Ok(gathered.map(|tucker| {
                            CompressedOutput::Sthosvd(SthosvdResult {
                                tucker,
                                ranks: r.ranks,
                                mode_eigenvalues: r.mode_eigenvalues,
                                discarded_energy: r.discarded_energy,
                                norm_x_sq: r.norm_x_sq,
                                processed_order: r.processed_order,
                            })
                        }))
                    }
                    Some(refine) => {
                        let opts = HooiOptions {
                            init: sth.clone(),
                            max_iterations: refine.max_iterations,
                            fit_tolerance: refine.fit_tolerance,
                        };
                        let r = try_dist_hooi_ctx(&comm, &dx, &opts, &ctx)?;
                        let gathered = r.tucker.gather_to_root(&comm);
                        Ok(gathered.map(|tucker| {
                            CompressedOutput::Hooi(HooiResult {
                                tucker,
                                ranks: r.ranks,
                                fit_history: r.fit_history,
                                iterations: r.iterations,
                            })
                        }))
                    }
                }
            },
        );
        let stats = handle.total_stats();
        let mut root = None;
        for per_rank in handle.results {
            let gathered: Option<CompressedOutput> = per_rank.map_err(TuckerError::from)?;
            if let Some(output) = gathered {
                root = Some(output);
            }
        }
        let output = root.ok_or_else(|| {
            TuckerError::Io(std::io::Error::other(
                "distributed gather produced no root result",
            ))
        })?;
        Ok(Compressed {
            output,
            kernel: self.kernel,
            dist: Some(DistRunInfo {
                ranks: nranks,
                elapsed: handle.elapsed,
                messages_sent: stats.messages_sent,
                words_sent: stats.words_sent,
            }),
        })
    }

    /// Runs the planned pipeline and writes the decomposition to `path` as a
    /// `.tkr` artifact with the configured codec and metadata. The bytes are
    /// identical to running the corresponding direct pipeline and calling
    /// `write_tucker_ctx` (or `compress_streaming` / `gather_and_write`, which
    /// serialize through the same writer) — for every thread count.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<Written, TuckerError> {
        let compressed = self.run()?;
        let report = write_tucker_ctx(path, compressed.tucker(), &self.store, &self.exec())?;
        Ok(Written { compressed, report })
    }
}

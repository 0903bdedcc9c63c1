//! [`TensorQuery`] — one query interface over both artifact readers.
//!
//! `tucker-store` grew two reader types with identical query semantics but
//! unrelated APIs: the eager [`TkrArtifact`] (core decoded at open) and the
//! lazy [`TkrReader`] (chunk directory at open, bounded chunk cache, chunks
//! decoded on demand). Their answers are byte-identical by contract — so
//! benches, examples, and service code should not care which one they hold.
//! [`TensorQuery`] is that seam: both readers implement it, the [`Reader`]
//! enum erases the choice, and [`Open`] is the builder that picks a backend
//! at open time:
//!
//! ```no_run
//! use tucker_api::{Open, TensorQuery};
//!
//! let reader = Open::lazy().cache_chunks(8).open("field.tkr")?;
//! let window = reader.reconstruct_range(&[(0, 4), (2, 3), (10, 2)])?;
//! # let _ = window;
//! # Ok::<(), tucker_api::TuckerError>(())
//! ```

use crate::error::{PlanError, TuckerError};
use std::path::Path;
use tucker_core::TuckerTensor;
use tucker_exec::ExecContext;
use tucker_store::{
    QueryError, SharedChunkCache, TkrArtifact, TkrHeader, TkrReader, DEFAULT_CACHE_CHUNKS,
};
use tucker_tensor::{DenseTensor, SubtensorSpec};

/// A uniform, backend-agnostic view of a compressed-tensor artifact.
///
/// Every reconstruction method validates its request against the artifact's
/// shape and returns a typed [`QueryError`] instead of panicking. Every
/// method answers **byte-identically** on both backends, and the point
/// queries agree with the reconstructions: [`element`](TensorQuery::element)
/// at `idx`, every [`elements`](TensorQuery::elements) batch containing
/// `idx`, the unit window at `idx` and entry `idx` of the full
/// reconstruction are the same bits. Pinned by `tests/api_equivalence.rs`
/// and `tests/query_contract.rs`.
pub trait TensorQuery {
    /// The parsed header (shape, ranks, ε, codec, quantization bound,
    /// metadata).
    fn header(&self) -> &TkrHeader;

    /// Total size of the artifact on disk in bytes.
    fn file_bytes(&self) -> u64;

    /// The original tensor dimensions `I_1, …, I_N`.
    fn dims(&self) -> &[usize] {
        &self.header().dims
    }

    /// The stored core dimensions `R_1, …, R_N`.
    fn ranks(&self) -> &[usize] {
        &self.header().ranks
    }

    /// The total relative-error budget: the decomposition's ε plus the
    /// codec's quantization bound.
    fn error_budget(&self) -> f64 {
        self.header().error_budget()
    }

    /// Physical compression ratio versus the original field as raw `f64`.
    fn compression_ratio(&self) -> f64 {
        let original: f64 = self.dims().iter().map(|&d| d as f64).product();
        8.0 * original / self.file_bytes() as f64
    }

    /// Reconstructs the full tensor.
    fn reconstruct(&self) -> Result<DenseTensor, QueryError>;

    /// Reconstructs the sub-tensor covering one `(start, len)` window per
    /// mode.
    fn reconstruct_range(&self, ranges: &[(usize, usize)]) -> Result<DenseTensor, QueryError>;

    /// Reconstructs an arbitrary per-mode index selection.
    fn reconstruct_subtensor(&self, spec: &SubtensorSpec) -> Result<DenseTensor, QueryError>;

    /// Reconstructs the hyperslice `index` of `mode` (the result keeps the
    /// mode with extent 1).
    fn reconstruct_slice(&self, mode: usize, index: usize) -> Result<DenseTensor, QueryError>;

    /// Reconstructs a single element.
    fn element(&self, idx: &[usize]) -> Result<f64, QueryError>;

    /// Reconstructs a batch of elements, each bit-identical to
    /// [`element`](TensorQuery::element) at that point.
    fn elements(&self, points: &[&[usize]]) -> Result<Vec<f64>, QueryError>;
}

impl TensorQuery for TkrArtifact {
    fn header(&self) -> &TkrHeader {
        TkrArtifact::header(self)
    }

    fn file_bytes(&self) -> u64 {
        TkrArtifact::file_bytes(self)
    }

    fn reconstruct(&self) -> Result<DenseTensor, QueryError> {
        Ok(TkrArtifact::reconstruct(self))
    }

    fn reconstruct_range(&self, ranges: &[(usize, usize)]) -> Result<DenseTensor, QueryError> {
        TkrArtifact::reconstruct_range(self, ranges)
    }

    fn reconstruct_subtensor(&self, spec: &SubtensorSpec) -> Result<DenseTensor, QueryError> {
        TkrArtifact::reconstruct_subtensor(self, spec)
    }

    fn reconstruct_slice(&self, mode: usize, index: usize) -> Result<DenseTensor, QueryError> {
        TkrArtifact::reconstruct_slice(self, mode, index)
    }

    fn element(&self, idx: &[usize]) -> Result<f64, QueryError> {
        TkrArtifact::element(self, idx)
    }

    fn elements(&self, points: &[&[usize]]) -> Result<Vec<f64>, QueryError> {
        TkrArtifact::elements(self, points)
    }
}

impl TensorQuery for TkrReader {
    fn header(&self) -> &TkrHeader {
        TkrReader::header(self)
    }

    fn file_bytes(&self) -> u64 {
        TkrReader::file_bytes(self)
    }

    fn reconstruct(&self) -> Result<DenseTensor, QueryError> {
        TkrReader::reconstruct(self)
    }

    fn reconstruct_range(&self, ranges: &[(usize, usize)]) -> Result<DenseTensor, QueryError> {
        TkrReader::reconstruct_range(self, ranges)
    }

    fn reconstruct_subtensor(&self, spec: &SubtensorSpec) -> Result<DenseTensor, QueryError> {
        TkrReader::reconstruct_subtensor(self, spec)
    }

    fn reconstruct_slice(&self, mode: usize, index: usize) -> Result<DenseTensor, QueryError> {
        TkrReader::reconstruct_slice(self, mode, index)
    }

    fn element(&self, idx: &[usize]) -> Result<f64, QueryError> {
        TkrReader::element(self, idx)
    }

    fn elements(&self, points: &[&[usize]]) -> Result<Vec<f64>, QueryError> {
        TkrReader::elements(self, points)
    }
}

/// An open artifact with the backend chosen at [`Open`] time. Implements
/// [`TensorQuery`] by delegation, so code generic over the trait works with
/// either backend — and so does code holding the enum directly.
pub enum Reader {
    /// The eager backend: whole core decoded at open.
    Eager(TkrArtifact),
    /// The lazy backend: chunks decoded on demand behind a bounded cache.
    Lazy(TkrReader),
}

impl Reader {
    /// Consumes the reader and returns the full decoded decomposition
    /// (decoding everything on the lazy path).
    pub fn into_tucker(self) -> Result<TuckerTensor, TuckerError> {
        match self {
            Reader::Eager(a) => Ok(a.into_tucker()),
            Reader::Lazy(r) => r.into_tucker().map_err(TuckerError::from),
        }
    }

    /// The lazy reader, when that backend was chosen.
    pub fn as_lazy(&self) -> Option<&TkrReader> {
        match self {
            Reader::Eager(_) => None,
            Reader::Lazy(r) => Some(r),
        }
    }
}

impl TensorQuery for Reader {
    fn header(&self) -> &TkrHeader {
        match self {
            Reader::Eager(a) => TensorQuery::header(a),
            Reader::Lazy(r) => TensorQuery::header(r),
        }
    }

    fn file_bytes(&self) -> u64 {
        match self {
            Reader::Eager(a) => TensorQuery::file_bytes(a),
            Reader::Lazy(r) => TensorQuery::file_bytes(r),
        }
    }

    fn reconstruct(&self) -> Result<DenseTensor, QueryError> {
        match self {
            Reader::Eager(a) => TensorQuery::reconstruct(a),
            Reader::Lazy(r) => TensorQuery::reconstruct(r),
        }
    }

    fn reconstruct_range(&self, ranges: &[(usize, usize)]) -> Result<DenseTensor, QueryError> {
        match self {
            Reader::Eager(a) => TensorQuery::reconstruct_range(a, ranges),
            Reader::Lazy(r) => TensorQuery::reconstruct_range(r, ranges),
        }
    }

    fn reconstruct_subtensor(&self, spec: &SubtensorSpec) -> Result<DenseTensor, QueryError> {
        match self {
            Reader::Eager(a) => TensorQuery::reconstruct_subtensor(a, spec),
            Reader::Lazy(r) => TensorQuery::reconstruct_subtensor(r, spec),
        }
    }

    fn reconstruct_slice(&self, mode: usize, index: usize) -> Result<DenseTensor, QueryError> {
        match self {
            Reader::Eager(a) => TensorQuery::reconstruct_slice(a, mode, index),
            Reader::Lazy(r) => TensorQuery::reconstruct_slice(r, mode, index),
        }
    }

    fn element(&self, idx: &[usize]) -> Result<f64, QueryError> {
        match self {
            Reader::Eager(a) => TensorQuery::element(a, idx),
            Reader::Lazy(r) => TensorQuery::element(r, idx),
        }
    }

    fn elements(&self, points: &[&[usize]]) -> Result<Vec<f64>, QueryError> {
        match self {
            Reader::Eager(a) => TensorQuery::elements(a, points),
            Reader::Lazy(r) => TensorQuery::elements(r, points),
        }
    }
}

/// How the artifact should be opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpenMode {
    Eager,
    Lazy,
}

/// Builder choosing the reader backend for an artifact.
///
/// [`Open::eager`] decodes the whole core at open — lowest per-query
/// latency, resident memory `O(core)`. [`Open::lazy`] scans the framing
/// only and decodes core chunks on demand behind a bounded chunk cache —
/// resident memory `O(cache)`, right choice for artifacts larger than the
/// working set. Both yield byte-identical answers.
#[derive(Debug, Clone)]
pub struct Open {
    mode: OpenMode,
    cache_chunks: usize,
    threads: Option<usize>,
    shared: Option<(SharedChunkCache, String)>,
}

impl Open {
    /// Open eagerly: the whole core is decoded (in parallel) at open time.
    pub fn eager() -> Open {
        Open {
            mode: OpenMode::Eager,
            cache_chunks: DEFAULT_CACHE_CHUNKS,
            threads: None,
            shared: None,
        }
    }

    /// Open lazily: the framing is scanned and validated at open time, core
    /// chunks are decoded on demand behind a bounded, scan-resistant cache
    /// (see `tucker_store::shared` for the admission rule).
    pub fn lazy() -> Open {
        Open {
            mode: OpenMode::Lazy,
            cache_chunks: DEFAULT_CACHE_CHUNKS,
            threads: None,
            shared: None,
        }
    }

    /// Cache capacity in chunks for the lazy backend (ignored by the eager
    /// backend, which keeps everything, and by
    /// [`shared_cache`](Open::shared_cache), whose pool carries its own
    /// budget).
    ///
    /// `0` is rejected with a typed [`PlanError::ZeroCacheChunks`] at
    /// [`open`](Open::open) — a lazy reader needs at least one resident
    /// chunk.
    pub fn cache_chunks(mut self, k: usize) -> Open {
        self.cache_chunks = k;
        self
    }

    /// Registers the reader in a [`SharedChunkCache`] under `key` instead of
    /// giving it a private cache: readers sharing one cache share its global
    /// residency budget, and readers under the same key share decoded chunks
    /// and aggregate their accounting. Implies the lazy backend (the eager
    /// one has no chunk cache). All sessions of a key must name the same
    /// artifact bytes.
    pub fn shared_cache(mut self, cache: &SharedChunkCache, key: &str) -> Open {
        self.mode = OpenMode::Lazy;
        self.shared = Some((cache.clone(), key.to_string()));
        self
    }

    /// Caps the parallelism budget of a reader. Default: the whole global
    /// pool. The two backends honour it differently:
    ///
    /// - **lazy**: the reader keeps the capped context and runs both the
    ///   on-demand chunk decoding of every query and its window
    ///   contractions (`reconstruct`, ranges, slices) on it;
    /// - **eager**: only the open-time decode of the core runs on it. A
    ///   [`TkrArtifact`] keeps no context, so its window queries afterwards
    ///   compute on the global pool.
    ///
    /// The point contraction of `element(s)` runs on the calling thread on
    /// both backends.
    pub fn threads(mut self, n: usize) -> Open {
        self.threads = Some(n);
        self
    }

    /// Opens the artifact at `path` with the chosen backend. Corrupt or
    /// truncated artifacts are a typed
    /// [`FormatError`](tucker_store::FormatError); filesystem failures stay
    /// [`TuckerError::Io`]; a [`cache_chunks(0)`](Open::cache_chunks)
    /// configuration is a typed [`PlanError::ZeroCacheChunks`] on **both**
    /// backends (the builder validates uniformly, so switching backends
    /// cannot change which configurations are accepted).
    pub fn open(&self, path: impl AsRef<Path>) -> Result<Reader, TuckerError> {
        if self.cache_chunks == 0 {
            return Err(TuckerError::Plan(PlanError::ZeroCacheChunks));
        }
        let global = ExecContext::global();
        let ctx = match self.threads {
            Some(n) => global.with_budget(n),
            None => global.clone(),
        };
        Ok(match self.mode {
            OpenMode::Eager => Reader::Eager(TkrArtifact::open_ctx(path, &ctx)?),
            OpenMode::Lazy => Reader::Lazy(match &self.shared {
                Some((cache, key)) => TkrReader::open_shared(path, key, cache, &ctx)?,
                None => TkrReader::open_with(path, self.cache_chunks, &ctx)?,
            }),
        })
    }
}

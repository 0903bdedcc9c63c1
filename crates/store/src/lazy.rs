//! The lazy, chunk-cached artifact reader.
//!
//! [`crate::TkrArtifact::open_ctx`] decodes the whole core up front — fine when
//! the core fits comfortably in memory, a wall when it does not (the ROADMAP
//! open item this module resolves). [`TkrReader`] keeps the core **on
//! disk**: opening makes one scan pass that parses the header, decodes the
//! (small) factor matrices, and builds a *chunk directory* — the file offset
//! and core range of every `TAG_CORE_CHUNK` block — without reading any
//! core payload. Queries then stream the chunks past in ascending order, in
//! waves: each wave probes the chunk cache, and its misses are fetched with
//! positional reads (no shared file cursor, so concurrent queries on one
//! reader never serialise on IO) and bulk-decoded in parallel on the
//! reader's `ExecContext`.
//!
//! Caching always goes through a [`crate::shared::CacheSession`]:
//! [`TkrReader::open_with`] gives the reader a private single-stripe
//! [`crate::shared::SharedChunkCache`], while [`TkrReader::open_shared`]
//! registers the reader in a cache shared with other sessions, so many
//! readers of one artifact decode each chunk once and stay within one global
//! residency budget — the service posture `tucker-serve` builds on. Either
//! way residency follows the cache's admission rule (see [`crate::shared`]):
//! because every query scans every chunk, an artifact larger than the budget
//! keeps a stable resident prefix and decodes the rest per query, instead of
//! flooding an LRU.
//!
//! Nothing ever assembles the core, and no query copies a cached chunk:
//!
//! * **Windows** — contract in the eager reader's order,
//!   [`tucker_core::ordering::window_order`] (narrow modes first for a mixed
//!   window such as a hyperslice, natural otherwise), split at the last
//!   mode. Each chunk is a run of whole last-mode core slabs, so the modes
//!   before the last one in that order run per chunk (borrowed from the
//!   cache, in place); the chunk's contribution then accumulates through the
//!   last-mode factor columns `[start_c, start_c + len_c)` — the last mode's
//!   contraction dimension split at chunk boundaries; the modes after it run
//!   once on the folded tensor. Because the GEMM kernel accumulates each
//!   output element as one running sum in ascending contraction order, the
//!   result is **byte-identical** to the eager reader for every window,
//!   chunk layout and cache size (pinned in `tests/query_contract.rs`); peak
//!   memory is `O(decoded chunks in cache + output + one chunk-sized
//!   intermediate)`.
//! * **Points** — [`TkrReader::element`]/[`TkrReader::elements`] feed the
//!   chunks to the one [`tucker_core::reconstruct::PointContraction`] the
//!   eager reader and `tucker_core::reconstruct_element` also use: `O(∏R)`
//!   per point, and the same per-element recurrence as the natural-order
//!   window path, so `element(idx)` ≡ the unit window at `idx` ≡
//!   `reconstruct()[idx]`, bit for bit.

use crate::codec::Codec;
use crate::error::{FormatError, StoreError};
use crate::format::{
    read_exact, read_u32, read_u64, TkrHeader, TAG_CORE_CHUNK, TAG_END, TAG_FACTOR,
};
use crate::query::{validate_point, validate_ranges, validate_slice, validate_spec, QueryError};
use crate::shared::{CacheSession, SharedChunkCache};
use crate::writer::codec_wave_chunks;
use std::fs::File;
use std::io::{self, BufReader, Seek};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use tucker_core::ordering::window_order;
use tucker_core::reconstruct::{window_span, PointContraction};
use tucker_exec::ExecContext;
use tucker_linalg::gemm::{gemm_slices, Transpose};
use tucker_linalg::Matrix;
use tucker_obs::span;
use tucker_tensor::{ttm_ctx, ttm_slice_ctx, DenseTensor, SubtensorSpec, TtmTranspose};

/// Default number of decoded chunks the cache keeps resident.
pub const DEFAULT_CACHE_CHUNKS: usize = 16;

/// One entry of the chunk directory: where a core chunk lives in the file
/// and which core elements it decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkEntry {
    /// First core element (linear, natural order) of the chunk.
    pub start: usize,
    /// Number of core elements in the chunk.
    pub len: usize,
    /// File offset of the chunk's codec payload.
    pub offset: u64,
}

/// A scanned artifact: everything `open` learns in one framing pass —
/// header, decoded factors, chunk directory — plus the still-open file.
/// Both readers are built from this; the eager one just decodes every
/// chunk immediately.
pub(crate) struct ScannedArtifact {
    pub header: TkrHeader,
    pub factors: Vec<Matrix>,
    pub chunks: Vec<ChunkEntry>,
    pub core_total: usize,
    pub file: File,
    pub file_bytes: u64,
}

/// Locks `m`, riding through poisoning: the guarded data is a pool of
/// spare buffers, valid whatever a panicking holder left in it.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fetches core chunk `entry` with one positional read into `payload` (a
/// buffer the caller reuses from chunk to chunk) and bulk-decodes it into
/// `out`, which must hold `entry.len` values. The one chunk-IO path of both
/// readers; `&File` + `read_exact_at` share no cursor, so callers need no
/// lock.
pub(crate) fn read_chunk(
    file: &File,
    codec: Codec,
    entry: &ChunkEntry,
    payload: &mut Vec<u8>,
    out: &mut [f64],
) -> io::Result<()> {
    payload.resize(codec.block_bytes(entry.len), 0);
    {
        let _span = span!("store.chunk_fetch", bytes = payload.len());
        file.read_exact_at(payload, entry.offset)?;
    }
    let _span = span!("store.chunk_decode", values = entry.len);
    codec.decode_into(payload, out);
    Ok(())
}

/// Parses the framing of a `.tkr` file: validates the header and every
/// block's bookkeeping, decodes factor blocks, and records — but does not
/// read — core chunk payloads. Every framing read goes through
/// [`read_exact`], so a file cut short anywhere is a [`FormatError`]; only a
/// failing filesystem is [`StoreError::Io`].
pub(crate) fn scan_artifact(path: impl AsRef<Path>) -> Result<ScannedArtifact, StoreError> {
    let file = File::open(&path)?;
    let file_bytes = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let header = TkrHeader::read_from(&mut r)?;
    let ndims = header.ndims();
    let codec = header.codec;

    // A block's payload can never hold more values than the file has bytes
    // per value, so bound every declared allocation by the file size — a
    // corrupt header must fail here, not abort on OOM.
    let max_vals = (file_bytes / codec.bytes_per_value() as u64) as usize;
    let core_total: usize = header
        .ranks
        .iter()
        .try_fold(1usize, |acc, &rk| acc.checked_mul(rk))
        .filter(|&c| c <= max_vals)
        .ok_or_else(|| {
            FormatError::Invalid("declared core is larger than the file itself".to_string())
        })?;
    for (n, (&d, &rk)) in header.dims.iter().zip(header.ranks.iter()).enumerate() {
        if d.checked_mul(rk).is_none_or(|v| v > max_vals) {
            return Err(FormatError::Invalid(format!(
                "declared factor {n} is larger than the file itself"
            ))
            .into());
        }
    }

    let mut factors: Vec<Option<Matrix>> = vec![None; ndims];
    let mut chunks: Vec<ChunkEntry> = Vec::new();
    let mut core_filled = 0usize;
    let mut saw_end = false;
    // The format contract (and the writer's checks): every core chunk is a
    // non-empty run of whole last-mode slabs. Enforce it here so the lazy
    // reader's slab-shaped chunk math can never be handed a misaligned
    // chunk at query time.
    let slab_stride: usize = header.ranks[..ndims - 1].iter().product::<usize>().max(1);

    while !saw_end {
        let mut tag = [0u8; 1];
        read_exact(&mut r, &mut tag)?;
        match tag[0] {
            TAG_FACTOR => {
                let mode = read_u32(&mut r)? as usize;
                let rows = read_u64(&mut r)? as usize;
                let cols = read_u64(&mut r)? as usize;
                if mode >= ndims {
                    return Err(FormatError::Invalid(format!(
                        "factor block for mode {mode} of {ndims}"
                    ))
                    .into());
                }
                if factors[mode].is_some() {
                    return Err(FormatError::Invalid(format!(
                        "duplicate factor block for mode {mode}"
                    ))
                    .into());
                }
                if rows != header.dims[mode] || cols != header.ranks[mode] {
                    return Err(FormatError::Invalid(format!(
                        "factor {mode} is {rows}×{cols}, header says {}×{}",
                        header.dims[mode], header.ranks[mode]
                    ))
                    .into());
                }
                let mut u = Matrix::zeros(rows, cols);
                let mut payload = vec![0u8; codec.block_bytes(rows)];
                let mut col = vec![0.0f64; rows];
                for j in 0..cols {
                    read_exact(&mut r, &mut payload)?;
                    codec.decode_into(&payload, &mut col);
                    for (i, &v) in col.iter().enumerate() {
                        u.set(i, j, v);
                    }
                }
                factors[mode] = Some(u);
            }
            TAG_CORE_CHUNK => {
                let start = read_u64(&mut r)? as usize;
                let len = read_u64(&mut r)? as usize;
                if start != core_filled {
                    return Err(FormatError::Invalid(format!(
                        "core chunk at {start}, expected next offset {core_filled}"
                    ))
                    .into());
                }
                // Overflow-safe: start == core_filled <= core_total here.
                if len > core_total - start {
                    return Err(
                        FormatError::Invalid("core chunk overruns the core".to_string()).into(),
                    );
                }
                if len == 0 || !len.is_multiple_of(slab_stride) {
                    return Err(FormatError::Invalid(format!(
                        "core chunk of {len} elements is not a whole number of \
                         last-mode slabs (stride {slab_stride})"
                    ))
                    .into());
                }
                let payload = codec.block_bytes(len) as u64;
                let offset = r.stream_position()?;
                // The scan skips the payload, so verify now that it is
                // actually present — a file truncated mid-chunk must fail at
                // open, not at first query.
                if offset
                    .checked_add(payload)
                    .is_none_or(|end| end > file_bytes)
                {
                    return Err(FormatError::Invalid(
                        "truncated artifact: core chunk payload cut short".to_string(),
                    )
                    .into());
                }
                r.seek_relative(payload as i64)?;
                chunks.push(ChunkEntry { start, len, offset });
                core_filled += len;
            }
            TAG_END => {
                let declared = read_u64(&mut r)? as usize;
                if declared != core_total {
                    return Err(FormatError::Invalid(format!(
                        "end marker declares {declared} core elements, header implies {core_total}"
                    ))
                    .into());
                }
                saw_end = true;
            }
            t => return Err(FormatError::Invalid(format!("unknown block tag {t:#x}")).into()),
        }
    }
    if core_filled != core_total {
        return Err(FormatError::Invalid(format!(
            "core incomplete: {core_filled} of {core_total} elements"
        ))
        .into());
    }
    let factors: Vec<Matrix> = factors
        .into_iter()
        .enumerate()
        .map(|(n, f)| {
            f.ok_or_else(|| FormatError::Invalid(format!("missing factor block for mode {n}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(ScannedArtifact {
        header,
        factors,
        chunks,
        core_total,
        file: r.into_inner(),
        file_bytes,
    })
}

/// A lazily decoding `.tkr` reader: chunk directory built at open, chunks
/// decoded on demand behind a bounded, scan-resistant chunk cache (private
/// by default, shared across readers via [`TkrReader::open_shared`]).
///
/// All queries are `&self` — positional reads and the internally
/// synchronized cache are the only shared state — and return the same bytes
/// the eager [`crate::TkrArtifact`] would, while decoding only the chunks
/// not already resident and keeping at most the cache capacity resident.
pub struct TkrReader {
    header: TkrHeader,
    factors: Vec<Matrix>,
    chunks: Vec<ChunkEntry>,
    core_total: usize,
    file_bytes: u64,
    file: File,
    cache: CacheSession,
    ctx: ExecContext,
    /// Decoded chunks the cache did not keep, recycled for the next misses
    /// (at most one wave of them), so a miss reuses mapped memory instead
    /// of faulting in a fresh buffer.
    spare: Mutex<Vec<Vec<f64>>>,
}

impl TkrReader {
    /// Opens an artifact lazily with a private cache of `cache_chunks`
    /// decoded chunks (see [`DEFAULT_CACHE_CHUNKS`]) and `ctx` for parallel
    /// decode. One scan pass validates the complete framing (identical
    /// checks to the eager reader); no core payload is read. A capacity of
    /// `0` chunks is a typed [`FormatError::Invalid`]: a lazy reader needs
    /// at least one resident chunk.
    pub fn open_with(
        path: impl AsRef<Path>,
        cache_chunks: usize,
        ctx: &ExecContext,
    ) -> Result<TkrReader, StoreError> {
        if cache_chunks == 0 {
            return Err(FormatError::Invalid(
                "cache capacity of 0 chunks (a lazy reader needs at least 1 resident chunk)"
                    .to_string(),
            )
            .into());
        }
        let key = path.as_ref().display().to_string();
        TkrReader::open_shared(path, &key, &SharedChunkCache::new(cache_chunks, 1), ctx)
    }

    /// Opens an artifact lazily with its chunk cache registered in `cache`
    /// under `key`: readers sharing one cache (under the same or different
    /// keys) share its global residency budget, and readers registered under
    /// the **same key** additionally share decoded chunks and aggregate
    /// their hit/decode/resident accounting. All sessions of a key must name
    /// the same artifact bytes (see [`SharedChunkCache`]).
    pub fn open_shared(
        path: impl AsRef<Path>,
        key: &str,
        cache: &SharedChunkCache,
        ctx: &ExecContext,
    ) -> Result<TkrReader, StoreError> {
        // Scan first: an artifact that fails to open registers nothing.
        let scanned = scan_artifact(path)?;
        Ok(TkrReader {
            header: scanned.header,
            factors: scanned.factors,
            chunks: scanned.chunks,
            core_total: scanned.core_total,
            file_bytes: scanned.file_bytes,
            file: scanned.file,
            cache: cache.register(key),
            ctx: ctx.clone(),
            spare: Mutex::new(Vec::new()),
        })
    }

    /// The parsed header (shape, ranks, ε, codec, quantization bound,
    /// metadata).
    pub fn header(&self) -> &TkrHeader {
        &self.header
    }

    /// The decoded factor matrix of `mode`.
    pub fn factor(&self, mode: usize) -> &Matrix {
        &self.factors[mode]
    }

    /// Number of core chunks in the artifact.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Cumulative number of chunk decodes performed — the "never decodes
    /// more than the touched chunks" accounting the tests pin (a repeat
    /// query over cached chunks adds nothing here). On a reader opened via
    /// [`TkrReader::open_shared`] this aggregates over every session of the
    /// artifact's cache key, not just this reader.
    pub fn decoded_chunks(&self) -> usize {
        self.cache.decoded_chunks()
    }

    /// Cumulative number of cache hits (aggregated per artifact key on a
    /// shared cache, like [`TkrReader::decoded_chunks`]).
    pub fn cache_hits(&self) -> usize {
        self.cache.cache_hits()
    }

    /// Number of this artifact's decoded chunks currently resident (≤ the
    /// cache capacity).
    pub fn resident_chunks(&self) -> usize {
        self.cache.resident_chunks()
    }

    /// The cache session this reader decodes through (per-artifact stats,
    /// the pool's capacity).
    pub fn cache_session(&self) -> &CacheSession {
        &self.cache
    }

    /// Total declared relative error budget: decomposition ε plus the
    /// codec's quantization bound.
    pub fn error_budget(&self) -> f64 {
        self.header.error_budget()
    }

    /// Physical compression ratio: original field as raw `f64` bytes over
    /// the artifact's file size.
    pub fn compression_ratio(&self) -> f64 {
        let original = 8.0 * self.header.dims.iter().map(|&d| d as f64).product::<f64>();
        original / self.file_bytes as f64
    }

    /// The artifact's size on disk in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Streams every chunk, in order, through `f` — one scan, as the cache
    /// counts them. Chunks are resolved in waves: cache probes first, then the
    /// wave's misses fetched and decoded in parallel on the reader's context
    /// (each into a payload buffer reused from wave to wave), offered to the
    /// cache, and handed to `f` whether or not they were admitted. At most
    /// `min(wave, capacity)` chunks are in flight beyond the cache bound.
    fn for_each_chunk(&self, mut f: impl FnMut(&ChunkEntry, &[f64])) -> Result<(), QueryError> {
        /// A chunk to fetch and decode: its reused payload buffer, the
        /// decoded values, and how the read went.
        struct Miss<'p> {
            payload: &'p mut Vec<u8>,
            values: Vec<f64>,
            read: io::Result<()>,
        }
        /// One wave slot: resident already, or a miss.
        enum Slot<'p> {
            Hit(Arc<Vec<f64>>),
            Miss(Miss<'p>),
        }
        self.cache.begin_scan();
        let wave_len = codec_wave_chunks(&self.ctx)
            .min(self.cache.capacity())
            .max(1);
        let codec = self.header.codec;
        let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); wave_len.min(self.chunks.len())];
        for (w, wave) in self.chunks.chunks(wave_len).enumerate() {
            let base = w * wave_len;
            let mut slots: Vec<Slot> = payloads
                .iter_mut()
                .take(wave.len())
                .enumerate()
                .map(|(i, payload)| match self.cache.get(base + i) {
                    Some(data) => Slot::Hit(data),
                    None => Slot::Miss(Miss {
                        payload,
                        values: Vec::new(),
                        read: Ok(()),
                    }),
                })
                .collect();
            // Only the misses go to the pool: an all-hit wave costs no
            // scatter, a mixed one is balanced over its misses.
            let mut misses: Vec<(usize, &mut Miss)> = slots
                .iter_mut()
                .enumerate()
                .filter_map(|(i, slot)| match slot {
                    Slot::Miss(miss) => Some((i, miss)),
                    Slot::Hit(_) => None,
                })
                .collect();
            self.ctx.for_each_slot(&mut misses, |_, (i, miss)| {
                let entry = &wave[*i];
                miss.values = self.spare_buffer(entry.len);
                miss.read = read_chunk(&self.file, codec, entry, miss.payload, &mut miss.values);
            });
            for (i, (entry, slot)) in wave.iter().zip(slots).enumerate() {
                let data = match slot {
                    Slot::Hit(data) => data,
                    Slot::Miss(Miss { values, read, .. }) => {
                        read?;
                        let data = Arc::new(values);
                        self.cache.insert(base + i, Arc::clone(&data));
                        data
                    }
                };
                {
                    let _span = span!("store.chunk_contract", chunk = base + i);
                    f(entry, &data);
                }
                // Unshared once `f` is done: the cache did not admit it.
                if let Ok(values) = Arc::try_unwrap(data) {
                    let mut spare = lock_clean(&self.spare);
                    if spare.len() < wave_len {
                        spare.push(values);
                    }
                }
            }
        }
        Ok(())
    }

    /// A buffer of `len` values for a missed chunk: a recycled one when one
    /// is spare, with stale contents (only growth is zero-filled), since
    /// [`read_chunk`] overwrites every value before anything reads them.
    fn spare_buffer(&self, len: usize) -> Vec<f64> {
        match lock_clean(&self.spare).pop() {
            Some(mut values) => {
                values.truncate(len);
                values.resize(len, 0.0);
                values
            }
            None => vec![0.0; len],
        }
    }

    /// Reconstructs the window given by per-mode `(start, len)` ranges —
    /// byte-identical to [`crate::TkrArtifact::reconstruct_range`], in the
    /// same [`window_order`] — while decoding the core chunk by chunk.
    pub fn reconstruct_range(&self, ranges: &[(usize, usize)]) -> Result<DenseTensor, QueryError> {
        validate_ranges(ranges, &self.header.dims)?;
        self.reconstruct_subtensor(&SubtensorSpec::from_ranges(ranges))
    }

    /// Reconstructs an arbitrary (possibly non-contiguous) subtensor,
    /// chunk-streamed.
    pub fn reconstruct_subtensor(&self, spec: &SubtensorSpec) -> Result<DenseTensor, QueryError> {
        validate_spec(spec, &self.header.dims)?;
        let ndims = self.header.ndims();
        let ranks = &self.header.ranks;
        let last = ndims - 1;
        let sub_factors: Vec<Matrix> = self
            .factors
            .iter()
            .enumerate()
            .map(|(n, u)| u.select_rows(spec.mode_indices(n)))
            .collect();
        let sub_dims = spec.sub_dims();
        // The eager reader's order, split at the last mode: the modes before
        // it run per chunk, the last mode folds the chunks together, the
        // modes after it run once on the folded tensor.
        let order = window_order(ranks, &sub_dims);
        let _span = window_span(&order);
        let mut parts = order.split(|&n| n == last);
        let per_chunk = parts.next().unwrap_or_default();
        let after_fold = parts.next().unwrap_or_default();
        // Shape of the folded tensor: the per-chunk modes at their window
        // extents, the others still at their ranks.
        let mut folded_dims = ranks.clone();
        for &n in per_chunk {
            folded_dims[n] = sub_dims[n];
        }
        folded_dims[last] = sub_dims[last];
        let mut out = DenseTensor::zeros(&folded_dims);
        // The mode-N unfolding of the folded tensor: row-major d_last × left.
        let left: usize = folded_dims[..last].iter().product();
        let d_last = sub_dims[last];
        let r_last = ranks[last];
        let core_stride: usize = ranks[..last].iter().product::<usize>().max(1);
        let u_last = &sub_factors[last];
        let chunk_dims = |wc: usize| -> Vec<usize> {
            let mut d = ranks.clone();
            d[last] = wc;
            d
        };

        self.for_each_chunk(|entry, data| {
            let wc = entry.len / core_stride;
            let s0 = entry.start / core_stride;
            // Contract the chunk in the per-chunk modes: bitwise the
            // last-mode slab [s0, s0+wc) of the eager reader's intermediate.
            // The first TTM reads the cached chunk where it lies.
            let mut contracted: Option<DenseTensor> = None;
            for &n in per_chunk {
                let u = &sub_factors[n];
                contracted = Some(match &contracted {
                    None => ttm_slice_ctx(
                        &self.ctx,
                        &chunk_dims(wc),
                        data,
                        u,
                        n,
                        TtmTranspose::NoTranspose,
                    ),
                    Some(cur) => ttm_ctx(&self.ctx, cur, u, n, TtmTranspose::NoTranspose),
                });
            }
            let cur = contracted.as_ref().map_or(data, DenseTensor::as_slice);
            if ndims == 1 {
                // Degenerate 1-way artifact: mirror the eager kernel's GEMM
                // orientation (chunk on the left, factor transposed) so even
                // exact-zero handling matches.
                gemm_slices(
                    Transpose::No,
                    Transpose::Yes,
                    1.0,
                    cur,
                    1,
                    wc,
                    wc,
                    &u_last.as_slice()[s0..],
                    d_last,
                    wc,
                    r_last,
                    1.0,
                    out.as_mut_slice(),
                    d_last,
                );
            } else {
                // out(d_last × left) += U_last[:, s0..s0+wc] · cur(wc × left):
                // the last mode's contraction dimension split at the chunk
                // boundary — the per-element running sum in `gemm_slices`
                // makes this bit-identical to the unsplit contraction.
                gemm_slices(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &u_last.as_slice()[s0..],
                    d_last,
                    wc,
                    r_last,
                    cur,
                    wc,
                    left,
                    left,
                    1.0,
                    out.as_mut_slice(),
                    left,
                );
            }
        })?;
        for &n in after_fold {
            out = ttm_ctx(
                &self.ctx,
                &out,
                &sub_factors[n],
                n,
                TtmTranspose::NoTranspose,
            );
        }
        Ok(out)
    }

    /// Reconstructs the single mode-`mode` slice at `idx`.
    pub fn reconstruct_slice(&self, mode: usize, idx: usize) -> Result<DenseTensor, QueryError> {
        validate_slice(mode, idx, &self.header.dims)?;
        let spec = SubtensorSpec::all(&self.header.dims).restrict_mode(mode, vec![idx]);
        self.reconstruct_subtensor(&spec)
    }

    /// Reconstructs the full field, chunk-streamed (byte-identical to the
    /// eager reader; only sensible when the *output* fits in memory).
    pub fn reconstruct(&self) -> Result<DenseTensor, QueryError> {
        self.reconstruct_subtensor(&SubtensorSpec::all(&self.header.dims))
    }

    /// Evaluates one element in `O(∏R_n)`, decoding only chunks not already
    /// cached — bit-identical to [`crate::TkrArtifact::element`], to the unit
    /// window [`TkrReader::reconstruct_range`] returns at `idx`, and to entry
    /// `idx` of [`TkrReader::reconstruct`] (one
    /// [`PointContraction`], fed chunk by chunk).
    pub fn element(&self, idx: &[usize]) -> Result<f64, QueryError> {
        Ok(self.elements(&[idx])?[0])
    }

    /// Batched element queries: every chunk is fetched at most once for the
    /// whole batch, and each value is bit-identical to
    /// [`TkrReader::element`] at that point, whatever the batch order.
    pub fn elements(&self, points: &[&[usize]]) -> Result<Vec<f64>, QueryError> {
        for p in points {
            validate_point(p, &self.header.dims)?;
        }
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let mut contraction = PointContraction::new(&self.factors, points);
        self.for_each_chunk(|_, data| contraction.accumulate(data))?;
        Ok(contraction.finish())
    }

    /// Materializes the whole decomposition — decodes every chunk once and
    /// hands back an eager [`crate::TkrArtifact`]-equivalent
    /// `TuckerTensor`. Escape hatch for callers that decide the core fits
    /// after all.
    pub fn into_tucker(self) -> Result<tucker_core::TuckerTensor, QueryError> {
        let mut core_data = tucker_exec::zeroed(self.core_total);
        self.for_each_chunk(|entry, data| {
            core_data[entry.start..entry.start + entry.len].copy_from_slice(data);
        })?;
        let core = DenseTensor::from_vec(&self.header.ranks, core_data);
        Ok(tucker_core::TuckerTensor::new(core, self.factors))
    }
}

impl std::fmt::Debug for TkrReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TkrReader")
            .field("dims", &self.header.dims)
            .field("ranks", &self.header.ranks)
            .field("chunks", &self.chunks.len())
            .field("decoded", &self.decoded_chunks())
            .finish()
    }
}

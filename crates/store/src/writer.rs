//! Streaming `.tkr` writer and the distributed gather-and-write path.
//!
//! [`TkrWriter`] is deliberately incremental: the header goes out first, then
//! factor blocks, then the core **chunk by chunk** (whole last-mode slabs, e.g.
//! one timestep at a time), then an end marker. Nothing requires the whole
//! core in memory at once, so a decomposition whose core is produced
//! timestep-by-timestep — or gathered piecewise from a distributed run — can
//! be serialized as it arrives. [`write_tucker_ctx`] writes an in-memory
//! [`TuckerTensor`]; [`gather_and_write`] funnels a [`DistTucker`] from any
//! processor grid into the same byte-identical format.
//!
//! Every entry point returns a [`StoreError`] and none panics: a request that
//! breaks the format contract (a bad header, a factor written twice, a chunk
//! that is not whole slabs, `finish` on an incomplete core) is a typed
//! [`FormatError`], and only a failing filesystem is [`StoreError::Io`].
//!
//! The writer tracks the exact squared error every quantized block
//! introduces and patches a first-order **relative reconstruction error
//! bound** into the header at [`TkrWriter::finish`]:
//!
//! ```text
//! ‖ΔX̃‖/‖X̃‖ ≲ ‖ΔG‖_F/‖G‖_F + Σ_n ‖ΔU⁽ⁿ⁾‖_F
//! ```
//!
//! (factors have orthonormal columns, so ‖X̃‖ = ‖G‖ and a factor
//! perturbation passes through the core at full strength). Callers check
//! `eps + quant_error_bound` against their error budget before shipping the
//! artifact.

use crate::codec::Codec;
use crate::error::{FormatError, StoreError};
use crate::format::{
    put_u32, put_u64, TkrHeader, TkrMetadata, QUANT_BOUND_OFFSET, TAG_CORE_CHUNK, TAG_END,
    TAG_FACTOR,
};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use tucker_core::dist::DistTucker;
use tucker_core::TuckerTensor;
use tucker_distmem::Communicator;
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;
use tucker_tensor::DenseTensor;

/// Target elements per core chunk used by [`write_tucker_ctx`] (whole slabs are
/// never split, so actual chunks may be larger when one slab exceeds this).
const CHUNK_TARGET_ELEMS: usize = 1 << 16;

/// Chunks per pool thread that a parallel encode/decode wave holds in memory
/// at once (bounds peak memory while keeping every thread busy).
const WAVE_CHUNKS_PER_THREAD: usize = 4;

/// How many core chunks one parallel codec wave processes on `ctx` — the
/// single sizing policy shared by the writer's encode waves and the
/// reader's decode waves, so their memory profiles stay in lockstep.
pub(crate) fn codec_wave_chunks(ctx: &ExecContext) -> usize {
    ctx.threads() * WAVE_CHUNKS_PER_THREAD
}

/// Encoding options for writing an artifact.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Value codec for factor and core blocks.
    pub codec: Codec,
    /// The ε the decomposition was computed with (recorded in the header so
    /// readers can report the total error budget).
    pub eps: f64,
    /// Provenance metadata.
    pub meta: TkrMetadata,
}

impl StoreOptions {
    /// Options with the given codec and ε and empty metadata.
    pub fn new(codec: Codec, eps: f64) -> Self {
        StoreOptions {
            codec,
            eps,
            meta: TkrMetadata::default(),
        }
    }

    /// Attaches metadata.
    pub fn with_meta(mut self, meta: TkrMetadata) -> Self {
        self.meta = meta;
        self
    }
}

/// What an encode produced: sizes and the error the codec introduced.
#[derive(Debug, Clone)]
pub struct EncodeReport {
    /// Total bytes written (header + blocks + end marker).
    pub bytes: u64,
    /// Number of stored values (core + factors), the paper's compression-ratio
    /// denominator.
    pub stored_values: usize,
    /// First-order relative reconstruction error added by the codec.
    pub quant_error_bound: f64,
    /// `‖ΔU⁽ⁿ⁾‖_F` per mode.
    pub factor_errors: Vec<f64>,
    /// `‖ΔG‖_F`.
    pub core_error: f64,
}

impl EncodeReport {
    /// Physical compression ratio versus the original field stored as raw
    /// `f64`: `8·∏I_n / bytes`.
    pub fn compression_ratio(&self, original_dims: &[usize]) -> f64 {
        let original_bytes = 8.0 * original_dims.iter().map(|&d| d as f64).product::<f64>();
        original_bytes / self.bytes as f64
    }
}

/// Incremental writer for one `.tkr` artifact.
pub struct TkrWriter<W: Write + Seek> {
    w: W,
    /// Stream position of the header's first byte (0 for a fresh file).
    base: u64,
    header: TkrHeader,
    factor_written: Vec<bool>,
    factor_errors: Vec<f64>,
    core_sq_err: f64,
    core_norm_sq: f64,
    core_elems_written: usize,
    core_total: usize,
    slab_stride: usize,
    bytes: u64,
}

impl TkrWriter<BufWriter<File>> {
    /// Creates the file and writes the header (with a zero quantization
    /// bound, patched at [`TkrWriter::finish`]). A structurally invalid
    /// header (zero extents or ranks, a rank exceeding its mode, metadata
    /// that does not fit the shape) is a typed [`FormatError`], found
    /// **before** the file is created, so a rejected request never truncates
    /// an existing artifact at `path`.
    pub fn create(path: impl AsRef<Path>, header: TkrHeader) -> Result<Self, StoreError> {
        header.validate()?;
        let file = File::create(path)?;
        TkrWriter::new(BufWriter::new(file), header)
    }
}

impl<W: Write + Seek> TkrWriter<W> {
    /// Wraps an arbitrary seekable sink and writes the header at the sink's
    /// **current** position (so a `.tkr` section can be embedded into a
    /// larger container; the finish-time patch is relative to that base).
    /// The header is validated as in [`TkrWriter::create`].
    pub fn new(mut w: W, mut header: TkrHeader) -> Result<Self, StoreError> {
        header.quant_error_bound = 0.0;
        let mut head = Vec::new();
        header.write_to(&mut head)?;
        let base = w.stream_position()?;
        w.write_all(&head)?;
        let ndims = header.ndims();
        let core_total: usize = header.ranks.iter().product();
        let slab_stride: usize = header.ranks[..ndims - 1].iter().product::<usize>().max(1);
        Ok(TkrWriter {
            w,
            base,
            header,
            factor_written: vec![false; ndims],
            factor_errors: vec![0.0; ndims],
            core_sq_err: 0.0,
            core_norm_sq: 0.0,
            core_elems_written: 0,
            core_total,
            slab_stride,
            bytes: head.len() as u64,
        })
    }

    /// Writes the factor matrix of `mode` (`I_n × R_n`), one codec block per
    /// column so quantization scales adapt per column. A factor for an
    /// out-of-range mode, a mode written twice, or a shape disagreeing with
    /// the header is a typed [`FormatError`], and nothing is written.
    pub fn write_factor(&mut self, mode: usize, u: &Matrix) -> Result<(), StoreError> {
        if mode >= self.header.ndims() {
            return Err(FormatError::ModeOutOfRange {
                mode,
                ndims: self.header.ndims(),
            }
            .into());
        }
        if self.factor_written[mode] {
            return Err(FormatError::FactorRewritten { mode }.into());
        }
        if (u.rows(), u.cols()) != (self.header.dims[mode], self.header.ranks[mode]) {
            return Err(FormatError::FactorShape {
                mode,
                rows: u.rows(),
                cols: u.cols(),
                dim: self.header.dims[mode],
                rank: self.header.ranks[mode],
            }
            .into());
        }
        let mut block = vec![TAG_FACTOR];
        put_u32(&mut block, mode as u32);
        put_u64(&mut block, u.rows() as u64);
        put_u64(&mut block, u.cols() as u64);
        let mut sq_err = 0.0;
        for j in 0..u.cols() {
            sq_err += self.header.codec.encode_block(&mut block, &u.col(j));
        }
        self.w.write_all(&block)?;
        self.bytes += block.len() as u64;
        self.factor_errors[mode] = sq_err.sqrt();
        self.factor_written[mode] = true;
        Ok(())
    }

    /// Appends the next run of whole last-mode core slabs (natural order).
    /// Chunks must arrive in order and cover the core exactly by
    /// [`TkrWriter::finish`] time. A zero-size chunk, a chunk that is not a
    /// whole number of last-mode slabs, or a chunk overrunning the declared
    /// core is a typed [`FormatError`], and nothing is written.
    pub fn write_core_chunk(&mut self, slab: &[f64]) -> Result<(), StoreError> {
        self.write_core_chunks_ctx(&[slab], &ExecContext::sequential())
    }

    /// The shared chunk contract: positive, slab-aligned, within the core.
    fn validate_chunk(&self, start: usize, slab: &[f64]) -> Result<(), FormatError> {
        if slab.is_empty() {
            return Err(FormatError::EmptyChunk);
        }
        if !slab.len().is_multiple_of(self.slab_stride) {
            return Err(FormatError::MisalignedChunk {
                len: slab.len(),
                stride: self.slab_stride,
            });
        }
        if start + slab.len() > self.core_total {
            return Err(FormatError::CoreOverrun {
                start,
                len: slab.len(),
                total: self.core_total,
            });
        }
        Ok(())
    }

    /// Writes a run of core chunks, encoding their payloads **in parallel**
    /// on `ctx` before streaming them out in order. Byte-for-byte identical
    /// to calling [`TkrWriter::write_core_chunk`] on each chunk in turn (the
    /// framing, the per-block quantization scales, and the error accounting
    /// all depend only on per-chunk data and the fixed chunk order). Every
    /// chunk is validated up front with the rules of
    /// [`TkrWriter::write_core_chunk`], so a bad chunk cannot leave earlier
    /// ones written.
    ///
    /// Encoding proceeds in bounded **waves** of a few chunks per pool
    /// thread, each wave written out before the next is encoded — peak
    /// memory stays at a handful of encoded chunks, preserving the streaming
    /// rationale of this writer even for cores much larger than RAM headroom.
    fn write_core_chunks_ctx(
        &mut self,
        chunks: &[&[f64]],
        ctx: &ExecContext,
    ) -> Result<(), StoreError> {
        let mut start = self.core_elems_written;
        let mut starts = Vec::with_capacity(chunks.len());
        for slab in chunks {
            self.validate_chunk(start, slab)?;
            starts.push(start);
            start += slab.len();
        }

        let codec = self.header.codec;
        let wave = codec_wave_chunks(ctx);
        let mut base = 0usize;
        while base < chunks.len() {
            let batch = &chunks[base..(base + wave).min(chunks.len())];
            let batch_starts = &starts[base..base + batch.len()];

            // Encode this wave's framed blocks off-stream; one slot per chunk.
            let mut encoded: Vec<(Vec<u8>, f64, f64)> =
                batch.iter().map(|_| Default::default()).collect();
            ctx.for_each_slot(&mut encoded, |i, slot| {
                let slab = batch[i];
                let mut block = Vec::with_capacity(17 + codec.block_bytes(slab.len()));
                block.push(TAG_CORE_CHUNK);
                put_u64(&mut block, batch_starts[i] as u64);
                put_u64(&mut block, slab.len() as u64);
                let sq_err = codec.encode_block(&mut block, slab);
                let norm_sq = slab.iter().map(|&v| v * v).sum::<f64>();
                *slot = (block, sq_err, norm_sq);
            });

            // Stream the wave and fold the accounting in chunk order, so the
            // on-disk bytes and the accumulated error sums match the
            // sequential path exactly.
            for ((block, sq_err, norm_sq), slab) in encoded.iter().zip(batch) {
                self.w.write_all(block)?;
                self.bytes += block.len() as u64;
                self.core_sq_err += sq_err;
                self.core_norm_sq += norm_sq;
                self.core_elems_written += slab.len();
            }
            base += batch.len();
        }
        Ok(())
    }

    /// Writes the end marker, patches the quantization-error bound into the
    /// header, flushes, and reports what was encoded. A missing factor or
    /// an incomplete core is a typed [`FormatError`] (and the end marker is
    /// not written).
    pub fn finish(mut self) -> Result<EncodeReport, StoreError> {
        for (n, &written) in self.factor_written.iter().enumerate() {
            if !written {
                return Err(FormatError::MissingFactor { mode: n }.into());
            }
        }
        if self.core_elems_written != self.core_total {
            return Err(FormatError::CoreIncomplete {
                written: self.core_elems_written,
                total: self.core_total,
            }
            .into());
        }
        let mut end = vec![TAG_END];
        put_u64(&mut end, self.core_total as u64);
        self.w.write_all(&end)?;
        self.bytes += end.len() as u64;

        let core_norm = self.core_norm_sq.sqrt();
        let core_error = self.core_sq_err.sqrt();
        let quant_error_bound = if core_norm > 0.0 {
            core_error / core_norm + self.factor_errors.iter().sum::<f64>()
        } else {
            0.0
        };
        self.w
            .seek(SeekFrom::Start(self.base + QUANT_BOUND_OFFSET))?;
        self.w.write_all(&quant_error_bound.to_le_bytes())?;
        self.w.flush()?;

        let stored_values = self.core_total
            + self
                .header
                .dims
                .iter()
                .zip(self.header.ranks.iter())
                .map(|(&d, &r)| d * r)
                .sum::<usize>();
        Ok(EncodeReport {
            bytes: self.bytes,
            stored_values,
            quant_error_bound,
            factor_errors: self.factor_errors,
            core_error,
        })
    }
}

/// Writes an in-memory Tucker decomposition to `path`, streaming the core in
/// bounded chunks of whole last-mode slabs: core chunks are codec-encoded
/// in parallel on `ctx`, then written in order — the produced file is
/// byte-identical for every thread count. A degenerate decomposition (zero
/// extents or ranks) or inconsistent metadata is a typed [`FormatError`],
/// found before `path` is created.
pub fn write_tucker_ctx(
    path: impl AsRef<Path>,
    t: &TuckerTensor,
    opts: &StoreOptions,
    ctx: &ExecContext,
) -> Result<EncodeReport, StoreError> {
    let header = TkrHeader {
        dims: t.original_dims(),
        ranks: t.ranks(),
        eps: opts.eps,
        codec: opts.codec,
        quant_error_bound: 0.0,
        meta: opts.meta.clone(),
    };
    let mut w = TkrWriter::create(path, header)?;
    for (n, u) in t.factors.iter().enumerate() {
        w.write_factor(n, u)?;
    }
    w.write_core_chunks_ctx(&core_slab_chunks(&t.core), ctx)?;
    w.finish()
}

/// Groups a core into runs of whole last-mode slabs of about
/// [`CHUNK_TARGET_ELEMS`] elements — the chunking policy of
/// [`write_tucker_ctx`].
fn core_slab_chunks(core: &DenseTensor) -> Vec<&[f64]> {
    let stride = core.last_mode_stride().max(1);
    let last = core.len() / stride;
    let slabs_per_chunk = (CHUNK_TARGET_ELEMS / stride).max(1);
    let mut chunks = Vec::with_capacity(last.div_ceil(slabs_per_chunk));
    let mut s = 0;
    while s < last {
        let len = slabs_per_chunk.min(last - s);
        chunks.push(core.last_mode_slab(s, len));
        s += len;
    }
    chunks
}

/// Distributed export (the paper's Sec. VI output step): gathers the
/// block-distributed core of a [`DistTucker`] onto rank 0 and writes the same
/// `.tkr` artifact a sequential run would produce. Every rank must call this;
/// rank 0 returns the report, all others `Ok(None)`.
pub fn gather_and_write(
    comm: &Communicator,
    t: &DistTucker,
    path: impl AsRef<Path>,
    opts: &StoreOptions,
) -> Result<Option<EncodeReport>, StoreError> {
    match t.gather_to_root(comm) {
        Some(tucker) => write_tucker_ctx(path, &tucker, opts, ExecContext::global()).map(Some),
        None => Ok(None),
    }
}

//! Opening `.tkr` artifacts and serving partial-reconstruction queries.
//!
//! [`TkrArtifact::open_ctx`] is the *eager* reader: one framing scan (shared
//! with the lazy [`crate::TkrReader`] — see [`crate::lazy`]), then every
//! core chunk decoded up front. Queries then never touch the original data
//! size: [`TkrArtifact::reconstruct_range`] /
//! [`TkrArtifact::reconstruct_subtensor`] contract the core against **row
//! subsets** of the factors in the window's mode order
//! (`tucker_core::ordering::window_order`: narrow modes first for a
//! hyperslice, so its cost scales with the requested window),
//! [`TkrArtifact::reconstruct_slice`] pulls one plane (one species, one
//! timestep), and [`TkrArtifact::element`] / [`TkrArtifact::elements`]
//! evaluate single entries in `O(∏R)` each through the one point-contraction
//! routine (`tucker_core::reconstruct::PointContraction`), bit-identical to
//! the same entries of the unit window and of the full reconstruction — the
//! laptop-scale analysis workflow the paper motivates in Secs. II-C and VII.
//!
//! Degenerate requests (wrong arity, empty or out-of-range windows, bad
//! indices) return a typed [`QueryError`] instead of panicking; the lazy
//! reader validates identically.

use crate::codec::Codec;
use crate::error::StoreError;
use crate::format::read_error;
use crate::lazy::{read_chunk, scan_artifact, ChunkEntry, ScannedArtifact};
use crate::query::{validate_point, validate_ranges, validate_slice, validate_spec, QueryError};
use crate::writer::codec_wave_chunks;
use std::fs::File;
use std::io;
use std::path::Path;
use tucker_core::reconstruct::{
    reconstruct_elements, reconstruct_slice, reconstruct_subtensor_ctx,
};
use tucker_core::TuckerTensor;
use tucker_exec::ExecContext;
use tucker_tensor::{DenseTensor, SubtensorSpec};

/// An opened `.tkr` artifact: parsed header plus the decoded decomposition.
///
/// The context passed to [`TkrArtifact::open_ctx`] only decodes the core;
/// the artifact keeps no context, so every query afterwards
/// (`reconstruct`, windows, slices) computes on the global pool, whatever
/// budget the artifact was opened with; point queries run on the calling
/// thread. The lazy [`crate::TkrReader`] instead keeps its context and runs
/// both chunk decoding and window contractions on it.
#[derive(Debug, Clone)]
pub struct TkrArtifact {
    header: crate::format::TkrHeader,
    tucker: TuckerTensor,
    file_bytes: u64,
}

impl TkrArtifact {
    /// Opens and fully validates an artifact, decoding on `ctx`: the shared
    /// scan pass reads and validates the framing and builds the chunk
    /// directory, then every core chunk is codec-decoded in parallel waves
    /// into its disjoint range of the core. Decoded values are bit-identical
    /// for every thread count. The eager reader is exactly the lazy reader's
    /// scan plus a decode-everything pass — one code path validates both. A
    /// corrupt or truncated artifact is a [`StoreError::Format`]; only a
    /// failing filesystem is [`StoreError::Io`].
    pub fn open_ctx(path: impl AsRef<Path>, ctx: &ExecContext) -> Result<TkrArtifact, StoreError> {
        let ScannedArtifact {
            header,
            factors,
            chunks,
            core_total,
            file,
            file_bytes,
        } = scan_artifact(path)?;
        let mut core_data = tucker_exec::zeroed(core_total);
        decode_all_chunks(header.codec, ctx, &chunks, &file, &mut core_data)?;
        let core = DenseTensor::from_vec(&header.ranks, core_data);
        Ok(TkrArtifact {
            tucker: TuckerTensor::new(core, factors),
            header,
            file_bytes,
        })
    }

    /// The parsed header (shape, ranks, ε, codec, quantization bound,
    /// metadata).
    pub fn header(&self) -> &crate::format::TkrHeader {
        &self.header
    }

    /// The decoded decomposition.
    pub fn tucker(&self) -> &TuckerTensor {
        &self.tucker
    }

    /// Consumes the artifact, returning the decomposition.
    pub fn into_tucker(self) -> TuckerTensor {
        self.tucker
    }

    /// Total declared relative error budget: decomposition ε plus the codec's
    /// quantization bound.
    pub fn error_budget(&self) -> f64 {
        self.header.error_budget()
    }

    /// Physical compression ratio: original field as raw `f64` bytes over the
    /// artifact's file size.
    pub fn compression_ratio(&self) -> f64 {
        let original = 8.0 * self.header.dims.iter().map(|&d| d as f64).product::<f64>();
        original / self.file_bytes as f64
    }

    /// The artifact's size on disk in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Reconstructs the full field (only sensible when it fits in memory).
    pub fn reconstruct(&self) -> DenseTensor {
        self.tucker.reconstruct_ctx(ExecContext::global())
    }

    /// Reconstructs the window given by per-mode `(start, len)` ranges without
    /// materializing anything outside it. Degenerate windows (wrong arity,
    /// empty or out-of-range) return a typed error.
    pub fn reconstruct_range(&self, ranges: &[(usize, usize)]) -> Result<DenseTensor, QueryError> {
        validate_ranges(ranges, &self.header.dims)?;
        self.reconstruct_subtensor(&SubtensorSpec::from_ranges(ranges))
    }

    /// Reconstructs an arbitrary (possibly non-contiguous) subtensor.
    pub fn reconstruct_subtensor(&self, spec: &SubtensorSpec) -> Result<DenseTensor, QueryError> {
        validate_spec(spec, &self.header.dims)?;
        Ok(reconstruct_subtensor_ctx(
            &self.tucker,
            spec,
            ExecContext::global(),
        ))
    }

    /// Reconstructs the single mode-`mode` slice at `idx` (one species, one
    /// timestep, one grid plane).
    pub fn reconstruct_slice(&self, mode: usize, idx: usize) -> Result<DenseTensor, QueryError> {
        validate_slice(mode, idx, &self.header.dims)?;
        Ok(reconstruct_slice(&self.tucker, mode, idx))
    }

    /// Evaluates one element in `O(∏R_n)` — bit-identical to the unit window
    /// [`TkrArtifact::reconstruct_range`] returns at `idx` and to entry `idx`
    /// of [`TkrArtifact::reconstruct`].
    pub fn element(&self, idx: &[usize]) -> Result<f64, QueryError> {
        Ok(self.elements(&[idx])?[0])
    }

    /// Batched element queries: each value is bit-identical to
    /// [`TkrArtifact::element`] at that point, whatever the batch order.
    pub fn elements(&self, points: &[&[usize]]) -> Result<Vec<f64>, QueryError> {
        for p in points {
            validate_point(p, &self.header.dims)?;
        }
        Ok(reconstruct_elements(&self.tucker, points))
    }
}

/// Decodes every chunk of a scanned artifact into `core_data`, in waves of a
/// few chunks per pool thread: each chunk is fetched and decoded straight
/// into its (disjoint) core range, in parallel, through a payload buffer
/// reused from wave to wave — no more than one wave of encoded payloads is
/// ever held alongside the decoded core.
fn decode_all_chunks(
    codec: Codec,
    ctx: &ExecContext,
    chunks: &[ChunkEntry],
    file: &File,
    core_data: &mut [f64],
) -> Result<(), StoreError> {
    /// One chunk of a wave: where it comes from, where it decodes to.
    struct Slot<'a> {
        entry: &'a ChunkEntry,
        payload: &'a mut Vec<u8>,
        dst: &'a mut [f64],
        read: io::Result<()>,
    }
    let wave = codec_wave_chunks(ctx).max(1);
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); wave.min(chunks.len())];
    // The scan pass checked that the chunks tile the core in order.
    let mut rest = core_data;
    for batch in chunks.chunks(wave) {
        let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
        for (entry, payload) in batch.iter().zip(payloads.iter_mut()) {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(entry.len);
            rest = tail;
            slots.push(Slot {
                entry,
                payload,
                dst,
                read: Ok(()),
            });
        }
        ctx.for_each_slot(&mut slots, |_, s| {
            s.read = read_chunk(file, codec, s.entry, s.payload, s.dst);
        });
        for slot in slots {
            slot.read.map_err(read_error)?;
        }
    }
    Ok(())
}

//! The `.tkr` container format: header layout and low-level field IO.
//!
//! A `.tkr` file is a durable Tucker decomposition — the artifact the paper's
//! pipeline ultimately produces (Secs. V–VII): compress once on the big
//! machine, then ship the small file to an analyst who reconstructs only what
//! they need. The layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "TKR1"
//! 4       2     format version (= 1)
//! 6       1     codec id (0 = f64, 1 = f32, 2 = q16)
//! 7       1     normalization flag (0 = absent, 1 = present)
//! 8       4     ndims N (u32)
//! 12      4     reserved (0)
//! 16      8     eps — the ε the decomposition was built with (f64)
//! 24      8     quant_error_bound — relative reconstruction error added by
//!               the codec (f64; patched by the writer at finish())
//! 32      16·N  per mode: original dim I_n (u64), rank R_n (u64)
//! ...           metadata: dataset label, mode labels, normalization stats
//! ...           blocks: N factor blocks, then core chunks, then end marker
//! ```
//!
//! Metadata encoding: strings are `u32` length + UTF-8 bytes; the label list
//! is a `u32` count followed by that many strings; normalization (if the flag
//! is set) is `u32 mode`, `u32 count`, `count` means then `count` stds as
//! `f64`. Block encoding is defined in [`crate::writer`]: a tag byte
//! ([`TAG_FACTOR`], [`TAG_CORE_CHUNK`], [`TAG_END`]) followed by tag-specific
//! fields and a codec payload ([`crate::codec::Codec`]).
//!
//! Versioning contract: the magic never changes; readers must reject files
//! whose version or codec id they do not know; all growth happens by bumping
//! the version or appending new tagged blocks (unknown tags are an error, not
//! silently skipped, because every block affects the reconstruction).

use crate::codec::Codec;
use crate::error::{FormatError, StoreError};
use std::io::{self, Read};
use tucker_scidata::{GeneratedDataset, Normalization};

/// Upper bound on the tensor order a header may declare — far above any real
/// tensor, low enough that a corrupt `ndims` cannot drive giant allocations.
pub const MAX_NDIMS: usize = 64;
/// Upper bound on header strings (see `read_string`).
const MAX_STRING_LEN: usize = 1 << 20;
/// Upper bound on normalization slice count (the species mode size).
const MAX_NORM_SLICES: usize = 1 << 24;
/// Upper bound on declared core elements (`∏ R_n`); a corrupt header must
/// fail with a [`FormatError`], not a 100-GB allocation in the reader.
pub const MAX_CORE_ELEMS: u64 = 1 << 40;

/// File magic, first 4 bytes of every `.tkr` file.
pub const MAGIC: &[u8; 4] = b"TKR1";
/// Current format version.
pub const VERSION: u16 = 1;
/// Byte offset of the `quant_error_bound` field (patched at `finish()`).
pub const QUANT_BOUND_OFFSET: u64 = 24;

/// Block tag: a factor matrix `U⁽ⁿ⁾`.
pub const TAG_FACTOR: u8 = 0x01;
/// Block tag: a chunk of the core tensor (a run of last-mode slabs).
pub const TAG_CORE_CHUNK: u8 = 0x02;
/// Block tag: end marker carrying the total core element count.
pub const TAG_END: u8 = 0xFF;

/// Free-form provenance recorded in the header.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TkrMetadata {
    /// Dataset label (e.g. `"SP"`), empty if unknown.
    pub dataset: String,
    /// Human-readable label per mode (may be empty).
    pub mode_labels: Vec<String>,
    /// Per-species normalization statistics (Sec. VII-A), if the data was
    /// normalized before compression, so an analyst can undo the
    /// centering/scaling directly from the artifact. The on-disk schema is
    /// fixed by this module (mode, count, means, stds), independent of the
    /// in-memory type.
    pub normalization: Option<Normalization>,
}

impl TkrMetadata {
    /// Captures the provenance of a generated surrogate dataset.
    pub fn for_dataset(ds: &GeneratedDataset) -> Self {
        TkrMetadata {
            dataset: ds.preset.name().to_string(),
            mode_labels: ds.mode_labels.clone(),
            normalization: Some(ds.normalization.clone()),
        }
    }

    /// Validates this metadata against a tensor order, with the same rules
    /// the header serializer enforces — so callers can reject a malformed
    /// request *before* any file is created or any kernel runs.
    pub fn validate(&self, ndims: usize) -> Result<(), FormatError> {
        if !self.mode_labels.is_empty() && self.mode_labels.len() != ndims {
            return Err(FormatError::Invalid(format!(
                "{} mode labels for a {}-mode tensor (must be absent or one per mode)",
                self.mode_labels.len(),
                ndims
            )));
        }
        // Mirror of the read-side guard: never produce a file our own reader
        // refuses to open.
        for s in std::iter::once(&self.dataset).chain(&self.mode_labels) {
            if s.len() > MAX_STRING_LEN {
                return Err(FormatError::Invalid(format!(
                    "header string of {} bytes exceeds the {MAX_STRING_LEN}-byte limit",
                    s.len()
                )));
            }
        }
        if let Some(n) = &self.normalization {
            if n.means.len() != n.stds.len() {
                return Err(FormatError::Invalid(format!(
                    "normalization has {} means but {} stds",
                    n.means.len(),
                    n.stds.len()
                )));
            }
            if n.mode >= ndims || n.means.len() > MAX_NORM_SLICES {
                return Err(FormatError::Invalid(format!(
                    "normalization mode {} / {} slices invalid for a {}-mode tensor",
                    n.mode,
                    n.means.len(),
                    ndims
                )));
            }
        }
        Ok(())
    }
}

/// The parsed fixed header of a `.tkr` file.
#[derive(Debug, Clone, PartialEq)]
pub struct TkrHeader {
    /// Original tensor dimensions `I_1, …, I_N`.
    pub dims: Vec<usize>,
    /// Core dimensions `R_1, …, R_N`.
    pub ranks: Vec<usize>,
    /// The ε tolerance the decomposition was computed with (0 if rank-driven).
    pub eps: f64,
    /// Codec used for every factor and core block.
    pub codec: Codec,
    /// Relative reconstruction error added by the codec (first-order bound;
    /// 0 until the writer's `finish()` patches it).
    pub quant_error_bound: f64,
    /// Provenance metadata.
    pub meta: TkrMetadata,
}

impl TkrHeader {
    /// Total declared error budget of the artifact: the decomposition ε plus
    /// the codec's quantization bound.
    pub fn error_budget(&self) -> f64 {
        self.eps + self.quant_error_bound
    }

    /// Number of modes.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Checks the header against the container contract: a sane tensor
    /// order, matching dims/ranks arity, no zero extents or ranks, no rank
    /// exceeding its mode's extent, and metadata consistent with the shape.
    /// This is the one check of the write side: a header that passes here
    /// serializes, and [`crate::TkrWriter::create`] runs it before the file
    /// is created, so a rejected request never touches the destination.
    pub(crate) fn validate(&self) -> Result<(), FormatError> {
        if self.dims.is_empty() || self.dims.len() > MAX_NDIMS {
            return Err(FormatError::Invalid(format!(
                "tensor order {} outside 1..={MAX_NDIMS}",
                self.dims.len()
            )));
        }
        if self.dims.len() != self.ranks.len() {
            return Err(FormatError::DimsRanksArity {
                dims: self.dims.len(),
                ranks: self.ranks.len(),
            });
        }
        self.meta.validate(self.dims.len())?;
        for (mode, (&d, &r)) in self.dims.iter().zip(self.ranks.iter()).enumerate() {
            if d == 0 {
                return Err(FormatError::ZeroDim { mode });
            }
            if r == 0 {
                return Err(FormatError::ZeroRank { mode });
            }
            if r > d {
                return Err(FormatError::RankExceedsDim {
                    mode,
                    rank: r,
                    dim: d,
                });
            }
        }
        Ok(())
    }

    /// Appends the serialized header (with `quant_error_bound` as currently
    /// set) to `out`. The header is first checked against the container
    /// contract (shape, ranks, metadata); nothing is appended if it is
    /// rejected.
    pub fn write_to(&self, out: &mut Vec<u8>) -> Result<(), FormatError> {
        self.validate()?;
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.codec.id());
        out.push(u8::from(self.meta.normalization.is_some()));
        put_u32(out, self.dims.len() as u32);
        put_u32(out, 0); // reserved
        out.extend_from_slice(&self.eps.to_le_bytes());
        out.extend_from_slice(&self.quant_error_bound.to_le_bytes());
        for (&d, &r) in self.dims.iter().zip(self.ranks.iter()) {
            put_u64(out, d as u64);
            put_u64(out, r as u64);
        }
        put_string(out, &self.meta.dataset);
        put_u32(out, self.meta.mode_labels.len() as u32);
        for label in &self.meta.mode_labels {
            put_string(out, label);
        }
        if let Some(n) = &self.meta.normalization {
            put_u32(out, n.mode as u32);
            put_u32(out, n.means.len() as u32);
            for &v in n.means.iter().chain(&n.stds) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Parses a header, validating magic, version, and codec.
    pub fn read_from(r: &mut impl Read) -> Result<TkrHeader, StoreError> {
        let mut magic = [0u8; 4];
        read_exact(r, &mut magic)?;
        if &magic != MAGIC {
            return Err(FormatError::Invalid("not a .tkr file (bad magic)".to_string()).into());
        }
        let mut v = [0u8; 2];
        read_exact(r, &mut v)?;
        let version = u16::from_le_bytes(v);
        if version != VERSION {
            return Err(FormatError::Invalid(format!(
                "unsupported .tkr version {version} (reader supports {VERSION})"
            ))
            .into());
        }
        let mut b = [0u8; 1];
        read_exact(r, &mut b)?;
        let codec = Codec::from_id(b[0])?;
        read_exact(r, &mut b)?;
        let has_norm = match b[0] {
            0 => false,
            1 => true,
            x => return Err(FormatError::Invalid(format!("bad normalization flag {x}")).into()),
        };
        let ndims = read_u32(r)? as usize;
        if ndims == 0 || ndims > MAX_NDIMS {
            return Err(FormatError::Invalid(format!(
                "tensor order {ndims} outside 1..={MAX_NDIMS}"
            ))
            .into());
        }
        let _reserved = read_u32(r)?;
        let eps = read_f64(r)?;
        let quant_error_bound = read_f64(r)?;
        let mut dims = Vec::with_capacity(ndims);
        let mut ranks = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            dims.push(read_u64(r)? as usize);
            ranks.push(read_u64(r)? as usize);
        }
        let mut core_elems: u64 = 1;
        for (n, (&d, &rk)) in dims.iter().zip(ranks.iter()).enumerate() {
            if d == 0 || rk == 0 || rk > d {
                return Err(FormatError::Invalid(format!(
                    "mode {n}: invalid dim {d} / rank {rk} pair"
                ))
                .into());
            }
            // Checked: a corrupt header must not overflow the core size the
            // reader allocates from, nor declare an absurd allocation.
            core_elems = core_elems
                .checked_mul(rk as u64)
                .filter(|&c| c <= MAX_CORE_ELEMS)
                .ok_or_else(|| {
                    FormatError::Invalid(
                        "declared core size overflows the reader's limit".to_string(),
                    )
                })?;
        }
        let dataset = read_string(r)?;
        let nlabels = read_u32(r)? as usize;
        if nlabels != 0 && nlabels != ndims {
            return Err(FormatError::Invalid(format!(
                "{nlabels} mode labels for a {ndims}-mode tensor"
            ))
            .into());
        }
        let mut mode_labels = Vec::with_capacity(nlabels);
        for _ in 0..nlabels {
            mode_labels.push(read_string(r)?);
        }
        let normalization = if has_norm {
            let mode = read_u32(r)? as usize;
            let count = read_u32(r)? as usize;
            if mode >= ndims || count > MAX_NORM_SLICES {
                return Err(FormatError::Invalid(
                    "unreasonable normalization statistics".to_string(),
                )
                .into());
            }
            let mut means = Vec::with_capacity(count);
            for _ in 0..count {
                means.push(read_f64(r)?);
            }
            let mut stds = Vec::with_capacity(count);
            for _ in 0..count {
                stds.push(read_f64(r)?);
            }
            Some(Normalization { mode, means, stds })
        } else {
            None
        };
        Ok(TkrHeader {
            dims,
            ranks,
            eps,
            codec,
            quant_error_bound,
            meta: TkrMetadata {
                dataset,
                mode_labels,
                normalization,
            },
        })
    }
}

/// Classifies an IO error from reading an artifact: a short read
/// (`UnexpectedEof`) means the file ends before its framing says it does —
/// a truncated artifact, so a [`FormatError`]. Every other error (not found,
/// permission, `EIO`) is a filesystem failure and stays [`StoreError::Io`].
pub(crate) fn read_error(e: io::Error) -> StoreError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FormatError::Invalid(format!("truncated artifact: {e}")).into()
    } else {
        StoreError::Io(e)
    }
}

/// Fills `buf` from the artifact: the one read of the framing, classified
/// by [`read_error`].
pub(crate) fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(read_error)
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn read_u32(r: &mut impl Read) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> Result<f64, StoreError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(r: &mut impl Read) -> Result<String, StoreError> {
    let len = read_u32(r)? as usize;
    if len > MAX_STRING_LEN {
        return Err(
            FormatError::Invalid("unreasonable string length in header".to_string()).into(),
        );
    }
    let mut buf = vec![0u8; len];
    read_exact(r, &mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| FormatError::Invalid("header string is not UTF-8".to_string()).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::assert_invalid;
    use std::io::Cursor;

    fn sample_header() -> TkrHeader {
        TkrHeader {
            dims: vec![48, 48, 16, 40],
            ranks: vec![17, 17, 5, 10],
            eps: 1e-3,
            codec: Codec::Q16,
            quant_error_bound: 2.5e-5,
            meta: TkrMetadata {
                dataset: "HCCI".to_string(),
                mode_labels: vec![
                    "Spatial 1".into(),
                    "Spatial 2".into(),
                    "Species".into(),
                    "Time".into(),
                ],
                normalization: Some(Normalization {
                    mode: 2,
                    means: vec![0.1, -0.2, 0.3],
                    stds: vec![1.0, 2.0, 0.5],
                }),
            },
        }
    }

    #[test]
    fn header_round_trip() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        let back = TkrHeader::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, h);
        assert!((back.error_budget() - (1e-3 + 2.5e-5)).abs() < 1e-18);
    }

    #[test]
    fn header_without_normalization() {
        let mut h = sample_header();
        h.meta.normalization = None;
        h.meta.dataset = String::new();
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        let back = TkrHeader::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert_invalid(TkrHeader::read_from(&mut Cursor::new(buf)), "bad magic");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        buf[4] = 99;
        assert_invalid(TkrHeader::read_from(&mut Cursor::new(buf)), "version 99");
    }

    #[test]
    fn unknown_codec_id_is_a_codec_error() {
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        buf[6] = 42;
        assert!(matches!(
            TkrHeader::read_from(&mut Cursor::new(buf)),
            Err(StoreError::Codec(crate::error::CodecError::UnknownId(42)))
        ));
    }

    #[test]
    fn rank_exceeding_dim_is_rejected() {
        // The writer refuses it before serializing anything…
        let mut h = sample_header();
        h.ranks[0] = h.dims[0] + 1;
        let mut buf = Vec::new();
        assert_eq!(
            h.write_to(&mut buf),
            Err(FormatError::RankExceedsDim {
                mode: 0,
                rank: 49,
                dim: 48
            })
        );
        assert!(buf.is_empty());
        // …and the reader refuses a file that declares it anyway.
        sample_header().write_to(&mut buf).unwrap();
        buf[40..48].copy_from_slice(&49u64.to_le_bytes()); // mode 0's rank
        assert_invalid(TkrHeader::read_from(&mut Cursor::new(buf)), "rank 49");
    }

    #[test]
    fn every_truncated_header_is_a_format_error() {
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert_invalid(
                TkrHeader::read_from(&mut Cursor::new(&buf[..cut])),
                "truncated artifact",
            );
        }
    }

    #[test]
    fn quant_bound_offset_matches_layout() {
        // The writer patches the bound in place at finish(); the constant must
        // point at the field the reader parses.
        let mut h = sample_header();
        h.quant_error_bound = 0.0;
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        let patched = 7.5e-6f64;
        buf[QUANT_BOUND_OFFSET as usize..QUANT_BOUND_OFFSET as usize + 8]
            .copy_from_slice(&patched.to_le_bytes());
        let back = TkrHeader::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back.quant_error_bound, patched);
    }

    #[test]
    fn oversized_header_fields_are_rejected_at_write_time() {
        // A label too large for the reader must fail when writing, not
        // produce an artifact our own reader refuses to open.
        let mut h = sample_header();
        h.meta.dataset = "x".repeat((1 << 20) + 1);
        let mut buf = Vec::new();
        assert!(matches!(h.write_to(&mut buf), Err(FormatError::Invalid(_))));

        let mut h = sample_header();
        h.dims = vec![2; MAX_NDIMS + 1];
        h.ranks = vec![1; MAX_NDIMS + 1];
        assert!(matches!(h.write_to(&mut buf), Err(FormatError::Invalid(_))));
        assert!(buf.is_empty());
    }

    #[test]
    fn mismatched_arity_and_normalization_are_rejected_at_write_time() {
        let mut h = sample_header();
        h.ranks.pop();
        let mut buf = Vec::new();
        assert_eq!(
            h.write_to(&mut buf),
            Err(FormatError::DimsRanksArity { dims: 4, ranks: 3 })
        );
        let mut h = sample_header();
        h.meta.normalization.as_mut().unwrap().stds.pop();
        assert!(matches!(h.write_to(&mut buf), Err(FormatError::Invalid(_))));
        assert!(buf.is_empty());
    }

    #[test]
    fn out_of_range_normalization_mode_is_rejected_at_write_time() {
        let mut h = sample_header();
        h.meta.normalization.as_mut().unwrap().mode = h.dims.len();
        let mut buf = Vec::new();
        assert!(matches!(h.write_to(&mut buf), Err(FormatError::Invalid(_))));
    }

    #[test]
    fn absurd_declared_core_size_is_rejected() {
        // ranks whose product overflows u64 pass the per-mode rk <= d check
        // but must still be rejected, not wrapped into a tiny allocation.
        let h = sample_header();
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        // Patch every dim/rank pair (starting at offset 32) to 2^32.
        let big = (1u64 << 32).to_le_bytes();
        for n in 0..h.dims.len() {
            let off = 32 + 16 * n;
            buf[off..off + 8].copy_from_slice(&big);
            buf[off + 8..off + 16].copy_from_slice(&big);
        }
        assert_invalid(
            TkrHeader::read_from(&mut Cursor::new(buf)),
            "declared core size",
        );
    }

    #[test]
    fn huge_declared_ndims_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_invalid(TkrHeader::read_from(&mut Cursor::new(buf)), "tensor order");
    }
}

//! Value codecs for `.tkr` payload blocks.
//!
//! The Tucker model is already the big compression win (the paper's Tab. II
//! ratios); the codec layer stacks a further 2–4× on top by storing the
//! factor matrices and core in less than full double precision:
//!
//! * [`Codec::F64`] — lossless: raw little-endian `f64` (8 bytes/value).
//! * [`Codec::F32`] — round to single precision (4 bytes/value, relative
//!   error ~1e-7 per value).
//! * [`Codec::Q16`] — scaled 16-bit integers (2 bytes/value + one `f64`
//!   scale per block, relative error ~3e-5 of the block's max magnitude).
//!
//! A **block** is one factor-matrix column or one core chunk; quantized
//!   blocks carry their own scale factor, so a column with small entries is
//!   not crushed by a large one elsewhere. Every encode reports the exact
//!   squared error it introduced, which the writer accumulates into the
//!   artifact's quantization-error bound (checked against the ε budget).

use crate::error::CodecError;
use tucker_obs::metrics::Counter;

/// Codec throughput accounting (see `tucker-obs`): blocks and on-disk
/// payload bytes, counted once per successful encode/decode.
static ENCODE_BLOCKS: Counter = Counter::new("store.encode.blocks");
static ENCODE_BYTES: Counter = Counter::new("store.encode.bytes");
static DECODE_BLOCKS: Counter = Counter::new("store.decode.blocks");
static DECODE_BYTES: Counter = Counter::new("store.decode.bytes");

/// Scale such that the largest magnitude maps to the largest `i16`.
const Q16_MAX: f64 = i16::MAX as f64;

/// How the `f64` values of a payload block are encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Raw little-endian `f64` — bit-exact round trip.
    F64,
    /// Little-endian `f32` — halves storage at ~1e-7 relative error.
    F32,
    /// Scaled `i16` with one `f64` scale per block — quarters storage at
    /// ~3e-5 relative error of the block's max magnitude.
    Q16,
}

impl Codec {
    /// All codecs, for sweeps and tests.
    pub fn all() -> [Codec; 3] {
        [Codec::F64, Codec::F32, Codec::Q16]
    }

    /// Stable on-disk identifier.
    pub fn id(&self) -> u8 {
        match self {
            Codec::F64 => 0,
            Codec::F32 => 1,
            Codec::Q16 => 2,
        }
    }

    /// Inverse of [`Codec::id`].
    pub fn from_id(id: u8) -> Result<Codec, CodecError> {
        match id {
            0 => Ok(Codec::F64),
            1 => Ok(Codec::F32),
            2 => Ok(Codec::Q16),
            _ => Err(CodecError::UnknownId(id)),
        }
    }

    /// Display name (for tables).
    pub fn name(&self) -> &'static str {
        match self {
            Codec::F64 => "f64",
            Codec::F32 => "f32",
            Codec::Q16 => "q16",
        }
    }

    /// Payload bytes per value (excluding the per-block scale of `Q16`).
    pub fn bytes_per_value(&self) -> usize {
        match self {
            Codec::F64 => 8,
            Codec::F32 => 4,
            Codec::Q16 => 2,
        }
    }

    /// Appends the encoding of one block of values to `out`, returning the
    /// squared error introduced.
    ///
    /// The on-disk layout is `[scale: f64]` (Q16 only) followed by the packed
    /// values; the caller is responsible for recording the block length.
    pub fn encode_block(&self, out: &mut Vec<u8>, values: &[f64]) -> f64 {
        let mut sq_err = 0.0;
        out.reserve(self.block_bytes(values.len()));
        match self {
            Codec::F64 => {
                for &v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Codec::F32 => {
                for &v in values {
                    let q = v as f32;
                    sq_err += (v - q as f64) * (v - q as f64);
                    out.extend_from_slice(&q.to_le_bytes());
                }
            }
            Codec::Q16 => {
                let max_abs = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                let scale = if max_abs > 0.0 {
                    max_abs / Q16_MAX
                } else {
                    0.0
                };
                out.extend_from_slice(&scale.to_le_bytes());
                for &v in values {
                    let q = if scale > 0.0 {
                        (v / scale).round().clamp(-Q16_MAX, Q16_MAX) as i16
                    } else {
                        0
                    };
                    let back = q as f64 * scale;
                    sq_err += (v - back) * (v - back);
                    out.extend_from_slice(&q.to_le_bytes());
                }
            }
        }
        ENCODE_BLOCKS.inc();
        ENCODE_BYTES.add(self.block_bytes(values.len()) as u64);
        sq_err
    }

    /// Decodes an in-memory block payload (the [`Codec::block_bytes`] bytes
    /// [`Codec::encode_block`] wrote for `out.len()` values) into `out`.
    ///
    /// Total: with the payload already in memory nothing can fail. A payload
    /// of the wrong size decodes the values both sides have and leaves the
    /// rest of `out` untouched; callers size both from the same length.
    pub fn decode_into(&self, payload: &[u8], out: &mut [f64]) {
        match self {
            Codec::F64 => {
                for (o, b) in out.iter_mut().zip(payload.as_chunks::<8>().0) {
                    *o = f64::from_le_bytes(*b);
                }
            }
            Codec::F32 => {
                for (o, b) in out.iter_mut().zip(payload.as_chunks::<4>().0) {
                    *o = f32::from_le_bytes(*b) as f64;
                }
            }
            Codec::Q16 => {
                let Some((scale, body)) = payload.split_first_chunk::<8>() else {
                    return;
                };
                let scale = f64::from_le_bytes(*scale);
                for (o, b) in out.iter_mut().zip(body.as_chunks::<2>().0) {
                    *o = i16::from_le_bytes(*b) as f64 * scale;
                }
            }
        }
        DECODE_BLOCKS.inc();
        DECODE_BYTES.add(self.block_bytes(out.len()) as u64);
    }

    /// On-disk payload size of a block of `len` values.
    pub fn block_bytes(&self, len: usize) -> usize {
        let scale = if *self == Codec::Q16 { 8 } else { 0 };
        scale + len * self.bytes_per_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(codec: Codec, values: &[f64]) -> (Vec<f64>, f64) {
        let mut buf = Vec::new();
        let sq_err = codec.encode_block(&mut buf, values);
        assert_eq!(buf.len(), codec.block_bytes(values.len()));
        let mut decoded = vec![f64::NAN; values.len()];
        codec.decode_into(&buf, &mut decoded);
        (decoded, sq_err)
    }

    #[test]
    #[expect(
        clippy::approx_constant,
        reason = "3.14159 is a sample value to round-trip, not π"
    )]
    fn f64_is_bit_exact() {
        let values = [1.0, -2.5, 1e-300, f64::MIN_POSITIVE, 0.0, 3.14159];
        let (decoded, sq_err) = round_trip(Codec::F64, &values);
        assert_eq!(decoded, values);
        assert_eq!(sq_err, 0.0);
    }

    #[test]
    fn f32_error_is_single_precision() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let (decoded, sq_err) = round_trip(Codec::F32, &values);
        let actual: f64 = values
            .iter()
            .zip(&decoded)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!((sq_err - actual).abs() < 1e-30);
        for (a, b) in values.iter().zip(&decoded) {
            assert!((a - b).abs() <= 1e-7 * a.abs().max(1e-30));
        }
    }

    #[test]
    fn q16_error_is_bounded_by_half_step() {
        let values: Vec<f64> = (0..257).map(|i| (i as f64 * 0.11).cos() * 5.0).collect();
        let (decoded, sq_err) = round_trip(Codec::Q16, &values);
        let max_abs = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let step = max_abs / i16::MAX as f64;
        let actual: f64 = values
            .iter()
            .zip(&decoded)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!((sq_err - actual).abs() < 1e-20);
        for (a, b) in values.iter().zip(&decoded) {
            assert!((a - b).abs() <= 0.5 * step + 1e-12);
        }
    }

    #[test]
    fn decode_into_is_total_on_mis_sized_payloads() {
        for codec in Codec::all() {
            let mut buf = Vec::new();
            codec.encode_block(&mut buf, &[1.5, -2.25, 3.0]);
            // Exactly sized: every value lands.
            let mut values = [f64::NAN; 3];
            codec.decode_into(&buf, &mut values);
            assert!(values.iter().all(|v| !v.is_nan()), "{}", codec.name());
            // Short payloads (down to empty) decode a prefix and never panic.
            for cut in 0..buf.len() {
                let mut out = [f64::NAN; 3];
                codec.decode_into(&buf[..cut], &mut out);
                let decoded = out.iter().take_while(|v| !v.is_nan()).count();
                assert_eq!(&out[..decoded], &values[..decoded]);
                assert!(out[decoded..].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn q16_zero_block() {
        let values = [0.0; 10];
        let (decoded, sq_err) = round_trip(Codec::Q16, &values);
        assert_eq!(decoded, values);
        assert_eq!(sq_err, 0.0);
    }

    #[test]
    fn codec_ids_round_trip() {
        for c in Codec::all() {
            assert_eq!(Codec::from_id(c.id()).unwrap(), c);
        }
        assert_eq!(Codec::from_id(42), Err(CodecError::UnknownId(42)));
    }
}

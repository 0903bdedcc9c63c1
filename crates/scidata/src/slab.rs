//! Offset-addressable slab generators for the surrogate datasets.
//!
//! The streaming pipeline (`tucker_core::streaming`) consumes tensors
//! through the `SlabSource` trait — whole last-mode slabs on demand, never
//! the full field. [`CombustionConfig::generate`] cannot serve that role
//! directly: its turbulent-noise term draws from a *sequential* rng over the
//! whole storage order, so producing slab `t` would require generating every
//! element before it (and the values would depend on where slab boundaries
//! fall). [`CombustionSlabSource`] replaces only the noise term with a
//! **counter-based** generator (a splitmix64 finalizer of the element's
//! linear offset), making every element a pure function of `(seed, offset)`:
//!
//! * slabs of any width, requested in any order, repeatedly, always agree —
//!   the precondition for `st_hosvd_streaming`'s "bit-identical for every
//!   slab width" contract;
//! * [`CombustionSlabSource::materialize`] produces exactly the tensor the
//!   streaming path sees, so the in-memory and out-of-core pipelines can be
//!   compared element for element (the `table5_memory` gate does this);
//! * the field has the same structure and noise statistics as
//!   [`CombustionConfig::generate`] (identical kernels, identical noise
//!   amplitude, both uniform in [-1, 1)), but is **not byte-identical to
//!   it** — the sequential generator is kept unchanged so historical
//!   datasets stay stable (`tests/golden.rs` pins both generators' bits).
//!
//! Both generators run the same structural kernel
//! (`SurrogateModel::fill_steps`, see [`crate::combustion`]): a slab is
//! whole time steps, filled on the caller's thread, and its counter-based
//! noise is added afterwards element by element.
//!
//! The source is raw (un-normalized): per-species normalization needs global
//! statistics and therefore a pass of its own, which the out-of-core
//! pipeline leaves to the caller.

use crate::combustion::{CombustionConfig, SurrogateModel};
use crate::datasets::DatasetPreset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tucker_tensor::{DenseTensor, SlabSource};

/// A deterministic, random-access slab view of a surrogate combustion field.
pub struct CombustionSlabSource {
    model: SurrogateModel,
    noise_level: f64,
    noise_seed: u64,
}

impl CombustionConfig {
    /// An offset-addressable slab source of this configuration (see the
    /// module docs for how its noise differs from [`CombustionConfig::generate`]).
    pub fn slab_source(&self) -> CombustionSlabSource {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let model = SurrogateModel::new(self, &mut rng);
        CombustionSlabSource {
            model,
            noise_level: self.noise_level,
            // Decorrelate the per-element noise stream from the model draws.
            noise_seed: self.seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl DatasetPreset {
    /// The slab source of this preset's surrogate at the given scale — the
    /// streaming-ingest counterpart of [`DatasetPreset::generate`] (raw
    /// field, no normalization).
    pub fn slab_source(&self, scale: usize, seed: u64) -> CombustionSlabSource {
        self.surrogate_config(scale, seed).slab_source()
    }
}

impl CombustionSlabSource {
    /// Human-readable label per mode.
    pub fn mode_labels(&self) -> Vec<String> {
        self.model.mode_labels()
    }

    /// Index of the variables (species) mode.
    pub fn variable_mode(&self) -> usize {
        self.model.var_mode
    }

    /// Index of the time (streaming) mode.
    pub fn time_mode(&self) -> usize {
        self.model.time_mode
    }

    /// The full field as a resident tensor — element-for-element what the
    /// slab API serves, used to drive the in-memory baseline in comparisons
    /// against the streaming pipeline.
    pub fn materialize(&self) -> DenseTensor {
        let stride = self.slab_stride();
        let last = self.last_dim();
        let mut data = vec![0.0f64; stride * last];
        if last > 0 {
            self.fill_slab(0, last, &mut data);
        }
        DenseTensor::from_vec(&self.model.dims, data)
    }
}

impl SlabSource for CombustionSlabSource {
    fn dims(&self) -> &[usize] {
        &self.model.dims
    }

    fn fill_slab(&self, start: usize, len: usize, out: &mut [f64]) {
        let last = self.model.timesteps();
        assert!(
            start + len <= last,
            "fill_slab: range {start}+{len} exceeds time dim {last}"
        );
        let stride = self.model.step_len();
        assert_eq!(
            out.len(),
            len * stride,
            "fill_slab: output buffer length mismatch"
        );
        // The structure of the slab's time steps, then each element's noise
        // keyed by its linear offset in the whole field.
        self.model.fill_steps(start, out);
        if self.noise_level > 0.0 {
            let base = start * stride;
            for (i, o) in out.iter_mut().enumerate() {
                *o += self.noise_level * hashed_unit(self.noise_seed, (base + i) as u64);
            }
        }
    }
}

/// Maps `(seed, counter)` to a uniform value in [-1, 1) via the splitmix64
/// finalizer — stateless, so any element can be generated independently.
fn hashed_unit(seed: u64, counter: u64) -> f64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 high-entropy bits → [0, 1) → [-1, 1).
    ((z >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_source() -> CombustionSlabSource {
        CombustionConfig {
            grid: vec![10, 8],
            n_variables: 6,
            n_timesteps: 7,
            n_kernels: 4,
            species_rank: 2,
            kernel_width: 0.2,
            drift: 0.2,
            noise_level: 1e-3,
            seed: 99,
        }
        .slab_source()
    }

    #[test]
    fn slabs_agree_with_materialized_field_for_any_width() {
        let src = small_source();
        let full = src.materialize();
        assert_eq!(full.dims(), &[10, 8, 6, 7]);
        let stride = src.slab_stride();
        for width in [1usize, 2, 3, 7] {
            let mut start = 0;
            while start < 7 {
                let w = width.min(7 - start);
                let mut buf = vec![0.0; w * stride];
                src.fill_slab(start, w, &mut buf);
                assert_eq!(&buf[..], full.last_mode_slab(start, w), "slab {start}+{w}");
                start += w;
            }
        }
    }

    #[test]
    fn repeated_and_out_of_order_reads_are_stable() {
        let src = small_source();
        let stride = src.slab_stride();
        let mut a = vec![0.0; stride];
        let mut b = vec![0.0; stride];
        src.fill_slab(5, 1, &mut a);
        src.fill_slab(0, 1, &mut b); // unrelated read in between
        src.fill_slab(5, 1, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn structure_matches_the_sequential_generator() {
        // Same seed, same kernels: the noise-free parts agree exactly, so
        // the two generators differ by at most twice the noise amplitude.
        let cfg = CombustionConfig {
            noise_level: 1e-3,
            ..CombustionConfig {
                grid: vec![9, 7],
                n_variables: 5,
                n_timesteps: 6,
                n_kernels: 3,
                species_rank: 2,
                kernel_width: 0.15,
                drift: 0.3,
                noise_level: 0.0,
                seed: 1234,
            }
        };
        let sequential = cfg.generate().data;
        let streamed = cfg.slab_source().materialize();
        assert_eq!(sequential.dims(), streamed.dims());
        for (a, b) in sequential.as_slice().iter().zip(streamed.as_slice()) {
            assert!((a - b).abs() <= 2e-3, "{a} vs {b}");
        }
        // And with zero noise they are bit-identical.
        let quiet = CombustionConfig {
            noise_level: 0.0,
            ..cfg
        };
        assert_eq!(
            quiet.generate().data.as_slice(),
            quiet.slab_source().materialize().as_slice()
        );
    }

    #[test]
    fn preset_sources_expose_the_preset_shapes() {
        let src = DatasetPreset::Hcci.slab_source(1, 7);
        assert_eq!(SlabSource::dims(&src), &[48, 48, 16, 40]);
        assert_eq!(src.variable_mode(), 2);
        assert_eq!(src.time_mode(), 3);
        assert_eq!(src.mode_labels().len(), 4);
        assert_eq!(src.slab_stride(), 48 * 48 * 16);
        assert_eq!(src.last_dim(), 40);
    }

    #[test]
    fn hashed_noise_is_uniformish_and_deterministic() {
        let n = 4096;
        let mean: f64 = (0..n).map(|i| hashed_unit(42, i)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "counter noise badly biased: {mean}");
        assert!((0..n).all(|i| (-1.0..1.0).contains(&hashed_unit(42, i))));
        assert_eq!(hashed_unit(7, 123).to_bits(), hashed_unit(7, 123).to_bits());
        assert_ne!(hashed_unit(7, 123).to_bits(), hashed_unit(8, 123).to_bits());
    }

    #[test]
    #[should_panic]
    fn out_of_range_slab_panics() {
        let src = small_source();
        let mut buf = vec![0.0; src.slab_stride() * 2];
        src.fill_slab(6, 2, &mut buf);
    }
}

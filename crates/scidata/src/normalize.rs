//! Per-variable centering and scaling (Sec. VII-A of the paper).
//!
//! Each species/variable slice is transformed by subtracting its mean and
//! dividing by its standard deviation — unless the standard deviation is below
//! `10⁻¹⁰`, in which case the division is skipped (exactly the paper's rule).
//! The returned [`Normalization`] stores the per-slice statistics so the
//! transformation can be inverted after reconstruction.
//!
//! Both passes work on the tensor in place, as runs of the elements that
//! share one index of the normalized mode (`∏` of the earlier extents long).
//! The statistics pass sums each slice run after run — the slice's own
//! storage order, so the bits are those of summing a copied-out slice — with
//! the slices spread over the global execution pool; the transform applies
//! one slice's constants to a whole run, blocks of runs spread over the pool.

use tucker_exec::{chunk_ranges, ExecContext};
use tucker_tensor::DenseTensor;

/// The threshold below which a slice's standard deviation is treated as zero.
pub const STD_GUARD: f64 = 1e-10;

/// Per-slice statistics recorded during normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalization {
    /// The mode whose slices were normalized (the variables/species mode).
    pub mode: usize,
    /// Mean of each slice.
    pub means: Vec<f64>,
    /// Standard deviation of each slice (as computed, before the guard).
    pub stds: Vec<f64>,
}

impl Normalization {
    /// Whether the division was applied for slice `i`.
    pub fn scaled(&self, i: usize) -> bool {
        self.stds[i] >= STD_GUARD
    }

    /// Applies the inverse transformation in place (de-normalization).
    pub fn invert(&self, x: &mut DenseTensor) {
        apply_slicewise(x, self.mode, |i, run| {
            let mean = self.means[i];
            if self.scaled(i) {
                let std = self.stds[i];
                for v in run {
                    *v = *v * std + mean;
                }
            } else {
                for v in run {
                    *v += mean;
                }
            }
        });
    }

    /// Applies the forward transformation in place (e.g. to new data with the
    /// same statistics).
    pub fn apply(&self, x: &mut DenseTensor) {
        apply_slicewise(x, self.mode, |i, run| {
            let mean = self.means[i];
            if self.scaled(i) {
                let std = self.stds[i];
                for v in run {
                    *v = (*v - mean) / std;
                }
            } else {
                for v in run {
                    *v -= mean;
                }
            }
        });
    }
}

/// Centers and scales every slice of mode `mode` in place, returning the
/// statistics needed to invert the transformation.
pub fn normalize_per_slice(x: &mut DenseTensor, mode: usize) -> Normalization {
    let n = x.dim(mode);
    let count = x.codim(mode).max(1) as f64;
    let inner: usize = x.dims()[..mode].iter().product();
    let data = x.as_slice();

    // Pass 1: mean and standard deviation of each slice, the slices spread
    // over the pool. A slice's elements are every `n`-th run of `inner`
    // values; summed run after run they accumulate in the slice's own
    // storage order, exactly as a copied-out slice would.
    let mut stats = vec![(0.0f64, 0.0f64); n];
    ExecContext::global().for_each_slot(&mut stats, |i, (mean, std)| {
        let slice = || {
            data.chunks_exact(inner.max(1))
                .skip(i)
                .step_by(n)
                .flatten()
                .copied()
        };
        let m = slice().sum::<f64>() / count;
        let var = slice().map(|v| (v - m) * (v - m)).sum::<f64>() / count;
        *mean = m;
        *std = var.sqrt();
    });

    let norm = Normalization {
        mode,
        means: stats.iter().map(|s| s.0).collect(),
        stds: stats.iter().map(|s| s.1).collect(),
    };
    // Pass 2: transform in place.
    norm.apply(x);
    norm
}

/// Calls `f(slice_index, run)` on every run of consecutive elements that
/// share their index in `mode` (the modes before `mode` vary within a run),
/// spreading blocks of whole runs over the pool.
fn apply_slicewise(x: &mut DenseTensor, mode: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    let inner: usize = x.dims()[..mode].iter().product();
    let modal = x.dim(mode);
    let block = inner * modal;
    if x.is_empty() {
        return;
    }
    let outer = x.len() / block;
    let ctx = ExecContext::global();
    let parts = ctx.partition_for_work(outer, x.len());
    ctx.for_each_row_panel(
        x.as_mut_slice(),
        block,
        chunk_ranges(outer, parts),
        |_, panel| {
            for (r, run) in panel.chunks_exact_mut(inner).enumerate() {
                f(r % modal, run);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_tensor::{extract_subtensor, SubtensorSpec};

    fn species_tensor() -> DenseTensor {
        // 4x3x5 tensor where species s (mode 1) has values centered at 10*s
        // with spread depending on s.
        DenseTensor::from_fn(&[4, 3, 5], |idx| {
            let s = idx[1] as f64;
            10.0 * s + (idx[0] as f64 - 1.5) * (s + 1.0) + 0.1 * idx[2] as f64
        })
    }

    #[test]
    fn normalized_slices_have_zero_mean_unit_std() {
        let mut x = species_tensor();
        let norm = normalize_per_slice(&mut x, 1);
        for s in 0..3 {
            let spec = SubtensorSpec::all(x.dims()).restrict_mode(1, vec![s]);
            let slice = extract_subtensor(&x, &spec);
            let mean = slice.as_slice().iter().sum::<f64>() / slice.len() as f64;
            let var = slice
                .as_slice()
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f64>()
                / slice.len() as f64;
            assert!(mean.abs() < 1e-10, "slice {s} mean {mean}");
            assert!((var - 1.0).abs() < 1e-8, "slice {s} var {var}");
            assert!(norm.scaled(s));
        }
    }

    #[test]
    fn round_trip_restores_original() {
        let original = species_tensor();
        let mut x = original.clone();
        let norm = normalize_per_slice(&mut x, 1);
        norm.invert(&mut x);
        for (a, b) in x.as_slice().iter().zip(original.as_slice()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_matches_normalize() {
        let original = species_tensor();
        let mut x = original.clone();
        let norm = normalize_per_slice(&mut x, 1);
        let mut y = original.clone();
        norm.apply(&mut y);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_slice_is_centered_but_not_scaled() {
        // Mode-1 slice 0 constant: std below the guard.
        let mut x = DenseTensor::from_fn(&[3, 2, 4], |idx| {
            if idx[1] == 0 {
                5.0
            } else {
                idx[0] as f64 + idx[2] as f64
            }
        });
        let norm = normalize_per_slice(&mut x, 1);
        assert!(!norm.scaled(0));
        assert!(norm.scaled(1));
        // Every element of slice 0 is now exactly zero.
        for i in 0..3 {
            for k in 0..4 {
                assert_eq!(x.get(&[i, 0, k]), 0.0);
            }
        }
    }

    #[test]
    fn normalization_on_last_mode() {
        let mut x = DenseTensor::from_fn(&[3, 4, 2], |idx| (idx[2] * 100 + idx[0]) as f64);
        let norm = normalize_per_slice(&mut x, 2);
        assert_eq!(norm.means.len(), 2);
        assert!(norm.means[1] > norm.means[0]);
        // Round-trip.
        let mut y = x.clone();
        norm.invert(&mut y);
        assert!((y.get(&[0, 0, 1]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_on_first_mode() {
        let mut x = DenseTensor::from_fn(&[2, 5], |idx| (idx[0] * 7 + idx[1]) as f64);
        let original = x.clone();
        let norm = normalize_per_slice(&mut x, 0);
        norm.invert(&mut x);
        for (a, b) in x.as_slice().iter().zip(original.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}

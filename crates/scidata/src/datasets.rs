//! Named dataset presets mirroring the paper's combustion datasets (Sec. VII-A).
//!
//! | preset | paper shape | paper size | surrogate shape (scale = 1) |
//! |---|---|---|---|
//! | HCCI | 672 × 672 × 33 × 627 | 70 GB | 48 × 48 × 16 × 40 |
//! | TJLR | 460 × 700 × 360 × 35 × 16 | 520 GB | 20 × 24 × 16 × 12 × 8 |
//! | SP   | 500 × 500 × 500 × 11 × 50 | 550 GB | 24 × 24 × 24 × 8 × 16 |
//!
//! The surrogates keep the *qualitative* mode structure (2-D vs 3-D grids,
//! small species and time modes) and the relative compressibility ordering
//! (SP most compressible, TJLR least), at sizes that run on a laptop. The
//! `scale` parameter multiplies the spatial extents for larger experiments.

use crate::combustion::{CombustionConfig, CombustionField};
use crate::normalize::{normalize_per_slice, Normalization};
use tucker_tensor::DenseTensor;

/// The three combustion datasets of the paper, as surrogate presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetPreset {
    /// Homogeneous Charge Compression Ignition: 2-D grid, 33 variables, long
    /// time horizon; moderately compressible.
    Hcci,
    /// Temporally-evolving jet flame (DME fuel): 3-D grid, heavily downsampled
    /// in the paper, hence the least compressible dataset.
    Tjlr,
    /// Statistically steady planar premixed flame: 3-D grid, most compressible.
    Sp,
}

/// A generated, normalized surrogate dataset.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Which preset produced it.
    pub preset: DatasetPreset,
    /// The centered-and-scaled data tensor (the form the paper compresses).
    pub data: DenseTensor,
    /// The normalization statistics (per species slice).
    pub normalization: Normalization,
    /// Mode labels for plots and tables.
    pub mode_labels: Vec<String>,
}

impl DatasetPreset {
    /// All presets, in the order the paper tabulates them.
    pub fn all() -> [DatasetPreset; 3] {
        [DatasetPreset::Hcci, DatasetPreset::Tjlr, DatasetPreset::Sp]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::Hcci => "HCCI",
            DatasetPreset::Tjlr => "TJLR",
            DatasetPreset::Sp => "SP",
        }
    }

    /// The dataset dimensions used in the paper.
    pub fn paper_dims(&self) -> Vec<usize> {
        match self {
            DatasetPreset::Hcci => vec![672, 672, 33, 627],
            DatasetPreset::Tjlr => vec![460, 700, 360, 35, 16],
            DatasetPreset::Sp => vec![500, 500, 500, 11, 50],
        }
    }

    /// The surrogate generator configuration at the given spatial scale
    /// (`scale = 1` is the laptop-sized default; larger values grow the grid).
    pub fn surrogate_config(&self, scale: usize, seed: u64) -> CombustionConfig {
        let s = scale.max(1);
        match self {
            // Moderately smooth, moderate noise, long time axis.
            DatasetPreset::Hcci => CombustionConfig {
                grid: vec![48 * s, 48 * s],
                n_variables: 16,
                n_timesteps: 40,
                n_kernels: 12,
                species_rank: 5,
                kernel_width: 0.09,
                drift: 0.3,
                noise_level: 5e-4,
                seed,
            },
            // Downsampled / turbulent: narrow kernels, strong drift, and the
            // highest noise floor of the three → hardest to compress. The
            // floor is kept just below the ε = 1e-3 per-mode budget so the
            // Tab. II row is not degenerate (ratio 1 / error ~1e-15): a thin
            // spectral tail exists in every mode, TJLR compresses a little,
            // and the SP ≫ HCCI ≫ TJLR ordering is preserved.
            DatasetPreset::Tjlr => CombustionConfig {
                grid: vec![20 * s, 24 * s, 16 * s],
                n_variables: 12,
                n_timesteps: 10,
                n_kernels: 14,
                species_rank: 7,
                kernel_width: 0.08,
                drift: 0.45,
                noise_level: 1.5e-4,
                seed,
            },
            // Statistically steady: wide kernels, little drift, low noise →
            // most compressible.
            DatasetPreset::Sp => CombustionConfig {
                grid: vec![24 * s, 24 * s, 24 * s],
                n_variables: 8,
                n_timesteps: 16,
                n_kernels: 4,
                species_rank: 2,
                kernel_width: 0.3,
                drift: 0.04,
                noise_level: 2e-5,
                seed,
            },
        }
    }

    /// Generates the normalized surrogate dataset at the given scale.
    pub fn generate(&self, scale: usize, seed: u64) -> GeneratedDataset {
        let cfg = self.surrogate_config(scale, seed);
        let CombustionField {
            mut data,
            mode_labels,
            variable_mode,
            ..
        } = cfg.generate();
        let normalization = normalize_per_slice(&mut data, variable_mode);
        GeneratedDataset {
            preset: *self,
            data,
            normalization,
            mode_labels,
        }
    }

    /// Size of the paper's dataset in bytes (double precision).
    pub fn paper_size_bytes(&self) -> u64 {
        self.paper_dims().iter().map(|&d| d as u64).product::<u64>() * 8
    }
}

impl GeneratedDataset {
    /// Undoes the per-species normalization on a reconstruction (or any
    /// subtensor that keeps the species mode intact), in place.
    ///
    /// This is the analyst-side final step of the storage pipeline: the
    /// normalization statistics travel in the `.tkr` header (see
    /// `tucker-store`), a subtensor is reconstructed from the compressed
    /// artifact, and this puts it back in physical units.
    ///
    /// # Panics
    /// Panics if the species mode of `x` does not have one slice per recorded
    /// variable.
    pub fn denormalize(&self, x: &mut DenseTensor) {
        assert_eq!(
            x.dim(self.normalization.mode),
            self.normalization.means.len(),
            "denormalize: species mode size does not match the recorded statistics"
        );
        self.normalization.invert(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims_match_the_paper() {
        assert_eq!(DatasetPreset::Hcci.paper_dims(), vec![672, 672, 33, 627]);
        assert_eq!(
            DatasetPreset::Tjlr.paper_dims(),
            vec![460, 700, 360, 35, 16]
        );
        assert_eq!(DatasetPreset::Sp.paper_dims(), vec![500, 500, 500, 11, 50]);
        // Paper: HCCI ≈ 70 GB, TJLR ≈ 520 GB, SP ≈ 550 GB.
        assert!((DatasetPreset::Hcci.paper_size_bytes() as f64 / 1e9 - 74.7).abs() < 5.0);
        assert!((DatasetPreset::Tjlr.paper_size_bytes() as f64 / 1e9 - 519.0).abs() < 15.0);
        assert!((DatasetPreset::Sp.paper_size_bytes() as f64 / 1e9 - 550.0).abs() < 15.0);
    }

    #[test]
    fn surrogate_mode_counts_match_paper_structure() {
        // HCCI is 4-way (2-D grid), TJLR and SP are 5-way (3-D grids).
        assert_eq!(DatasetPreset::Hcci.surrogate_config(1, 0).grid.len() + 2, 4);
        assert_eq!(DatasetPreset::Tjlr.surrogate_config(1, 0).grid.len() + 2, 5);
        assert_eq!(DatasetPreset::Sp.surrogate_config(1, 0).grid.len() + 2, 5);
    }

    #[test]
    fn generated_dataset_is_normalized() {
        let ds = DatasetPreset::Hcci.generate(1, 7);
        assert_eq!(ds.data.ndims(), 4);
        // Mean of the whole normalized tensor is near zero.
        let mean: f64 = ds.data.as_slice().iter().sum::<f64>() / ds.data.len() as f64;
        assert!(mean.abs() < 1e-8);
        assert_eq!(ds.mode_labels.len(), 4);
        assert_eq!(ds.normalization.means.len(), 16);
    }

    #[test]
    fn scale_grows_the_spatial_grid() {
        let small = DatasetPreset::Hcci.surrogate_config(1, 0);
        let large = DatasetPreset::Hcci.surrogate_config(2, 0);
        assert_eq!(large.grid[0], 2 * small.grid[0]);
        assert_eq!(large.n_variables, small.n_variables);
    }

    #[test]
    fn denormalize_restores_physical_units() {
        let preset = DatasetPreset::Hcci;
        let ds = preset.generate(1, 11);
        // Regenerate the raw field and compare against a denormalized copy.
        let raw = preset.surrogate_config(1, 11).generate().data;
        let mut back = ds.data.clone();
        ds.denormalize(&mut back);
        for (a, b) in back.as_slice().iter().zip(raw.as_slice()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn names_and_all() {
        let names: Vec<&str> = DatasetPreset::all().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["HCCI", "TJLR", "SP"]);
    }
}

//! Surrogate combustion DNS fields.
//!
//! The paper's datasets come from S3D direct numerical simulations of turbulent
//! flames (Sec. VII-A). The surrogate generator here mimics the structural
//! properties that make such data Tucker-compressible:
//!
//! * **bursty spatial structure** — a moderate number of coherent "flame
//!   kernels" (traveling Gaussian blobs) superimposed on a smooth background;
//! * **low-rank species coupling** — each kernel excites the chemical species
//!   through a small number of latent reaction modes, so the species mode has
//!   low rank;
//! * **temporal coherence** — kernels move smoothly in time, so the time mode
//!   is compressible for statistically-steady flames (SP) and less so for
//!   temporally-evolving ones (TJLR);
//! * **broadband noise** — small-scale turbulence modeled as white noise whose
//!   amplitude controls the noise floor of every mode's spectrum (and therefore
//!   the achievable compression at tight tolerances).
//!
//! The three presets in [`crate::datasets`] differ only in these knobs, chosen
//! so the relative compressibility ordering (SP ≫ HCCI ≫ TJLR) matches Fig. 7.
//!
//! One structural kernel fills the noise-free field a time step at a time.
//! Within a time step it walks the grid in tiles of bounded size (a 64 KB
//! scratch buffer whatever the grid) and evaluates each kernel's Gaussian
//! once per tile point; every variable's run over the tile is then built
//! from that buffer. [`CombustionConfig::generate`] runs the kernel over the
//! time steps in parallel and adds its noise afterwards in one sequential
//! pass in storage order, so each rng draw lands on the element it always
//! has and the bits do not depend on the thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tucker_exec::{chunk_ranges, ExecContext};
use tucker_tensor::DenseTensor;

/// Scratch bound of the structural kernel, in `f64`s (64 KB): a tile of
/// grid points holds one Gaussian per kernel per point. Kept under glibc's
/// default mmap threshold (128 KB): a larger buffer is mmapped, and freeing
/// it raises the process-wide threshold every later allocation then sees.
const TILE_WORDS: usize = 1 << 13;

/// Configuration of the surrogate combustion field generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CombustionConfig {
    /// Spatial grid sizes (1–3 dimensions).
    pub grid: Vec<usize>,
    /// Number of tracked variables (chemical species + derived quantities).
    pub n_variables: usize,
    /// Number of time steps.
    pub n_timesteps: usize,
    /// Number of coherent structures ("flame kernels").
    pub n_kernels: usize,
    /// Number of latent reaction modes coupling the species (species rank).
    pub species_rank: usize,
    /// Kernel width as a fraction of the domain (larger = smoother = more compressible).
    pub kernel_width: f64,
    /// Fraction of the domain a kernel travels over the whole simulation
    /// (larger = less temporally compressible).
    pub drift: f64,
    /// Relative amplitude of the broadband turbulent noise.
    pub noise_level: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A generated surrogate field together with its dimension labels.
#[derive(Debug, Clone)]
pub struct CombustionField {
    /// The raw (un-normalized) data tensor: spatial modes, then variables, then time.
    pub data: DenseTensor,
    /// Human-readable label per mode (e.g. `["Spatial 1", "Spatial 2", "Species", "Time"]`).
    pub mode_labels: Vec<String>,
    /// Index of the variables (species) mode.
    pub variable_mode: usize,
    /// Index of the time mode.
    pub time_mode: usize,
}

struct Kernel {
    /// Starting center per spatial dimension, in [0, 1).
    center: Vec<f64>,
    /// Drift direction per spatial dimension (unit-ish), scaled by config.drift.
    velocity: Vec<f64>,
    /// Width of the Gaussian.
    width: f64,
    /// Amplitude of the kernel in each latent reaction mode.
    latent_amplitude: Vec<f64>,
    /// Temporal phase and frequency of the kernel's intensity envelope.
    phase: f64,
    freq: f64,
}

/// The deterministic (noise-free) part of a surrogate field: precomputed
/// kernel trajectories plus the one structural kernel,
/// [`SurrogateModel::fill_steps`], that writes whole time steps. Shared by
/// the materializing [`CombustionConfig::generate`] (time steps spread over
/// the pool, sequential rng noise on top) and the offset-addressable slab
/// source of [`crate::slab`] (caller's thread, counter-based noise on top).
pub(crate) struct SurrogateModel {
    pub(crate) grid: Vec<usize>,
    pub(crate) dims: Vec<usize>,
    pub(crate) nspace: usize,
    pub(crate) var_mode: usize,
    pub(crate) time_mode: usize,
    background: Vec<f64>,
    kernels: Vec<Kernel>,
    centers: Vec<Vec<Vec<f64>>>,
    intensities: Vec<Vec<f64>>,
    species_amp: Vec<Vec<f64>>,
}

impl SurrogateModel {
    /// Builds the model, drawing from `rng` in the exact historical order
    /// (species loadings, kernels, background) so that
    /// [`CombustionConfig::generate`] — which continues drawing noise from
    /// the same rng — produces bit-identical fields to every prior release.
    pub(crate) fn new(cfg: &CombustionConfig, rng: &mut StdRng) -> SurrogateModel {
        assert!(
            (1..=3).contains(&cfg.grid.len()),
            "CombustionConfig: 1–3 spatial dimensions supported"
        );
        assert!(cfg.species_rank >= 1 && cfg.species_rank <= cfg.n_variables);

        // Latent reaction modes → species loading matrix (n_variables × species_rank).
        let species_loadings: Vec<Vec<f64>> = (0..cfg.n_variables)
            .map(|_| {
                (0..cfg.species_rank)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect()
            })
            .collect();

        // Flame kernels.
        let kernels: Vec<Kernel> = (0..cfg.n_kernels)
            .map(|_| Kernel {
                center: cfg.grid.iter().map(|_| rng.gen_range(0.1..0.9)).collect(),
                velocity: cfg
                    .grid
                    .iter()
                    .map(|_| rng.gen_range(-1.0..1.0) * cfg.drift)
                    .collect(),
                width: cfg.kernel_width * rng.gen_range(0.6..1.4),
                latent_amplitude: (0..cfg.species_rank)
                    .map(|_| rng.gen_range(0.5..1.5) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect(),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
                freq: rng.gen_range(0.5..2.0),
            })
            .collect();

        // Smooth background per variable (slowly varying in space, constant in time).
        let background: Vec<f64> = (0..cfg.n_variables)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();

        let mut dims = cfg.grid.clone();
        dims.push(cfg.n_variables);
        dims.push(cfg.n_timesteps);
        let nspace = cfg.grid.len();

        // Precompute per-(kernel, time) centers and intensities; per-(kernel, variable)
        // species amplitudes.
        let nt = cfg.n_timesteps.max(1);
        let centers: Vec<Vec<Vec<f64>>> = kernels
            .iter()
            .map(|k| {
                (0..nt)
                    .map(|t| {
                        let tau = t as f64 / nt as f64;
                        k.center
                            .iter()
                            .zip(k.velocity.iter())
                            .map(|(&c, &v)| c + v * tau)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let intensities: Vec<Vec<f64>> = kernels
            .iter()
            .map(|k| {
                (0..nt)
                    .map(|t| {
                        let tau = t as f64 / nt as f64;
                        1.0 + 0.3 * (k.freq * std::f64::consts::TAU * tau + k.phase).sin()
                    })
                    .collect()
            })
            .collect();
        let species_amp: Vec<Vec<f64>> = kernels
            .iter()
            .map(|k| {
                (0..cfg.n_variables)
                    .map(|v| {
                        k.latent_amplitude
                            .iter()
                            .zip(species_loadings[v].iter())
                            .map(|(a, l)| a * l)
                            .sum::<f64>()
                    })
                    .collect()
            })
            .collect();

        SurrogateModel {
            grid: cfg.grid.clone(),
            dims,
            nspace,
            var_mode: nspace,
            time_mode: nspace + 1,
            background,
            kernels,
            centers,
            intensities,
            species_amp,
        }
    }

    /// Grid points per variable and time step (`∏ grid`).
    fn points(&self) -> usize {
        self.grid.iter().product()
    }

    /// Elements per time step: one spatial field per variable.
    pub(crate) fn step_len(&self) -> usize {
        self.points() * self.dims[self.var_mode]
    }

    /// Number of time steps (the last mode's extent).
    pub(crate) fn timesteps(&self) -> usize {
        self.dims[self.time_mode]
    }

    /// Writes the noise-free field of time steps `t0, t0 + 1, …` into `out`,
    /// one whole time step per [`SurrogateModel::step_len`] elements, in
    /// storage order.
    ///
    /// A kernel's Gaussian depends on the time step and the grid point but
    /// not on the variable, so it is evaluated once per tile of grid points
    /// into a scratch buffer of at most [`TILE_WORDS`] values and then shared
    /// by every variable's run over that tile. Each element still performs
    /// exactly the operations of the per-element reference
    /// (`structural_value`), in the same order, so the bits do not depend on
    /// the tiling, on `t0` or on how the caller splits the time steps.
    pub(crate) fn fill_steps(&self, t0: usize, out: &mut [f64]) {
        let points = self.points();
        let step = self.step_len();
        if step == 0 {
            return;
        }
        debug_assert_eq!(out.len() % step, 0, "fill_steps: partial time step");
        let nk = self.kernels.len();
        let tile = (TILE_WORDS / nk.max(1)).clamp(1, points);
        let mut shapes = vec![0.0f64; nk * tile];
        let mut idx = vec![0usize; self.nspace];
        let mut pos = vec![0.0f64; self.nspace];
        for (j, field) in out.chunks_exact_mut(step).enumerate() {
            let t = t0 + j;
            for p0 in (0..points).step_by(tile) {
                let len = tile.min(points - p0);
                let mut rest = p0;
                for (i, &g) in idx.iter_mut().zip(&self.grid) {
                    *i = rest % g;
                    rest /= g;
                }
                for p in 0..len {
                    for ((x, &i), &g) in pos.iter_mut().zip(&idx).zip(&self.grid) {
                        *x = i as f64 / g as f64;
                    }
                    for (ki, k) in self.kernels.iter().enumerate() {
                        let mut dist2 = 0.0;
                        for (&x, &c) in pos.iter().zip(&self.centers[ki][t]) {
                            let delta = x - c;
                            dist2 += delta * delta;
                        }
                        shapes[ki * tile + p] = (-dist2 / (2.0 * k.width * k.width)).exp();
                    }
                    for (i, &g) in idx.iter_mut().zip(&self.grid) {
                        *i += 1;
                        if *i < g {
                            break;
                        }
                        *i = 0;
                    }
                }
                for (v, &background) in self.background.iter().enumerate() {
                    let run = &mut field[v * points + p0..][..len];
                    run.fill(background);
                    for ki in 0..nk {
                        let coef = self.intensities[ki][t] * self.species_amp[ki][v];
                        for (o, &shape) in run.iter_mut().zip(&shapes[ki * tile..][..len]) {
                            *o += coef * shape;
                        }
                    }
                }
            }
        }
    }

    /// [`SurrogateModel::fill_steps`] over every time step of `out` (which
    /// starts at time step 0), the steps split into contiguous runs across
    /// `ctx`'s pool. Each run writes its own disjoint time steps.
    pub(crate) fn fill_steps_ctx(&self, ctx: &ExecContext, out: &mut [f64]) {
        let step = self.step_len();
        if step == 0 {
            return;
        }
        let nt = out.len() / step;
        let parts = ctx.partition_for_work(nt, out.len() * self.kernels.len().max(1));
        ctx.for_each_row_panel(out, step, chunk_ranges(nt, parts), |steps, panel| {
            self.fill_steps(steps.start, panel)
        });
    }

    /// The noise-free field value at a multi-index: the per-element
    /// definition [`SurrogateModel::fill_steps`] is checked against.
    #[cfg(test)]
    pub(crate) fn structural_value(&self, idx: &[usize]) -> f64 {
        // Normalized spatial coordinates.
        let pos: Vec<f64> = (0..self.nspace)
            .map(|d| idx[d] as f64 / self.grid[d] as f64)
            .collect();
        let v = idx[self.var_mode];
        let t = idx[self.time_mode];
        let mut value = self.background[v];
        for (ki, k) in self.kernels.iter().enumerate() {
            let c = &self.centers[ki][t];
            let mut dist2 = 0.0;
            for d in 0..self.nspace {
                let delta = pos[d] - c[d];
                dist2 += delta * delta;
            }
            let shape = (-dist2 / (2.0 * k.width * k.width)).exp();
            value += self.intensities[ki][t] * self.species_amp[ki][v] * shape;
        }
        value
    }

    /// Mode labels matching the dims layout.
    pub(crate) fn mode_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = (0..self.nspace)
            .map(|d| format!("Spatial {}", d + 1))
            .collect();
        labels.push("Species".to_string());
        labels.push("Time".to_string());
        labels
    }
}

impl CombustionConfig {
    /// Generates the surrogate field.
    ///
    /// The noise-free structure is filled by the tiled kernel with the time
    /// steps spread over the global execution pool; the noise is then added
    /// in one sequential pass in storage order, so every draw of the seeded
    /// rng lands on the same element whatever the thread count.
    pub fn generate(&self) -> CombustionField {
        let ctx = ExecContext::global();
        let _span = tucker_obs::span!(
            "scidata.generate",
            nx = self.grid.first().copied().unwrap_or(1),
            ny = self.grid.get(1).copied().unwrap_or(1),
            nz = self.grid.get(2).copied().unwrap_or(1),
            variables = self.n_variables,
            timesteps = self.n_timesteps,
            threads = ctx.threads(),
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let model = SurrogateModel::new(self, &mut rng);
        let mut data = DenseTensor::zeros(&model.dims);
        model.fill_steps_ctx(ctx, data.as_mut_slice());
        let noise = self.noise_level;
        if noise > 0.0 {
            for value in data.as_mut_slice() {
                *value += noise * rng.gen_range(-1.0..1.0);
            }
        }

        CombustionField {
            data,
            mode_labels: model.mode_labels(),
            variable_mode: model.var_mode,
            time_mode: model.time_mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_linalg::eig::sym_eig_desc;
    use tucker_tensor::gram_ctx;

    fn small_config() -> CombustionConfig {
        CombustionConfig {
            grid: vec![16, 16],
            n_variables: 8,
            n_timesteps: 10,
            n_kernels: 5,
            species_rank: 3,
            kernel_width: 0.15,
            drift: 0.2,
            noise_level: 1e-4,
            seed: 123,
        }
    }

    #[test]
    fn dims_follow_configuration() {
        let field = small_config().generate();
        assert_eq!(field.data.dims(), &[16, 16, 8, 10]);
        assert_eq!(field.variable_mode, 2);
        assert_eq!(field.time_mode, 3);
        assert_eq!(field.mode_labels.len(), 4);
        assert_eq!(field.mode_labels[0], "Spatial 1");
        assert_eq!(field.mode_labels[2], "Species");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_config().generate();
        let b = small_config().generate();
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn species_mode_has_low_rank() {
        let field = small_config().generate();
        let eig = sym_eig_desc(&gram_ctx(ExecContext::global(), &field.data, 2));
        let max = eig.values[0];
        // species_rank latent modes + smooth background: a handful of
        // significant eigenvalues out of 8.
        let significant = eig.values.iter().filter(|&&v| v > 1e-6 * max).count();
        assert!(
            significant <= 5,
            "species mode should be low-rank, got {significant} significant eigenvalues"
        );
    }

    #[test]
    fn smoother_kernels_are_more_compressible_spatially() {
        // Wider kernels → faster spatial eigenvalue decay.
        let smooth = CombustionConfig {
            kernel_width: 0.3,
            noise_level: 0.0,
            ..small_config()
        }
        .generate();
        let rough = CombustionConfig {
            kernel_width: 0.05,
            noise_level: 0.0,
            ..small_config()
        }
        .generate();
        let tail_fraction = |x: &DenseTensor| {
            let eig = sym_eig_desc(&gram_ctx(ExecContext::global(), x, 0));
            let total: f64 = eig.values.iter().sum();
            let tail: f64 = eig.values[4..].iter().sum();
            tail / total
        };
        assert!(
            tail_fraction(&smooth.data) < tail_fraction(&rough.data),
            "wider kernels should concentrate energy in fewer spatial modes"
        );
    }

    #[test]
    fn noise_raises_the_spectral_floor() {
        let clean = CombustionConfig {
            noise_level: 0.0,
            ..small_config()
        }
        .generate();
        let noisy = CombustionConfig {
            noise_level: 0.05,
            ..small_config()
        }
        .generate();
        let floor = |x: &DenseTensor| {
            let eig = sym_eig_desc(&gram_ctx(ExecContext::global(), x, 0));
            eig.values.last().copied().unwrap_or(0.0).max(0.0) / eig.values[0]
        };
        assert!(floor(&noisy.data) > floor(&clean.data));
    }

    #[test]
    fn three_dimensional_grid_supported() {
        let cfg = CombustionConfig {
            grid: vec![8, 8, 8],
            n_variables: 4,
            n_timesteps: 5,
            n_kernels: 3,
            species_rank: 2,
            kernel_width: 0.2,
            drift: 0.1,
            noise_level: 0.0,
            seed: 9,
        };
        let field = cfg.generate();
        assert_eq!(field.data.dims(), &[8, 8, 8, 4, 5]);
        assert_eq!(field.variable_mode, 3);
        assert_eq!(field.time_mode, 4);
    }

    /// Every element of the tiled kernel's output against the per-element
    /// reference, bit for bit, from every starting time step.
    fn assert_kernel_matches_reference(cfg: &CombustionConfig) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let model = SurrogateModel::new(cfg, &mut rng);
        let step = model.step_len();
        let nt = model.timesteps();
        let mut all = vec![0.0; step * nt];
        model.fill_steps_ctx(&ExecContext::new(3), &mut all);
        let reference = DenseTensor::from_fn(&model.dims, |idx| model.structural_value(idx));
        for (off, (a, b)) in all.iter().zip(reference.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {off}: {a} vs {b}");
        }
        for t0 in 0..nt {
            let mut tail = vec![0.0; step * (nt - t0)];
            model.fill_steps(t0, &mut tail);
            assert_eq!(tail, all[t0 * step..], "fill from time step {t0}");
        }
    }

    #[test]
    fn tiled_kernel_is_the_per_element_definition() {
        // 2-D, one tile per time step.
        assert_kernel_matches_reference(&small_config());
        // 3-D, 5 kernels: 1 638-point tiles over 8 000 points, so tile
        // boundaries fall inside grid lines.
        assert_kernel_matches_reference(&CombustionConfig {
            grid: vec![20, 20, 20],
            n_variables: 3,
            n_timesteps: 2,
            ..small_config()
        });
        // 1-D, and a field with no kernels (background only).
        assert_kernel_matches_reference(&CombustionConfig {
            grid: vec![37],
            ..small_config()
        });
        assert_kernel_matches_reference(&CombustionConfig {
            n_kernels: 0,
            ..small_config()
        });
    }

    #[test]
    fn generate_opens_a_traced_span() {
        let path = std::env::temp_dir().join(format!(
            "tucker_scidata_generate_{}.trace",
            std::process::id()
        ));
        tucker_obs::trace::install(path.to_str().unwrap_or_default())
            .unwrap_or_else(|e| panic!("cannot install trace sink: {e}"));
        CombustionConfig {
            grid: vec![11, 7],
            ..small_config()
        }
        .generate();
        tucker_obs::trace::uninstall();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        std::fs::remove_file(&path).ok();
        let args = format!(
            "\"args\":{{\"nx\":11,\"ny\":7,\"nz\":1,\"variables\":8,\"timesteps\":10,\"threads\":{}}}",
            ExecContext::global().threads()
        );
        assert!(
            text.lines()
                .any(|l| l.contains("\"name\":\"scidata.generate\"") && l.contains(&args)),
            "want a scidata.generate span with {args} in:\n{text}"
        );
    }

    #[test]
    #[should_panic]
    fn too_many_spatial_dims_panics() {
        CombustionConfig {
            grid: vec![4, 4, 4, 4],
            ..small_config()
        }
        .generate();
    }
}

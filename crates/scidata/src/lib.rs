//! Synthetic scientific datasets for the parallel Tucker compression study.
//!
//! The paper evaluates compression on three combustion DNS datasets produced by
//! the S3D solver (HCCI, TJLR, SP — Sec. VII-A). Those datasets are not
//! publicly available, so this crate provides *surrogates*: synthetic fields
//! built from traveling coherent structures with low-rank species correlations
//! and smooth temporal evolution, whose mode-wise singular-value decay can be
//! controlled so that the relative compressibility ordering of the paper
//! (SP ≫ HCCI ≫ TJLR) is reproduced by construction. See README.md
//! ("Reproducing the paper's figures and tables") for what the surrogates do
//! and do not reproduce.
//!
//! * [`spectra`]   — prescribed singular-value decay profiles.
//! * [`synthetic`] — random low-multilinear-rank Tucker tensors plus noise.
//! * [`combustion`]— the HCCI / TJLR / SP surrogate field generators.
//! * [`normalize`] — per-variable centering and scaling (Sec. VII-A).
//! * [`datasets`]  — named presets mirroring the paper's dataset shapes.
//! * [`slab`]      — offset-addressable slab generators driving the
//!   out-of-core pipeline without materializing the field.

pub mod combustion;
pub mod datasets;
pub mod normalize;
pub mod slab;
pub mod spectra;
pub mod synthetic;

pub use combustion::{CombustionConfig, CombustionField};
pub use datasets::{DatasetPreset, GeneratedDataset};
pub use normalize::{normalize_per_slice, Normalization};
pub use slab::CombustionSlabSource;
pub use spectra::SpectralDecay;
pub use synthetic::{random_low_rank, NoisyLowRank};

//! Prescribed singular-value decay profiles.
//!
//! The compressibility of a tensor in mode `n` is determined by how quickly the
//! singular values of its mode-n unfolding decay (Sec. VII-B, Fig. 6). The
//! generators in this crate let each mode's decay be dialed in explicitly, so a
//! surrogate dataset can be made to match the qualitative behaviour of the
//! paper's datasets (e.g. SP's steep spatial decay vs TJLR's flat one).

/// A parametric singular-value decay profile for one tensor mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpectralDecay {
    /// `σ_i = exp(−rate · i)`: fast, smooth decay (highly compressible mode).
    Exponential {
        /// Decay rate per index.
        rate: f64,
    },
    /// `σ_i = (i + 1)^(−exponent)`: slow algebraic decay (poorly compressible).
    Power {
        /// Decay exponent.
        exponent: f64,
    },
    /// `σ_i = 1` for `i < rank`, then `σ_i = floor`: an exactly low-rank mode
    /// plus a noise floor.
    Step {
        /// Number of leading singular values equal to one.
        rank: usize,
        /// Magnitude of the trailing singular values.
        floor: f64,
    },
    /// `σ_i = max(exp(−rate · i), floor)`: exponential decay that bottoms out
    /// at a noise floor — the shape observed for real simulation data.
    ExponentialWithFloor {
        /// Decay rate per index.
        rate: f64,
        /// Noise floor.
        floor: f64,
    },
}

impl SpectralDecay {
    /// Generates `n` singular values following the profile, in descending order.
    pub fn generate(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match *self {
                SpectralDecay::Exponential { rate } => (-rate * i as f64).exp(),
                SpectralDecay::Power { exponent } => ((i + 1) as f64).powf(-exponent),
                SpectralDecay::Step { rank, floor } => {
                    if i < rank {
                        1.0
                    } else {
                        floor
                    }
                }
                SpectralDecay::ExponentialWithFloor { rate, floor } => {
                    (-rate * i as f64).exp().max(floor)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_decays_monotonically() {
        let s = SpectralDecay::Exponential { rate: 0.5 }.generate(10);
        assert_eq!(s.len(), 10);
        assert!((s[0] - 1.0).abs() < 1e-15);
        for w in s.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn power_decay_values() {
        let s = SpectralDecay::Power { exponent: 1.0 }.generate(4);
        assert!((s[1] - 0.5).abs() < 1e-15);
        assert!((s[3] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn step_profile() {
        let s = SpectralDecay::Step {
            rank: 3,
            floor: 1e-6,
        }
        .generate(6);
        assert_eq!(&s[..3], &[1.0, 1.0, 1.0]);
        assert!(s[3..].iter().all(|&v| v == 1e-6));
    }

    #[test]
    fn floor_clamps_exponential() {
        let s = SpectralDecay::ExponentialWithFloor {
            rate: 2.0,
            floor: 1e-3,
        }
        .generate(20);
        assert!(s.iter().all(|&v| v >= 1e-3));
        assert!((s[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn generate_zero_length() {
        assert!(SpectralDecay::Exponential { rate: 1.0 }
            .generate(0)
            .is_empty());
    }
}

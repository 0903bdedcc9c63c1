//! Tensor norms and the error metrics reported in the paper's evaluation.
//!
//! The paper reports (Tab. II, Figs. 1b/6/7):
//! * the **normalized RMS error** `‖X − X̃‖ / ‖X‖` of a reconstruction,
//! * the **maximum absolute element error** of the centered-and-scaled data,
//! * mode-wise error contributions (handled in `tucker-core::error`).

use crate::dense::DenseTensor;

/// Frobenius-style norm of a tensor (`‖X‖ = ‖X(1)‖_F`).
pub fn frob_norm(x: &DenseTensor) -> f64 {
    x.norm()
}

/// Relative (normalized) error `‖X − Y‖ / ‖X‖`.
///
/// Returns 0 when both tensors are identically zero, and `inf` when only the
/// reference is zero.
pub fn relative_error(x: &DenseTensor, y: &DenseTensor) -> f64 {
    assert_eq!(x.dims(), y.dims(), "relative_error: dimension mismatch");
    let num = x.sub(y).norm();
    let den = x.norm();
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// The paper's "normalized RMS error" of an approximation — identical to
/// [`relative_error`] because both numerator and denominator carry the same
/// `1/√I` RMS normalization.
pub fn normalized_rms_error(x: &DenseTensor, approx: &DenseTensor) -> f64 {
    relative_error(x, approx)
}

/// Maximum absolute elementwise difference `max |X_i − Y_i|` (Tab. II's
/// "Max. Abs. Elem. Err." on centered-and-scaled data).
pub fn max_abs_diff(x: &DenseTensor, y: &DenseTensor) -> f64 {
    assert_eq!(x.dims(), y.dims(), "max_abs_diff: dimension mismatch");
    x.as_slice()
        .iter()
        .zip(y.as_slice().iter())
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_of_identical_is_zero() {
        let x = DenseTensor::from_fn(&[3, 4], |idx| (idx[0] + idx[1]) as f64);
        assert_eq!(relative_error(&x, &x), 0.0);
    }

    #[test]
    fn relative_error_scales() {
        let x = DenseTensor::from_vec(&[2], vec![3.0, 4.0]);
        let y = DenseTensor::from_vec(&[2], vec![3.0, 3.0]);
        // ||x - y|| = 1, ||x|| = 5
        assert!((relative_error(&x, &y) - 0.2).abs() < 1e-14);
    }

    #[test]
    fn relative_error_zero_reference() {
        let z = DenseTensor::zeros(&[2, 2]);
        let y = DenseTensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(relative_error(&z, &z), 0.0);
        assert!(relative_error(&z, &y).is_infinite());
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        let x = DenseTensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let y = DenseTensor::from_vec(&[3], vec![1.5, 2.0, 0.0]);
        assert_eq!(max_abs_diff(&x, &y), 3.0);
    }

    #[test]
    fn normalized_rms_is_relative_error() {
        let x = DenseTensor::from_fn(&[4, 4], |idx| (idx[0] * 4 + idx[1]) as f64);
        let y = DenseTensor::from_fn(&[4, 4], |idx| (idx[0] * 4 + idx[1]) as f64 * 1.01);
        assert!((normalized_rms_error(&x, &y) - relative_error(&x, &y)).abs() < 1e-16);
    }

    #[test]
    #[should_panic]
    fn mismatched_dims_panic() {
        let x = DenseTensor::zeros(&[2, 2]);
        let y = DenseTensor::zeros(&[2, 3]);
        relative_error(&x, &y);
    }
}

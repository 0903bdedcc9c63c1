//! Level-1 BLAS-style vector kernels.
//!
//! These are the scalar building blocks used by the higher-level kernels
//! (GEMM micro-kernels, Householder reflectors, Jacobi rotations). They are
//! written to auto-vectorize under `opt-level = 3`.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Accumulate in four lanes to give the optimizer an easy reassociation.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Fibers [`fiber_dots`] keeps in flight at once: each output is a serial
/// add chain, so independent chains are what hide the add latency.
const FIBER_LANES: usize = 8;

/// Contracts every contiguous length-`row.len()` fiber of `x` with `row`:
/// `out[j] = Σ_p row[p] · x[j·R + p]`.
///
/// Unlike [`dot`], each output is **one running sum** seeded with `+0.0`,
/// adding `fl(row[p]·x[…])` for `p` strictly ascending, never fused — the
/// per-element recurrence of [`crate::gemm::gemm_slices`] at `alpha = 1`,
/// `beta = 0`. A mode-0 tensor-times-*row* product computed here is therefore
/// bit-identical to the same row of the GEMM-based TTM, without packing a
/// one-row matrix.
///
/// # Panics
/// Panics if `x.len() != row.len() * out.len()`.
pub fn fiber_dots(row: &[f64], x: &[f64], out: &mut [f64]) {
    let r = row.len();
    assert_eq!(x.len(), r * out.len(), "fiber_dots: length mismatch");
    if r == 0 {
        out.fill(0.0);
        return;
    }
    let mut blocks = out.chunks_exact_mut(FIBER_LANES);
    let mut xs = x.chunks_exact(FIBER_LANES * r);
    for (o, xb) in blocks.by_ref().zip(xs.by_ref()) {
        // Slicing each fiber to exactly `r` lets the bounds checks hoist.
        let fibers: [&[f64]; FIBER_LANES] = std::array::from_fn(|l| &xb[l * r..(l + 1) * r]);
        let mut acc = [0.0f64; FIBER_LANES];
        for (p, &u) in row.iter().enumerate() {
            for (a, f) in acc.iter_mut().zip(fibers.iter()) {
                *a += u * f[p];
            }
        }
        o.copy_from_slice(&acc);
    }
    for (o, fiber) in blocks
        .into_remainder()
        .iter_mut()
        .zip(xs.remainder().chunks_exact(r))
    {
        let mut acc = 0.0;
        for (&u, &g) in row.iter().zip(fiber) {
            acc += u * g;
        }
        *o = acc;
    }
}

/// `x ← a·x`.
pub fn scal(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Euclidean norm, computed with scaling to avoid overflow/underflow.
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &xi in x {
        if xi != 0.0 {
            let absxi = xi.abs();
            if scale < absxi {
                let r = scale / absxi;
                ssq = 1.0 + ssq * r * r;
                scale = absxi;
            } else {
                let r = absxi / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// Sum of squares of a slice (no overflow guard; used on normalized data).
pub fn sumsq(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_basic() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&x, &y), 35.0);
    }

    #[test]
    fn dot_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn fiber_dots_is_the_gemm_recurrence_bit_for_bit() {
        use crate::gemm::{gemm_slices, Transpose};
        // Fiber counts on both sides of the lane width, including a ragged
        // tail, and lengths on both sides of the direct/packed GEMM cutover.
        for (r, fibers) in [(1usize, 1usize), (3, 7), (5, 8), (17, 21), (114, 930)] {
            let row: Vec<f64> = (0..r).map(|p| (0.7 * p as f64).sin() - 0.2).collect();
            let x: Vec<f64> = (0..r * fibers)
                .map(|i| (0.13 * i as f64).cos() * 3.0)
                .collect();
            let mut got = vec![f64::NAN; fibers];
            fiber_dots(&row, &x, &mut got);
            // The mode-0 TTM's GEMM: X(1)ᵀ (fibers × r) · rowᵀ (r × 1).
            let mut want = vec![f64::NAN; fibers];
            gemm_slices(
                Transpose::No,
                Transpose::Yes,
                1.0,
                &x,
                fibers,
                r,
                r,
                &row,
                1,
                r,
                r,
                0.0,
                &mut want,
                1,
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "r={r} fibers={fibers}");
            }
        }
        // A sum of negative zeros still starts from +0.0, as the GEMM does.
        let mut z = [f64::NAN];
        fiber_dots(&[-0.0, 0.0], &[1.0, -1.0], &mut z);
        assert_eq!(z[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic]
    fn fiber_dots_mismatch_panics() {
        fiber_dots(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut [0.0]);
    }

    #[test]
    fn scal_basic() {
        let mut x = [1.0, -2.0, 3.0];
        scal(-0.5, &mut x);
        assert_eq!(x, [-0.5, 1.0, -1.5]);
    }

    #[test]
    fn nrm2_matches_naive() {
        let x = [3.0, 4.0];
        assert!(approx_eq(nrm2(&x), 5.0, 1e-14));
    }

    #[test]
    fn nrm2_large_values_no_overflow() {
        let x = [1e200, 1e200];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!(approx_eq(n, 2.0f64.sqrt() * 1e200, 1e-12));
    }

    #[test]
    fn nrm2_tiny_values_no_underflow() {
        let x = [1e-200, 1e-200];
        let n = nrm2(&x);
        assert!(n > 0.0);
        assert!(approx_eq(n, 2.0f64.sqrt() * 1e-200, 1e-12));
    }

    #[test]
    fn nrm2_zero_vector() {
        assert_eq!(nrm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn sumsq_basic() {
        assert!(approx_eq(sumsq(&[1.0, 2.0, 2.0]), 9.0, 1e-15));
    }
}

//! Householder QR factorization, blocked over the packed GEMM kernels.
//!
//! Sec. IX of the paper notes that for accuracy targets near machine precision
//! the Gram-matrix approach loses half the digits, and proposes computing the
//! SVD of the (tall, skinny) unfolding via a QR preprocessing step "at roughly
//! twice the cost". This module provides that QR step; [`crate::svd`] builds
//! the direct-SVD alternative on top of it.
//!
//! # Blocking
//!
//! For `min(m, n) > QR_PANEL` the factorization runs in compact-WY form:
//! columns are factored [`QR_PANEL`] at a time with the same scalar reflector
//! recurrence the unblocked path uses, a small upper-triangular `T` is
//! accumulated per panel so that the panel's reflector product is
//! `H_{j0}·…·H_{j1-1} = I − V·T·Vᵀ`, and the trailing matrix and the explicit
//! `Q` are updated with Level-3 [`crate::gemm`](mod@crate::gemm) calls that flow through the
//! packed microkernels. Panel/`T`/workspace storage is recycled through the
//! thread-local scratch pool ([`crate::pack::with_scratch`]) — no per-call
//! allocations beyond the returned factors.
//!
//! # Determinism contract
//!
//! The blocked recurrence is stated executably by
//! [`householder_qr_reference`]: a self-contained restatement using plain
//! loops and [`crate::gemm::gemm_slices_reference`] that the production path
//! must match **bit for bit**. Because the GEMM contract already pins bits
//! across SIMD tiers, `MC/KC/NC` blocking (including `TUCKER_BLOCK`
//! overrides), and thread counts, the QR bits inherit the same invariances.
//! [`QR_PANEL`] itself is a fixed constant — it is deliberately *not* derived
//! from cache sizes, so the factorization bits never depend on the host.
//! Problems with `min(m, n) ≤ QR_PANEL` take the pre-blocking scalar path
//! ([`householder_qr_unblocked`]) unchanged, bit for bit.

use crate::gemm::{gemm_slices_ctx, Transpose};
use crate::matrix::Matrix;
use crate::pack::with_scratch;
use tucker_exec::ExecContext;
use tucker_obs::metrics::Counter;

/// Total `householder_qr_ctx` invocations (either path).
pub static QR_CALLS: Counter = Counter::new("linalg.qr.calls");
/// Estimated flops of those calls (factor + explicit-Q formation),
/// `2mnk − (m+n)k² + 2k³/3 + 4mk² − 2k³` with `k = min(m, n)`.
pub static QR_FLOPS: Counter = Counter::new("linalg.qr.flops");

/// Panel width of the blocked compact-WY path. Fixed — part of the
/// determinism contract, never autotuned (see module docs).
pub const QR_PANEL: usize = 32;

/// Result of a QR factorization `A = Q · R` with `Q` having orthonormal columns.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// `m × k` matrix with orthonormal columns (`k = min(m, n)` for the thin QR).
    pub q: Matrix,
    /// `k × n` upper-triangular factor.
    pub r: Matrix,
}

/// Standard flop estimate for factorization + explicit thin-Q formation.
fn qr_flops(m: usize, n: usize, k: usize) -> u64 {
    let (m, n, k) = (m as f64, n as f64, k as f64);
    let factor = 2.0 * m * n * k - (m + n) * k * k + 2.0 * k * k * k / 3.0;
    let form_q = 4.0 * m * k * k - 2.0 * k * k * k;
    (factor + form_q).max(0.0) as u64
}

/// Thin Householder QR of an `m × n` matrix (`m ≥ n` or `m < n` both allowed).
///
/// Returns `Q` of size `m × k` and `R` of size `k × n` with `k = min(m, n)`,
/// such that `A ≈ Q·R` and `QᵀQ = I`. Dispatches to the blocked compact-WY
/// path when `k > QR_PANEL` (see module docs); results are bit-identical to
/// [`householder_qr_reference`] either way. `ctx` schedules the Level-3
/// updates; it only affects scheduling, never bits.
pub fn householder_qr_ctx(ctx: &ExecContext, a: &Matrix) -> QrFactors {
    QR_CALLS.add(1);
    let k = a.rows().min(a.cols());
    QR_FLOPS.add(qr_flops(a.rows(), a.cols(), k));
    if k <= QR_PANEL {
        householder_qr_unblocked(a)
    } else {
        householder_qr_blocked(ctx, a)
    }
}

/// The pre-blocking scalar recurrence: one Householder reflector per column,
/// applied column-by-column with Level-2 loops.
///
/// This is both the direct path for small problems (`min(m, n) ≤ QR_PANEL`)
/// and the pinned pre-blocking baseline the benchmark gate compares the
/// blocked path against.
pub fn householder_qr_unblocked(a: &Matrix) -> QrFactors {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let mut r = a.clone();
    // Store Householder vectors; v_j has length m - j.
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);

    for j in 0..k {
        // Build the Householder vector for column j below the diagonal.
        let mut v: Vec<f64> = (j..m).map(|i| r.get(i, j)).collect();
        let alpha = crate::blas1::nrm2(&v);
        if alpha == 0.0 {
            vs.push(vec![0.0; m - j]);
            continue;
        }
        let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
        v[0] += sign * alpha;
        let vnorm = crate::blas1::nrm2(&v);
        if vnorm == 0.0 {
            vs.push(vec![0.0; m - j]);
            continue;
        }
        for x in v.iter_mut() {
            *x /= vnorm;
        }
        // Apply the reflector to the trailing submatrix: R ← (I - 2vvᵀ) R.
        for col in j..n {
            let mut dot = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                dot += vi * r.get(j + idx, col);
            }
            let s = 2.0 * dot;
            for (idx, &vi) in v.iter().enumerate() {
                let val = r.get(j + idx, col) - s * vi;
                r.set(j + idx, col, val);
            }
        }
        vs.push(v);
    }

    // Extract the k x n upper-triangular R.
    let r_out = Matrix::from_fn(k, n, |i, j| if j >= i { r.get(i, j) } else { 0.0 });

    // Form Q (m x k) by applying the reflectors to the first k columns of I,
    // in reverse order.
    let mut q = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
    for j in (0..k).rev() {
        let v = &vs[j];
        if v.iter().all(|&x| x == 0.0) {
            continue;
        }
        for col in 0..k {
            let mut dot = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                dot += vi * q.get(j + idx, col);
            }
            let s = 2.0 * dot;
            for (idx, &vi) in v.iter().enumerate() {
                let val = q.get(j + idx, col) - s * vi;
                q.set(j + idx, col, val);
            }
        }
    }

    QrFactors { q, r: r_out }
}

/// Factors panel columns `j0..j1` of `r` in place with the scalar reflector
/// recurrence, storing unit-norm reflector vectors into columns `j0..j1` of
/// `v` (row-major, leading dimension `k`, rows `j0..m` written) and the
/// compact-WY accumulator into `t` (row-major `nb × nb`, upper-left `pn × pn`
/// fully written). `col` is `m`-length gather scratch, `tdot` is `nb`-length.
///
/// The recurrence per column `j` (global index, `jj = j − j0`):
///
/// * `v_j` = column `j` of `r` below the diagonal, shifted by `sign·‖·‖₂` and
///   normalized to unit norm exactly as in [`householder_qr_unblocked`]; an
///   exactly-zero column yields `v_j = 0` (reflector = identity).
/// * `H_j = I − 2·v_j·v_jᵀ` is applied to panel columns `j..j1` only with the
///   same Level-2 loops as the unblocked path.
/// * `T[0..jj][jj] = −2·T[0..jj][0..jj]·(Vᵀv_j)`, `T[jj][jj] = 2`
///   (`0` for a zero column), sub-diagonal entries written as exact zeros —
///   so `H_{j0}·…·H_j = I − V·T·Vᵀ` holds inductively.
fn factor_panel(
    r: &mut Matrix,
    j0: usize,
    j1: usize,
    v: &mut [f64],
    t: &mut [f64],
    col: &mut [f64],
    tdot: &mut [f64],
) {
    let m = r.rows();
    let k = r.rows().min(r.cols());
    let nb = QR_PANEL;
    let pn = j1 - j0;
    for j in j0..j1 {
        let jj = j - j0;
        let vj = &mut col[..m - j];
        for (idx, x) in vj.iter_mut().enumerate() {
            *x = r.get(j + idx, j);
        }
        let alpha = crate::blas1::nrm2(vj);
        let mut zero = alpha == 0.0;
        if !zero {
            let sign = if vj[0] >= 0.0 { 1.0 } else { -1.0 };
            vj[0] += sign * alpha;
            let vnorm = crate::blas1::nrm2(vj);
            if vnorm == 0.0 {
                zero = true;
            } else {
                for x in vj.iter_mut() {
                    *x /= vnorm;
                }
            }
        }
        if zero {
            vj.fill(0.0);
        } else {
            // Apply H_j to the remaining panel columns j..j1.
            for c in j..j1 {
                let mut dot = 0.0;
                for (idx, &vi) in vj.iter().enumerate() {
                    dot += vi * r.get(j + idx, c);
                }
                let s = 2.0 * dot;
                for (idx, &vi) in vj.iter().enumerate() {
                    let val = r.get(j + idx, c) - s * vi;
                    r.set(j + idx, c, val);
                }
            }
        }
        // Scatter v_j into column j of V (zeros above its start row).
        for i in j0..j {
            v[i * k + j] = 0.0;
        }
        for (idx, &vi) in vj.iter().enumerate() {
            v[(j + idx) * k + j] = vi;
        }
        // T column jj: tdot = V[:, j0..j]ᵀ · v_j (v_j is zero above row j),
        // then T[0..jj][jj] = −2·T·tdot against the upper-triangular block.
        for c in 0..jj {
            let mut dot = 0.0;
            for (idx, &vi) in vj.iter().enumerate() {
                dot += v[(j + idx) * k + (j0 + c)] * vi;
            }
            tdot[c] = dot;
        }
        for row in 0..jj {
            let mut acc = 0.0;
            for c in row..jj {
                acc += t[row * nb + c] * tdot[c];
            }
            t[row * nb + jj] = -2.0 * acc;
        }
        t[jj * nb + jj] = if zero { 0.0 } else { 2.0 };
        for row in jj + 1..pn {
            t[row * nb + jj] = 0.0;
        }
    }
}

/// The blocked compact-WY path (`k > QR_PANEL`). See module docs.
fn householder_qr_blocked(ctx: &ExecContext, a: &Matrix) -> QrFactors {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let nb = QR_PANEL;
    let np = k.div_ceil(nb);
    let wcols = n.max(k);
    let mut r = a.clone();
    let mut q = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
    with_scratch(
        [m * k, np * nb * nb, nb * wcols, nb * wcols, m, nb],
        |[vbuf, tbuf, wbuf, w2buf, colbuf, tdot]| {
            for panel in 0..np {
                let j0 = panel * nb;
                let j1 = (j0 + nb).min(k);
                let pn = j1 - j0;
                let t = &mut tbuf[panel * nb * nb..(panel + 1) * nb * nb];
                factor_panel(&mut r, j0, j1, vbuf, t, colbuf, tdot);
                // Trailing update C ← C − V·Tᵀ·(VᵀC) on columns j1..n
                // (Tᵀ because the panel reflectors hit C in ascending order).
                let rows = m - j0;
                let cols = n - j1;
                if cols > 0 {
                    let w = &mut wbuf[..pn * cols];
                    gemm_slices_ctx(
                        ctx,
                        Transpose::Yes,
                        Transpose::No,
                        1.0,
                        &vbuf[j0 * k + j0..],
                        rows,
                        pn,
                        k,
                        &r.as_slice()[j0 * n + j1..],
                        rows,
                        cols,
                        n,
                        0.0,
                        w,
                        cols,
                    );
                    let w2 = &mut w2buf[..pn * cols];
                    gemm_slices_ctx(
                        ctx,
                        Transpose::Yes,
                        Transpose::No,
                        1.0,
                        &tbuf[panel * nb * nb..],
                        pn,
                        pn,
                        nb,
                        &wbuf[..pn * cols],
                        pn,
                        cols,
                        cols,
                        0.0,
                        w2,
                        cols,
                    );
                    gemm_slices_ctx(
                        ctx,
                        Transpose::No,
                        Transpose::No,
                        -1.0,
                        &vbuf[j0 * k + j0..],
                        rows,
                        pn,
                        k,
                        &w2buf[..pn * cols],
                        pn,
                        cols,
                        cols,
                        1.0,
                        &mut r.as_mut_slice()[j0 * n + j1..],
                        n,
                    );
                }
            }
            // Form Q by applying the block reflectors to I(m×k) in reverse
            // panel order: Q ← Q − V·(T·(VᵀQ)).
            for panel in (0..np).rev() {
                let j0 = panel * nb;
                let j1 = (j0 + nb).min(k);
                let pn = j1 - j0;
                let rows = m - j0;
                let w = &mut wbuf[..pn * k];
                gemm_slices_ctx(
                    ctx,
                    Transpose::Yes,
                    Transpose::No,
                    1.0,
                    &vbuf[j0 * k + j0..],
                    rows,
                    pn,
                    k,
                    &q.as_slice()[j0 * k..],
                    rows,
                    k,
                    k,
                    0.0,
                    w,
                    k,
                );
                let w2 = &mut w2buf[..pn * k];
                gemm_slices_ctx(
                    ctx,
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &tbuf[panel * nb * nb..],
                    pn,
                    pn,
                    nb,
                    &wbuf[..pn * k],
                    pn,
                    k,
                    k,
                    0.0,
                    w2,
                    k,
                );
                gemm_slices_ctx(
                    ctx,
                    Transpose::No,
                    Transpose::No,
                    -1.0,
                    &vbuf[j0 * k + j0..],
                    rows,
                    pn,
                    k,
                    &w2buf[..pn * k],
                    pn,
                    k,
                    k,
                    1.0,
                    &mut q.as_mut_slice()[j0 * k..],
                    k,
                );
            }
        },
    );
    let r_out = Matrix::from_fn(k, n, |i, j| if j >= i { r.get(i, j) } else { 0.0 });
    QrFactors { q, r: r_out }
}

/// Executable statement of the QR determinism contract.
///
/// Restates both paths self-containedly: the small-problem path *is* the
/// pre-blocking recurrence ([`householder_qr_unblocked`]), and the blocked
/// path is re-derived here with plain `Vec` storage and
/// [`crate::gemm::gemm_slices_reference`] for every Level-3 update. The
/// production [`householder_qr_ctx`] must match this function bit for bit on
/// every input, every SIMD tier, every `TUCKER_BLOCK` setting, and every
/// thread count.
pub fn householder_qr_reference(a: &Matrix) -> QrFactors {
    use crate::gemm::gemm_slices_reference;
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    if k <= QR_PANEL {
        return householder_qr_unblocked(a);
    }
    let nb = QR_PANEL;
    let np = k.div_ceil(nb);
    let mut r = a.clone();
    let mut v = vec![0.0f64; m * k]; // row-major, leading dimension k
    let mut tmat = vec![0.0f64; np * nb * nb];

    for panel in 0..np {
        let j0 = panel * nb;
        let j1 = (j0 + nb).min(k);
        let pn = j1 - j0;
        let t = &mut tmat[panel * nb * nb..(panel + 1) * nb * nb];
        for j in j0..j1 {
            let jj = j - j0;
            let mut vj: Vec<f64> = (j..m).map(|i| r.get(i, j)).collect();
            let alpha = crate::blas1::nrm2(&vj);
            let mut zero = alpha == 0.0;
            if !zero {
                let sign = if vj[0] >= 0.0 { 1.0 } else { -1.0 };
                vj[0] += sign * alpha;
                let vnorm = crate::blas1::nrm2(&vj);
                if vnorm == 0.0 {
                    zero = true;
                } else {
                    for x in vj.iter_mut() {
                        *x /= vnorm;
                    }
                }
            }
            if zero {
                vj.fill(0.0);
            } else {
                for c in j..j1 {
                    let mut dot = 0.0;
                    for (idx, &vi) in vj.iter().enumerate() {
                        dot += vi * r.get(j + idx, c);
                    }
                    let s = 2.0 * dot;
                    for (idx, &vi) in vj.iter().enumerate() {
                        let val = r.get(j + idx, c) - s * vi;
                        r.set(j + idx, c, val);
                    }
                }
            }
            for i in j0..j {
                v[i * k + j] = 0.0;
            }
            for (idx, &vi) in vj.iter().enumerate() {
                v[(j + idx) * k + j] = vi;
            }
            let mut tdot = vec![0.0f64; jj];
            for (c, out) in tdot.iter_mut().enumerate() {
                let mut dot = 0.0;
                for (idx, &vi) in vj.iter().enumerate() {
                    dot += v[(j + idx) * k + (j0 + c)] * vi;
                }
                *out = dot;
            }
            for row in 0..jj {
                let mut acc = 0.0;
                for c in row..jj {
                    acc += t[row * nb + c] * tdot[c];
                }
                t[row * nb + jj] = -2.0 * acc;
            }
            t[jj * nb + jj] = if zero { 0.0 } else { 2.0 };
            for row in jj + 1..pn {
                t[row * nb + jj] = 0.0;
            }
        }
        let rows = m - j0;
        let cols = n - j1;
        if cols > 0 {
            let mut w = vec![0.0f64; pn * cols];
            gemm_slices_reference(
                Transpose::Yes,
                Transpose::No,
                1.0,
                &v[j0 * k + j0..],
                rows,
                pn,
                k,
                &r.as_slice()[j0 * n + j1..],
                rows,
                cols,
                n,
                0.0,
                &mut w,
                cols,
            );
            let mut w2 = vec![0.0f64; pn * cols];
            gemm_slices_reference(
                Transpose::Yes,
                Transpose::No,
                1.0,
                &tmat[panel * nb * nb..],
                pn,
                pn,
                nb,
                &w,
                pn,
                cols,
                cols,
                0.0,
                &mut w2,
                cols,
            );
            gemm_slices_reference(
                Transpose::No,
                Transpose::No,
                -1.0,
                &v[j0 * k + j0..],
                rows,
                pn,
                k,
                &w2,
                pn,
                cols,
                cols,
                1.0,
                &mut r.as_mut_slice()[j0 * n + j1..],
                n,
            );
        }
    }

    let r_out = Matrix::from_fn(k, n, |i, j| if j >= i { r.get(i, j) } else { 0.0 });
    let mut q = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
    for panel in (0..np).rev() {
        let j0 = panel * nb;
        let j1 = (j0 + nb).min(k);
        let pn = j1 - j0;
        let rows = m - j0;
        let mut w = vec![0.0f64; pn * k];
        gemm_slices_reference(
            Transpose::Yes,
            Transpose::No,
            1.0,
            &v[j0 * k + j0..],
            rows,
            pn,
            k,
            &q.as_slice()[j0 * k..],
            rows,
            k,
            k,
            0.0,
            &mut w,
            k,
        );
        let mut w2 = vec![0.0f64; pn * k];
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            1.0,
            &tmat[panel * nb * nb..],
            pn,
            pn,
            nb,
            &w,
            pn,
            k,
            k,
            0.0,
            &mut w2,
            k,
        );
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            -1.0,
            &v[j0 * k + j0..],
            rows,
            pn,
            k,
            &w2,
            pn,
            k,
            k,
            1.0,
            &mut q.as_mut_slice()[j0 * k..],
            k,
        );
    }
    QrFactors { q, r: r_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn check_qr(a: &Matrix, tol: f64) {
        let QrFactors { q, r } = householder_qr_ctx(ExecContext::global(), a);
        let k = a.rows().min(a.cols());
        assert_eq!(q.shape(), (a.rows(), k));
        assert_eq!(r.shape(), (k, a.cols()));
        assert!(q.has_orthonormal_columns(tol), "Q not orthonormal");
        // R upper triangular
        for i in 0..k {
            for j in 0..i.min(r.cols()) {
                assert!(r.get(i, j).abs() < tol, "R not upper triangular");
            }
        }
        let rec = gemm(Transpose::No, Transpose::No, 1.0, &q, &r);
        let err = a.sub(&rec).frob_norm() / (1.0 + a.frob_norm());
        assert!(err < tol, "QR reconstruction error {err}");
    }

    #[test]
    fn square_matrices() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 2, 5, 20, 50] {
            check_qr(&random_matrix(&mut rng, n, n), 1e-10);
        }
    }

    #[test]
    fn blocked_sizes_stay_orthonormal() {
        let mut rng = StdRng::seed_from_u64(36);
        // Everything here crosses QR_PANEL, including non-multiples of it.
        check_qr(&random_matrix(&mut rng, 96, 96), 1e-9);
        check_qr(&random_matrix(&mut rng, 97, 61), 1e-9);
        check_qr(&random_matrix(&mut rng, 61, 97), 1e-9);
        check_qr(&random_matrix(&mut rng, 130, 33), 1e-9);
    }

    #[test]
    fn tall_matrices() {
        let mut rng = StdRng::seed_from_u64(32);
        check_qr(&random_matrix(&mut rng, 40, 7), 1e-10);
        check_qr(&random_matrix(&mut rng, 100, 3), 1e-10);
    }

    #[test]
    fn wide_matrices() {
        let mut rng = StdRng::seed_from_u64(33);
        check_qr(&random_matrix(&mut rng, 6, 25), 1e-10);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Two identical columns.
        let a = Matrix::from_fn(8, 3, |i, j| if j == 2 { i as f64 } else { (i * 2) as f64 });
        let QrFactors { q, r } = householder_qr_ctx(ExecContext::global(), &a);
        let rec = gemm(Transpose::No, Transpose::No, 1.0, &q, &r);
        assert!(a.sub(&rec).frob_norm() < 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(5, 3);
        let QrFactors { q, r } = householder_qr_ctx(ExecContext::global(), &a);
        let rec = gemm(Transpose::No, Transpose::No, 1.0, &q, &r);
        assert!(rec.frob_norm() < 1e-12);
    }

    #[test]
    fn identity_qr() {
        let a = Matrix::identity(4);
        check_qr(&a, 1e-12);
    }

    fn assert_bitwise_eq(x: &QrFactors, y: &QrFactors, what: &str) {
        assert_eq!(x.q.shape(), y.q.shape(), "{what}: Q shape");
        assert_eq!(x.r.shape(), y.r.shape(), "{what}: R shape");
        for (i, (a, b)) in x.q.as_slice().iter().zip(y.q.as_slice().iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: Q[{i}] {a} vs {b}");
        }
        for (i, (a, b)) in x.r.as_slice().iter().zip(y.r.as_slice().iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: R[{i}] {a} vs {b}");
        }
    }

    #[test]
    fn blocked_path_matches_the_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(40);
        // Shapes straddling panel edges: exact multiples of QR_PANEL, one
        // more / one less, tall, and wide.
        for (m, n) in [
            (33usize, 33usize),
            (64, 64),
            (65, 63),
            (96, 40),
            (40, 96),
            (100, 97),
        ] {
            let a = random_matrix(&mut rng, m, n);
            let fast = householder_qr_ctx(ExecContext::global(), &a);
            let refr = householder_qr_reference(&a);
            assert_bitwise_eq(&fast, &refr, &format!("{m}x{n}"));
        }
    }

    #[test]
    fn small_path_is_the_unblocked_recurrence_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        for (m, n) in [(8usize, 8usize), (32, 32), (40, 20), (20, 40)] {
            let a = random_matrix(&mut rng, m, n);
            let fast = householder_qr_ctx(ExecContext::global(), &a);
            let unb = householder_qr_unblocked(&a);
            assert_bitwise_eq(&fast, &unb, &format!("{m}x{n}"));
            let refr = householder_qr_reference(&a);
            assert_bitwise_eq(&refr, &unb, &format!("reference {m}x{n}"));
        }
    }

    #[test]
    fn zero_columns_inside_blocked_panels() {
        // Zero columns land mid-panel and at a panel edge; the compact-WY
        // T must treat them as identity reflectors.
        let mut rng = StdRng::seed_from_u64(42);
        let mut a = random_matrix(&mut rng, 70, 50);
        for i in 0..70 {
            a.set(i, 10, 0.0);
            a.set(i, 32, 0.0);
            a.set(i, 33, 0.0);
        }
        let fast = householder_qr_ctx(ExecContext::global(), &a);
        let refr = householder_qr_reference(&a);
        assert_bitwise_eq(&fast, &refr, "zero columns");
        let rec = gemm(Transpose::No, Transpose::No, 1.0, &fast.q, &fast.r);
        let err = a.sub(&rec).frob_norm() / (1.0 + a.frob_norm());
        assert!(err < 1e-9, "reconstruction error {err}");
    }

    #[test]
    fn blocked_bits_are_invariant_to_gemm_blocking() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(43);
        let a = random_matrix(&mut rng, 80, 72);
        let base = householder_qr_ctx(ctx, &a);
        let prev = crate::blocking::force_blocking(crate::blocking::Blocking {
            mc: 16,
            kc: 16,
            nc: 16,
        });
        let shrunk = householder_qr_ctx(ctx, &a);
        crate::blocking::force_blocking(prev);
        assert_bitwise_eq(&base, &shrunk, "TUCKER_BLOCK shrink");
    }
}

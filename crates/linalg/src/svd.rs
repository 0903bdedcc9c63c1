//! One-sided Jacobi singular value decomposition, blocked over the packed
//! GEMM kernels.
//!
//! The paper's kernels use the Gram-matrix + eigendecomposition route to obtain
//! left singular vectors, which is accurate whenever the target error ε is well
//! above √(machine precision) (Sec. II-B). For ε near machine precision the
//! paper proposes a direct SVD (Sec. IX). This module supplies that option:
//! a thin SVD computed by one-sided Jacobi rotations, optionally preceded by a
//! QR factorization when the matrix is very tall (the exact scheme sketched in
//! the paper's conclusion).
//!
//! # Blocking
//!
//! For inputs whose (dispatched) column count exceeds [`SVD_BLOCKED_MIN`],
//! the sweeps run over [`SVD_BLOCK`]-wide *column blocks*: each pair's
//! `2·SVD_BLOCK`-column Gram matrix is formed with a Level-3
//! [`crate::gemm`](mod@crate::gemm) call, its eigenvectors (from the scalar solver
//! [`crate::eig::sym_eig_unblocked`]) are the block rotation, and the
//! rotation is applied to the `W`/`V` column groups with two more GEMMs —
//! all flowing through the packed microkernels. Smaller problems keep the
//! pre-blocking scalar sweeps verbatim.
//!
//! # Determinism contract
//!
//! The blocked recurrence is stated executably by [`jacobi_svd_reference`];
//! the production path must match it bit for bit. As with GEMM/QR/eig, the
//! bits are invariant to SIMD tier, `MC/KC/NC` blocking (including
//! `TUCKER_BLOCK` overrides), and thread count; [`SVD_BLOCK`] is a fixed
//! constant, never autotuned.

use crate::gemm::{gemm_slices_ctx, Transpose};
use crate::matrix::Matrix;
use crate::pack::with_scratch;
use tucker_exec::ExecContext;
use tucker_obs::metrics::Counter;

/// Total `jacobi_svd_ctx` invocations (top-level, not internal dispatch).
pub static SVD_CALLS: Counter = Counter::new("linalg.svd.calls");
/// Nominal flops of those calls, `4mk² + 8k³` per call (`k = min(m, n)`) —
/// the standard accounting for a thin SVD with both factor matrices.
pub static SVD_FLOPS: Counter = Counter::new("linalg.svd.flops");

/// Column-block width of the blocked one-sided Jacobi path (pivot Gram
/// subproblems are `2·SVD_BLOCK` square). Fixed — part of the determinism
/// contract, never autotuned.
pub const SVD_BLOCK: usize = 32;

/// Largest (dispatched) column count still swept with scalar rotations.
/// Above this the blocked path takes over. Fixed — part of the determinism
/// contract. (Set where the blocked sweeps win on full-rank inputs on this
/// class of host; below it the scalar sweeps are simply faster.)
pub const SVD_BLOCKED_MIN: usize = 192;

/// Sweep cap shared by the scalar and blocked paths.
const SVD_MAX_SWEEPS: usize = 60;

/// Relative off-diagonal tolerance of the one-sided sweeps (both paths).
const SVD_TOL: f64 = 1e-14;

/// Thin SVD `A = U · diag(s) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k`.
    pub u: Matrix,
    /// Singular values in descending order, length `k = min(m, n)`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × k`.
    pub v: Matrix,
}

/// Computes the thin SVD of `a` by one-sided Jacobi.
///
/// When `a` has at least twice as many rows as columns, a QR factorization is
/// performed first and the Jacobi sweeps run on the small `R` factor — this is
/// the "QR as preprocessing" strategy from the paper's Sec. IX. Results are
/// bit-identical to [`jacobi_svd_reference`]. `ctx` schedules the Level-3
/// updates; it only affects scheduling, never bits.
pub fn jacobi_svd_ctx(ctx: &ExecContext, a: &Matrix) -> Svd {
    SVD_CALLS.add(1);
    let (m, k) = (a.rows() as f64, a.rows().min(a.cols()) as f64);
    SVD_FLOPS.add((4.0 * m * k * k + 8.0 * k * k * k) as u64);
    svd_inner(ctx, a)
}

/// Shape dispatch shared by the public entry and its recursion (no counter
/// bumps here).
fn svd_inner(ctx: &ExecContext, a: &Matrix) -> Svd {
    let m = a.rows();
    let n = a.cols();
    if m == 0 || n == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        };
    }
    if m >= 2 * n {
        // Tall-skinny: A = Q R, SVD(R) = Ur S Vᵀ, so U = Q Ur.
        let qr = crate::qr::householder_qr_ctx(ctx, a);
        let inner = svd_inner(ctx, &qr.r);
        let mut u = Matrix::zeros(m, inner.u.cols());
        gemm_slices_ctx(
            ctx,
            Transpose::No,
            Transpose::No,
            1.0,
            qr.q.as_slice(),
            qr.q.rows(),
            qr.q.cols(),
            qr.q.cols(),
            inner.u.as_slice(),
            inner.u.rows(),
            inner.u.cols(),
            inner.u.cols(),
            0.0,
            u.as_mut_slice(),
            inner.u.cols(),
        );
        return Svd {
            u,
            s: inner.s,
            v: inner.v,
        };
    }
    if n > m {
        // Work on the transpose and swap U/V.
        let at = a.transpose();
        let svd_t = svd_inner(ctx, &at);
        return Svd {
            u: svd_t.v,
            s: svd_t.s,
            v: svd_t.u,
        };
    }
    if n <= SVD_BLOCKED_MIN {
        jacobi_svd_dense_scalar(a)
    } else {
        jacobi_svd_dense_blocked(ctx, a)
    }
}

/// The pre-blocking behavior end to end: scalar-rotation sweeps, and the
/// tall-skinny preprocessing done with the unblocked QR.
///
/// This is the pinned pre-blocking baseline the benchmark compares the
/// blocked path against (it is *not* required to match [`jacobi_svd_ctx`]
/// bitwise — the blocked determinism contract is [`jacobi_svd_reference`]).
pub fn jacobi_svd_unblocked(a: &Matrix) -> Svd {
    use crate::gemm::gemm;
    let m = a.rows();
    let n = a.cols();
    if m == 0 || n == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        };
    }
    if m >= 2 * n {
        let qr = crate::qr::householder_qr_unblocked(a);
        let inner = jacobi_svd_unblocked(&qr.r);
        let u = gemm(Transpose::No, Transpose::No, 1.0, &qr.q, &inner.u);
        return Svd {
            u,
            s: inner.s,
            v: inner.v,
        };
    }
    if n > m {
        let at = a.transpose();
        let svd_t = jacobi_svd_unblocked(&at);
        return Svd {
            u: svd_t.v,
            s: svd_t.s,
            v: svd_t.u,
        };
    }
    jacobi_svd_dense_scalar(a)
}

/// One-sided scalar Jacobi sweeps (the pre-blocking recurrence, unchanged).
/// Direct path for dispatched column counts `≤ SVD_BLOCKED_MIN`.
fn jacobi_svd_dense_scalar(a: &Matrix) -> Svd {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    // Work matrix W whose columns are rotated toward mutual orthogonality.
    let mut w = a.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..SVD_MAX_SWEEPS {
        let mut converged = true;
        for p in 0..n {
            for q in p + 1..n {
                // Compute the 2x2 Gram submatrix of columns p and q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w.get(i, p);
                    let wq = w.get(i, q);
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() > SVD_TOL * (app * aqq).sqrt().max(1e-300) {
                    converged = false;
                    // Jacobi rotation that annihilates apq.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for i in 0..m {
                        let wp = w.get(i, p);
                        let wq = w.get(i, q);
                        w.set(i, p, c * wp - s * wq);
                        w.set(i, q, s * wp + c * wq);
                    }
                    for i in 0..n {
                        let vp = v.get(i, p);
                        let vq = v.get(i, q);
                        v.set(i, p, c * vp - s * vq);
                        v.set(i, q, s * vp + c * vq);
                    }
                }
            }
        }
        if converged {
            break;
        }
    }
    extract_svd(&w, &v, k)
}

/// Shared epilogue of the sweep paths (pure selection + normalization):
/// singular values are the column norms of `W`; `U` columns are the
/// normalized `W` columns, ordered by descending singular value.
fn extract_svd(w: &Matrix, v: &Matrix, k: usize) -> Svd {
    let m = w.rows();
    let n = w.cols();
    let mut sv: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let col: Vec<f64> = (0..m).map(|i| w.get(i, j)).collect();
            (crate::blas1::nrm2(&col), j)
        })
        .collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let kept: Vec<(f64, usize)> = sv.into_iter().take(k).collect();

    let s: Vec<f64> = kept.iter().map(|&(sv, _)| sv).collect();
    let mut u = Matrix::zeros(m, k);
    let mut v_out = Matrix::zeros(n, k);
    for (out_j, &(sval, j)) in kept.iter().enumerate() {
        if sval > 1e-300 {
            for i in 0..m {
                u.set(i, out_j, w.get(i, j) / sval);
            }
        } else {
            // Null singular value: leave a zero column (caller treats rank as reduced).
        }
        for i in 0..n {
            v_out.set(i, out_j, v.get(i, j));
        }
    }
    Svd { u, s, v: v_out }
}

/// `[start, end)` column ranges of `nb`-wide Jacobi blocks.
fn block_ranges(n: usize, nb: usize) -> Vec<(usize, usize)> {
    (0..n.div_ceil(nb))
        .map(|b| (b * nb, ((b + 1) * nb).min(n)))
        .collect()
}

/// Block one-sided Jacobi sweeps (dispatched column count
/// `> SVD_BLOCKED_MIN`). See module docs; the recurrence per pivot pair
/// `(p, q)` of column blocks (`s = pn + qn` columns total):
///
/// 1. `G = Wₚᵩᵀ·Wₚᵩ` (`s × s` Gram of the gathered column group), one GEMM.
/// 2. Skip if the pair passes [`pair_is_converged`] — the block
///    generalization of the scalar rotation test, floored at the
///    machine-noise scale of `‖A‖F²`.
/// 3. `U` = eigenvectors of `G` from the scalar solver
///    ([`crate::eig::sym_eig_unblocked`]).
/// 4. `W[:, p∪q] ← W[:, p∪q]·U` and `V[:, p∪q] ← V[:, p∪q]·U`, two GEMMs.
fn jacobi_svd_dense_blocked(ctx: &ExecContext, a: &Matrix) -> Svd {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let blocks = block_ranges(n, SVD_BLOCK);
    let nblk = blocks.len();
    let smax = 2 * SVD_BLOCK;
    let rows_max = m.max(n);
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    // ‖A‖F² in pinned row-major order: invariant under the sweeps' rotations,
    // computed once as the absolute scale of the convergence test.
    let mut tfrob = 0.0;
    for i in 0..m {
        for &x in w.row(i) {
            tfrob += x * x;
        }
    }
    with_scratch(
        [rows_max * smax, rows_max * smax, smax * smax],
        |[g, h, gram]| {
            for _sweep in 0..SVD_MAX_SWEEPS {
                let mut converged = true;
                for bp in 0..nblk {
                    for bq in bp + 1..nblk {
                        let (p0, p1) = blocks[bp];
                        let (q0, q1) = blocks[bq];
                        let pn = p1 - p0;
                        let s = (p1 - p0) + (q1 - q0);
                        // Gather the column group Wₚᵩ (m × s).
                        for i in 0..m {
                            let row = w.row(i);
                            let dst = &mut g[i * s..(i + 1) * s];
                            dst[..pn].copy_from_slice(&row[p0..p1]);
                            dst[pn..].copy_from_slice(&row[q0..q1]);
                        }
                        let gr = &mut gram[..s * s];
                        gemm_slices_ctx(
                            ctx,
                            Transpose::Yes,
                            Transpose::No,
                            1.0,
                            &g[..m * s],
                            m,
                            s,
                            s,
                            &g[..m * s],
                            m,
                            s,
                            s,
                            0.0,
                            gr,
                            s,
                        );
                        if pair_is_converged(gr, pn, s, tfrob) {
                            continue;
                        }
                        converged = false;
                        let p = Matrix::from_fn(s, s, |i, j| gr[i * s + j]);
                        let u = crate::eig::sym_eig_unblocked(&p).vectors;
                        // W[:, p∪q] ← Wₚᵩ·U.
                        gemm_slices_ctx(
                            ctx,
                            Transpose::No,
                            Transpose::No,
                            1.0,
                            &g[..m * s],
                            m,
                            s,
                            s,
                            u.as_slice(),
                            s,
                            s,
                            s,
                            0.0,
                            &mut h[..m * s],
                            s,
                        );
                        for i in 0..m {
                            let src = &h[i * s..(i + 1) * s];
                            let row = w.row_mut(i);
                            row[p0..p1].copy_from_slice(&src[..pn]);
                            row[q0..q1].copy_from_slice(&src[pn..]);
                        }
                        // V[:, p∪q] ← Vₚᵩ·U.
                        for i in 0..n {
                            let row = v.row(i);
                            let dst = &mut g[i * s..(i + 1) * s];
                            dst[..pn].copy_from_slice(&row[p0..p1]);
                            dst[pn..].copy_from_slice(&row[q0..q1]);
                        }
                        gemm_slices_ctx(
                            ctx,
                            Transpose::No,
                            Transpose::No,
                            1.0,
                            &g[..n * s],
                            n,
                            s,
                            s,
                            u.as_slice(),
                            s,
                            s,
                            s,
                            0.0,
                            &mut h[..n * s],
                            s,
                        );
                        for i in 0..n {
                            let src = &h[i * s..(i + 1) * s];
                            let row = v.row_mut(i);
                            row[p0..p1].copy_from_slice(&src[..pn]);
                            row[q0..q1].copy_from_slice(&src[pn..]);
                        }
                    }
                }
                if converged {
                    break;
                }
            }
        },
    );
    extract_svd(&w, &v, k)
}

/// The blocked rotation test: coupling-block norm against the geometric mean
/// of the two diagonal-block traces (squares summed row-major — pinned
/// because it steers control flow, which steers bits).
///
/// The relative test alone stalls on rank-deficient inputs: a column block of
/// pure rounding noise is re-randomized by every pivot eigensolve, so its
/// coupling never drops below `SVD_TOL` *relative to its own (noise-sized)
/// trace*. `tfrob = ‖A‖F²` supplies the absolute scale: couplings below
/// `SVD_TOL²·‖A‖F²` are machine noise for the overall problem and count as
/// converged, which leaves the relative accuracy of every singular value
/// above that floor untouched.
fn pair_is_converged(gram: &[f64], pn: usize, s: usize, tfrob: f64) -> bool {
    let mut cp = 0.0;
    for i in 0..pn {
        for j in pn..s {
            cp += gram[i * s + j] * gram[i * s + j];
        }
    }
    let mut tp = 0.0;
    for t in 0..pn {
        tp += gram[t * s + t];
    }
    let mut tq = 0.0;
    for t in pn..s {
        tq += gram[t * s + t];
    }
    cp.sqrt() <= SVD_TOL * (tp * tq).sqrt().max(SVD_TOL * tfrob)
}

/// Executable statement of the blocked SVD determinism contract.
///
/// Restates the production dispatch with the reference building blocks:
/// [`crate::qr::householder_qr_reference`] for the tall-skinny preprocessing,
/// plain `Vec` storage and [`crate::gemm::gemm_slices_reference`] for every
/// Level-3 update of the blocked sweeps, the scalar sweep path
/// ([`jacobi_svd_ctx`]'s own direct path) for small dispatched problems, and the
/// scalar solver [`crate::eig::sym_eig_unblocked`] for the pivot Gram
/// eigenproblems. The production [`jacobi_svd_ctx`] must match this function bit
/// for bit on every input, every SIMD tier, every `TUCKER_BLOCK` setting,
/// and every thread count.
pub fn jacobi_svd_reference(a: &Matrix) -> Svd {
    use crate::gemm::gemm_slices_reference;
    let m = a.rows();
    let n = a.cols();
    if m == 0 || n == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        };
    }
    if m >= 2 * n {
        let qr = crate::qr::householder_qr_reference(a);
        let inner = jacobi_svd_reference(&qr.r);
        let mut u = Matrix::zeros(m, inner.u.cols());
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            1.0,
            qr.q.as_slice(),
            qr.q.rows(),
            qr.q.cols(),
            qr.q.cols(),
            inner.u.as_slice(),
            inner.u.rows(),
            inner.u.cols(),
            inner.u.cols(),
            0.0,
            u.as_mut_slice(),
            inner.u.cols(),
        );
        return Svd {
            u,
            s: inner.s,
            v: inner.v,
        };
    }
    if n > m {
        let at = a.transpose();
        let svd_t = jacobi_svd_reference(&at);
        return Svd {
            u: svd_t.v,
            s: svd_t.s,
            v: svd_t.u,
        };
    }
    if n <= SVD_BLOCKED_MIN {
        return jacobi_svd_dense_scalar(a);
    }
    // Blocked sweeps, restated with Vec storage + reference GEMMs.
    let k = m.min(n);
    let blocks = block_ranges(n, SVD_BLOCK);
    let nblk = blocks.len();
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    let mut tfrob = 0.0;
    for i in 0..m {
        for &x in w.row(i) {
            tfrob += x * x;
        }
    }
    for _sweep in 0..SVD_MAX_SWEEPS {
        let mut converged = true;
        for bp in 0..nblk {
            for bq in bp + 1..nblk {
                let (p0, p1) = blocks[bp];
                let (q0, q1) = blocks[bq];
                let pn = p1 - p0;
                let s = (p1 - p0) + (q1 - q0);
                let mut g = vec![0.0f64; m.max(n) * s];
                for i in 0..m {
                    for (t, j) in (p0..p1).chain(q0..q1).enumerate() {
                        g[i * s + t] = w.get(i, j);
                    }
                }
                let mut gram = vec![0.0f64; s * s];
                gemm_slices_reference(
                    Transpose::Yes,
                    Transpose::No,
                    1.0,
                    &g[..m * s],
                    m,
                    s,
                    s,
                    &g[..m * s],
                    m,
                    s,
                    s,
                    0.0,
                    &mut gram,
                    s,
                );
                if pair_is_converged(&gram, pn, s, tfrob) {
                    continue;
                }
                converged = false;
                let p = Matrix::from_fn(s, s, |i, j| gram[i * s + j]);
                let u = crate::eig::sym_eig_unblocked(&p).vectors;
                let mut h = vec![0.0f64; m.max(n) * s];
                gemm_slices_reference(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &g[..m * s],
                    m,
                    s,
                    s,
                    u.as_slice(),
                    s,
                    s,
                    s,
                    0.0,
                    &mut h[..m * s],
                    s,
                );
                for i in 0..m {
                    for (t, j) in (p0..p1).chain(q0..q1).enumerate() {
                        w.set(i, j, h[i * s + t]);
                    }
                }
                for i in 0..n {
                    for (t, j) in (p0..p1).chain(q0..q1).enumerate() {
                        g[i * s + t] = v.get(i, j);
                    }
                }
                gemm_slices_reference(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &g[..n * s],
                    n,
                    s,
                    s,
                    u.as_slice(),
                    s,
                    s,
                    s,
                    0.0,
                    &mut h[..n * s],
                    s,
                );
                for i in 0..n {
                    for (t, j) in (p0..p1).chain(q0..q1).enumerate() {
                        v.set(i, j, h[i * s + t]);
                    }
                }
            }
        }
        if converged {
            break;
        }
    }
    extract_svd(&w, &v, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn check_svd(a: &Matrix, tol: f64) {
        let Svd { u, s, v } = jacobi_svd_ctx(ExecContext::global(), a);
        let k = a.rows().min(a.cols());
        assert_eq!(u.shape(), (a.rows(), k));
        assert_eq!(v.shape(), (a.cols(), k));
        assert_eq!(s.len(), k);
        // Descending order, nonnegative.
        for w in s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for &sv in &s {
            assert!(sv >= 0.0);
        }
        // Reconstruction: A ≈ U diag(s) Vᵀ.
        let us = Matrix::from_fn(a.rows(), k, |i, j| u.get(i, j) * s[j]);
        let rec = gemm(Transpose::No, Transpose::Yes, 1.0, &us, &v);
        let err = a.sub(&rec).frob_norm() / (1.0 + a.frob_norm());
        assert!(err < tol, "SVD reconstruction error {err}");
    }

    #[test]
    fn square_random() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in [1usize, 3, 10, 30] {
            check_svd(&random_matrix(&mut rng, n, n), 1e-9);
        }
    }

    #[test]
    fn tall_uses_qr_path() {
        let mut rng = StdRng::seed_from_u64(42);
        check_svd(&random_matrix(&mut rng, 80, 7), 1e-9);
    }

    #[test]
    fn wide_matrix() {
        let mut rng = StdRng::seed_from_u64(43);
        check_svd(&random_matrix(&mut rng, 5, 40), 1e-9);
    }

    #[test]
    fn blocked_sizes_reconstruct() {
        let mut rng = StdRng::seed_from_u64(46);
        // Column counts past SVD_BLOCKED_MIN, including a ragged last block.
        check_svd(&random_matrix(&mut rng, 200, 200), 1e-8);
        let svd = jacobi_svd_ctx(ExecContext::global(), &random_matrix(&mut rng, 210, 193));
        assert!(svd.u.has_orthonormal_columns(1e-8));
        assert!(svd.v.has_orthonormal_columns(1e-8));
    }

    #[test]
    fn singular_values_match_eig_of_gram() {
        let mut rng = StdRng::seed_from_u64(44);
        let a = random_matrix(&mut rng, 25, 10);
        let svd = jacobi_svd_ctx(ExecContext::global(), &a);
        let gram = crate::syrk::syrk(&a.transpose()); // AᵀA, 10x10
        let eig = crate::eig::sym_eig_desc(&gram);
        for (sv, ev) in svd.s.iter().zip(eig.values.iter()) {
            assert!((sv * sv - ev).abs() < 1e-8 * (1.0 + ev.abs()));
        }
    }

    #[test]
    fn rank_one_matrix() {
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let a = Matrix::from_fn(3, 2, |i, j| u[i] * v[j]);
        let svd = jacobi_svd_ctx(ExecContext::global(), &a);
        assert!(svd.s[0] > 1.0);
        assert!(
            svd.s[1].abs() < 1e-10,
            "second singular value should vanish"
        );
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let svd = jacobi_svd_ctx(ExecContext::global(), &a);
        assert!(svd.s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(0, 3);
        let svd = jacobi_svd_ctx(ExecContext::global(), &a);
        assert!(svd.s.is_empty());
    }

    #[test]
    fn orthonormal_factors() {
        let mut rng = StdRng::seed_from_u64(45);
        let a = random_matrix(&mut rng, 20, 12);
        let svd = jacobi_svd_ctx(ExecContext::global(), &a);
        assert!(svd.u.has_orthonormal_columns(1e-8));
        assert!(svd.v.has_orthonormal_columns(1e-8));
    }

    fn assert_svd_bitwise_eq(x: &Svd, y: &Svd, what: &str) {
        assert_eq!(x.s.len(), y.s.len(), "{what}: value count");
        for (i, (a, b)) in x.s.iter().zip(y.s.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: s[{i}] {a} vs {b}");
        }
        for (mx, my, name) in [(&x.u, &y.u, "U"), (&x.v, &y.v, "V")] {
            assert_eq!(mx.shape(), my.shape(), "{what}: {name} shape");
            for (i, (a, b)) in mx.as_slice().iter().zip(my.as_slice().iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}[{i}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn blocked_path_matches_the_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(47);
        // A ragged blocked sweep, and a tall input whose QR preprocessing
        // feeds a blocked square sweep.
        for (m, n) in [(210usize, 193usize), (400, 200)] {
            let a = random_matrix(&mut rng, m, n);
            let fast = jacobi_svd_ctx(ExecContext::global(), &a);
            let refr = jacobi_svd_reference(&a);
            assert_svd_bitwise_eq(&fast, &refr, &format!("{m}x{n}"));
        }
    }

    #[test]
    fn small_square_path_is_the_scalar_recurrence_bitwise() {
        let mut rng = StdRng::seed_from_u64(48);
        // Square ≤ SVD_BLOCKED_MIN dispatches straight to the scalar sweeps
        // in both the production and pre-blocking entry points.
        for n in [60usize, 120] {
            let a = random_matrix(&mut rng, n, n);
            let fast = jacobi_svd_ctx(ExecContext::global(), &a);
            let unb = jacobi_svd_unblocked(&a);
            assert_svd_bitwise_eq(&fast, &unb, &format!("{n}x{n}"));
            let refr = jacobi_svd_reference(&a);
            assert_svd_bitwise_eq(&refr, &unb, &format!("reference {n}x{n}"));
        }
    }

    #[test]
    fn rank_deficient_blocked_input_converges() {
        // Numerically low-rank input past the blocked cutoff: without the
        // absolute noise floor in pair_is_converged, the pure-noise column
        // blocks never pass the relative test and the sweeps stall at
        // SVD_MAX_SWEEPS (and drift bitwise from the reference's stall).
        let a = Matrix::from_fn(210, 200, |i, j| ((i * 11 + j * 3) as f64 * 0.27).sin());
        check_svd(&a, 1e-8);
        let fast = jacobi_svd_ctx(ExecContext::global(), &a);
        let refr = jacobi_svd_reference(&a);
        assert_svd_bitwise_eq(&fast, &refr, "smooth 210x200");
    }

    #[test]
    fn blocked_bits_are_invariant_to_gemm_blocking() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(49);
        let a = random_matrix(&mut rng, 200, 193);
        let base = jacobi_svd_ctx(ctx, &a);
        let prev = crate::blocking::force_blocking(crate::blocking::Blocking {
            mc: 16,
            kc: 16,
            nc: 16,
        });
        let shrunk = jacobi_svd_ctx(ctx, &a);
        crate::blocking::force_blocking(prev);
        assert_svd_bitwise_eq(&base, &shrunk, "TUCKER_BLOCK shrink");
    }
}

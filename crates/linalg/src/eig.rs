//! Symmetric eigendecomposition (the `dsyevx` replacement).
//!
//! The Tucker algorithms need the leading `Rn` eigenvectors of the `In × In`
//! Gram matrix `S = Y(n) Y(n)ᵀ` (paper Alg. 1 line 6, Alg. 2 line 7, Alg. 5
//! line 5). The paper assumes `In ≤ 2000`, so a dense solver is appropriate.
//!
//! Two paths share the public entry point:
//!
//! * `n ≤ EIG_BLOCKED_MIN`: the classical two-stage approach — Householder
//!   reduction to tridiagonal form, then implicit-shift QL iteration
//!   ([`sym_eig_unblocked`]). This is also the pinned pre-blocking baseline.
//! * `n > EIG_BLOCKED_MIN`: the **same two-stage algorithm restructured so
//!   its Level-3 flops flow through the packed microkernels**. A blocked
//!   tridiagonalization factors [`EIG_BLOCK`] reflectors per panel
//!   (latrd-style): each panel accumulates the reflectors `V` and the update
//!   vectors `W` lazily, then the trailing matrix takes one rank-`2·EIG_BLOCK`
//!   two-sided update `M ← M − V·Wᵀ − W·Vᵀ` as two
//!   [`crate::gemm`](mod@crate::gemm) calls.
//!   The tridiagonal problem is then solved by a QL variant whose Givens
//!   rotations sweep contiguous *rows* of a transposed eigenvector store
//!   (`tql2_rows`), and the eigenvectors are back-transformed by applying
//!   the panels' compact-WY products `I − V·T·Vᵀ` in reverse order with
//!   three GEMMs per panel — the same `T` recurrence the blocked QR uses.
//!
//! A cyclic scalar Jacobi solver is also provided as an independent
//! reference (and as the fallback on the rare QL non-convergence); the test
//! suite cross-validates all paths.
//!
//! # Determinism contract
//!
//! The blocked recurrence is stated executably by [`sym_eig_reference`]: a
//! restatement with plain `Vec` storage and
//! [`crate::gemm::gemm_slices_reference`] for every Level-3 update, which the
//! production path must match **bit for bit**. The scalar panel recurrence
//! (`tridiag_factor_panel`) and the QL iteration (`tql2_rows`) are pinned
//! leaf helpers shared verbatim by both. Because the GEMM contract already
//! pins bits across SIMD tiers, `MC/KC/NC` blocking (including `TUCKER_BLOCK`
//! overrides), and thread counts, the eigendecomposition bits inherit the
//! same invariances. [`EIG_BLOCK`] itself is a fixed constant, never
//! autotuned.

use crate::gemm::{gemm_slices_ctx, Transpose};
use crate::matrix::Matrix;
use crate::pack::with_scratch;
use tucker_exec::ExecContext;
use tucker_obs::metrics::Counter;

/// Total `sym_eig_ctx` invocations (either path).
pub static EIG_CALLS: Counter = Counter::new("linalg.eig.calls");
/// Nominal flops of those calls, `9n³` per call — the standard accounting
/// for a full symmetric eigendecomposition with eigenvectors.
pub static EIG_FLOPS: Counter = Counter::new("linalg.eig.flops");

/// Panel width of the blocked tridiagonalization (reflectors factored per
/// trailing update). Fixed — part of the determinism contract, never
/// autotuned.
pub const EIG_BLOCK: usize = 32;

/// Largest `n` still solved by the scalar two-stage path. Above this the
/// blocked tridiagonalization takes over. Fixed — part of the determinism
/// contract.
pub const EIG_BLOCKED_MIN: usize = 128;

/// Result of a symmetric eigendecomposition.
///
/// Satisfies `A ≈ V · diag(values) · Vᵀ`, where column `j` of `vectors` is the
/// eigenvector for `values[j]`.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues.
    pub values: Vec<f64>,
    /// Eigenvectors, stored column-wise (column `j` pairs with `values[j]`).
    pub vectors: Matrix,
}

impl SymEig {
    /// Returns the eigenvectors associated with the `r` largest eigenvalues as
    /// an `n × r` matrix (assuming `values` are sorted descending).
    pub fn leading_vectors(&self, r: usize) -> Matrix {
        let n = self.vectors.rows();
        let r = r.min(self.vectors.cols());
        let mut out = Matrix::zeros(n, r);
        for i in 0..n {
            out.row_mut(i).copy_from_slice(&self.vectors.row(i)[..r]);
        }
        out
    }
}

/// Householder tridiagonalization of a symmetric matrix.
///
/// Returns `(diag, offdiag, q)` where `q` is the accumulated orthogonal matrix
/// such that `A = Q · T · Qᵀ` with `T` tridiagonal.
fn tridiagonalize(a: &Matrix) -> (Vec<f64>, Vec<f64>, Matrix) {
    let n = a.rows();
    assert_eq!(a.rows(), a.cols(), "tridiagonalize: matrix must be square");
    // Work on a copy in a flat Vec<Vec<f64>>-free layout.
    let mut z = a.clone();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];

    // Householder reduction (adapted from the classical tred2 routine).
    for i in (1..n).rev() {
        let l = i;
        let mut h = 0.0;
        let mut scale = 0.0;
        if l > 1 {
            for k in 0..l {
                scale += z.get(i, k).abs();
            }
            if scale == 0.0 {
                e[i] = z.get(i, l - 1);
            } else {
                for k in 0..l {
                    let v = z.get(i, k) / scale;
                    z.set(i, k, v);
                    h += v * v;
                }
                let mut f = z.get(i, l - 1);
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z.set(i, l - 1, f - g);
                f = 0.0;
                for (j, ej) in e.iter_mut().enumerate().take(l) {
                    z.set(j, i, z.get(i, j) / h);
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z.get(j, k) * z.get(i, k);
                    }
                    for k in j + 1..l {
                        g += z.get(k, j) * z.get(i, k);
                    }
                    *ej = g / h;
                    f += *ej * z.get(i, j);
                }
                let hh = f / (h + h);
                for j in 0..l {
                    let fj = z.get(i, j);
                    let gj = e[j] - hh * fj;
                    e[j] = gj;
                    for (k, &ek) in e.iter().enumerate().take(j + 1) {
                        let v = z.get(j, k) - (fj * ek + gj * z.get(i, k));
                        z.set(j, k, v);
                    }
                }
            }
        } else {
            e[i] = z.get(i, l - 1);
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate transformation.
    for (i, di) in d.iter_mut().enumerate() {
        let l = i;
        if *di != 0.0 {
            for j in 0..l {
                let mut g = 0.0;
                for k in 0..l {
                    g += z.get(i, k) * z.get(k, j);
                }
                for k in 0..l {
                    let v = z.get(k, j) - g * z.get(k, i);
                    z.set(k, j, v);
                }
            }
        }
        *di = z.get(i, i);
        z.set(i, i, 1.0);
        for j in 0..l {
            z.set(j, i, 0.0);
            z.set(i, j, 0.0);
        }
    }
    (d, e, z)
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix, accumulating
/// the rotations into `z` (adapted from the classical tql2 routine).
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<(), String> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find small subdiagonal element.
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(format!("tql2: no convergence for eigenvalue {l}"));
            }
            // Form shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate eigenvectors.
                for k in 0..n {
                    f = z.get(k, i + 1);
                    z.set(k, i + 1, s * z.get(k, i) + c * f);
                    z.set(k, i, c * z.get(k, i) - s * f);
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Full symmetric eigendecomposition with eigenvalues in **ascending** order.
///
/// Dispatches to the blocked tridiagonalization path for `n > EIG_BLOCKED_MIN`
/// (see module docs); results are bit-identical to [`sym_eig_reference`]
/// either way.
///
/// `ctx` schedules the Level-3 updates; it only affects scheduling, never
/// bits.
///
/// # Panics
/// Panics if `a` is not square.
pub fn sym_eig_ctx(ctx: &ExecContext, a: &Matrix) -> SymEig {
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_eig: matrix must be square");
    EIG_CALLS.add(1);
    let nf = n as f64;
    EIG_FLOPS.add((9.0 * nf * nf * nf) as u64);
    if n <= EIG_BLOCKED_MIN {
        sym_eig_unblocked(a)
    } else {
        sym_eig_blocked(ctx, a)
    }
}

/// The pre-blocking scalar path: Householder tridiagonalization +
/// implicit-shift QL (cyclic Jacobi fallback on the rare QL non-convergence).
///
/// This is both the direct path for `n ≤ EIG_BLOCKED_MIN` and the pinned
/// pre-blocking baseline the benchmark gate compares the blocked path
/// against.
pub fn sym_eig_unblocked(a: &Matrix) -> SymEig {
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_eig: matrix must be square");
    if n == 0 {
        return SymEig {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        };
    }
    if n == 1 {
        return SymEig {
            values: vec![a.get(0, 0)],
            vectors: Matrix::identity(1),
        };
    }
    let (mut d, mut e, mut z) = tridiagonalize(a);
    if tql2(&mut d, &mut e, &mut z).is_err() {
        // Fall back to the (slower but very robust) Jacobi solver.
        return jacobi_eig(a);
    }
    // Sort ascending (tql2 output is not guaranteed sorted).
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
    let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| z.get(i, idx[j]));
    SymEig { values, vectors }
}

/// Symmetric eigendecomposition with eigenvalues sorted **descending** — the
/// order required by the Tucker rank-selection rule (Alg. 1 line 5), which
/// discards trailing eigenvalues.
pub fn sym_eig_desc(a: &Matrix) -> SymEig {
    let mut asc = sym_eig_ctx(ExecContext::global(), a);
    let n = asc.values.len();
    asc.values.reverse();
    let vectors = Matrix::from_fn(n, n, |i, j| asc.vectors.get(i, n - 1 - j));
    SymEig {
        values: asc.values,
        vectors,
    }
}

/// Factors reflector columns `j0..j1` of the (lazily updated) symmetric
/// iterate `m` into `V`, `W`, `T`, and the subdiagonal `e` — the scalar panel
/// recurrence of the blocked tridiagonalization, shared verbatim by the
/// production path and [`sym_eig_reference`].
///
/// Reflector `j` (`jj = j − j0`, length `n − 1 − j`, convention
/// `H = I − 2vvᵀ` with unit-norm `v` exactly as in the blocked QR) eliminates
/// column `j` below the subdiagonal. `m` is **not** modified: the panel works
/// against the state before the panel's own reflectors, correcting gathered
/// columns and matvec results with the accumulated `V`/`W` columns instead
/// (the trailing update `M ← M − V·Wᵀ − W·Vᵀ` is applied by the caller once
/// per panel).
///
/// Storage: `v` is row-major `n × kv` (`kv = n − 1`, reflector `j` in column
/// `j`, explicit zeros in rows `0..=j`); `w` is row-major `n × EIG_BLOCK`
/// (panel-local column `jj`, explicit zeros in rows `0..=j`), holding
/// `w_j = 2·(M̃·v_j − (v_jᵀM̃v_j)·v_j)` over the trailing rows, `M̃` the
/// lazily corrected iterate; `t` is the panel's row-major
/// `EIG_BLOCK × EIG_BLOCK` compact-WY accumulator with the same recurrence as
/// the blocked QR (`T[0..jj][jj] = −2·T·(Vᵀv_j)`, diagonal `2`, `0` for a
/// zero column, sub-diagonal exact zeros), so
/// `H_{j0}·…·H_{j1−1} = I − V·T·Vᵀ` holds inductively. `x`/`u` are `n`-length
/// gather scratch, `wv`/`vv` are `EIG_BLOCK`-length.
///
/// Per column `j`:
///
/// 1. `x` ← column `j` of `m` below the diagonal, minus
///    `V[r]·W[j] + W[r]·V[j]` contributions from panel columns `0..jj`
///    (applied unconditionally — no value-dependent skips, so bits never
///    depend on data).
/// 2. Householder: shift by `sign·‖x‖₂`, renormalize to unit norm; an
///    exactly-zero column yields `v_j = 0` (identity reflector).
///    `e[j] = −sign·‖x‖₂` (the gathered `x[0]` for a zero column).
/// 3. `u` ← `M̃·v_j`: row-contiguous matvec against `m`'s trailing rows,
///    corrected by `V·(Wᵀv_j) + W·(Vᵀv_j)` through `wv`/`vv`.
/// 4. `w_j = 2·(u − (v_jᵀu)·v_j)`, scattered into `w`; `Vᵀv_j` (already in
///    `vv`) feeds the `T` column.
#[expect(
    clippy::too_many_arguments,
    reason = "LAPACK-style panel kernel (DLATRD): the panel bounds and every work array are explicit"
)]
fn tridiag_factor_panel(
    m: &Matrix,
    j0: usize,
    j1: usize,
    kv: usize,
    v: &mut [f64],
    w: &mut [f64],
    t: &mut [f64],
    e: &mut [f64],
    x: &mut [f64],
    u: &mut [f64],
    wv: &mut [f64],
    vv: &mut [f64],
) {
    let n = m.rows();
    let nb = EIG_BLOCK;
    let pn = j1 - j0;
    for j in j0..j1 {
        let jj = j - j0;
        let l = n - 1 - j;
        let xj = &mut x[..l];
        // 1. Gather column j below the diagonal, then apply the panel's
        // pending rank-2 updates to it.
        for (i, xi) in xj.iter_mut().enumerate() {
            *xi = m.get(j + 1 + i, j);
        }
        for c in 0..jj {
            let wj = w[j * nb + c];
            let vj = v[j * kv + (j0 + c)];
            for (i, xi) in xj.iter_mut().enumerate() {
                let r = j + 1 + i;
                *xi -= v[r * kv + (j0 + c)] * wj + w[r * nb + c] * vj;
            }
        }
        // 2. Householder vector, exactly as in the blocked QR panel.
        let x0 = xj[0];
        let alpha = crate::blas1::nrm2(xj);
        let mut zero = alpha == 0.0;
        let mut sign = 1.0;
        if !zero {
            sign = if xj[0] >= 0.0 { 1.0 } else { -1.0 };
            xj[0] += sign * alpha;
            let vnorm = crate::blas1::nrm2(xj);
            if vnorm == 0.0 {
                zero = true;
            } else {
                for xi in xj.iter_mut() {
                    *xi /= vnorm;
                }
            }
        }
        if zero {
            xj.fill(0.0);
        }
        e[j] = if zero { x0 } else { -sign * alpha };
        // 3. u = M̃·v_j over the trailing block: row-contiguous matvec, then
        // the lazy correction u ← u − V·(Wᵀv_j) − W·(Vᵀv_j).
        let uj = &mut u[..l];
        for (i, ui) in uj.iter_mut().enumerate() {
            let row = &m.row(j + 1 + i)[j + 1..];
            let mut acc = 0.0;
            for (k, &xk) in xj.iter().enumerate() {
                acc += row[k] * xk;
            }
            *ui = acc;
        }
        for c in 0..jj {
            let mut aw = 0.0;
            let mut av = 0.0;
            for (i, &xi) in xj.iter().enumerate() {
                let r = j + 1 + i;
                aw += w[r * nb + c] * xi;
                av += v[r * kv + (j0 + c)] * xi;
            }
            wv[c] = aw;
            vv[c] = av;
        }
        for c in 0..jj {
            let wvc = wv[c];
            let vvc = vv[c];
            for (i, ui) in uj.iter_mut().enumerate() {
                let r = j + 1 + i;
                *ui -= v[r * kv + (j0 + c)] * wvc + w[r * nb + c] * vvc;
            }
        }
        // 4. w_j = 2·(u − (v_jᵀu)·v_j).
        let mut vu = 0.0;
        for (&xi, &ui) in xj.iter().zip(uj.iter()) {
            vu += xi * ui;
        }
        for (i, ui) in uj.iter_mut().enumerate() {
            *ui = 2.0 * (*ui - vu * xj[i]);
        }
        // Scatter v_j and w_j (explicit zeros above their start row).
        for r in 0..=j {
            v[r * kv + j] = 0.0;
        }
        for (i, &xi) in xj.iter().enumerate() {
            v[(j + 1 + i) * kv + j] = xi;
        }
        for r in 0..=j {
            w[r * nb + jj] = 0.0;
        }
        for (i, &ui) in uj.iter().enumerate() {
            w[(j + 1 + i) * nb + jj] = ui;
        }
        // T column jj against vv = Vᵀv_j — the blocked-QR recurrence.
        for row in 0..jj {
            let mut acc = 0.0;
            for c in row..jj {
                acc += t[row * nb + c] * vv[c];
            }
            t[row * nb + jj] = -2.0 * acc;
        }
        t[jj * nb + jj] = if zero { 0.0 } else { 2.0 };
        for row in jj + 1..pn {
            t[row * nb + jj] = 0.0;
        }
    }
}

/// Implicit-shift QL on a symmetric tridiagonal matrix with the rotations
/// applied to contiguous **rows** of the transposed eigenvector store `zt`
/// (`zt[i·n + k]` = component `k` of eigenvector `i`; caller initializes to
/// identity). Unlike [`tql2`], `e[j]` is already the coupling `(j, j+1)` on
/// entry (`e[n−1] = 0`) — no initial shift. Arithmetic per element is
/// otherwise identical to the classical recurrence; a pinned leaf helper
/// shared by the production blocked path and [`sym_eig_reference`].
fn tql2_rows(d: &mut [f64], e: &mut [f64], zt: &mut [f64]) -> Result<(), String> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find small subdiagonal element.
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(format!("tql2_rows: no convergence for eigenvalue {l}"));
            }
            // Form shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector rows i and i+1 — contiguous in zt.
                let (lo, hi) = zt.split_at_mut((i + 1) * n);
                let ri = &mut lo[i * n..];
                let ri1 = &mut hi[..n];
                for k in 0..n {
                    f = ri1[k];
                    ri1[k] = s * ri[k] + c * f;
                    ri[k] = c * ri[k] - s * f;
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// The blocked tridiagonalization path (`n > EIG_BLOCKED_MIN`). See module
/// docs; the recurrence is restated executably by [`sym_eig_reference`].
fn sym_eig_blocked(ctx: &ExecContext, a: &Matrix) -> SymEig {
    let n = a.rows();
    let kv = n - 1;
    let nb = EIG_BLOCK;
    let np = kv.div_ceil(nb);
    let mut m = a.clone();
    let result = with_scratch(
        [
            n * kv,
            n * nb,
            np * nb * nb,
            n * n,
            n * n,
            nb * n,
            nb * n,
            n,
            n,
            nb,
            nb,
        ],
        |[vbuf, wbuf, tbuf, ztbuf, zqbuf, wk1, wk2, xbuf, ubuf, wv, vv]| {
            let mut d = vec![0.0f64; n];
            let mut e = vec![0.0f64; n];
            for panel in 0..np {
                let j0 = panel * nb;
                let j1 = (j0 + nb).min(kv);
                let pn = j1 - j0;
                let t = &mut tbuf[panel * nb * nb..(panel + 1) * nb * nb];
                tridiag_factor_panel(&m, j0, j1, kv, vbuf, wbuf, t, &mut e, xbuf, ubuf, wv, vv);
                // Trailing two-sided update M ← M − V·Wᵀ − W·Vᵀ on rows/cols
                // j0+1.. (row/col j0 is untouched by this panel's reflectors,
                // and excluding it keeps the GEMMs free of all-zero V/W rows).
                let r0 = j0 + 1;
                let rows = n - r0;
                gemm_slices_ctx(
                    ctx,
                    Transpose::No,
                    Transpose::Yes,
                    -1.0,
                    &vbuf[r0 * kv + j0..],
                    rows,
                    pn,
                    kv,
                    &wbuf[r0 * nb..],
                    rows,
                    pn,
                    nb,
                    1.0,
                    &mut m.as_mut_slice()[r0 * n + r0..],
                    n,
                );
                gemm_slices_ctx(
                    ctx,
                    Transpose::No,
                    Transpose::Yes,
                    -1.0,
                    &wbuf[r0 * nb..],
                    rows,
                    pn,
                    nb,
                    &vbuf[r0 * kv + j0..],
                    rows,
                    pn,
                    kv,
                    1.0,
                    &mut m.as_mut_slice()[r0 * n + r0..],
                    n,
                );
            }
            // The tridiagonal T: diagonal from the fully updated iterate,
            // subdiagonal pinned by the panels.
            for (j, dj) in d.iter_mut().enumerate() {
                *dj = m.get(j, j);
            }
            e[n - 1] = 0.0;
            let zt = &mut ztbuf[..n * n];
            zt.fill(0.0);
            for i in 0..n {
                zt[i * n + i] = 1.0;
            }
            if tql2_rows(&mut d, &mut e, zt).is_err() {
                return None;
            }
            // Transpose back: zq column k = eigenvector k of T.
            let zq = &mut zqbuf[..n * n];
            for k in 0..n {
                for i in 0..n {
                    zq[i * n + k] = zt[k * n + i];
                }
            }
            // Back-transform Z ← Q·Z by applying the panels' compact-WY
            // products in reverse order: Z ← Z − V·(T·(VᵀZ)).
            for panel in (0..np).rev() {
                let j0 = panel * nb;
                let j1 = (j0 + nb).min(kv);
                let pn = j1 - j0;
                let rows = n - j0;
                let w1 = &mut wk1[..pn * n];
                gemm_slices_ctx(
                    ctx,
                    Transpose::Yes,
                    Transpose::No,
                    1.0,
                    &vbuf[j0 * kv + j0..],
                    rows,
                    pn,
                    kv,
                    &zq[j0 * n..],
                    rows,
                    n,
                    n,
                    0.0,
                    w1,
                    n,
                );
                let w2 = &mut wk2[..pn * n];
                gemm_slices_ctx(
                    ctx,
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &tbuf[panel * nb * nb..],
                    pn,
                    pn,
                    nb,
                    &wk1[..pn * n],
                    pn,
                    n,
                    n,
                    0.0,
                    w2,
                    n,
                );
                gemm_slices_ctx(
                    ctx,
                    Transpose::No,
                    Transpose::No,
                    -1.0,
                    &vbuf[j0 * kv + j0..],
                    rows,
                    pn,
                    kv,
                    &wk2[..pn * n],
                    pn,
                    n,
                    n,
                    1.0,
                    &mut zq[j0 * n..],
                    n,
                );
            }
            // Sort ascending (pure selection, no arithmetic).
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
            let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
            let vectors = Matrix::from_fn(n, n, |i, j| zq[i * n + idx[j]]);
            Some(SymEig { values, vectors })
        },
    );
    // QL failed to converge (pathological input): same fallback as the
    // scalar path.
    result.unwrap_or_else(|| jacobi_eig(a))
}

/// Executable statement of the blocked-eigendecomposition determinism
/// contract.
///
/// Restates the blocked path with plain `Vec` storage and
/// [`crate::gemm::gemm_slices_reference`] for every Level-3 update. The
/// pinned scalar leaves are shared verbatim: the small-problem path *is* the
/// pre-blocking scalar solver ([`sym_eig_unblocked`]), the panel recurrence
/// is `tridiag_factor_panel`, the tridiagonal solve is `tql2_rows`, and
/// the QL-failure fallback is `jacobi_eig`. The production [`sym_eig_ctx`]
/// must match this function bit for bit on every input, every SIMD tier,
/// every `TUCKER_BLOCK` setting, and every thread count.
pub fn sym_eig_reference(a: &Matrix) -> SymEig {
    use crate::gemm::gemm_slices_reference;
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_eig: matrix must be square");
    if n <= EIG_BLOCKED_MIN {
        return sym_eig_unblocked(a);
    }
    let kv = n - 1;
    let nb = EIG_BLOCK;
    let np = kv.div_ceil(nb);
    let mut m = a.clone();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    let mut v = vec![0.0f64; n * kv];
    let mut w = vec![0.0f64; n * nb];
    let mut tmat = vec![0.0f64; np * nb * nb];
    let mut x = vec![0.0f64; n];
    let mut u = vec![0.0f64; n];
    let mut wv = vec![0.0f64; nb];
    let mut vv = vec![0.0f64; nb];
    for panel in 0..np {
        let j0 = panel * nb;
        let j1 = (j0 + nb).min(kv);
        let pn = j1 - j0;
        let t = &mut tmat[panel * nb * nb..(panel + 1) * nb * nb];
        tridiag_factor_panel(
            &m, j0, j1, kv, &mut v, &mut w, t, &mut e, &mut x, &mut u, &mut wv, &mut vv,
        );
        let r0 = j0 + 1;
        let rows = n - r0;
        gemm_slices_reference(
            Transpose::No,
            Transpose::Yes,
            -1.0,
            &v[r0 * kv + j0..],
            rows,
            pn,
            kv,
            &w[r0 * nb..],
            rows,
            pn,
            nb,
            1.0,
            &mut m.as_mut_slice()[r0 * n + r0..],
            n,
        );
        gemm_slices_reference(
            Transpose::No,
            Transpose::Yes,
            -1.0,
            &w[r0 * nb..],
            rows,
            pn,
            nb,
            &v[r0 * kv + j0..],
            rows,
            pn,
            kv,
            1.0,
            &mut m.as_mut_slice()[r0 * n + r0..],
            n,
        );
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = m.get(j, j);
    }
    e[n - 1] = 0.0;
    let mut zt = vec![0.0f64; n * n];
    for i in 0..n {
        zt[i * n + i] = 1.0;
    }
    if tql2_rows(&mut d, &mut e, &mut zt).is_err() {
        return jacobi_eig(a);
    }
    let mut zq = vec![0.0f64; n * n];
    for k in 0..n {
        for i in 0..n {
            zq[i * n + k] = zt[k * n + i];
        }
    }
    for panel in (0..np).rev() {
        let j0 = panel * nb;
        let j1 = (j0 + nb).min(kv);
        let pn = j1 - j0;
        let rows = n - j0;
        let mut w1 = vec![0.0f64; pn * n];
        gemm_slices_reference(
            Transpose::Yes,
            Transpose::No,
            1.0,
            &v[j0 * kv + j0..],
            rows,
            pn,
            kv,
            &zq[j0 * n..],
            rows,
            n,
            n,
            0.0,
            &mut w1,
            n,
        );
        let mut w2 = vec![0.0f64; pn * n];
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            1.0,
            &tmat[panel * nb * nb..],
            pn,
            pn,
            nb,
            &w1,
            pn,
            n,
            n,
            0.0,
            &mut w2,
            n,
        );
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            -1.0,
            &v[j0 * kv + j0..],
            rows,
            pn,
            kv,
            &w2,
            pn,
            n,
            n,
            1.0,
            &mut zq[j0 * n..],
            n,
        );
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
    let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| zq[i * n + idx[j]]);
    SymEig { values, vectors }
}

/// Cyclic Jacobi eigenvalue algorithm (ascending order). Slower than the
/// tridiagonal path but essentially bulletproof; used as a fallback and as an
/// independent reference in tests.
fn jacobi_eig(a: &Matrix) -> SymEig {
    let n = a.rows();
    assert_eq!(n, a.cols(), "jacobi_eig: matrix must be square");
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() <= 1e-14 * (1.0 + m.frob_norm()) {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation to rows/cols p and q of M.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let mut d: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
    d = idx.iter().map(|&i| m.get(i, i)).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v.get(i, idx[j]));
    SymEig { values: d, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use crate::syrk::syrk;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symmetric(rng: &mut StdRng, n: usize) -> Matrix {
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let at = a.transpose();
        let mut s = a.add(&at);
        s.scale(0.5);
        s
    }

    fn reconstruction_error(a: &Matrix, eig: &SymEig) -> f64 {
        let n = a.rows();
        let d = Matrix::from_fn(n, n, |i, j| if i == j { eig.values[i] } else { 0.0 });
        let vd = gemm(Transpose::No, Transpose::No, 1.0, &eig.vectors, &d);
        let rec = gemm(Transpose::No, Transpose::Yes, 1.0, &vd, &eig.vectors);
        a.sub(&rec).frob_norm() / (1.0 + a.frob_norm())
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let e = sym_eig_ctx(ExecContext::global(), &a);
        for (i, v) in e.values.iter().enumerate() {
            assert!((v - (i + 1) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = sym_eig_ctx(ExecContext::global(), &a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstructs_random_symmetric() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [2usize, 5, 13, 40, 80] {
            let a = random_symmetric(&mut rng, n);
            let e = sym_eig_ctx(ExecContext::global(), &a);
            assert!(
                reconstruction_error(&a, &e) < 1e-10,
                "reconstruction failed for n={n}"
            );
            assert!(e.vectors.has_orthonormal_columns(1e-9));
        }
    }

    #[test]
    fn ascending_order() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = random_symmetric(&mut rng, 25);
        let e = sym_eig_ctx(ExecContext::global(), &a);
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn descending_variant_matches() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_symmetric(&mut rng, 15);
        let asc = sym_eig_ctx(ExecContext::global(), &a);
        let desc = sym_eig_desc(&a);
        for w in desc.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!((asc.values[14] - desc.values[0]).abs() < 1e-12);
        assert!(reconstruction_error(&a, &desc) < 1e-10);
    }

    #[test]
    fn jacobi_agrees_with_ql() {
        let mut rng = StdRng::seed_from_u64(24);
        let a = random_symmetric(&mut rng, 20);
        let e1 = sym_eig_ctx(ExecContext::global(), &a);
        let e2 = jacobi_eig(&a);
        for (x, y) in e1.values.iter().zip(e2.values.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
        assert!(reconstruction_error(&a, &e2) < 1e-9);
    }

    #[test]
    fn gram_matrix_eigenvalues_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(25);
        let a = Matrix::from_fn(30, 12, |_, _| rng.gen_range(-1.0..1.0));
        let s = syrk(&a);
        let e = sym_eig_desc(&s);
        for &v in &e.values {
            assert!(v > -1e-9, "Gram eigenvalue should be nonnegative: {v}");
        }
        // Rank of A·Aᵀ is at most 12: eigenvalues beyond index 11 are ~0.
        for &v in &e.values[12..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn leading_vectors_shape_and_orthonormality() {
        let mut rng = StdRng::seed_from_u64(26);
        let a = random_symmetric(&mut rng, 18);
        let e = sym_eig_desc(&a);
        let u = e.leading_vectors(5);
        assert_eq!(u.shape(), (18, 5));
        assert!(u.has_orthonormal_columns(1e-9));
    }

    #[test]
    fn leading_vectors_clamps_to_n() {
        let a = Matrix::identity(3);
        let e = sym_eig_desc(&a);
        let u = e.leading_vectors(10);
        assert_eq!(u.shape(), (3, 3));
    }

    #[test]
    fn empty_and_single() {
        let ctx = ExecContext::global();
        let e = sym_eig_ctx(ctx, &Matrix::zeros(0, 0));
        assert!(e.values.is_empty());
        let a = Matrix::from_vec(1, 1, vec![7.5]);
        let e = sym_eig_ctx(ctx, &a);
        assert_eq!(e.values, vec![7.5]);
        assert_eq!(e.vectors.get(0, 0), 1.0);
    }

    fn assert_eig_bitwise_eq(x: &SymEig, y: &SymEig, what: &str) {
        assert_eq!(x.values.len(), y.values.len(), "{what}: value count");
        for (i, (a, b)) in x.values.iter().zip(y.values.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: value[{i}] {a} vs {b}");
        }
        assert_eq!(x.vectors.shape(), y.vectors.shape(), "{what}: V shape");
        for (i, (a, b)) in x
            .vectors
            .as_slice()
            .iter()
            .zip(y.vectors.as_slice().iter())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: V[{i}] {a} vs {b}");
        }
    }

    #[test]
    fn blocked_path_reconstructs_and_is_orthonormal() {
        let mut rng = StdRng::seed_from_u64(28);
        for n in [150usize, 200] {
            let a = random_symmetric(&mut rng, n);
            let e = sym_eig_ctx(ExecContext::global(), &a);
            assert!(
                reconstruction_error(&a, &e) < 1e-9,
                "blocked reconstruction failed for n={n}"
            );
            assert!(e.vectors.has_orthonormal_columns(1e-9));
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn blocked_path_on_gram_matrix() {
        // The representative Tucker workload: PSD Gram matrix, fast-decaying
        // spectrum, n past the blocked cutoff.
        let mut rng = StdRng::seed_from_u64(29);
        let a = Matrix::from_fn(160, 90, |_, _| rng.gen_range(-1.0..1.0));
        let s = syrk(&a);
        let e = sym_eig_desc(&s);
        assert!(reconstruction_error(&s, &e) < 1e-9);
        for &v in &e.values[90..] {
            assert!(v.abs() < 1e-8, "rank-deficient tail eigenvalue {v}");
        }
    }

    #[test]
    fn blocked_path_matches_the_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(30);
        // 150 is not a multiple of EIG_BLOCK: the last panel is ragged.
        for n in [150usize, 192] {
            let a = random_symmetric(&mut rng, n);
            let fast = sym_eig_ctx(ExecContext::global(), &a);
            let refr = sym_eig_reference(&a);
            assert_eig_bitwise_eq(&fast, &refr, &format!("n={n}"));
        }
    }

    #[test]
    fn small_path_is_the_unblocked_solver_bitwise() {
        let mut rng = StdRng::seed_from_u64(34);
        let a = random_symmetric(&mut rng, 64);
        let fast = sym_eig_ctx(ExecContext::global(), &a);
        let unb = sym_eig_unblocked(&a);
        assert_eig_bitwise_eq(&fast, &unb, "n=64");
        let refr = sym_eig_reference(&a);
        assert_eig_bitwise_eq(&refr, &unb, "reference n=64");
    }

    #[test]
    fn blocked_bits_are_invariant_to_gemm_blocking() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(35);
        let a = random_symmetric(&mut rng, 160);
        let base = sym_eig_ctx(ctx, &a);
        let prev = crate::blocking::force_blocking(crate::blocking::Blocking {
            mc: 16,
            kc: 16,
            nc: 16,
        });
        let shrunk = sym_eig_ctx(ctx, &a);
        crate::blocking::force_blocking(prev);
        assert_eig_bitwise_eq(&base, &shrunk, "TUCKER_BLOCK shrink");
    }

    #[test]
    fn blocked_agrees_with_unblocked_numerically() {
        let mut rng = StdRng::seed_from_u64(37);
        let a = random_symmetric(&mut rng, 150);
        let blocked = sym_eig_ctx(ExecContext::global(), &a);
        let unb = sym_eig_unblocked(&a);
        for (x, y) in blocked.values.iter().zip(unb.values.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // 3x3 with a double eigenvalue: diag(2,2,5) rotated.
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(27);
        let q = {
            // random orthogonal via QR of random matrix
            let m = Matrix::from_fn(3, 3, |_, _| rng.gen_range(-1.0..1.0));
            crate::qr::householder_qr_ctx(ctx, &m).q
        };
        let d = Matrix::from_fn(3, 3, |i, j| {
            if i == j {
                if i < 2 {
                    2.0
                } else {
                    5.0
                }
            } else {
                0.0
            }
        });
        let qd = gemm(Transpose::No, Transpose::No, 1.0, &q, &d);
        let a = gemm(Transpose::No, Transpose::Yes, 1.0, &qd, &q);
        let e = sym_eig_ctx(ctx, &a);
        assert!((e.values[0] - 2.0).abs() < 1e-9);
        assert!((e.values[1] - 2.0).abs() < 1e-9);
        assert!((e.values[2] - 5.0).abs() < 1e-9);
        assert!(reconstruction_error(&a, &e) < 1e-9);
    }
}

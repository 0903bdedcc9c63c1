//! General matrix-matrix multiplication (the `dgemm` replacement).
//!
//! The local TTM and Gram kernels of the Tucker algorithm are cast as GEMM
//! calls over sub-blocks of unfolded tensors (paper Sec. IV-C / V-B). Those
//! call sites work on raw slices with explicit leading dimensions, so the
//! primary entry point here is [`gemm_slices`]; [`gemm`] is the
//! `Matrix`-typed convenience. [`gemm_slices_ctx`] / [`gemm_ctx`] run the
//! same kernel over row panels scattered onto the shared `tucker-exec` pool
//! (one panel per thread, no per-call spawning).
//!
//! **Determinism contract (renegotiated in the microkernel PR):** every
//! element of C is one running accumulator, seeded from the beta-scaled C
//! value, adding `fl(fl(alpha·a[i,p]) · b[p,j])` for `p` strictly ascending —
//! with no fused multiply-add on any SIMD tier. Cache blocking, the packed
//! vs. direct path, the `TUCKER_SIMD` tier, and row-panel parallelism all
//! preserve that per-element recurrence exactly, so `gemm_slices_ctx` is
//! bit-identical to `gemm_slices` for every thread count *and* every tier
//! ([`crate::microkernel`] documents the kernel side of the contract;
//! [`gemm_slices_reference`] restates it as an executable oracle).

use crate::matrix::Matrix;
use crate::microkernel::Panels;
use crate::pack::Source;
use tucker_exec::ExecContext;
use tucker_obs::metrics::Counter;

/// Kernel accounting: invocations of the sequential kernel (pool panels
/// count individually) and total multiply-add flops (2·m·n·k per product),
/// comparable against the `CostModel` flop predictions.
static GEMM_CALLS: Counter = Counter::new("linalg.gemm.calls");
static GEMM_FLOPS: Counter = Counter::new("linalg.gemm.flops");

/// Transpose option for a GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    /// Effective shape of an operand stored as `rows × cols`.
    pub fn effective(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Transpose::No => (rows, cols),
            Transpose::Yes => (cols, rows),
        }
    }
}

/// Multiply-add count at or below which [`gemm_slices`] skips panel packing
/// and runs the direct scalar loop (same bits, less setup) — the shared
/// workspace-wide threshold, re-exported under the historical local name.
pub(crate) use crate::blocking::SMALL_PROBLEM_MADDS as DIRECT_WORK_MAX;

/// Computes `C ← alpha · op(A) · op(B) + beta · C` on raw row-major slices.
///
/// * `a` is `a_rows × a_cols` with leading dimension `lda` (row-major: the
///   stride between consecutive rows).
/// * `b` is `b_rows × b_cols` with leading dimension `ldb`.
/// * `c` is `m × n` with leading dimension `ldc`, where `m × k = op(A)` and
///   `k × n = op(B)`.
///
/// # Panics
/// Panics if the inner dimensions of `op(A)` and `op(B)` disagree or if any
/// slice is too short for its described shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices(
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    lda: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let (m, ka) = ta.effective(a_rows, a_cols);
    let (kb, n) = tb.effective(b_rows, b_cols);
    assert_eq!(ka, kb, "gemm: inner dimension mismatch ({ka} vs {kb})");
    let k = ka;
    if a_rows > 0 {
        assert!(
            a.len() >= (a_rows - 1) * lda + a_cols,
            "gemm: A slice too short"
        );
    }
    if b_rows > 0 {
        assert!(
            b.len() >= (b_rows - 1) * ldb + b_cols,
            "gemm: B slice too short"
        );
    }
    if m > 0 {
        assert!(c.len() >= (m - 1) * ldc + n, "gemm: C slice too short");
    }

    // Scale C by beta first.
    if beta != 1.0 {
        for i in 0..m {
            let row = &mut c[i * ldc..i * ldc + n];
            if beta == 0.0 {
                row.fill(0.0);
            } else {
                for v in row.iter_mut() {
                    *v *= beta;
                }
            }
        }
    }
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    GEMM_CALLS.inc();
    GEMM_FLOPS.add(2 * (m as u64) * (n as u64) * (k as u64));

    // Both paths below realize the identical per-element recurrence (module
    // docs), so the cutover threshold is invisible in the result bits. A
    // single-row product with op(B) = B (the unit-window contraction of a
    // query) streams B once in the direct loop; packing would copy all of B
    // for one use and leave every tile 1/MR live.
    if m * n * k <= DIRECT_WORK_MAX || (m == 1 && tb == Transpose::No) {
        gemm_direct(ta, tb, alpha, a, lda, b, ldb, c, ldc, m, n, k);
    } else {
        gemm_blocked(ta, tb, alpha, a, lda, b, ldb, c, ldc, m, n, k);
    }
}

/// Direct (unpacked) scalar path for tiny and single-row products:
/// per-element running sum over ascending `p`, `alpha` folded into the A
/// term — the contract recurrence with no packing overhead.
#[allow(clippy::too_many_arguments)]
fn gemm_direct(
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    for i in 0..m {
        let crow = &mut c[i * ldc..i * ldc + n];
        for p in 0..k {
            let av = alpha
                * match ta {
                    Transpose::No => a[i * lda + p],
                    Transpose::Yes => a[p * lda + i],
                };
            match tb {
                Transpose::No => {
                    let brow = &b[p * ldb..p * ldb + n];
                    for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                        *cv += av * bv;
                    }
                }
                Transpose::Yes => {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        *cv += av * b[j * ldb + p];
                    }
                }
            }
        }
    }
}

/// Packed, cache-blocked microkernel driver: `jc` (nc columns) → `pc` (kc
/// contraction slab) → `ic` (mc rows), with op(A)/op(B) blocks packed into
/// 64-byte-aligned thread-local buffers and the tile grid retired by the
/// runtime-selected SIMD tier ([`crate::simd`]). The block edges come from
/// the runtime-derived [`crate::blocking::current_blocking`].
///
/// For any fixed output element, the `pc` slabs arrive in ascending order
/// and each slab's microkernel accumulates its terms in ascending order from
/// the element's current value — so the element sees one running sum over
/// `p = 0..k` regardless of the blocking constants or tier.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    let tier = crate::simd::current_tier();
    let blk = crate::blocking::current_blocking();
    let a_len = crate::pack::padded(blk.mc.min(m), crate::microkernel::MR) * blk.kc.min(k);
    let b_len = blk.kc.min(k) * crate::pack::padded(blk.nc.min(n), crate::microkernel::NR);
    let (a_src, b_src) = (Source::of_a(ta, lda), Source::of_b(tb, ldb));
    crate::pack::with_pack_buffers(a_len, b_len, |a_pack, b_pack| {
        let mut jc = 0;
        while jc < n {
            let nb = blk.nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kb = blk.kc.min(k - pc);
                crate::pack::pack_b(b_pack, b_src, b, pc, kb, jc, nb);
                let mut ic = 0;
                while ic < m {
                    let mb = blk.mc.min(m - ic);
                    crate::pack::pack_a(a_pack, a_src, alpha, a, ic, mb, pc, kb);
                    crate::microkernel::block_kernel(
                        tier,
                        Panels::Packed(a_pack),
                        Panels::Packed(b_pack),
                        mb,
                        nb,
                        kb,
                        &mut c[ic * ldc + jc..],
                        ldc,
                        None,
                    );
                    ic += mb;
                }
                pc += kb;
            }
            jc += nb;
        }
    });
}

/// Executable statement of the determinism contract, on the same raw-slice
/// surface as [`gemm_slices`]: the kernel and this function must agree **bit
/// for bit** on every input (the proptest battery in
/// `crates/linalg/tests/microkernel.rs` enforces exactly that).
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices_reference(
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    lda: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let (m, k) = ta.effective(a_rows, a_cols);
    let (_, n) = tb.effective(b_rows, b_cols);
    for i in 0..m {
        for j in 0..n {
            // Seed: beta-scaled C (0.0 exactly when beta == 0).
            let mut acc = if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                c[i * ldc + j]
            } else {
                beta * c[i * ldc + j]
            };
            if alpha != 0.0 {
                for p in 0..k {
                    let av = match ta {
                        Transpose::No => a[i * lda + p],
                        Transpose::Yes => a[p * lda + i],
                    };
                    let bv = match tb {
                        Transpose::No => b[p * ldb + j],
                        Transpose::Yes => b[j * ldb + p],
                    };
                    // fl(fl(alpha·a)·b), then one add — never an FMA.
                    acc += (alpha * av) * bv;
                }
            }
            c[i * ldc + j] = acc;
        }
    }
}

/// Computes `alpha · op(A) · op(B)` and returns it as a new [`Matrix`].
pub fn gemm(ta: Transpose, tb: Transpose, alpha: f64, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, _) = ta.effective(a.rows(), a.cols());
    let (_, n) = tb.effective(b.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    gemm_into(ta, tb, alpha, a, b, 0.0, &mut c);
    c
}

/// Computes `C ← alpha · op(A) · op(B) + beta · C` for [`Matrix`] operands.
fn gemm_into(
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, ka) = ta.effective(a.rows(), a.cols());
    let (kb, n) = tb.effective(b.rows(), b.cols());
    assert_eq!(ka, kb, "gemm_into: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_into: output shape mismatch");
    let lda = a.cols();
    let ldb = b.cols();
    let ldc = c.cols();
    gemm_slices(
        ta,
        tb,
        alpha,
        a.as_slice(),
        a.rows(),
        a.cols(),
        lda,
        b.as_slice(),
        b.rows(),
        b.cols(),
        ldb,
        beta,
        c.as_mut_slice(),
        ldc,
    );
}

/// Work (in multiply-adds) below which parallel GEMM entry points stay
/// sequential (shared workspace-wide threshold, re-exported for callers).
pub use tucker_exec::PAR_MIN_WORK;

/// Pool-backed [`gemm_slices`]: `C ← alpha · op(A) · op(B) + beta · C`,
/// splitting the rows of `C` into one panel per available thread of `ctx`.
///
/// Each panel is computed by the ordinary sequential kernel over the full
/// contraction dimension, so the result is **bit-identical** to
/// [`gemm_slices`] regardless of the thread count. Small problems
/// (`m·n·k < `[`PAR_MIN_WORK`]) run inline without touching the pool.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices_ctx(
    ctx: &ExecContext,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    lda: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let (m, ka) = ta.effective(a_rows, a_cols);
    let (kb, n) = tb.effective(b_rows, b_cols);
    assert_eq!(ka, kb, "gemm: inner dimension mismatch ({ka} vs {kb})");
    let k = ka;
    let work = m.saturating_mul(n).saturating_mul(k);
    // Only trace pool-worthy products; the fused TTM interior calls the
    // sequential kernel directly, so tiny GEMMs never flood the trace.
    let _span = if work >= PAR_MIN_WORK {
        let blk = crate::blocking::current_blocking();
        Some(tucker_obs::span!(
            "gemm",
            m = m,
            n = n,
            k = k,
            tier = crate::simd::current_tier().id(),
            mc = blk.mc,
            kc = blk.kc,
            nc = blk.nc
        ))
    } else {
        None
    };
    let parts = ctx.partition_for_work(m, work);
    if parts <= 1 {
        gemm_slices(
            ta, tb, alpha, a, a_rows, a_cols, lda, b, b_rows, b_cols, ldb, beta, c, ldc,
        );
        return;
    }

    if m > 0 {
        assert!(c.len() >= (m - 1) * ldc + n, "gemm: C slice too short");
    }
    // Split C into disjoint row panels; each pool thread computes one panel
    // against the full op(B). For op(A) = Aᵀ the panel's rows are a column
    // range of the stored A, reachable by offsetting the slice start.
    let ranges = tucker_exec::chunk_ranges(m, parts);
    ctx.for_each_row_panel(c, ldc, ranges, |rows, panel| {
        let (row0, nrows) = (rows.start, rows.len());
        match ta {
            Transpose::No => gemm_slices(
                Transpose::No,
                tb,
                alpha,
                &a[row0 * lda..],
                nrows,
                a_cols,
                lda,
                b,
                b_rows,
                b_cols,
                ldb,
                beta,
                panel,
                ldc,
            ),
            Transpose::Yes => gemm_slices(
                Transpose::Yes,
                tb,
                alpha,
                &a[row0..],
                a_rows,
                nrows,
                lda,
                b,
                b_rows,
                b_cols,
                ldb,
                beta,
                panel,
                ldc,
            ),
        }
    });
}

/// Pool-backed [`gemm`]: computes `alpha · op(A) · op(B)` on the threads of
/// `ctx` and returns a new [`Matrix`]. Bit-identical to [`gemm`].
pub fn gemm_ctx(
    ctx: &ExecContext,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let (m, _) = ta.effective(a.rows(), a.cols());
    let (_, n) = tb.effective(b.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    gemm_into_ctx(ctx, ta, tb, alpha, a, b, 0.0, &mut c);
    c
}

/// Pool-backed [`gemm_into`]: `C ← alpha · op(A) · op(B) + beta · C`.
#[allow(clippy::too_many_arguments)]
fn gemm_into_ctx(
    ctx: &ExecContext,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, ka) = ta.effective(a.rows(), a.cols());
    let (kb, n) = tb.effective(b.rows(), b.cols());
    assert_eq!(ka, kb, "gemm_into: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_into: output shape mismatch");
    let lda = a.cols();
    let ldb = b.cols();
    let ldc = c.cols();
    gemm_slices_ctx(
        ctx,
        ta,
        tb,
        alpha,
        a.as_slice(),
        a.rows(),
        a.cols(),
        lda,
        b.as_slice(),
        b.rows(),
        b.cols(),
        ldb,
        beta,
        c.as_mut_slice(),
        ldc,
    );
}

/// Reference (naive triple-loop) GEMM used by tests to validate the blocked kernel.
pub fn gemm_reference(ta: Transpose, tb: Transpose, alpha: f64, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = ta.effective(a.rows(), a.cols());
    let (_, n) = tb.effective(b.rows(), b.cols());
    let read_a = |i: usize, p: usize| match ta {
        Transpose::No => a.get(i, p),
        Transpose::Yes => a.get(p, i),
    };
    let read_b = |p: usize, j: usize| match tb {
        Transpose::No => b.get(p, j),
        Transpose::Yes => b.get(j, p),
    };
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                s += read_a(i, p) * read_b(p, j);
            }
            c.set(i, j, alpha * s);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = gemm(Transpose::No, Transpose::No, 1.0, &a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 17, 17);
        let i = Matrix::identity(17);
        assert_close(&gemm(Transpose::No, Transpose::No, 1.0, &a, &i), &a, 1e-12);
        assert_close(&gemm(Transpose::No, Transpose::No, 1.0, &i, &a), &a, 1e-12);
    }

    #[test]
    fn matches_reference_all_transpose_combos() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(5usize, 7usize, 3usize), (33, 65, 17), (70, 129, 40)] {
            for &ta in &[Transpose::No, Transpose::Yes] {
                for &tb in &[Transpose::No, Transpose::Yes] {
                    let (ar, ac) = match ta {
                        Transpose::No => (m, k),
                        Transpose::Yes => (k, m),
                    };
                    let (br, bc) = match tb {
                        Transpose::No => (k, n),
                        Transpose::Yes => (n, k),
                    };
                    let a = random_matrix(&mut rng, ar, ac);
                    let b = random_matrix(&mut rng, br, bc);
                    let fast = gemm(ta, tb, 1.3, &a, &b);
                    let slow = gemm_reference(ta, tb, 1.3, &a, &b);
                    assert_close(&fast, &slow, 1e-10);
                }
            }
        }
    }

    #[test]
    fn beta_accumulation() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 10, 12);
        let b = random_matrix(&mut rng, 12, 8);
        let mut c = random_matrix(&mut rng, 10, 8);
        let c0 = c.clone();
        gemm_into(Transpose::No, Transpose::No, 2.0, &a, &b, 0.5, &mut c);
        let expected = gemm_reference(Transpose::No, Transpose::No, 2.0, &a, &b);
        for i in 0..10 {
            for j in 0..8 {
                let want = expected.get(i, j) + 0.5 * c0.get(i, j);
                assert!((c.get(i, j) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn zero_alpha_only_scales_c() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let b = Matrix::identity(4);
        let mut c = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let c0 = c.clone();
        gemm_into(Transpose::No, Transpose::No, 0.0, &a, &b, 2.0, &mut c);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.get(i, j), 2.0 * c0.get(i, j));
            }
        }
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let c = gemm(Transpose::No, Transpose::No, 1.0, &a, &b);
        assert_eq!(c.shape(), (0, 3));
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let c = gemm(Transpose::No, Transpose::No, 1.0, &a, &b);
        assert_eq!(c.shape(), (4, 3));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn inner_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(&mut rng, 120, 90);
        let b = random_matrix(&mut rng, 90, 75);
        let seq = gemm(Transpose::No, Transpose::No, 1.0, &a, &b);
        for threads in [1, 2, 4, 7] {
            let ctx = tucker_exec::ExecContext::new(threads);
            let par = gemm_ctx(&ctx, Transpose::No, Transpose::No, 1.0, &a, &b);
            assert_eq!(par.as_slice(), seq.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn ctx_gemm_is_bit_identical_for_every_transpose_and_thread_count() {
        let mut rng = StdRng::seed_from_u64(43);
        for threads in [1usize, 2, 4, 9] {
            let ctx = tucker_exec::ExecContext::new(threads);
            for &(m, k, n) in &[(33usize, 65usize, 17usize), (70, 129, 40)] {
                for &ta in &[Transpose::No, Transpose::Yes] {
                    for &tb in &[Transpose::No, Transpose::Yes] {
                        let (ar, ac) = match ta {
                            Transpose::No => (m, k),
                            Transpose::Yes => (k, m),
                        };
                        let (br, bc) = match tb {
                            Transpose::No => (k, n),
                            Transpose::Yes => (n, k),
                        };
                        let a = random_matrix(&mut rng, ar, ac);
                        let b = random_matrix(&mut rng, br, bc);
                        let pooled = gemm_ctx(&ctx, ta, tb, 1.3, &a, &b);
                        let seq = gemm(ta, tb, 1.3, &a, &b);
                        assert_eq!(pooled.as_slice(), seq.as_slice());
                    }
                }
            }
        }
    }

    #[test]
    fn ctx_gemm_into_respects_beta_across_panels() {
        let mut rng = StdRng::seed_from_u64(44);
        let ctx = tucker_exec::ExecContext::new(4);
        let a = random_matrix(&mut rng, 64, 70);
        let b = random_matrix(&mut rng, 70, 48);
        let mut c_par = random_matrix(&mut rng, 64, 48);
        let mut c_seq = c_par.clone();
        gemm_into_ctx(
            &ctx,
            Transpose::No,
            Transpose::No,
            1.5,
            &a,
            &b,
            0.25,
            &mut c_par,
        );
        gemm_into(Transpose::No, Transpose::No, 1.5, &a, &b, 0.25, &mut c_seq);
        assert_eq!(c_par.as_slice(), c_seq.as_slice());
    }

    #[test]
    fn parallel_transposed_a_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_matrix(&mut rng, 90, 110);
        let b = random_matrix(&mut rng, 90, 60);
        let seq = gemm(Transpose::Yes, Transpose::No, 1.0, &a, &b);
        let ctx = tucker_exec::ExecContext::new(4);
        let par = gemm_ctx(&ctx, Transpose::Yes, Transpose::No, 1.0, &a, &b);
        assert_eq!(par.as_slice(), seq.as_slice());
    }

    #[test]
    fn gemm_slices_with_leading_dimension() {
        // Multiply a 2x2 submatrix embedded in a 2x4 buffer.
        let a = vec![1.0, 2.0, 99.0, 99.0, 3.0, 4.0, 99.0, 99.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![0.0; 4];
        gemm_slices(
            Transpose::No,
            Transpose::No,
            1.0,
            &a,
            2,
            2,
            4,
            &b,
            2,
            2,
            2,
            0.0,
            &mut c,
            2,
        );
        assert_eq!(c, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn blocked_kernel_is_bitwise_equal_to_the_contract_reference() {
        // Shapes straddle the direct/packed cutover and the mc/kc/nc block
        // edges; the contract makes the path choice invisible bit-for-bit.
        let mut rng = StdRng::seed_from_u64(50);
        let blk = crate::blocking::current_blocking();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 9, 5),    // direct path
            (20, 21, 20), // just above DIRECT_WORK_MAX
            // Crosses the runtime mc and kc block edges.
            (blk.mc + 3, blk.kc + 5, (blk.nc / 4).max(16)),
            (97, 31, 130),
        ] {
            for &ta in &[Transpose::No, Transpose::Yes] {
                for &tb in &[Transpose::No, Transpose::Yes] {
                    for &(alpha, beta) in &[(1.0, 0.0), (1.3, 0.5), (-0.7, 1.0)] {
                        let (ar, ac) = match ta {
                            Transpose::No => (m, k),
                            Transpose::Yes => (k, m),
                        };
                        let (br, bc) = match tb {
                            Transpose::No => (k, n),
                            Transpose::Yes => (n, k),
                        };
                        let a = random_matrix(&mut rng, ar, ac);
                        let b = random_matrix(&mut rng, br, bc);
                        let c0 = random_matrix(&mut rng, m, n);
                        let mut fast = c0.clone();
                        let mut ref_ = c0.clone();
                        gemm_slices(
                            ta,
                            tb,
                            alpha,
                            a.as_slice(),
                            ar,
                            ac,
                            ac,
                            b.as_slice(),
                            br,
                            bc,
                            bc,
                            beta,
                            fast.as_mut_slice(),
                            n,
                        );
                        gemm_slices_reference(
                            ta,
                            tb,
                            alpha,
                            a.as_slice(),
                            ar,
                            ac,
                            ac,
                            b.as_slice(),
                            br,
                            bc,
                            bc,
                            beta,
                            ref_.as_mut_slice(),
                            n,
                        );
                        let fb: Vec<u64> = fast.as_slice().iter().map(|v| v.to_bits()).collect();
                        let rb: Vec<u64> = ref_.as_slice().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            fb, rb,
                            "m={m} k={k} n={n} ta={ta:?} tb={tb:?} α={alpha} β={beta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strided_operands_match_the_contract_reference_bitwise() {
        // Embed every operand in a wider buffer (ld > logical cols).
        let mut rng = StdRng::seed_from_u64(51);
        let (m, k, n) = (37usize, 29usize, 23usize);
        let (lda, ldb, ldc) = (k + 5, n + 2, n + 7);
        let a: Vec<f64> = (0..m * lda).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..k * ldb).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c0: Vec<f64> = (0..m * ldc).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut fast = c0.clone();
        let mut ref_ = c0.clone();
        gemm_slices(
            Transpose::No,
            Transpose::No,
            1.1,
            &a,
            m,
            k,
            lda,
            &b,
            k,
            n,
            ldb,
            0.3,
            &mut fast,
            ldc,
        );
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            1.1,
            &a,
            m,
            k,
            lda,
            &b,
            k,
            n,
            ldb,
            0.3,
            &mut ref_,
            ldc,
        );
        // Outside the logical n columns the gutter must be untouched by the
        // kernel; compare only live elements bitwise and gutters to c0.
        for i in 0..m {
            for j in 0..ldc {
                if j < n {
                    assert_eq!(fast[i * ldc + j].to_bits(), ref_[i * ldc + j].to_bits());
                } else {
                    assert_eq!(fast[i * ldc + j], c0[i * ldc + j], "gutter ({i},{j})");
                }
            }
        }
    }
}

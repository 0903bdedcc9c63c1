//! Symmetric rank-k update: `C = alpha · A·Aᵀ + beta · C` (the `dsyrk` replacement).
//!
//! The Gram-matrix computation `S = Y(n) Y(n)ᵀ` (paper Alg. 1 line 4, Alg. 4
//! line 5) is the single most expensive kernel of ST-HOSVD, so it gets a
//! dedicated symmetric kernel that only computes the lower triangle and
//! mirrors it, roughly halving the flops compared to a plain GEMM.
//! [`syrk_rows_slices`] reads `A` through a [`Source`], so one call covers a
//! whole tensor unfolding where it lies: the block-strided mode-n unfolding
//! ([`Source::blocks`]) is packed with its `(t, q)` runs in order, and the
//! first-mode unfolding `Dᵀ·D` ([`Source::cols`]) is not packed at all at
//! `alpha = 1` — each contraction step is a contiguous row of `D`, which the
//! microkernel reads at stride `ld` ([`crate::microkernel::Panels`]). Only a
//! block's ragged last panel, which would read past the row, is packed.
//!
//! **Determinism contract (renegotiated in the microkernel PR):** each
//! lower-triangle element `c[i][j]` is one running accumulator adding
//! `fl(fl(alpha·a[i,p]) · a[j,p])` for `p` strictly ascending, with no FMA —
//! the same recurrence as [`crate::gemm`](mod@crate::gemm) with
//! `op(B) = Aᵀ`. This *changed the bits once*: the previous kernel computed
//! `alpha · dot(aᵢ, aⱼ)` with [`crate::blas1::dot`]'s 4-lane split
//! accumulation. In exchange, the bits are now pinned by the shared
//! microkernel contract: independent of the SIMD tier, the cache blocking,
//! the packed/in-place/direct paths, and the row partition (thread count).
//! Reading in place skips only the pack's `fl(1·a)`, which is `a` exactly.

use crate::matrix::Matrix;
use crate::microkernel::{Panels, MR, NR};
use crate::pack::Source;
use std::ops::Range;
use tucker_exec::{triangle_row_chunks, ExecContext};
use tucker_obs::metrics::Counter;

/// Kernel accounting (see `tucker-obs`): calls count sequential-kernel and
/// row-panel invocations; flops count the lower-triangle multiply-adds,
/// `2k · Σ(i+1) = m(m+1)k` for a full `m × m` update.
static SYRK_CALLS: Counter = Counter::new("linalg.syrk.calls");
static SYRK_FLOPS: Counter = Counter::new("linalg.syrk.flops");

/// Lower-triangle flop count of rows `0..n` of an `A·Aᵀ` with inner
/// dimension `k`: `2k` flops per dot, `n(n+1)/2` dots.
fn triangle_flops(n: usize, k: usize) -> u64 {
    (n as u64) * (n as u64 + 1) * (k as u64)
}

/// Computes `A · Aᵀ` for a row-major `m × k` slice `a` with leading dimension
/// `lda`, accumulating into the row-major `m × m` slice `c` (leading dimension
/// `ldc`) as `C ← alpha·A·Aᵀ + beta·C`.
///
/// Only the lower triangle is computed directly; the strict upper triangle is
/// filled by mirroring at the end, so `beta` must scale a symmetric `C` for the
/// result to remain symmetric (this is always the case in the Tucker kernels).
pub fn syrk_slices(
    alpha: f64,
    a: &[f64],
    m: usize,
    k: usize,
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m > 0 {
        assert!(a.len() >= (m - 1) * lda + k, "syrk: A slice too short");
        assert!(c.len() >= (m - 1) * ldc + m, "syrk: C slice too short");
    }
    // Scale existing C.
    for i in 0..m {
        let row = &mut c[i * ldc..i * ldc + m];
        if beta == 0.0 {
            row.fill(0.0);
        } else if beta != 1.0 {
            for v in row.iter_mut() {
                *v *= beta;
            }
        }
    }
    if alpha == 0.0 || k == 0 {
        // Still must be symmetric; the scaled C is assumed symmetric already.
        return;
    }
    SYRK_CALLS.inc();
    SYRK_FLOPS.add(triangle_flops(m, k));
    syrk_lower(Source::rows(lda), alpha, a, k, 0..m, c, ldc);
    // Mirror to the upper triangle.
    for i in 0..m {
        for j in i + 1..m {
            c[i * ldc + j] = c[j * ldc + i];
        }
    }
}

/// Computes `A · Aᵀ` and returns it as a new symmetric [`Matrix`].
pub fn syrk(a: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), a.rows());
    syrk_into(1.0, a, 0.0, &mut c);
    c
}

/// `C ← alpha·A·Aᵀ + beta·C` for [`Matrix`] operands.
pub fn syrk_into(alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(
        c.shape(),
        (a.rows(), a.rows()),
        "syrk_into: output must be square with A's row count"
    );
    let lda = a.cols();
    let ldc = c.cols();
    syrk_slices(
        alpha,
        a.as_slice(),
        a.rows(),
        a.cols(),
        lda,
        beta,
        c.as_mut_slice(),
        ldc,
    );
}

/// Accumulates the **lower-triangle rows** `rows` of `alpha · A·Aᵀ` into a
/// row panel `c_panel` whose first row corresponds to global row
/// `rows.start` (leading dimension `ldc`). No mirroring is performed.
///
/// `A` has `k` columns, and `source` says where element `(i, p)` lives in
/// `a`: [`Source::rows`]`(lda)` for a row-major `A`, [`Source::cols`]`(lda)`
/// for `A = Dᵀ` of a stored `D` (the first-mode Gram), or
/// [`Source::blocks`]`(left, n)` for a whole mode-n tensor unfolding.
///
/// This is the scatter unit of the pool-backed Gram kernels: disjoint row
/// ranges touch disjoint panel slices, and each element `c[i][j]` follows
/// exactly the per-element recurrence the sequential [`syrk_slices`]
/// computes (module docs), so triangular row-parallelism is bit-identical to
/// the sequential kernel.
#[allow(clippy::too_many_arguments)]
pub fn syrk_rows_slices(
    source: Source,
    alpha: f64,
    a: &[f64],
    k: usize,
    rows: Range<usize>,
    c_panel: &mut [f64],
    ldc: usize,
) {
    let row0 = rows.start;
    if rows.is_empty() {
        return;
    }
    SYRK_CALLS.inc();
    SYRK_FLOPS.add(triangle_flops(rows.end, k) - triangle_flops(rows.start, k));
    let a_need = k
        .checked_sub(1)
        .map_or(0, |last| source.offset(rows.end - 1, last) + 1);
    assert!(a.len() >= a_need, "syrk_rows: A slice too short");
    assert!(
        c_panel.len() >= (rows.end - 1 - row0) * ldc + rows.end,
        "syrk_rows: C panel too short"
    );
    syrk_lower(source, alpha, a, k, rows, c_panel, ldc);
}

/// Shared lower-triangle engine behind [`syrk_slices`] and
/// [`syrk_rows_slices`]: accumulates rows `rows` of `alpha · A·Aᵀ`'s lower
/// triangle into `c_panel` (first panel row = global row `rows.start`).
///
/// Small row ranges run a direct scalar loop; larger ones run the blocked
/// microkernel driver with `op(B) = Aᵀ` and triangle masking, packing both
/// operands — or, for the first-mode layout at `alpha = 1`, reading them in
/// place. All paths realize the per-element recurrence from the module
/// docs, so the cutover — like the SIMD tier, the block sizes and the
/// storage layout of A — is invisible in the bits.
fn syrk_lower(
    source: Source,
    alpha: f64,
    a: &[f64],
    k: usize,
    rows: Range<usize>,
    c_panel: &mut [f64],
    ldc: usize,
) {
    use crate::blocking::SMALL_PROBLEM_MADDS;
    let row0 = rows.start;
    let m_end = rows.end;
    if rows.is_empty() || k == 0 || alpha == 0.0 {
        return;
    }
    // Lower-triangle multiply-add count for this row range.
    let madds = (triangle_flops(m_end, k) - triangle_flops(row0, k)) / 2;
    if madds as usize <= SMALL_PROBLEM_MADDS {
        let runs = source.runs(0, k);
        for i in rows {
            let ri = source.offset(i, 0);
            let crow = &mut c_panel[(i - row0) * ldc..(i - row0) * ldc + i + 1];
            for (j, cv) in crow.iter_mut().enumerate() {
                let rj = source.offset(j, 0);
                let mut acc = *cv;
                for (_, off, len) in runs.clone() {
                    let ai = &a[ri + off..ri + off + len];
                    let aj = &a[rj + off..rj + off + len];
                    for (&x, &y) in ai.iter().zip(aj) {
                        acc += (alpha * x) * y;
                    }
                }
                *cv = acc;
            }
        }
        return;
    }
    let tier = crate::simd::current_tier();
    let blk = crate::blocking::current_blocking();
    let a_len = crate::pack::padded(blk.mc.min(m_end - row0), MR) * blk.kc.min(k);
    let b_len = blk.kc.min(k) * crate::pack::padded(blk.nc.min(m_end), NR);
    // `fl(1·a) = a`, so at alpha = 1 a first-mode panel needs no pack.
    let in_place = source
        .in_place_stride()
        .filter(|&ld| alpha == 1.0 && m_end <= ld);
    crate::pack::with_pack_buffers(a_len, b_len, |a_pack, b_pack| {
        let mut jc = 0;
        while jc < m_end {
            let nb = blk.nc.min(m_end - jc);
            let mut pc = 0;
            while pc < k {
                let kb = blk.kc.min(k - pc);
                // Column j of the update is row j of A, unscaled.
                let b_panels =
                    block_panels::<NR>(in_place, source, a, b_pack, |v| v, jc, nb, pc, kb);
                let mut ic = row0;
                while ic < m_end {
                    let mb = blk.mc.min(m_end - ic);
                    // Skip row blocks that lie entirely above this column
                    // block's diagonal intersection.
                    if ic + mb > jc {
                        let a_panels = block_panels::<MR>(
                            in_place,
                            source,
                            a,
                            a_pack,
                            |v| alpha * v,
                            ic,
                            mb,
                            pc,
                            kb,
                        );
                        crate::microkernel::block_kernel(
                            tier,
                            a_panels,
                            b_panels,
                            mb,
                            nb,
                            kb,
                            &mut c_panel[(ic - row0) * ldc + jc..],
                            ldc,
                            Some((ic, jc)),
                        );
                    }
                    ic += mb;
                }
                pc += kb;
            }
            jc += nb;
        }
    });
}

/// The `W`-wide panels of rows `i0 .. i0+ib` of `A` over contraction steps
/// `pc .. pc+kb`, as [`crate::microkernel::block_kernel`] reads them:
/// `scale`d into `pack`, or — when `in_place` gives the stride `ld` of a
/// first-mode source — where they lie in `a`. In place, only the block's
/// last panel can run past the readable rows (row `ld` of a step, or the
/// end of `a` at the last step, since `i0 + ib ≤ ld`); that one is packed
/// into `pack` and read from there.
#[allow(clippy::too_many_arguments)]
fn block_panels<'a, const W: usize>(
    in_place: Option<usize>,
    source: Source,
    a: &'a [f64],
    pack: &'a mut [f64],
    scale: impl Fn(f64) -> f64,
    i0: usize,
    ib: usize,
    pc: usize,
    kb: usize,
) -> Panels<'a> {
    let Some(ld) = in_place else {
        crate::pack::pack_panels::<W>(pack, source, a, i0, ib, pc, kb, scale);
        return Panels::Packed(pack);
    };
    let last_step = (pc + kb - 1) * ld;
    let avail = ld.min(a.len() - last_step) - i0;
    let last = (ib - 1) / W * W;
    if last + W > avail {
        crate::pack::pack_panels::<W>(pack, source, a, i0 + last, ib - last, pc, kb, scale);
    }
    Panels::InPlace {
        src: &a[pc * ld + i0..],
        ld,
        avail,
        edge: pack,
    }
}

/// Executable statement of the SYRK determinism contract (lower triangle +
/// mirror): [`syrk_slices`] must agree with this **bit for bit** on every
/// input — enforced by the proptest battery.
pub fn syrk_slices_reference(
    alpha: f64,
    a: &[f64],
    m: usize,
    k: usize,
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for i in 0..m {
        for j in 0..=i {
            let mut acc = if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                c[i * ldc + j]
            } else {
                beta * c[i * ldc + j]
            };
            if alpha != 0.0 {
                for p in 0..k {
                    acc += (alpha * a[i * lda + p]) * a[j * lda + p];
                }
            }
            c[i * ldc + j] = acc;
        }
    }
    // Mirror, exactly like the kernel (the kernel's pre-scaled upper
    // triangle is overwritten here either way).
    for i in 0..m {
        for j in i + 1..m {
            c[i * ldc + j] = c[j * ldc + i];
        }
    }
}

/// Scatters area-balanced lower-triangle row ranges of an `m × m` matrix
/// (leading dimension `ldc`) across `ctx`, runs `fill(rows, panel)` on each
/// disjoint row panel, then mirrors the strict upper triangle once. `fill`
/// must write only columns `0..=i` of each row `i` — the shared scatter
/// skeleton of every pool-backed symmetric Gram kernel, kept in one place so
/// the determinism-critical balance/mirror logic cannot diverge.
pub fn triangular_scatter_mirror<F>(
    ctx: &ExecContext,
    c: &mut [f64],
    m: usize,
    ldc: usize,
    parts: usize,
    fill: F,
) where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    // Inner boundaries snap to the nearest multiple of MR, so every chunk's
    // tile rows start on the MR grid and only the last chunk has a ragged one.
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0;
    for r in triangle_row_chunks(m, parts) {
        let end = if r.end == m {
            m
        } else {
            ((r.end + MR / 2) / MR * MR).min(m)
        };
        if end > start {
            chunks.push(start..end);
            start = end;
        }
    }
    ctx.for_each_row_panel(c, ldc, chunks, fill);
    for i in 0..m {
        for j in i + 1..m {
            c[i * ldc + j] = c[j * ldc + i];
        }
    }
}

/// Pool-backed `A·Aᵀ`: scatters balanced lower-triangle row ranges onto the
/// threads of `ctx`, then mirrors once. Bit-identical to [`syrk`] for every
/// thread count.
pub fn syrk_ctx(ctx: &ExecContext, a: &Matrix) -> Matrix {
    let m = a.rows();
    let k = a.cols();
    let _span = tucker_obs::span!(
        "syrk",
        m = m,
        k = k,
        tier = crate::simd::current_tier().id()
    );
    let mut c = Matrix::zeros(m, m);
    let parts = ctx.partition_for_work(m, m * m * k / 2);
    if parts <= 1 {
        syrk_into(1.0, a, 0.0, &mut c);
        return c;
    }
    let lda = a.cols();
    let a_slice = a.as_slice();
    triangular_scatter_mirror(ctx, c.as_mut_slice(), m, m, parts, |rows, panel| {
        syrk_rows_slices(Source::rows(lda), 1.0, a_slice, k, rows, panel, m);
    });
    c
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

    #[test]
    fn matches_gemm() {
        let mut rng = StdRng::seed_from_u64(10);
        for &(m, k) in &[(3usize, 5usize), (17, 33), (64, 10), (1, 7)] {
            let a = random_matrix(&mut rng, m, k);
            let s = syrk(&a);
            let g = gemm(Transpose::No, Transpose::Yes, 1.0, &a, &a);
            for (x, y) in s.as_slice().iter().zip(g.as_slice()) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn result_is_symmetric_and_psd_diagonal() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 20, 9);
        let s = syrk(&a);
        for i in 0..20 {
            assert!(s.get(i, i) >= 0.0);
            for j in 0..20 {
                assert_eq!(s.get(i, j), s.get(j, i));
            }
        }
    }

    #[test]
    fn alpha_beta_accumulation() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_matrix(&mut rng, 8, 5);
        let sym_seed = syrk(&a); // symmetric starting C
        let mut c = sym_seed.clone();
        syrk_into(2.0, &a, 0.5, &mut c);
        for i in 0..8 {
            for j in 0..8 {
                let want = 2.0 * sym_seed.get(i, j) + 0.5 * sym_seed.get(i, j);
                assert!((c.get(i, j) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn zero_k_gives_zero() {
        let a = Matrix::zeros(4, 0);
        let s = syrk(&a);
        assert!(s.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 100, 60);
        let seq = syrk(&a);
        for threads in [2, 4, 5] {
            let ctx = ExecContext::new(threads);
            let par = syrk_ctx(&ctx, &a);
            assert_eq!(par.as_slice(), seq.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn kernel_is_bitwise_equal_to_the_contract_reference() {
        let mut rng = StdRng::seed_from_u64(14);
        // Spans the direct/packed cutover and the MC/NC block edges.
        for &(m, k) in &[(1usize, 1usize), (9, 7), (33, 20), (100, 60), (130, 257)] {
            for &(alpha, beta) in &[(1.0, 0.0), (2.0, 0.5), (-0.3, 1.0)] {
                let a = random_matrix(&mut rng, m, k);
                let c0 = syrk(&random_matrix(&mut rng, m, 3)); // symmetric seed
                let mut fast = c0.clone();
                let mut ref_ = c0.clone();
                syrk_slices(alpha, a.as_slice(), m, k, k, beta, fast.as_mut_slice(), m);
                syrk_slices_reference(alpha, a.as_slice(), m, k, k, beta, ref_.as_mut_slice(), m);
                let fb: Vec<u64> = fast.as_slice().iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u64> = ref_.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(fb, rb, "m={m} k={k} α={alpha} β={beta}");
            }
        }
    }

    #[test]
    fn row_panels_are_bitwise_equal_to_the_full_kernel() {
        let mut rng = StdRng::seed_from_u64(15);
        let (m, k) = (120usize, 70usize);
        let a = random_matrix(&mut rng, m, k);
        let mut full = Matrix::zeros(m, m);
        syrk_slices(1.0, a.as_slice(), m, k, k, 0.0, full.as_mut_slice(), m);
        // Rebuild the lower triangle from uneven panels.
        let mut panels = Matrix::zeros(m, m);
        for rows in [0..17usize, 17..64, 64..m] {
            let row0 = rows.start;
            syrk_rows_slices(
                Source::rows(k),
                1.0,
                a.as_slice(),
                k,
                rows,
                &mut panels.as_mut_slice()[row0 * m..],
                m,
            );
        }
        for i in 0..m {
            for j in 0..=i {
                assert_eq!(
                    panels.get(i, j).to_bits(),
                    full.get(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn in_place_rows_touch_only_the_lower_triangle() {
        // The first-mode layout at alpha = 1 is read where it lies: full,
        // diagonal-crossing and ragged tiles over uneven row panels, across
        // two kc slabs. Strictly-upper elements keep their sentinel; every
        // lower element is the contract sum seeded from it.
        let mut rng = StdRng::seed_from_u64(16);
        let k = 300;
        for n in [37usize, 72] {
            let d: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sentinel = -1234.5;
            let mut c = vec![sentinel; n * n];
            for rows in [0..13, 13..n] {
                let row0 = rows.start;
                syrk_rows_slices(Source::cols(n), 1.0, &d, k, rows, &mut c[row0 * n..], n);
            }
            for i in 0..n {
                for j in 0..n {
                    let mut want = sentinel;
                    if j <= i {
                        for p in 0..k {
                            want += d[p * n + i] * d[p * n + j];
                        }
                    }
                    assert_eq!(c[i * n + j].to_bits(), want.to_bits(), "n {n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gram_of_orthonormal_rows_is_identity() {
        // Rows of the identity are orthonormal, so A·Aᵀ = I.
        let a = Matrix::identity(6);
        let s = syrk(&a);
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((s.get(i, j) - want).abs() < 1e-14);
            }
        }
    }
}

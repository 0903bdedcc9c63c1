//! Gram matrices of tensor unfoldings: `S = Y(n) · Y(n)ᵀ`.
//!
//! This is the kernel of Alg. 1 line 4 and Alg. 4 line 5 of the paper. The
//! eigenvectors of `S` are the left singular vectors of the unfolding, which is
//! how ST-HOSVD and HOOI obtain factor matrices. With the natural layout the
//! mode-n unfolding is `right` row-major `I_n × left` blocks one after
//! another, and every mode's Gram is **one** SYRK that reads them where they
//! lie ([`Source::blocks`]): its contraction index `p = t·left + q` walks
//! the blocks `t` in order and each block's columns `q` in order. The first
//! mode (`left == 1`) is `Dᵀ·D` of the buffer seen as a row-major
//! `Î_n × I_n` matrix `D`, whose rows the microkernel reads without packing.

use crate::dense::DenseTensor;
use crate::layout::Unfolding;
use tucker_exec::{chunk_ranges, ExecContext};
use tucker_linalg::gemm::{gemm_slices, gemm_slices_ctx, Transpose};
use tucker_linalg::pack::Source;
use tucker_linalg::syrk::{syrk_rows_slices, triangular_scatter_mirror};
use tucker_linalg::Matrix;
use tucker_obs::metrics::Counter;

/// Kernel accounting: symmetric Gram flops are the lower-triangle
/// multiply-adds `(I_n + 1) · |Y|`; the pair kernel is a full rectangular
/// product, `2 · I_n · |W|`.
static GRAM_CALLS: Counter = Counter::new("tensor.gram.calls");
static GRAM_FLOPS: Counter = Counter::new("tensor.gram.flops");

/// Computes the symmetric Gram matrix `S = Y(n) Y(n)ᵀ` of size `I_n × I_n`
/// on `ctx`.
///
/// Parallelism: every mode scatters **area-balanced lower-triangle row
/// ranges** of `S` via [`triangular_scatter_mirror`] — every thread walks
/// the whole unfolding in the same ascending order and owns its rows
/// exclusively, then the strict upper triangle is mirrored once. Each
/// element of `S` accumulates in exactly the sequential order, so results
/// are bit-identical across thread counts.
pub fn gram_ctx(ctx: &ExecContext, y: &DenseTensor, mode: usize) -> Matrix {
    let dims = y.dims();
    assert!(mode < dims.len(), "gram: mode {mode} out of range");
    let n = dims[mode];
    let mut s = Matrix::zeros(n, n);
    gram_into_ctx(ctx, y, mode, &mut s);
    s
}

/// `S ← Y(n) Y(n)ᵀ` written into a preallocated `I_n × I_n` matrix.
fn gram_into_ctx(ctx: &ExecContext, y: &DenseTensor, mode: usize, s: &mut Matrix) {
    let n = y.dim(mode);
    assert_eq!(s.shape(), (n, n), "gram_into: output must be I_n × I_n");
    s.as_mut_slice().fill(0.0);
    gram_accumulate_ctx(ctx, y, mode, s);
}

/// Accumulating Gram kernel `S ← S + Y(n) Y(n)ᵀ` on `ctx` — the streaming
/// building block of the out-of-core ST-HOSVD.
///
/// When `y` is one last-mode slab of a larger tensor and `mode` is **not**
/// the last mode, the slab's unfolding blocks are a contiguous run of the
/// full tensor's blocks, so accumulating consecutive slabs in order performs
/// exactly the per-element additions of [`gram_ctx`] on the full tensor:
/// the result is **bit-identical** for every slab width. Each element is one
/// running sum over the contraction index in ascending order, and a slab
/// boundary only splits that index range between two calls.
///
/// The first mode's `Dᵀ·D` matches a full `Dᵀ·D` GEMM bit for bit in both
/// triangles: `alpha = 1` folds in exactly (`fl(1·a) = a`), and the
/// mirrored upper element `Σ d[p,j]·d[p,i]` equals `Σ d[p,i]·d[p,j]` term by
/// term (`fl(a·b) = fl(b·a)`), slab after slab.
pub fn gram_accumulate_ctx(ctx: &ExecContext, y: &DenseTensor, mode: usize, s: &mut Matrix) {
    let dims = y.dims();
    assert!(
        mode < dims.len(),
        "gram_accumulate: mode {mode} out of range"
    );
    let n = dims[mode];
    assert_eq!(
        s.shape(),
        (n, n),
        "gram_accumulate: output must be I_n × I_n"
    );
    let unf = Unfolding::new(dims, mode);
    let data = y.as_slice();
    let ldc = s.cols();

    if n == 0 || y.is_empty() {
        return;
    }

    let _span = tucker_obs::span!("gram", mode = mode, n = n);
    GRAM_CALLS.inc();
    GRAM_FLOPS.add((n as u64 + 1) * (y.len() as u64));

    // One SYRK over the whole unfolding, seen in place.
    let source = Source::blocks(unf.left, n);
    let k = unf.cols();
    let work = k.saturating_mul(n * (n + 1) / 2);
    let parts = ctx.partition_for_work(n, work);
    triangular_scatter_mirror(ctx, s.as_mut_slice(), n, ldc, parts, |rows, panel| {
        syrk_rows_slices(source, 1.0, data, k, rows, panel, ldc);
    });
}

/// Computes the *non-symmetric* Gram pair `Y(n) · W(n)ᵀ` for two tensors that
/// agree in every mode except possibly `n`. This is the kernel of Alg. 4
/// line 11, where a processor multiplies its own unfolded block with a block
/// received from another processor in the same mode-n processor "column".
/// Differing sizes in the contracted (non-`n`) modes are not supported: the
/// members of a processor column own the same non-`n` ranges.
///
/// Parallelism: scatters row ranges of the `ny × nw` result, each thread
/// walking all blocks in ascending order, so results are bit-identical
/// across thread counts.
pub fn gram_pair_ctx(ctx: &ExecContext, y: &DenseTensor, w: &DenseTensor, mode: usize) -> Matrix {
    // The two tensors must agree in every mode except possibly the unfolding
    // mode itself: the distributed Gram (Alg. 4) exchanges local blocks whose
    // mode-n extents can differ by one when P_n does not divide I_n evenly.
    for (m, (&dy, &dw)) in y.dims().iter().zip(w.dims().iter()).enumerate() {
        if m != mode {
            assert_eq!(
                dy, dw,
                "gram_pair: tensors must agree in every non-unfolding mode (mode {m})"
            );
        }
    }
    let ny = y.dim(mode);
    let nw = w.dim(mode);
    let unf_y = Unfolding::new(y.dims(), mode);
    let unf_w = Unfolding::new(w.dims(), mode);
    let mut s = Matrix::zeros(ny, nw);
    let ydata = y.as_slice();
    let wdata = w.as_slice();
    let ldc = s.cols();

    if ny == 0 || nw == 0 || y.is_empty() || w.is_empty() {
        return s;
    }

    let _span = tucker_obs::span!("gram_pair", mode = mode, ny = ny, nw = nw);
    GRAM_CALLS.inc();
    GRAM_FLOPS.add(2 * (ny as u64) * (w.len() as u64));

    if unf_y.left == 1 {
        let cols = unf_y.cols();
        gemm_slices_ctx(
            ctx,
            Transpose::Yes,
            Transpose::No,
            1.0,
            ydata,
            cols,
            ny,
            ny,
            wdata,
            unf_w.cols(),
            nw,
            nw,
            0.0,
            s.as_mut_slice(),
            ldc,
        );
        return s;
    }

    let left = unf_y.left;
    let right = unf_y.right;
    // S += Y_block (ny × left, row-major) · W_blockᵀ, per block, accumulated
    // over one row range of S per thread.
    let block_pair = |rows: std::ops::Range<usize>, panel: &mut [f64]| {
        for t in 0..right {
            let yb = unf_y.block(ydata, t);
            let wb = unf_w.block(wdata, t);
            gemm_slices(
                Transpose::No,
                Transpose::Yes,
                1.0,
                &yb[rows.start * left..],
                rows.len(),
                left,
                left,
                wb,
                nw,
                left,
                left,
                1.0,
                panel,
                ldc,
            );
        }
    };
    let work = right
        .saturating_mul(left)
        .saturating_mul(ny)
        .saturating_mul(nw);
    let parts = ctx.partition_for_work(ny, work);
    if parts <= 1 {
        block_pair(0..ny, s.as_mut_slice());
        return s;
    }
    ctx.for_each_row_panel(s.as_mut_slice(), ldc, chunk_ranges(ny, parts), block_pair);
    s
}

/// Reference (definition-based) Gram used by the test suite: materializes the
/// unfolding and multiplies it by its transpose.
pub fn gram_reference(y: &DenseTensor, mode: usize) -> Matrix {
    let unf = Unfolding::new(y.dims(), mode);
    let m = unf.materialize(y);
    tucker_linalg::gemm::gemm(Transpose::No, Transpose::Yes, 1.0, &m, &m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    fn assert_matrix_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "matrix mismatch {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_all_modes() {
        let mut rng = StdRng::seed_from_u64(60);
        let dims = [4usize, 5, 3, 2];
        let y = random_tensor(&mut rng, &dims);
        for mode in 0..4 {
            let fast = gram_ctx(ExecContext::global(), &y, mode);
            let slow = gram_reference(&y, mode);
            assert_matrix_close(&fast, &slow, 1e-10);
        }
    }

    #[test]
    fn gram_is_symmetric_psd() {
        let mut rng = StdRng::seed_from_u64(61);
        let y = random_tensor(&mut rng, &[6, 4, 5]);
        for mode in 0..3 {
            let s = gram_ctx(ExecContext::global(), &y, mode);
            for i in 0..s.rows() {
                assert!(s.get(i, i) >= -1e-12);
                for j in 0..s.cols() {
                    assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn trace_equals_norm_squared() {
        // trace(Y(n) Y(n)ᵀ) = ‖Y‖² for every mode.
        let mut rng = StdRng::seed_from_u64(62);
        let y = random_tensor(&mut rng, &[3, 7, 4]);
        let ns = y.norm_sq();
        for mode in 0..3 {
            let s = gram_ctx(ExecContext::global(), &y, mode);
            let trace: f64 = (0..s.rows()).map(|i| s.get(i, i)).sum();
            assert!((trace - ns).abs() < 1e-10 * (1.0 + ns));
        }
    }

    #[test]
    fn gram_pair_with_self_matches_gram() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(63);
        let y = random_tensor(&mut rng, &[4, 3, 5]);
        for mode in 0..3 {
            let s1 = gram_ctx(ctx, &y, mode);
            let s2 = gram_pair_ctx(ctx, &y, &y, mode);
            assert_matrix_close(&s1, &s2, 1e-10);
        }
    }

    #[test]
    fn gram_pair_matches_reference() {
        let mut rng = StdRng::seed_from_u64(64);
        let dims = [3usize, 4, 2, 3];
        let y = random_tensor(&mut rng, &dims);
        let w = random_tensor(&mut rng, &dims);
        for mode in 0..4 {
            let s = gram_pair_ctx(ExecContext::global(), &y, &w, mode);
            let ym = Unfolding::new(&dims, mode).materialize(&y);
            let wm = Unfolding::new(&dims, mode).materialize(&w);
            let expected = tucker_linalg::gemm::gemm(Transpose::No, Transpose::Yes, 1.0, &ym, &wm);
            assert_matrix_close(&s, &expected, 1e-10);
        }
    }

    #[test]
    fn gram_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(66);
        // Large enough that every mode clears the parallel work threshold.
        let y = random_tensor(&mut rng, &[21, 23, 19, 3]);
        let seq = tucker_exec::ExecContext::new(1);
        for mode in 0..4 {
            let baseline = gram_ctx(&seq, &y, mode);
            for threads in [2usize, 4, 16] {
                let ctx = tucker_exec::ExecContext::new(threads);
                let s = gram_ctx(&ctx, &y, mode);
                assert_eq!(s.as_slice(), baseline.as_slice(), "mode {mode}");
            }
        }
    }

    #[test]
    fn gram_pair_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(67);
        let dims = [18usize, 17, 23];
        let y = random_tensor(&mut rng, &dims);
        let w = random_tensor(&mut rng, &dims);
        let seq = tucker_exec::ExecContext::new(1);
        for mode in 0..3 {
            let baseline = gram_pair_ctx(&seq, &y, &w, mode);
            for threads in [3usize, 8] {
                let ctx = tucker_exec::ExecContext::new(threads);
                let s = gram_pair_ctx(&ctx, &y, &w, mode);
                assert_eq!(s.as_slice(), baseline.as_slice(), "mode {mode}");
            }
        }
    }

    #[test]
    fn slab_accumulation_is_bit_identical_for_every_width() {
        // Accumulating the Gram slab by slab (any slab width, any thread
        // count) must reproduce the full-tensor Gram *bitwise* for every
        // non-last mode — the contract `try_st_hosvd_streaming_ctx` is built on.
        let mut rng = StdRng::seed_from_u64(68);
        // Large enough that mode 0 clears the parallel GEMM threshold.
        let dims = [19usize, 7, 5, 23];
        let y = random_tensor(&mut rng, &dims);
        let stride = y.last_mode_stride();
        for mode in 0..3 {
            let full = gram_ctx(ExecContext::global(), &y, mode);
            for width in [1usize, 3, 23] {
                for threads in [1usize, 4] {
                    let ctx = tucker_exec::ExecContext::new(threads);
                    let mut s = Matrix::zeros(dims[mode], dims[mode]);
                    let mut start = 0;
                    while start < dims[3] {
                        let w = width.min(dims[3] - start);
                        let slab = DenseTensor::from_vec(
                            &[19, 7, 5, w],
                            y.as_slice()[start * stride..(start + w) * stride].to_vec(),
                        );
                        gram_accumulate_ctx(&ctx, &slab, mode, &mut s);
                        start += w;
                    }
                    assert_eq!(
                        s.as_slice(),
                        full.as_slice(),
                        "mode {mode}, width {width}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_mode_gram_is_the_gemm_contract_in_both_triangles() {
        // The first-mode Gram runs a transposed-A SYRK and mirrors; both
        // triangles must equal the full Dᵀ·D GEMM contract bit for bit, for
        // extents off the MR/NR grid, any thread count and any slab width.
        use tucker_linalg::gemm::gemm_slices_reference;
        let mut rng = StdRng::seed_from_u64(69);
        for n in [13usize, 37] {
            let dims = [n, 11, 5, 29];
            let y = random_tensor(&mut rng, &dims);
            let cols = y.len() / n;
            let mut want = vec![0.0f64; n * n];
            gemm_slices_reference(
                Transpose::Yes,
                Transpose::No,
                1.0,
                y.as_slice(),
                cols,
                n,
                n,
                y.as_slice(),
                cols,
                n,
                n,
                0.0,
                &mut want,
                n,
            );
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let stride = y.last_mode_stride();
            for threads in [1usize, 2, 4, 32] {
                let ctx = tucker_exec::ExecContext::new(threads);
                for width in [1usize, 7, 29] {
                    let mut s = Matrix::zeros(n, n);
                    for start in (0..29).step_by(width) {
                        let w = width.min(29 - start);
                        let slab = DenseTensor::from_vec(
                            &[n, 11, 5, w],
                            y.as_slice()[start * stride..(start + w) * stride].to_vec(),
                        );
                        gram_accumulate_ctx(&ctx, &slab, 0, &mut s);
                    }
                    let got: Vec<u64> = s.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "n {n}, threads {threads}, width {width}");
                }
            }
        }
    }

    #[test]
    fn additivity_over_blocks() {
        // Splitting a tensor along the last mode and summing the Grams of the
        // pieces equals the Gram of the whole — the property the distributed
        // Gram (Alg. 4) relies on.
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(65);
        let dims = [4usize, 3, 6];
        let y = random_tensor(&mut rng, &dims);
        let full = gram_ctx(ctx, &y, 0);

        // Split along mode 2 into two halves (contiguous in memory).
        let half_len = y.len() / 2;
        let first = DenseTensor::from_vec(&[4, 3, 3], y.as_slice()[..half_len].to_vec());
        let second = DenseTensor::from_vec(&[4, 3, 3], y.as_slice()[half_len..].to_vec());
        let sum = gram_ctx(ctx, &first, 0).add(&gram_ctx(ctx, &second, 0));
        assert_matrix_close(&full, &sum, 1e-10);
    }

    #[test]
    fn two_way_tensor_first_mode() {
        // For a matrix (2-way tensor), gram in mode 0 is X·Xᵀ.
        let x = DenseTensor::from_fn(&[3, 4], |idx| (idx[0] * 4 + idx[1]) as f64);
        let s = gram_ctx(ExecContext::global(), &x, 0);
        for i in 0..3 {
            for j in 0..3 {
                let mut expected = 0.0;
                for k in 0..4 {
                    expected += x.get(&[i, k]) * x.get(&[j, k]);
                }
                assert!((s.get(i, j) - expected).abs() < 1e-12);
            }
        }
    }
}

//! Slab streaming: the out-of-core access path of the workspace.
//!
//! The paper's pipeline exists because the tensors are *too large to hold in
//! memory* (Sec. I, VII) — yet every in-memory kernel in this crate takes a
//! resident [`DenseTensor`]. This module defines the seam between the two
//! worlds: a [`SlabSource`] yields whole **last-mode slabs** (one timestep of
//! a time-last field, say) in natural order, and the slab kernels below
//! consume them one at a time so no caller ever needs the full tensor
//! resident.
//!
//! Everything here is built so that slab decomposition is *invisible in the
//! bits*:
//!
//! * a TTM in any non-last mode maps each unfolding block to one output
//!   block, and blocks never straddle a slab boundary, so
//!   [`ttm_slab_ctx`] on a slab produces exactly the corresponding slab of
//!   the full-tensor [`crate::ttm_ctx`] output;
//! * Gram accumulation ([`crate::gram_accumulate_ctx`]) adds one
//!   contribution per block in ascending block order (and, for the first
//!   mode, extends a single running per-element sum across the GEMM
//!   contraction dimension), so summing over consecutive slabs reproduces
//!   the full-tensor Gram bit for bit, for every slab width.
//!
//! `tucker_core::streaming::try_st_hosvd_streaming_ctx` is the driver that turns
//! these invariants into an out-of-core ST-HOSVD whose output is
//! bit-identical to the in-memory algorithm.

use crate::dense::DenseTensor;
use crate::ttm::{ttm_ctx, TtmTranspose};
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;

/// A source of last-mode slabs of a conceptual `I_1 × … × I_N` tensor.
///
/// Implementors promise that concatenating the slabs `[0, I_N)` in order
/// yields the tensor in natural (first-mode-fastest) memory order, and that
/// repeated reads of the same slab return identical values — slab
/// decomposition must be a pure view, not a generator with hidden state, or
/// the streaming algorithms lose their "bit-identical for every slab width"
/// contract.
pub trait SlabSource {
    /// The full tensor dimensions `I_1, …, I_N`.
    fn dims(&self) -> &[usize];

    /// Writes the slab covering last-mode indices `[start, start + len)`
    /// into `out` (length `len ·` [`SlabSource::slab_stride`]), in natural
    /// order.
    ///
    /// # Panics
    /// Panics if the range exceeds the last dimension or `out` has the wrong
    /// length.
    fn fill_slab(&self, start: usize, len: usize, out: &mut [f64]);

    /// Zero-copy borrow of the slab, for sources that are resident anyway.
    /// Streaming drivers prefer this over [`SlabSource::fill_slab`] when it
    /// returns `Some`.
    fn borrow_slab(&self, _start: usize, _len: usize) -> Option<&[f64]> {
        None
    }

    /// Elements per single last-mode step: `∏_{n<N} I_n`.
    fn slab_stride(&self) -> usize {
        let dims = self.dims();
        dims[..dims.len() - 1].iter().product()
    }

    /// The size of the streaming (last) mode `I_N`.
    fn last_dim(&self) -> usize {
        *self.dims().last().expect("SlabSource: at least one mode")
    }
}

/// References delegate, so `&S` and `&dyn SlabSource` are sources too —
/// which is what lets builder-style callers hold a `&dyn SlabSource` and
/// still drive the generic streaming kernels.
impl<S: SlabSource + ?Sized> SlabSource for &S {
    fn dims(&self) -> &[usize] {
        (**self).dims()
    }

    fn fill_slab(&self, start: usize, len: usize, out: &mut [f64]) {
        (**self).fill_slab(start, len, out)
    }

    fn borrow_slab(&self, start: usize, len: usize) -> Option<&[f64]> {
        (**self).borrow_slab(start, len)
    }

    fn slab_stride(&self) -> usize {
        (**self).slab_stride()
    }

    fn last_dim(&self) -> usize {
        (**self).last_dim()
    }
}

/// A resident tensor is trivially its own slab source (zero-copy).
impl SlabSource for DenseTensor {
    fn dims(&self) -> &[usize] {
        DenseTensor::dims(self)
    }

    fn fill_slab(&self, start: usize, len: usize, out: &mut [f64]) {
        out.copy_from_slice(self.last_mode_slab(start, len));
    }

    fn borrow_slab(&self, start: usize, len: usize) -> Option<&[f64]> {
        Some(self.last_mode_slab(start, len))
    }
}

/// Materializes a slab from `src` into an owned [`DenseTensor`], reusing the
/// allocation of `buf` (which is drained). The returned tensor has the
/// source's dimensions with the last mode replaced by `len`. Without an
/// allocation to reuse, the slab is allocated by [`tucker_exec::zeroed`].
pub fn take_slab(src: &impl SlabSource, start: usize, len: usize, buf: Vec<f64>) -> DenseTensor {
    let stride = src.slab_stride();
    let mut dims = src.dims().to_vec();
    let last = dims.len() - 1;
    dims[last] = len;
    let mut data = if buf.capacity() == 0 {
        tucker_exec::zeroed(len * stride)
    } else {
        buf
    };
    data.resize(len * stride, 0.0);
    if let Some(borrowed) = src.borrow_slab(start, len) {
        data.copy_from_slice(borrowed);
    } else {
        src.fill_slab(start, len, &mut data);
    }
    DenseTensor::from_vec(&dims, data)
}

/// Slab-wise TTM: `slab ×_mode op(V)` for a non-last mode.
///
/// Because unfolding blocks in modes `< N−1` never straddle a last-mode slab
/// boundary, this is **bit-identical** to the corresponding last-mode slab of
/// the full-tensor [`ttm_ctx`] output — the property that lets the streaming
/// ST-HOSVD shrink slabs independently.
///
/// # Panics
/// Panics if `mode` is the slab's last mode (TTM in the streaming mode needs
/// all slabs at once) or the shapes are incompatible.
pub fn ttm_slab_ctx(
    ctx: &ExecContext,
    slab: &DenseTensor,
    v: &Matrix,
    mode: usize,
    trans: TtmTranspose,
) -> DenseTensor {
    assert!(
        mode + 1 < slab.ndims(),
        "ttm_slab: mode {mode} is the streaming mode of a {}-way slab",
        slab.ndims()
    );
    ttm_ctx(ctx, slab, v, mode, trans)
}

/// Applies `op(V_n)` for every `Some` entry of `factors` to a slab, in the
/// order given by `order` (entries naming `None` modes are skipped). All
/// applied modes must be non-last. This is the pass-2 shrink chain of the
/// streaming ST-HOSVD; each application is bit-identical to the full-tensor
/// chain restricted to the slab.
pub fn ttm_slab_chain_ctx(
    ctx: &ExecContext,
    slab: DenseTensor,
    factors: &[Option<&Matrix>],
    trans: TtmTranspose,
    order: &[usize],
) -> DenseTensor {
    assert_eq!(
        factors.len(),
        slab.ndims(),
        "ttm_slab_chain: need one (optional) factor per mode"
    );
    let mut cur = slab;
    for &n in order {
        if let Some(v) = factors[n] {
            cur = ttm_slab_ctx(ctx, &cur, v, n, trans);
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::{gram_accumulate_ctx, gram_ctx};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn dense_tensor_is_its_own_slab_source() {
        let mut rng = StdRng::seed_from_u64(80);
        let x = random_tensor(&mut rng, &[3, 4, 5]);
        assert_eq!(SlabSource::dims(&x), &[3, 4, 5]);
        assert_eq!(x.slab_stride(), 12);
        assert_eq!(x.last_dim(), 5);
        let borrowed = x.borrow_slab(1, 2).unwrap();
        let mut filled = vec![0.0; 24];
        x.fill_slab(1, 2, &mut filled);
        assert_eq!(borrowed, &filled[..]);
        assert_eq!(borrowed, x.last_mode_slab(1, 2));
    }

    #[test]
    fn take_slab_reuses_buffer_and_matches_source() {
        let mut rng = StdRng::seed_from_u64(81);
        let x = random_tensor(&mut rng, &[4, 3, 6]);
        let mut buf = Vec::new();
        for (start, len) in [(0usize, 2usize), (2, 3), (5, 1)] {
            let slab = take_slab(&x, start, len, std::mem::take(&mut buf));
            assert_eq!(slab.dims(), &[4, 3, len]);
            assert_eq!(slab.as_slice(), x.last_mode_slab(start, len));
            buf = slab.into_vec();
        }
    }

    #[test]
    fn slab_ttm_equals_slab_of_full_ttm_bitwise() {
        let mut rng = StdRng::seed_from_u64(82);
        // Includes a narrow interior mode so the fused TTM path is crossed.
        let dims = [5usize, 3, 7, 11];
        let x = random_tensor(&mut rng, &dims);
        let ctx = ExecContext::new(2);
        for mode in 0..3 {
            let v = Matrix::from_fn(4, dims[mode], |i, j| ((i * 5 + j) as f64 * 0.3).sin());
            let full = ttm_ctx(&ctx, &x, &v, mode, TtmTranspose::NoTranspose);
            for width in [1usize, 2, 11] {
                let mut start = 0;
                while start < dims[3] {
                    let w = width.min(dims[3] - start);
                    let slab = take_slab(&x, start, w, Vec::new());
                    let out = ttm_slab_ctx(&ctx, &slab, &v, mode, TtmTranspose::NoTranspose);
                    assert_eq!(
                        out.as_slice(),
                        full.last_mode_slab(start, w),
                        "mode {mode}, slab {start}+{w}"
                    );
                    start += w;
                }
            }
        }
    }

    #[test]
    fn slab_chain_then_gram_matches_full_pipeline_bitwise() {
        // The exact pass-1 step of the streaming ST-HOSVD: shrink each slab
        // through already-found factors, then accumulate the next mode's
        // Gram — compared against the same two kernels on the full tensor.
        let mut rng = StdRng::seed_from_u64(83);
        let dims = [6usize, 5, 4, 9];
        let x = random_tensor(&mut rng, &dims);
        let u0 = Matrix::from_fn(dims[0], 3, |i, j| ((i + 2 * j) as f64 * 0.21).cos());
        let ctx = ExecContext::new(3);
        let shrunk = ttm_ctx(&ctx, &x, &u0, 0, TtmTranspose::Transpose);
        let full_gram = gram_ctx(&ctx, &shrunk, 1);
        let factors = [Some(&u0), None, None, None];
        for width in [1usize, 4, 9] {
            let mut s = Matrix::zeros(dims[1], dims[1]);
            let mut start = 0;
            while start < dims[3] {
                let w = width.min(dims[3] - start);
                let slab = take_slab(&x, start, w, Vec::new());
                let small = ttm_slab_chain_ctx(&ctx, slab, &factors, TtmTranspose::Transpose, &[0]);
                gram_accumulate_ctx(&ctx, &small, 1, &mut s);
                start += w;
            }
            assert_eq!(s.as_slice(), full_gram.as_slice(), "width {width}");
        }
    }

    #[test]
    #[should_panic]
    fn slab_ttm_rejects_the_streaming_mode() {
        let x = DenseTensor::zeros(&[2, 3, 4]);
        let v = Matrix::zeros(2, 4);
        ttm_slab_ctx(
            &ExecContext::sequential(),
            &x,
            &v,
            2,
            TtmTranspose::NoTranspose,
        );
    }
}

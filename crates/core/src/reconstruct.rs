//! Full and partial reconstruction from a Tucker decomposition (eq. (1)).
//!
//! A key selling point of Tucker compression for scientific data (Sec. II-C,
//! Sec. VII of the paper) is that analysts can reconstruct *only the part they
//! need* — one species, a few time steps, a cropped or coarsened grid — by
//! multiplying the (small) core with **row subsets** of the factor matrices.
//! The cost and memory then scale with the size of the requested subtensor,
//! not the original data, which is what makes laptop-scale analysis of
//! terabyte simulations possible.

use crate::ordering::window_order;
use crate::tucker::TuckerTensor;
use tucker_exec::ExecContext;
use tucker_linalg::blas1::fiber_dots;
use tucker_linalg::Matrix;
use tucker_obs::span;
use tucker_obs::trace::SpanGuard;
use tucker_tensor::{multi_ttm_ctx, DenseTensor, SubtensorSpec, TtmTranspose};

/// Reconstructs only the subtensor selected by `spec`, without ever forming the
/// full tensor: mode `n` of the result contains the rows `spec.mode_indices(n)`
/// of the reconstruction.
///
/// The modes are contracted in [`window_order`]: narrow modes first when the
/// window is mixed (a hyperslice), natural order otherwise. So a point-sized
/// or full window is bit-identical to the same entries of
/// [`TuckerTensor::reconstruct_ctx`], and a mixed one agrees with them within
/// [`window_roundoff_bound`]. Like the full reconstruction, a window whose
/// order ends in growing modes `m..N−1` runs them as the fused expanding
/// tail of [`multi_ttm_ctx`], tile by tile on `ctx` — same bits.
pub fn reconstruct_subtensor_ctx(
    t: &TuckerTensor,
    spec: &SubtensorSpec,
    ctx: &ExecContext,
) -> DenseTensor {
    assert_eq!(
        spec.ndims(),
        t.ndims(),
        "reconstruct_subtensor: spec must cover every mode"
    );
    let dims = t.original_dims();
    spec.validate(&dims);
    // Select the requested rows of each factor, then contract in the
    // window's order.
    let sub_factors: Vec<Matrix> = t
        .factors
        .iter()
        .enumerate()
        .map(|(n, u)| u.select_rows(spec.mode_indices(n)))
        .collect();
    let order = window_order(&t.ranks(), &spec.sub_dims());
    let _span = window_span(&order);
    let refs: Vec<Option<&Matrix>> = sub_factors.iter().map(Some).collect();
    multi_ttm_ctx(ctx, &t.core, &refs, TtmTranspose::NoTranspose, &order)
}

/// Opens the `query.window` span of one window query contracted in `order`:
/// `fold_at` is the position of the last mode in the order (where a chunked
/// reader folds its chunks together), `reordered` is 1 unless the order is
/// natural.
pub fn window_span(order: &[usize]) -> SpanGuard {
    let last = order.len().saturating_sub(1);
    let fold_at = order.iter().take_while(|&&n| n != last).count();
    let reordered = !order.iter().copied().eq(0..order.len());
    span!("query.window", fold_at = fold_at, reordered = reordered)
}

/// The proved round-off bound between a window computed in
/// [`window_order`] and the same window of the full reconstruction, which
/// contracts in natural order: elementwise,
/// `|w − W| ≤ 2·γ_K · (|G| ×₀ |U⁽⁰⁾| ⋯ ×_{N−1} |U⁽ᴺ⁻¹⁾|)` on the window, with
/// `K = Σₙ Rₙ` and `γ_K = K·u / (1 − K·u)`, `u = 2⁻⁵³`. Each entry of either
/// result is the same sum of products `G[r]·∏ₙ U⁽ⁿ⁾[iₙ, rₙ]`, evaluated by a
/// different bracketing of at most `K` roundings per term, so each lies
/// within `γ_K` (relative to the sum of the terms' magnitudes) of the exact
/// value. The magnitude tensor is itself computed in floating point, which
/// the extra `1 / (1 − γ_K)` accounts for.
pub fn window_roundoff_bound(t: &TuckerTensor, spec: &SubtensorSpec) -> DenseTensor {
    let abs = |values: &[f64]| values.iter().map(|v| v.abs()).collect::<Vec<f64>>();
    let core = DenseTensor::from_vec(t.core.dims(), abs(t.core.as_slice()));
    let factors = t
        .factors
        .iter()
        .map(|u| Matrix::from_vec(u.rows(), u.cols(), abs(u.as_slice())))
        .collect();
    let magnitude = reconstruct_subtensor_ctx(
        &TuckerTensor::new(core, factors),
        spec,
        ExecContext::global(),
    );
    let k = t.ranks().iter().sum::<usize>() as f64;
    let gamma = k * f64::EPSILON / 2.0 / (1.0 - k * f64::EPSILON / 2.0);
    let scale = 2.0 * gamma / (1.0 - gamma);
    let bound = magnitude.as_slice().iter().map(|m| scale * m).collect();
    DenseTensor::from_vec(magnitude.dims(), bound)
}

/// Reconstructs a single mode-`n` slice at index `idx` (e.g. one variable or
/// one time step), returning a tensor whose mode `n` has size 1.
pub fn reconstruct_slice(t: &TuckerTensor, mode: usize, idx: usize) -> DenseTensor {
    let dims = t.original_dims();
    let spec = SubtensorSpec::all(&dims).restrict_mode(mode, vec![idx]);
    reconstruct_subtensor_ctx(t, &spec, ExecContext::global())
}

/// Reconstructs a single element `X̃[idx]` by contracting the core against one
/// row of every factor matrix:
/// `X̃[i₁,…,i_N] = Σ_{r₁,…,r_N} G[r₁,…,r_N] · ∏_n U⁽ⁿ⁾[i_n, r_n]`.
///
/// Cost is `O(∏ R_n)` — it never touches the original dimensions, which is
/// what makes random-access queries against a compressed artifact cheap
/// (Sec. II-C of the paper; the `tucker-store` query engine is built on this).
/// The value is bit-identical to the same entry of [`TuckerTensor::reconstruct_ctx`] and of
/// the unit [`reconstruct_subtensor_ctx`] window at `idx` — and of any window that
/// [`window_order`] contracts in natural order (see [`PointContraction`]).
///
/// # Panics
/// Panics if `idx` does not cover every mode or is out of range.
pub fn reconstruct_element(t: &TuckerTensor, idx: &[usize]) -> f64 {
    reconstruct_elements(t, &[idx])[0]
}

/// Batched [`reconstruct_element`]: one value per point, each bit-identical
/// to the single-point call.
///
/// # Panics
/// Panics if a point does not cover every mode or is out of range.
pub fn reconstruct_elements(t: &TuckerTensor, points: &[&[usize]]) -> Vec<f64> {
    let mut contraction = PointContraction::new(&t.factors, points);
    contraction.accumulate(t.core.as_slice());
    contraction.finish()
}

/// The point-contraction engine: evaluates `X̃` at a batch of indices while
/// the core streams past in storage order, a run of whole last-mode slabs at
/// a time (the whole core at once, or one `.tkr` chunk after another).
///
/// Each run is contracted mode by mode, 0 first: mode `n < N−1` collapses
/// every contiguous length-`R_n` fiber against the factor row
/// `U⁽ⁿ⁾[i_n, :]` ([`tucker_linalg::blas1::fiber_dots`]), shrinking the
/// buffer by `R_n`; what is left is one scalar per last-mode slab `s`, folded
/// into the point's running sum through `U⁽ᴺ⁻¹⁾[i, s]` — across run
/// boundaries. Every sum is seeded `+0.0` and adds one unfused product per
/// term in ascending index order: the recurrence the GEMM-based TTM chain
/// applies to the same entry in natural mode order — the order of the full
/// reconstruction and, by [`window_order`]'s rule, of every unit window. So
/// the value equals that entry of the full reconstruction and of the unit
/// window **bit for bit**, for any split of the core into runs (a mixed
/// window contracts in another order and agrees within
/// [`window_roundoff_bound`]) — at `O(∏ R_n)` per point instead of the
/// `O(N·∏ R_n)` of a storage-order walk, and without packing one-row GEMMs.
pub struct PointContraction<'a> {
    points: Vec<Point<'a>>,
    /// Core elements per last-mode slab: `∏ R_n` over the non-last modes.
    slab_len: usize,
    /// Last-mode index of the next slab [`PointContraction::accumulate`]
    /// expects.
    next_slab: usize,
    scratch: [Vec<f64>; 2],
}

/// One index under evaluation: its factor rows and its running sum.
struct Point<'a> {
    /// `U⁽ⁿ⁾[i_n, :]` for the non-last modes.
    inner_rows: Vec<&'a [f64]>,
    /// `U⁽ᴺ⁻¹⁾[i, :]`.
    last_row: &'a [f64],
    acc: f64,
}

impl<'a> PointContraction<'a> {
    /// Prepares the contraction of a core with `factors` at `points`.
    ///
    /// # Panics
    /// Panics if there are no factors, or a point does not cover every mode
    /// or is out of range.
    pub fn new(factors: &'a [Matrix], points: &[&[usize]]) -> Self {
        let (last_factor, inner_factors) = factors
            .split_last()
            .expect("PointContraction: a decomposition has at least one mode");
        let row = |n: usize, u: &'a Matrix, i: usize| {
            assert!(
                i < u.rows(),
                "PointContraction: index {i} out of range in mode {n} (dim {})",
                u.rows()
            );
            u.row(i)
        };
        let points = points
            .iter()
            .map(|idx| {
                assert_eq!(
                    idx.len(),
                    factors.len(),
                    "PointContraction: index must cover every mode"
                );
                let last = inner_factors.len();
                Point {
                    inner_rows: idx
                        .iter()
                        .zip(inner_factors)
                        .enumerate()
                        .map(|(n, (&i, u))| row(n, u, i))
                        .collect(),
                    last_row: row(last, last_factor, idx[last]),
                    acc: 0.0,
                }
            })
            .collect();
        PointContraction {
            points,
            slab_len: inner_factors.iter().map(Matrix::cols).product(),
            next_slab: 0,
            scratch: [Vec::new(), Vec::new()],
        }
    }

    /// Folds the next run of whole last-mode core slabs into every point.
    ///
    /// # Panics
    /// Panics if `slabs` is not a whole number of slabs or runs past the
    /// last mode's rank.
    pub fn accumulate(&mut self, slabs: &[f64]) {
        if slabs.is_empty() {
            return;
        }
        assert_eq!(
            slabs.len() % self.slab_len,
            0,
            "PointContraction: run is not a whole number of last-mode slabs"
        );
        let width = slabs.len() / self.slab_len;
        let s0 = self.next_slab;
        for point in &mut self.points {
            let per_slab = contract_inner_modes(&point.inner_rows, slabs, &mut self.scratch);
            for (&u, &t) in point.last_row[s0..s0 + width].iter().zip(per_slab) {
                point.acc += u * t;
            }
        }
        self.next_slab += width;
    }

    /// The accumulated values, one per point in construction order.
    pub fn finish(self) -> Vec<f64> {
        self.points.iter().map(|p| p.acc).collect()
    }
}

/// Contracts modes `0..N−1` of a run of slabs against one point's factor
/// rows, ping-ponging between the two scratch buffers; returns one value per
/// slab (the run itself for a 1-way core).
fn contract_inner_modes<'s>(
    inner_rows: &[&[f64]],
    slabs: &'s [f64],
    scratch: &'s mut [Vec<f64>; 2],
) -> &'s [f64] {
    if inner_rows.is_empty() {
        return slabs;
    }
    let [mut src, mut dst] = scratch.each_mut();
    let mut len = slabs.len();
    for (n, row) in inner_rows.iter().enumerate() {
        let out_len = len / row.len();
        if dst.len() < out_len {
            dst.resize(out_len, 0.0);
        }
        let input = if n == 0 { slabs } else { &src[..len] };
        fiber_dots(row, input, &mut dst[..out_len]);
        std::mem::swap(&mut src, &mut dst);
        len = out_len;
    }
    &src[..len]
}

/// Reconstructs a coarsened view: every `stride`-th index in the given modes,
/// all indices elsewhere.
///
/// # Panics
/// Panics if `stride` is 0 or an entry of `coarse_modes` is not a mode of
/// `t` (`>= t.ndims()`).
pub fn reconstruct_coarse(t: &TuckerTensor, coarse_modes: &[usize], stride: usize) -> DenseTensor {
    assert!(stride >= 1, "reconstruct_coarse: stride must be >= 1");
    let dims = t.original_dims();
    let mut spec = SubtensorSpec::all(&dims);
    for &m in coarse_modes {
        assert!(
            m < dims.len(),
            "reconstruct_coarse: coarse mode {m} out of range for a {}-way tensor",
            dims.len()
        );
        let indices: Vec<usize> = (0..dims[m]).step_by(stride).collect();
        spec = spec.restrict_mode(m, indices);
    }
    reconstruct_subtensor_ctx(t, &spec, ExecContext::global())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::{try_st_hosvd_ctx, SthosvdOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_tensor::extract_subtensor;

    fn compressed_random(
        rng: &mut StdRng,
        dims: &[usize],
        eps: f64,
    ) -> (DenseTensor, TuckerTensor) {
        let x = DenseTensor::from_fn(dims, |idx| {
            let mut v = 0.0;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 1) as f64 * 0.1 * i as f64).sin();
            }
            v + 0.01 * rng.gen_range(-1.0..1.0)
        });
        let r = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        (x, r.tucker)
    }

    #[test]
    fn subtensor_matches_full_reconstruction() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(100);
        let (_, t) = compressed_random(&mut rng, &[12, 10, 8], 1e-6);
        let full = t.reconstruct_ctx(ctx);
        let spec = SubtensorSpec::from_indices(vec![vec![0, 5, 11], vec![2, 3], vec![7]]);
        let partial = reconstruct_subtensor_ctx(&t, &spec, ctx);
        let expected = extract_subtensor(&full, &spec);
        assert_eq!(partial.dims(), expected.dims());
        for (a, b) in partial.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn slice_reconstruction_matches_full() {
        let mut rng = StdRng::seed_from_u64(101);
        let (_, t) = compressed_random(&mut rng, &[9, 8, 7], 1e-6);
        let full = t.reconstruct_ctx(ExecContext::global());
        let slice = reconstruct_slice(&t, 1, 3);
        assert_eq!(slice.dims(), &[9, 1, 7]);
        for i in 0..9 {
            for k in 0..7 {
                assert!((slice.get(&[i, 0, k]) - full.get(&[i, 3, k])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn coarse_reconstruction_strides_spatial_modes() {
        let mut rng = StdRng::seed_from_u64(102);
        let (_, t) = compressed_random(&mut rng, &[10, 10, 6], 1e-6);
        let full = t.reconstruct_ctx(ExecContext::global());
        let coarse = reconstruct_coarse(&t, &[0, 1], 2);
        assert_eq!(coarse.dims(), &[5, 5, 6]);
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..6 {
                    assert!((coarse.get(&[i, j, k]) - full.get(&[2 * i, 2 * j, k])).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn partial_reconstruction_is_close_to_original_subtensor() {
        // With a tight tolerance, a reconstructed subtensor approximates the
        // corresponding slice of the original data.
        let mut rng = StdRng::seed_from_u64(103);
        let (x, t) = compressed_random(&mut rng, &[14, 12, 10], 1e-4);
        let spec = SubtensorSpec::from_ranges(&[(2, 5), (0, 12), (4, 3)]);
        let approx = reconstruct_subtensor_ctx(&t, &spec, ExecContext::global());
        let exact = extract_subtensor(&x, &spec);
        let err = tucker_tensor::relative_error(&exact, &approx);
        assert!(err < 1e-2, "partial reconstruction error too large: {err}");
    }

    #[test]
    fn element_matches_full_reconstruction() {
        let mut rng = StdRng::seed_from_u64(105);
        let (_, t) = compressed_random(&mut rng, &[9, 7, 8], 1e-6);
        let full = t.reconstruct_ctx(ExecContext::global());
        for idx in [[0usize, 0, 0], [8, 6, 7], [4, 3, 2], [1, 6, 0]] {
            let e = reconstruct_element(&t, &idx);
            assert!(
                (e - full.get(&idx)).abs() < 1e-10,
                "element {idx:?}: {e} vs {}",
                full.get(&idx)
            );
        }
    }

    #[test]
    fn element_equals_full_and_unit_window_bit_for_bit_for_any_core_split() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(107);
        for dims in [vec![9usize, 7, 8], vec![6, 5, 4, 7], vec![13, 11], vec![17]] {
            let (_, t) = compressed_random(&mut rng, &dims, 1e-6);
            let full = t.reconstruct_ctx(ctx);
            let points: Vec<Vec<usize>> = (0..12)
                .map(|_| dims.iter().map(|&d| rng.gen_range(0..d)).collect())
                .collect();
            let refs: Vec<&[usize]> = points.iter().map(|p| p.as_slice()).collect();
            let batched = reconstruct_elements(&t, &refs);
            let slab_len = t.core.last_mode_stride();
            let r_last = *t.core.dims().last().unwrap();
            for (p, &b) in refs.iter().zip(&batched) {
                let want = full.get(p).to_bits();
                assert_eq!(reconstruct_element(&t, p).to_bits(), want, "{dims:?} {p:?}");
                assert_eq!(b.to_bits(), want, "batched {dims:?} {p:?}");
                let unit: Vec<(usize, usize)> = p.iter().map(|&i| (i, 1)).collect();
                let window = reconstruct_subtensor_ctx(&t, &SubtensorSpec::from_ranges(&unit), ctx);
                assert_eq!(
                    window.as_slice()[0].to_bits(),
                    want,
                    "window {dims:?} {p:?}"
                );
            }
            // Feeding the core in ragged runs of slabs changes nothing.
            for widths in [vec![1usize], vec![2, 1, 3]] {
                let mut contraction = PointContraction::new(&t.factors, &refs);
                let (mut s, mut k) = (0usize, 0usize);
                while s < r_last {
                    let w = widths[k % widths.len()].min(r_last - s);
                    contraction.accumulate(&t.core.as_slice()[s * slab_len..(s + w) * slab_len]);
                    s += w;
                    k += 1;
                }
                let split = contraction.finish();
                for (a, b) in split.iter().zip(&batched) {
                    assert_eq!(a.to_bits(), b.to_bits(), "split {widths:?} {dims:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn element_index_out_of_range_panics() {
        let mut rng = StdRng::seed_from_u64(106);
        let (_, t) = compressed_random(&mut rng, &[5, 5, 5], 1e-3);
        reconstruct_element(&t, &[5, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "reconstruct_coarse: coarse mode 3 out of range for a 3-way tensor")]
    fn coarse_mode_out_of_range_panics_with_the_mode() {
        let mut rng = StdRng::seed_from_u64(108);
        let (_, t) = compressed_random(&mut rng, &[6, 6, 6], 1e-3);
        reconstruct_coarse(&t, &[0, 3], 2);
    }

    #[test]
    #[should_panic]
    fn wrong_spec_arity_panics() {
        let mut rng = StdRng::seed_from_u64(104);
        let (_, t) = compressed_random(&mut rng, &[6, 6, 6], 1e-3);
        let spec = SubtensorSpec::from_ranges(&[(0, 2), (0, 2)]);
        reconstruct_subtensor_ctx(&t, &spec, ExecContext::global());
    }
}

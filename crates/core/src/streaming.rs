//! Out-of-core ST-HOSVD: the two-phase streaming driver.
//!
//! [`try_st_hosvd_ctx`](crate::sthosvd::try_st_hosvd_ctx) needs the full
//! tensor resident
//! (it reads its input borrowed, without a copy, but all of it at once). This
//! module computes the *identical* decomposition from a [`SlabSource`] that yields
//! whole last-mode slabs on demand, so peak memory is
//! `O(slab + truncated tensor)` instead of `O(full tensor)`:
//!
//! * **Phase 1 — Gram/truncate.** For each non-streaming mode `n` (in
//!   processing order), stream the source once: every slab is shrunk through
//!   the factors found so far
//!   ([`ttm_slab_chain_ctx`](tucker_tensor::ttm_slab_chain_ctx)) and its
//!   mode-`n` Gram contribution accumulated ([`gram_accumulate_ctx`]); the
//!   mode is then truncated exactly as in Alg. 1. The source is touched once per
//!   non-streaming mode — the compute/memory trade the paper makes explicit
//!   for its out-of-core variant (Sec. II-B): redundant TTM work buys a
//!   resident set that never exceeds one slab plus the running Gram.
//! * **Phase 2 — core assembly.** One final sweep shrinks every slab through
//!   *all* non-streaming factors and writes it into the resident truncated
//!   tensor via [`DenseTensor::last_mode_slab_mut`]; the streaming mode is
//!   then processed in memory (its Gram needs all timestep pairs, which is
//!   exactly why it must come last) and the core emerges in whole last-mode
//!   slabs, ready for `tucker_store::TkrWriter`.
//!
//! **Bit-identity contract.** The output — factors, core, ranks,
//! eigenvalues, discarded energy, error bound — is bit-identical to
//! [`try_st_hosvd_ctx`](crate::sthosvd::try_st_hosvd_ctx) on the materialized tensor,
//! for every slab width and thread count. This rests on two kernel
//! invariants (see `crates/tensor/src/stream.rs` and
//! `docs/ARCHITECTURE.md` §6): non-last-mode TTM maps slabs to slabs
//! bitwise, and Gram accumulation over consecutive slabs performs the
//! sequential per-element additions in the same order. `‖X‖²`, as in the
//! in-memory driver, is the trace of the first sweep's Gram, which the
//! second invariant makes bitwise the in-memory one.
//! Pinned by `tests/streaming.rs` across odd shapes, slab widths (1, prime,
//! full) and thread counts including oversubscription.

use crate::rank::discarded_tail;
use crate::sthosvd::{SthosvdOptions, SthosvdResult};
use crate::tucker::TuckerTensor;
use crate::validate::{self, CoreError};
use tucker_exec::ExecContext;
use tucker_linalg::eig::sym_eig_desc;
use tucker_linalg::Matrix;
use tucker_tensor::{
    gram_accumulate_ctx, gram_ctx, take_slab, ttm_ctx, ttm_slab_ctx, DenseTensor, SlabSource,
    TtmTranspose,
};

/// Options of the streaming driver (everything algorithmic lives in
/// [`SthosvdOptions`]; this only shapes the IO pattern).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOptions {
    /// Last-mode steps per slab. Larger slabs amortize per-slab overhead at
    /// the cost of a proportionally larger resident buffer; the *results*
    /// are bit-identical for every value. Clamped to at least 1.
    pub slab_width: usize,
}

impl StreamingOptions {
    /// Streams `width` last-mode steps at a time.
    pub fn with_slab_width(width: usize) -> Self {
        StreamingOptions {
            slab_width: width.max(1),
        }
    }
}

impl Default for StreamingOptions {
    /// A slab of 1 — the strictest memory profile (one timestep resident).
    fn default() -> Self {
        StreamingOptions::with_slab_width(1)
    }
}

/// Computes the ST-HOSVD of a slab source on `ctx`.
///
/// The result is **bit-identical** to
/// [`try_st_hosvd_ctx`](crate::sthosvd::try_st_hosvd_ctx) on the
/// materialized tensor for every slab width and thread count (see the
/// module docs for why).
///
/// Validates the source shape, the mode order and the rank selection
/// first. The source needs at least two modes, and the resolved order must
/// process the streaming (last) mode last: the last mode's Gram couples
/// every pair of slabs, so it can only be processed once the others have
/// shrunk the tensor into memory (`ModeOrder::Natural` always does). A
/// source whose `‖X‖²` is not finite is refused after the first sweep,
/// before any eigensolve. Each failure is a [`CoreError`].
pub fn try_st_hosvd_streaming_ctx(
    src: &impl SlabSource,
    opts: &SthosvdOptions,
    stream: &StreamingOptions,
    ctx: &ExecContext,
) -> Result<SthosvdResult, CoreError> {
    validate::validate_streaming_inputs(src.dims(), opts)?;
    st_hosvd_streaming_unchecked(src, opts, stream, ctx)
}

/// [`try_st_hosvd_streaming_ctx`] that panics with the [`CoreError`]'s
/// message instead of returning it.
///
/// Kept only because the end-to-end benchmark binary (`bench_e2e`), whose
/// sources change only together with the benchmark definition, calls it by
/// this name. Everything else calls [`try_st_hosvd_streaming_ctx`].
pub fn st_hosvd_streaming_ctx(
    src: &impl SlabSource,
    opts: &SthosvdOptions,
    stream: &StreamingOptions,
    ctx: &ExecContext,
) -> SthosvdResult {
    crate::valid_or_panic(
        "st_hosvd_streaming",
        try_st_hosvd_streaming_ctx(src, opts, stream, ctx),
    )
}

/// The two-phase streaming kernel itself; inputs have been validated.
fn st_hosvd_streaming_unchecked(
    src: &impl SlabSource,
    opts: &SthosvdOptions,
    stream: &StreamingOptions,
    ctx: &ExecContext,
) -> Result<SthosvdResult, CoreError> {
    let dims = src.dims().to_vec();
    let nmodes = dims.len();
    let _span = tucker_obs::span!(
        "st_hosvd_streaming",
        nmodes = nmodes,
        slab_width = stream.slab_width.max(1),
        threads = ctx.threads(),
    );
    assert!(
        nmodes >= 2,
        "st_hosvd_streaming: need at least 2 modes (got {nmodes})"
    );
    let last = nmodes - 1;
    let last_dim = dims[last];
    let width = stream.slab_width.max(1);

    // Resolve the processing order exactly like the in-memory driver (and
    // like validate_streaming_inputs, which certified it ends in the last
    // mode — one shared rank_hint, so they cannot drift).
    let order = opts
        .order
        .resolve(&dims, &validate::rank_hint(&opts.rank, &dims));
    assert_eq!(
        order.last(),
        Some(&last),
        "st_hosvd_streaming: the streaming (last) mode must be processed last \
         (resolved order {order:?}); use ModeOrder::Natural or a custom order \
         ending in mode {last}"
    );

    let mut factors: Vec<Option<Matrix>> = vec![None; nmodes];
    let mut ranks = vec![0usize; nmodes];
    let mut mode_eigenvalues: Vec<Vec<f64>> = vec![Vec::new(); nmodes];
    let mut discarded_energy = 0.0;
    let mut norm_x_sq = 0.0;
    let mut slab_buf: Vec<f64> = Vec::new();

    // Phase 1: one streaming sweep per non-streaming mode, in processing
    // order. Each sweep shrinks every slab through the factors found so far
    // and accumulates the mode's Gram; the first sweep's Gram has read every
    // element of X, and its trace is ‖X‖² (bitwise the in-memory driver's,
    // which rank selection depends on).
    for (step, &n) in order[..nmodes - 1].iter().enumerate() {
        let _sweep_span = tucker_obs::span!("streaming.sweep", mode = n, step = step);
        let mut s = Matrix::zeros(dims[n], dims[n]);
        let mut start = 0usize;
        while start < last_dim {
            let w = width.min(last_dim - start);
            let slab = take_slab(src, start, w, std::mem::take(&mut slab_buf));
            let shrunk = shrink_slab(ctx, slab, &factors, &order, &mut slab_buf);
            gram_accumulate_ctx(ctx, &shrunk, n, &mut s);
            if slab_buf.is_empty() {
                // No factor applied yet (first sweep): the "shrunk" tensor
                // *is* the slab — recycle its buffer directly.
                slab_buf = shrunk.into_vec();
            }
            start += w;
        }
        if step == 0 {
            norm_x_sq = s.trace();
            validate::finite_norm(norm_x_sq)?;
        }
        let eig = sym_eig_desc(&s);
        let r = opts.rank.select(n, &eig.values, norm_x_sq, nmodes);
        let u = eig.leading_vectors(r);
        discarded_energy += discarded_tail(&eig.values, r);
        mode_eigenvalues[n] = eig.values;
        ranks[n] = r;
        factors[n] = Some(u);
    }

    // Phase 2: final sweep — shrink each slab through every non-streaming
    // factor and write it straight into the resident truncated tensor.
    let _phase2_span = tucker_obs::span!("streaming.assemble", mode = last);
    let mut trunc_dims = ranks.clone();
    trunc_dims[last] = last_dim;
    let mut y = DenseTensor::zeros(&trunc_dims);
    let mut start = 0usize;
    while start < last_dim {
        let w = width.min(last_dim - start);
        let slab = take_slab(src, start, w, std::mem::take(&mut slab_buf));
        let shrunk = shrink_slab(ctx, slab, &factors, &order, &mut slab_buf);
        y.last_mode_slab_mut(start, w)
            .copy_from_slice(shrunk.as_slice());
        if slab_buf.is_empty() {
            slab_buf = shrunk.into_vec();
        }
        start += w;
    }

    // The streaming mode itself: everything left is O(truncated tensor).
    let s = gram_ctx(ctx, &y, last);
    let eig = sym_eig_desc(&s);
    let r = opts.rank.select(last, &eig.values, norm_x_sq, nmodes);
    let u = eig.leading_vectors(r);
    discarded_energy += discarded_tail(&eig.values, r);
    mode_eigenvalues[last] = eig.values;
    ranks[last] = r;
    let core = ttm_ctx(ctx, &y, &u, last, TtmTranspose::Transpose);
    factors[last] = Some(u);

    let factors: Vec<Matrix> = factors
        .into_iter()
        .map(|f| f.expect("every mode was processed"))
        .collect();
    Ok(SthosvdResult {
        tucker: TuckerTensor::new(core, factors),
        ranks,
        mode_eigenvalues,
        discarded_energy,
        norm_x_sq,
        processed_order: order,
    })
}

/// Applies every already-found factor (transposed, in processing order) to a
/// slab — [`ttm_slab_ctx`] per mode, so the result is bitwise the
/// corresponding slab of the full shrunk tensor. The slab's own (large)
/// buffer is handed back through `recycle` as soon as the first TTM output
/// replaces it, so sweep loops reuse one slab-sized allocation instead of
/// re-allocating per slab; `recycle` is left empty when no factor was
/// applied (the slab is returned unchanged and the caller recycles it).
fn shrink_slab(
    ctx: &ExecContext,
    slab: DenseTensor,
    factors: &[Option<Matrix>],
    order: &[usize],
    recycle: &mut Vec<f64>,
) -> DenseTensor {
    let mut cur = slab;
    let mut first = true;
    for &n in order {
        if let Some(u) = &factors[n] {
            let next = ttm_slab_ctx(ctx, &cur, u, n, TtmTranspose::Transpose);
            if first {
                *recycle = cur.into_vec();
                first = false;
            }
            cur = next;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::ModeOrder;
    use crate::sthosvd::try_st_hosvd_ctx;
    use crate::validate::ShapeError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    fn assert_results_bit_identical(a: &SthosvdResult, b: &SthosvdResult) {
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.processed_order, b.processed_order);
        assert_eq!(a.norm_x_sq.to_bits(), b.norm_x_sq.to_bits());
        assert_eq!(a.discarded_energy.to_bits(), b.discarded_energy.to_bits());
        assert_eq!(a.mode_eigenvalues, b.mode_eigenvalues);
        assert_eq!(a.tucker.core.as_slice(), b.tucker.core.as_slice());
        for (fa, fb) in a.tucker.factors.iter().zip(b.tucker.factors.iter()) {
            assert_eq!(fa.as_slice(), fb.as_slice());
        }
    }

    #[test]
    fn streaming_matches_in_memory_bitwise() {
        let mut rng = StdRng::seed_from_u64(90);
        let x = random_tensor(&mut rng, &[9, 7, 8, 6]);
        let opts = SthosvdOptions::with_tolerance(0.2);
        let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
        for w in [1usize, 3, 6] {
            let r = try_st_hosvd_streaming_ctx(
                &x,
                &opts,
                &StreamingOptions::with_slab_width(w),
                &ExecContext::new(1),
            )
            .unwrap();
            assert_results_bit_identical(&r, &baseline);
        }
    }

    #[test]
    fn streaming_matches_in_memory_with_fixed_ranks() {
        let mut rng = StdRng::seed_from_u64(91);
        let x = random_tensor(&mut rng, &[10, 9, 7]);
        let opts = SthosvdOptions::with_ranks(vec![4, 3, 2]);
        let ctx = ExecContext::new(4);
        let baseline = try_st_hosvd_ctx(&x, &opts, &ctx).unwrap();
        let r = try_st_hosvd_streaming_ctx(&x, &opts, &StreamingOptions::default(), &ctx).unwrap();
        assert_results_bit_identical(&r, &baseline);
    }

    #[test]
    fn custom_order_ending_in_last_mode_is_accepted() {
        let mut rng = StdRng::seed_from_u64(92);
        let x = random_tensor(&mut rng, &[6, 7, 5]);
        let opts = SthosvdOptions::with_tolerance(0.3).order(ModeOrder::Custom(vec![1, 0, 2]));
        let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
        let r = try_st_hosvd_streaming_ctx(
            &x,
            &opts,
            &StreamingOptions::with_slab_width(2),
            &ExecContext::new(1),
        )
        .unwrap();
        assert_results_bit_identical(&r, &baseline);
    }

    #[test]
    fn order_not_ending_in_streaming_mode_is_a_shape_error() {
        let x = DenseTensor::zeros(&[4, 4, 4]);
        let opts = SthosvdOptions::with_tolerance(0.1).order(ModeOrder::Custom(vec![2, 1, 0]));
        let err = try_st_hosvd_streaming_ctx(
            &x,
            &opts,
            &StreamingOptions::default(),
            ExecContext::global(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Shape(ShapeError::StreamingOrderNotLast {
                order: vec![2, 1, 0],
                last: 2
            })
        );
    }

    #[test]
    fn one_way_tensor_is_a_shape_error() {
        let x = DenseTensor::zeros(&[4]);
        let err = try_st_hosvd_streaming_ctx(
            &x,
            &SthosvdOptions::with_tolerance(0.1),
            &StreamingOptions::default(),
            ExecContext::global(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Shape(ShapeError::TooFewModes { need: 2, got: 1 })
        );
    }
}

//! `‖X‖²` contract battery: the input's squared norm is the trace of the
//! first processed mode's Gram.
//!
//! Rank selection needs `‖X‖²` only after the first mode's eigensolve, and
//! by then that mode's Gram has read every element of X; its trace
//! `Σᵢ S[i][i]` is `‖X‖²`. Every driver takes the norm there instead of
//! making a pass of its own over X. The contract, pinned here bit for bit:
//! `norm_x_sq` is one running sum from `+0.0` of the diagonal of
//! `gram_ctx(x, processed_order[0])`, over `i` ascending — for every mode
//! order and thread count in memory, every slab width when streaming, mode 0
//! for T-HOSVD, and the same bits on every rank of every processor grid.
//! Because the Gram contract (`tests/gram_contract.rs`) holds across tiers
//! and blockings, so does this one; CI re-runs the suite under forced SIMD
//! tiers and a tiny blocking.

use parallel_tucker::prelude::*;
use tucker_core::dist::dist_st_hosvd_ctx;
use tucker_core::streaming::{st_hosvd_streaming_ctx, StreamingOptions};
use tucker_tensor::gram_ctx;

/// Deterministic fill with mixed signs and magnitudes over nine decades, so
/// any reordering of a sum of squares shows up in the low mantissa bits.
fn fill(dims: &[usize], seed: u64) -> DenseTensor {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
    DenseTensor::from_fn(dims, |_| {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let frac = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        frac * 3.0_f64.powi((s % 9) as i32 - 4)
    })
}

/// The contract written out: the diagonal of the single-thread Gram of mode
/// `mode`, one running sum from `+0.0` over `i` ascending.
fn trace_bits(x: &DenseTensor, mode: usize) -> u64 {
    let s = gram_ctx(&ExecContext::new(1), x, mode);
    let mut acc = 0.0f64;
    for i in 0..s.rows() {
        acc += s.get(i, i);
    }
    acc.to_bits()
}

fn shapes() -> [&'static [usize]; 5] {
    [
        &[9, 8, 7],
        &[13, 11, 6, 5],
        &[40, 33, 17],
        &[5, 72, 3, 4],
        &[150, 9, 10],
    ]
}

/// In memory: `norm_x_sq` is the trace of `gram_ctx(x, processed_order[0])`
/// for the natural, largest-first and a custom order, at 1, 2 and 4 threads.
/// The custom order starts at the last mode, whose Gram has `right = 1` and
/// the longest contraction.
#[test]
fn in_memory_norm_is_the_trace_of_the_first_processed_gram() {
    for (k, dims) in shapes().into_iter().enumerate() {
        let x = fill(dims, k as u64 + 1);
        let reversed: Vec<usize> = (0..dims.len()).rev().collect();
        for order in [
            ModeOrder::Natural,
            ModeOrder::LargestFirst,
            ModeOrder::Custom(reversed),
        ] {
            let opts = SthosvdOptions::with_tolerance(1e-2).order(order.clone());
            let mut expected = None;
            for threads in [1, 2, 4] {
                let r = st_hosvd_ctx(&x, &opts, &ExecContext::new(threads));
                let want = *expected.get_or_insert_with(|| trace_bits(&x, r.processed_order[0]));
                assert_eq!(
                    r.norm_x_sq.to_bits(),
                    want,
                    "{dims:?}, {order:?}, {threads} threads"
                );
            }
        }
    }
}

/// Streaming: the first sweep's accumulated Gram has the in-memory Gram's
/// bits, so its trace is the same norm, for every slab width.
#[test]
fn streaming_norm_is_the_trace_of_the_first_processed_gram() {
    for (k, dims) in shapes().into_iter().enumerate() {
        let x = fill(dims, k as u64 + 11);
        let last = dims.len() - 1;
        let mut custom: Vec<usize> = (0..last).rev().collect();
        custom.push(last);
        for order in [ModeOrder::Natural, ModeOrder::Custom(custom)] {
            let opts = SthosvdOptions::with_tolerance(1e-2).order(order.clone());
            let first = match &order {
                ModeOrder::Custom(o) => o[0],
                _ => 0,
            };
            let want = trace_bits(&x, first);
            for width in [1, 3, dims[last]] {
                for threads in [1, 4] {
                    let r = st_hosvd_streaming_ctx(
                        &x,
                        &opts,
                        &StreamingOptions::with_slab_width(width),
                        &ExecContext::new(threads),
                    );
                    assert_eq!(r.processed_order[0], first);
                    assert_eq!(
                        r.norm_x_sq.to_bits(),
                        want,
                        "{dims:?}, {order:?}, width {width}, {threads} threads"
                    );
                }
            }
        }
    }
}

/// T-HOSVD takes the norm from the mode-0 Gram it computes anyway.
#[test]
fn t_hosvd_norm_is_the_trace_of_the_mode_0_gram() {
    for (k, dims) in shapes().into_iter().enumerate() {
        let x = fill(dims, k as u64 + 21);
        let r = t_hosvd(&x, &RankSelection::Tolerance(1e-2));
        assert_eq!(r.norm_x_sq.to_bits(), trace_bits(&x, 0), "{dims:?}");
    }
}

/// On a processor grid, every rank reports the same `norm_x_sq` bits: the
/// assembled Gram is bitwise the same everywhere, and so is its trace. On
/// `[2, 1, 1]` with the natural order only the first processed mode is
/// split, so the Gram rows — and the norm — are the sequential bits too.
#[test]
fn every_rank_reports_the_same_norm_bits() {
    let dims = [12usize, 10, 8];
    let x = fill(&dims, 31);
    for order in [ModeOrder::Natural, ModeOrder::LargestFirst] {
        let opts = SthosvdOptions::with_tolerance(1e-2).order(order.clone());
        let seq = st_hosvd_ctx(&x, &opts, &ExecContext::new(1));
        for grid in [[2usize, 1, 1], [1, 2, 2], [2, 2, 1]] {
            let (x2, opts2) = (x.clone(), opts.clone());
            let norms = spmd_with_grid(ProcGrid::new(&grid), move |comm| {
                let dx = DistTensor::from_global(&comm, &x2);
                dist_st_hosvd_ctx(&comm, &dx, &opts2, &ExecContext::new(1))
                    .norm_x_sq
                    .to_bits()
            });
            let label = format!("grid {grid:?}, {order:?}");
            assert_eq!(norms.len(), grid.iter().product::<usize>(), "{label}");
            assert!(norms.iter().all(|&b| b == norms[0]), "{label}: {norms:?}");
            let norm = f64::from_bits(norms[0]);
            let rel = (norm - seq.norm_x_sq).abs() / seq.norm_x_sq;
            assert!(rel < 1e-14, "{label}: {rel:e} from the sequential norm");
            if grid == [2, 1, 1] && order == ModeOrder::Natural {
                assert_eq!(norms[0], seq.norm_x_sq.to_bits(), "{label}");
            }
        }
    }
}

/// Neumaier's compensated sum of the squares: the reference the norm's
/// accuracy is measured against.
fn compensated_sum_of_squares(x: &[f64]) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for &v in x {
        let sq = v * v;
        let t = sum + sq;
        if sum.abs() >= sq.abs() {
            comp += (sum - t) + sq;
        } else {
            comp += (sq - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

/// On about a million elements, the trace (each diagonal element a sum over
/// one row of the unfolding, then a short sum of those) is within 1e-14
/// relative of a compensated sum. One serial add chain over every element
/// misses the bound on this input (1.6e-14 relative).
#[test]
fn norm_is_within_1e_14_of_a_compensated_sum() {
    let x = fill(&[100, 100, 101], 41);
    let exact = compensated_sum_of_squares(x.as_slice());
    let opts = SthosvdOptions::with_ranks(vec![2, 2, 2]);
    for threads in [1, 2] {
        let r = st_hosvd_ctx(&x, &opts, &ExecContext::new(threads));
        let rel = (r.norm_x_sq - exact).abs() / exact;
        assert!(rel < 1e-14, "{threads} threads: {rel:e} relative error");
    }
}

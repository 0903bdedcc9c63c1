//! Gram contract battery: `gram_accumulate_ctx` against the sum written out.
//!
//! The Gram of a mode-n unfolding (paper Alg. 1 line 4, Alg. 4 line 5) is
//! pinned element by element: `S[i][j]` is **one** running sum, starting
//! from `+0.0`, adding `y[t, i, q] · y[t, j, q]` (a multiply, then an add,
//! never a fused multiply-add) for the block index `t` ascending and, inside
//! each block, the in-block offset `q` ascending. With the natural layout
//! the element lives at `t·(I_n·left) + i·left + q`, so `(t, q)` in
//! lexicographic order is the contraction index `p = t·left + q` ascending.
//!
//! The kernel behind it may pack or read in place, split rows across
//! threads, cut the contraction into `kc` slabs and run any SIMD tier; the
//! battery sweeps all of those and demands the same bits every time, for
//! both triangles of `S`, and for the streaming use (slab after slab along
//! the last mode into one accumulator).
//!
//! Tier and blocking forcing are process-global, so every test here
//! serializes on one mutex and restores the detected settings before
//! releasing it.

use std::sync::Mutex;
use tucker_exec::ExecContext;
use tucker_linalg::blocking::{current_blocking, force_blocking, Blocking};
use tucker_linalg::simd::{detected_tier, force_tier, supported_tiers};
use tucker_linalg::Matrix;
use tucker_tensor::{gram_accumulate_ctx, DenseTensor};

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic fill with mixed signs and magnitudes, so any reordering of
/// a sum shows up in the low mantissa bits.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let frac = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            frac * 3.0_f64.powi((s % 9) as i32 - 4)
        })
        .collect()
}

/// The contract written out: every element of `S` (both triangles) as one
/// running sum from `+0.0` over `(t, q)` ascending.
fn reference_bits(y: &[f64], left: usize, n: usize, right: usize) -> Vec<u64> {
    let mut s = vec![0u64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f64;
            for t in 0..right {
                let block = &y[t * n * left..(t + 1) * n * left];
                for q in 0..left {
                    acc += block[i * left + q] * block[j * left + q];
                }
            }
            s[i * n + j] = acc.to_bits();
        }
    }
    s
}

/// The four contexts of the sweep, built once per test (each owns a pool).
fn contexts() -> Vec<ExecContext> {
    [1usize, 2, 4, 32]
        .into_iter()
        .map(ExecContext::new)
        .collect()
}

/// Accumulates the Gram of `dims` (a tensor over `data`) in mode `mode`,
/// slab by slab along the last mode in slabs of `width`, into a zero `S`.
fn accumulate_in_slabs(
    ctx: &ExecContext,
    dims: &[usize],
    data: &[f64],
    mode: usize,
    width: usize,
) -> Vec<u64> {
    let last = dims.len() - 1;
    let stride: usize = dims[..last].iter().product();
    let n = dims[mode];
    let mut s = Matrix::zeros(n, n);
    let mut start = 0;
    while start < dims[last] {
        let w = width.min(dims[last] - start);
        let mut slab_dims = dims.to_vec();
        slab_dims[last] = w;
        let slab = DenseTensor::from_vec(
            &slab_dims,
            data[start * stride..(start + w) * stride].to_vec(),
        );
        gram_accumulate_ctx(ctx, &slab, mode, &mut s);
        start += w;
    }
    s.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One shape: `dims` unfolded in `mode`, with `(left, n, right)` its
/// unfolding. Sweeps tiers × blockings × contexts × slab widths.
fn check_shape(dims: &[usize], mode: usize, seed: u64, ctxs: &[ExecContext]) {
    let n = dims[mode];
    let left: usize = dims[..mode].iter().product();
    let right: usize = dims[mode + 1..].iter().product();
    let data = fill(dims.iter().product(), seed);
    let want = reference_bits(&data, left, n, right);
    let last_extent = dims[dims.len() - 1];
    let mut widths = if mode + 1 < dims.len() {
        vec![1, 3, last_extent]
    } else {
        vec![last_extent]
    };
    widths.retain(|&w| w <= last_extent);
    widths.dedup();

    let derived = current_blocking();
    let blockings = [
        derived,
        Blocking {
            mc: 8,
            kc: 3,
            nc: 4,
        },
        Blocking {
            mc: 16,
            kc: 16,
            nc: 16,
        },
    ];
    for tier in supported_tiers() {
        assert!(force_tier(tier), "cannot force supported tier");
        for &blk in &blockings {
            force_blocking(blk);
            for ctx in ctxs {
                for &w in &widths {
                    let got = accumulate_in_slabs(ctx, dims, &data, mode, w);
                    if let Some(at) = got.iter().zip(&want).position(|(g, w)| g != w) {
                        panic!(
                            "dims {dims:?} mode {mode} (left {left}, n {n}, right {right}): \
                             tier {} blocking {blk:?} threads {} width {w}: \
                             S[{}][{}] = {:e}, contract says {:e}",
                            tier.name(),
                            ctx.threads(),
                            at / n,
                            at % n,
                            f64::from_bits(got[at]),
                            f64::from_bits(want[at]),
                        );
                    }
                }
            }
        }
    }
    force_blocking(derived);
    force_tier(detected_tier());
}

/// The `(left, I_n, right)` grid: `left == 1` is the first-mode layout
/// (`Dᵀ·D`), every other `left` the block-strided one.
#[test]
fn every_unfolding_is_the_written_out_sum() {
    let _g = guard();
    let ctxs = contexts();
    let mut seed = 1;
    for left in [1usize, 2, 5, 8, 13] {
        for n in [3usize, 8, 9, 37, 72] {
            for right in [1usize, 2, 7] {
                check_shape(&[left, n, right], 1, seed, &ctxs);
                seed += 1;
            }
        }
    }
}

/// Contractions longer than the derived `kc` (and far longer than the
/// forced ones), so one element's sum spans several `kc` slabs — and slabs
/// of the streaming split — in both layouts.
#[test]
fn contractions_across_kc_slabs_are_one_running_sum() {
    let _g = guard();
    let ctxs = contexts();
    let kc = current_blocking().kc;
    for (seed, (left, n, right)) in [
        (1usize, 37usize, kc + 45),
        (1, 72, kc + 3),
        (2, 72, kc / 2 + 11),
        (8, 37, kc / 8 + 5),
        (13, 9, kc / 13 + 7),
        (5, 72, kc / 5 + 2),
    ]
    .into_iter()
    .enumerate()
    {
        assert!(left * right > kc, "shape must cross kc = {kc}");
        check_shape(&[left, n, right], 1, 100 + seed as u64, &ctxs);
    }
}

/// Unfoldings of higher-order tensors: the first mode proper, a middle mode
/// whose `left` and `right` are products, and the last mode (one block).
#[test]
fn higher_order_unfoldings_are_the_written_out_sum() {
    let _g = guard();
    let ctxs = contexts();
    let dims = [9usize, 2, 4, 37, 3];
    for mode in 0..dims.len() {
        check_shape(&dims, mode, 200 + mode as u64, &ctxs);
    }
    check_shape(&[72, 5, 7], 0, 210, &ctxs);
}

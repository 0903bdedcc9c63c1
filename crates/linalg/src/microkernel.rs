//! Register-tiled f64 microkernels for the blocked GEMM/SYRK drivers.
//!
//! One microkernel invocation updates an `MR × NR` tile of C from an
//! `MR`-row A panel and an `NR`-column B panel. A panel is `MR` (`NR`)
//! consecutive values per contraction step, the steps `sa` (`sb`) apart:
//! `(MR, NR)` on the pack buffers of [`crate::pack`], `(ld, ld)` on a
//! first-mode unfolding read where it lies ([`Panels`]). Four tiers share
//! one accumulation contract:
//!
//! * **every** output element is a single running sum, seeded from the
//!   (already beta-scaled) C value, adding `fl(fl(alpha·a) · b)` terms in
//!   ascending contraction order (`alpha` folded in at pack time, and only
//!   `alpha = 1` panels are read in place);
//! * **no** fused multiply-add — each term is an IEEE-754 multiply followed
//!   by an IEEE-754 add, on every tier. SSE2/AVX2/AVX-512 lanes hold
//!   independent per-element accumulators, so vector width never
//!   reassociates anything.
//!
//! Under that contract the tier, the tile shape, the panel strides and the
//! cache-block sizes are all invisible in the result bits — which is what
//! lets `TUCKER_SIMD` and `TUCKER_THREADS` vary freely without perturbing a
//! single output bit (`docs/ARCHITECTURE.md` §4).
//!
//! Ragged tiles (block edges) and the diagonal-crossing tiles of SYRK's
//! lower triangle run the same vector kernel on an `MR × NR` scratch tile
//! (`ukr_masked`): live elements are seeded from C, the panels fill the
//! rest, and only live elements are written back — so edge elements round
//! exactly like interior ones, at vector speed.
//!
//! This file is covered by the `ci.sh` panic-free grep gate: no `assert`-
//! family macros, no `unwrap`/`expect`. `ukr_full` checks the panel and
//! tile bounds before it enters a vector tier; everything else is safe
//! slice indexing.

use crate::simd::SimdTier;
use tucker_obs::metrics::Counter;

/// Microkernel tile rows (A-panel interleave width).
pub const MR: usize = 8;
/// Microkernel tile columns (B-panel interleave width).
pub const NR: usize = 4;

/// Full `MR × NR` tiles retired by the AVX-512 kernel (process-wide).
pub static TILES_AVX512: Counter = Counter::new("linalg.kernel.tiles.avx512");
/// Full `MR × NR` tiles retired by the AVX2 kernel (process-wide).
pub static TILES_AVX2: Counter = Counter::new("linalg.kernel.tiles.avx2");
/// Full `MR × NR` tiles retired by the SSE2 kernel (process-wide).
pub static TILES_SSE2: Counter = Counter::new("linalg.kernel.tiles.sse2");
/// Full `MR × NR` tiles retired by the scalar kernel (process-wide).
pub static TILES_SCALAR: Counter = Counter::new("linalg.kernel.tiles.scalar");
/// Ragged / triangle-masked tiles retired through `ukr_masked` (any tier).
pub static TILES_EDGE: Counter = Counter::new("linalg.kernel.tiles.edge");

/// Updates one full `MR × NR` tile: `c[i·ldc + j] += Σ_p a[p·sa + i]·b[p·sb + j]`
/// for `p` ascending, one accumulator per element, no FMA.
///
/// The A panel advances by `sa` and the B panel by `sb` per contraction
/// step: `(MR, NR)` on pack buffers, `(ld, ld)` on a first-mode unfolding
/// read where it lies. `a` must hold `(kb-1)·sa + MR` values, `b`
/// `(kb-1)·sb + NR`, and `c` (whose first element is the tile's top-left
/// corner) `(MR-1)·ldc + NR`. Short slices never reach the vector kernels:
/// they take the portable tier, whose slice indexing panics.
#[allow(clippy::too_many_arguments)]
#[inline]
fn ukr_full(
    tier: SimdTier,
    kb: usize,
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    // `steps` strided reads of `width` consecutive values fit in `len`.
    let fits = |len: usize, steps: usize, stride: usize, width: usize| {
        steps == 0
            || (steps - 1)
                .checked_mul(stride)
                .and_then(|v| v.checked_add(width))
                .is_some_and(|need| need <= len)
    };
    let in_bounds =
        fits(a.len(), kb, sa, MR) && fits(b.len(), kb, sb, NR) && fits(c.len(), MR, ldc, NR);
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if in_bounds => {
            // SAFETY: `force_tier`/`current_tier` only ever yield Avx512 when
            // `is_x86_feature_detected!("avx512f")` held, and `in_bounds`
            // checked every panel and tile access the kernel makes.
            unsafe { ukr_full_avx512(kb, a, sa, b, sb, c, ldc) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 if in_bounds => {
            // SAFETY: `force_tier`/`current_tier` only ever yield Avx2 when
            // `is_x86_feature_detected!("avx2")` held, and `in_bounds`
            // checked every panel and tile access the kernel makes.
            unsafe { ukr_full_avx2(kb, a, sa, b, sb, c, ldc) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 if in_bounds => {
            // SAFETY: SSE2 is unconditionally available on x86_64, and
            // `in_bounds` checked every panel and tile access both halves
            // make.
            unsafe {
                ukr_half_sse2(kb, 0, a, sa, b, sb, c, ldc);
                ukr_half_sse2(kb, 4, a, sa, b, sb, c, ldc);
            }
        }
        _ => ukr_full_scalar(kb, a, sa, b, sb, c, ldc),
    }
}

/// Portable tier: the contract written out literally.
#[allow(clippy::too_many_arguments)]
fn ukr_full_scalar(
    kb: usize,
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        let crow = &c[i * ldc..i * ldc + NR];
        row.copy_from_slice(crow);
    }
    for p in 0..kb {
        let ap = &a[p * sa..p * sa + MR];
        let bp = &b[p * sb..p * sb + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let av = ap[i];
            for (j, cell) in row.iter_mut().enumerate() {
                // Multiply then add — two IEEE roundings, same on all tiers.
                *cell += av * bp[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// SSE2 tier, one 4-row half of the tile (`r0` ∈ {0, 4}): 4 rows × 2 xmm
/// accumulators. Per-lane ops only — bit-identical to the scalar tier.
///
/// # Safety
/// Caller upholds the `ukr_full` bounds contract; SSE2 must be available
/// (always true on `x86_64`).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn ukr_half_sse2(
    kb: usize,
    r0: usize,
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm_setzero_pd(); 2]; 4];
    for (i, row) in acc.iter_mut().enumerate() {
        let base = (r0 + i) * ldc;
        row[0] = _mm_loadu_pd(c.as_ptr().add(base));
        row[1] = _mm_loadu_pd(c.as_ptr().add(base + 2));
    }
    for p in 0..kb {
        let b0 = _mm_loadu_pd(b.as_ptr().add(p * sb));
        let b1 = _mm_loadu_pd(b.as_ptr().add(p * sb + 2));
        let ap = a.as_ptr().add(p * sa + r0);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm_set1_pd(*ap.add(i));
            row[0] = _mm_add_pd(row[0], _mm_mul_pd(av, b0));
            row[1] = _mm_add_pd(row[1], _mm_mul_pd(av, b1));
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let base = (r0 + i) * ldc;
        _mm_storeu_pd(c.as_mut_ptr().add(base), row[0]);
        _mm_storeu_pd(c.as_mut_ptr().add(base + 2), row[1]);
    }
}

/// AVX2 tier: 8 ymm accumulators, one per tile row; `vbroadcastsd` +
/// `vmulpd` + `vaddpd` (deliberately **not** `vfmadd` — FMA's single
/// rounding would diverge from the SSE2/scalar tiers).
///
/// # Safety
/// Caller upholds the `ukr_full` bounds contract and has verified AVX2
/// support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ukr_full_avx2(
    kb: usize,
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_pd(); MR];
    for (i, row) in acc.iter_mut().enumerate() {
        *row = _mm256_loadu_pd(c.as_ptr().add(i * ldc));
    }
    for p in 0..kb {
        let bv = _mm256_loadu_pd(b.as_ptr().add(p * sb));
        let ap = a.as_ptr().add(p * sa);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*ap.add(i));
            *row = _mm256_add_pd(*row, _mm256_mul_pd(av, bv));
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm256_storeu_pd(c.as_mut_ptr().add(i * ldc), *row);
    }
}

/// AVX-512F tier: one zmm accumulator per tile **column** (lane `i` of
/// column `j` holds `C[i][j]`). Per step: one 8-wide load of the A column,
/// then per column a broadcast of `b[j]` straight from memory and `vmulpd` +
/// `vaddpd` — no lane permute, and deliberately **not** `vfmadd`. Every lane
/// is one independent per-element accumulator fed multiply-then-add, so the
/// bits match the other tiers by construction. C is row-major, so the tile
/// is transposed into the column accumulators once on entry and back once
/// on exit (two rows per register, an in-lane unpack and a two-source lane
/// shuffle).
///
/// # Safety
/// Caller upholds the `ukr_full` bounds contract and has verified AVX-512F
/// support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ukr_full_avx512(
    kb: usize,
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    // 128-bit lane pairs: elements {0,1} and {4,5} of `x`, interleaved with
    // the same of `y` (LO), and elements {2,3}, {6,7} likewise (HI).
    let lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    let hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    let cp = c.as_mut_ptr();
    // z[r] = [row r | row r+4]; u/v unpack row pairs within 128-bit lanes.
    let mut z = [_mm512_setzero_pd(); 4];
    for (r, pair) in z.iter_mut().enumerate() {
        let top = _mm256_loadu_pd(cp.add(r * ldc));
        let bottom = _mm256_loadu_pd(cp.add((r + 4) * ldc));
        *pair = _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(top), bottom);
    }
    let u0 = _mm512_unpacklo_pd(z[0], z[1]);
    let u1 = _mm512_unpackhi_pd(z[0], z[1]);
    let u2 = _mm512_unpacklo_pd(z[2], z[3]);
    let u3 = _mm512_unpackhi_pd(z[2], z[3]);
    let mut acc = [
        _mm512_permutex2var_pd(u0, lo, u2),
        _mm512_permutex2var_pd(u1, lo, u3),
        _mm512_permutex2var_pd(u0, hi, u2),
        _mm512_permutex2var_pd(u1, hi, u3),
    ];
    for p in 0..kb {
        let acol = _mm512_loadu_pd(a.as_ptr().add(p * sa));
        let bp = b.as_ptr().add(p * sb);
        for (j, col) in acc.iter_mut().enumerate() {
            let bj = _mm512_set1_pd(*bp.add(j));
            *col = _mm512_add_pd(*col, _mm512_mul_pd(acol, bj));
        }
    }
    // The same shuffles undo themselves: column pairs back to row pairs.
    let u0 = _mm512_permutex2var_pd(acc[0], lo, acc[2]);
    let u2 = _mm512_permutex2var_pd(acc[0], hi, acc[2]);
    let u1 = _mm512_permutex2var_pd(acc[1], lo, acc[3]);
    let u3 = _mm512_permutex2var_pd(acc[1], hi, acc[3]);
    let z = [
        _mm512_unpacklo_pd(u0, u1),
        _mm512_unpackhi_pd(u0, u1),
        _mm512_unpacklo_pd(u2, u3),
        _mm512_unpackhi_pd(u2, u3),
    ];
    for (r, pair) in z.iter().enumerate() {
        _mm256_storeu_pd(cp.add(r * ldc), _mm512_castpd512_pd256(*pair));
        _mm256_storeu_pd(cp.add((r + 4) * ldc), _mm512_extractf64x4_pd::<1>(*pair));
    }
}

/// Masked tile for ragged and diagonal-crossing tiles: updates the live
/// elements of an `mr × nr` (`mr ≤ MR`, `nr ≤ NR`) corner of C through the
/// full-width `ukr_full` on an `MR × NR` scratch tile.
///
/// `tri_cut` masks columns to the lower triangle in tile-local terms: the
/// element `(i, j)` is live only when `j ≤ i + tri_cut` (callers pass
/// `global_row0 − global_col0`; any value `≥ nr − 1` disables masking, and
/// `isize::MAX` is the conventional "no mask").
///
/// Live elements are copied into the scratch tile, run through the tier's
/// vector kernel, and copied back; dead elements and C beyond the live
/// columns are never read or written. The panels carry values (zero
/// padding, or real data past the live edge) in the dead rows/columns, and
/// every lane is an independent accumulator, so each live element follows
/// exactly the `ukr_full` recurrence. `a`/`b` satisfy the `ukr_full`
/// panel bounds at strides `sa`/`sb`; `c` holds at least `(mr-1)·ldc + nr`
/// values.
#[allow(clippy::too_many_arguments)]
fn ukr_masked(
    tier: SimdTier,
    kb: usize,
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
    tri_cut: isize,
) {
    // Live columns of tile row `i`: `j < nr` and `j ≤ i + tri_cut`, with the
    // "no mask" cut saturating instead of overflowing.
    let live = |i: usize| -> usize {
        (i as isize)
            .saturating_add(tri_cut)
            .saturating_add(1)
            .clamp(0, nr as isize) as usize
    };
    let mut tile = [0.0f64; MR * NR];
    for i in 0..mr {
        let w = live(i);
        tile[i * NR..i * NR + w].copy_from_slice(&c[i * ldc..i * ldc + w]);
    }
    ukr_full(tier, kb, a, sa, b, sb, &mut tile, NR);
    for i in 0..mr {
        let w = live(i);
        c[i * ldc..i * ldc + w].copy_from_slice(&tile[i * NR..i * NR + w]);
    }
}

/// Where [`block_kernel`] reads one operand's `W`-wide panels (`W` = `MR`
/// for A, `NR` for B) from.
#[derive(Debug, Clone, Copy)]
pub enum Panels<'a> {
    /// A pack buffer ([`crate::pack`] layout): panel `ip` starts at
    /// `ip·W·kb` and advances `W` per contraction step.
    Packed(&'a [f64]),
    /// The operand where it lies: panel `ip` starts at `src[ip·W]` and
    /// advances `ld` per contraction step. Only the first `avail` rows are
    /// readable at every step; the one panel that would run past them (the
    /// block's last) reads `edge`, a packed copy of it, instead.
    InPlace {
        /// The block's top-left element at its first contraction step.
        src: &'a [f64],
        /// Stride between contraction steps.
        ld: usize,
        /// Rows readable from `src` at every step of the block.
        avail: usize,
        /// The packed last panel (`W·kb` values), read when it overruns
        /// `avail`.
        edge: &'a [f64],
    },
}

impl Panels<'_> {
    /// Panel `ip` of a `W`-wide operand and its contraction stride.
    fn panel<const W: usize>(&self, ip: usize, kb: usize) -> (&[f64], usize) {
        match *self {
            Panels::Packed(pack) => (&pack[ip * W * kb..], W),
            Panels::InPlace {
                src,
                ld,
                avail,
                edge,
            } => {
                if (ip + 1) * W <= avail {
                    (&src[ip * W..], ld)
                } else {
                    (edge, W)
                }
            }
        }
    }
}

/// Runs the microkernel grid over one block pair: `mb × kb` of A
/// (`⌈mb/MR⌉` panels) times `kb × nb` of B (`⌈nb/NR⌉` panels), accumulating
/// into `c` (top-left corner of the block, leading dimension `ldc`). Either
/// operand may be packed or read in place ([`Panels`]).
///
/// `tri = Some((row0, col0))` gives the block's global position inside a
/// lower-triangular output: tiles fully above the diagonal are skipped,
/// tiles crossing it run `ukr_masked`, and full tiles fully on/below it
/// run `ukr_full` in place. Ragged tiles also run `ukr_masked`. `tri =
/// None` is a plain dense block.
///
/// Returns `(full_tiles, masked_tiles)` retired, for the tier counters.
#[allow(clippy::too_many_arguments)]
pub fn block_kernel(
    tier: SimdTier,
    a: Panels<'_>,
    b: Panels<'_>,
    mb: usize,
    nb: usize,
    kb: usize,
    c: &mut [f64],
    ldc: usize,
    tri: Option<(usize, usize)>,
) -> (u64, u64) {
    let (mut full, mut masked) = (0u64, 0u64);
    for jp in 0..nb.div_ceil(NR) {
        let j0 = jp * NR;
        let nr = NR.min(nb - j0);
        let (bpanel, sb) = b.panel::<NR>(jp, kb);
        for ip in 0..mb.div_ceil(MR) {
            let i0 = ip * MR;
            let mr = MR.min(mb - i0);
            // Lower-triangle classification, in global coordinates.
            let mut tri_cut = isize::MAX;
            let mut full_ok = mr == MR && nr == NR;
            if let Some((row0, col0)) = tri {
                let gi = row0 + i0; // global row of the tile's first row
                let gj = col0 + j0; // global col of the tile's first col
                if gj > gi + (mr - 1) {
                    continue; // entirely above the diagonal
                }
                tri_cut = gi as isize - gj as isize;
                // Full vector tile only when its last column ≤ first row.
                full_ok = full_ok && gj + (NR - 1) <= gi;
            }
            let (apanel, sa) = a.panel::<MR>(ip, kb);
            let ctile = &mut c[i0 * ldc + j0..];
            if full_ok {
                ukr_full(tier, kb, apanel, sa, bpanel, sb, ctile, ldc);
                full += 1;
            } else {
                ukr_masked(
                    tier, kb, apanel, sa, bpanel, sb, ctile, ldc, mr, nr, tri_cut,
                );
                masked += 1;
            }
        }
    }
    record_tiles(tier, full, masked);
    (full, masked)
}

/// Adds retired-tile counts to the per-tier process counters.
fn record_tiles(tier: SimdTier, full: u64, masked: u64) {
    if full > 0 {
        match tier {
            SimdTier::Avx512 => TILES_AVX512.add(full),
            SimdTier::Avx2 => TILES_AVX2.add(full),
            SimdTier::Sse2 => TILES_SSE2.add(full),
            SimdTier::Scalar => TILES_SCALAR.add(full),
        }
    }
    if masked > 0 {
        TILES_EDGE.add(masked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::supported_tiers;

    /// The contract recurrence, written independently of the kernels.
    #[expect(
        clippy::too_many_arguments,
        reason = "the tile kernels' own argument list: packed A and B, C with its leading dimension, the tile shape and the triangle cut"
    )]
    fn reference_tile(
        kb: usize,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        ldc: usize,
        mr: usize,
        nr: usize,
        tri_cut: isize,
    ) {
        for i in 0..mr {
            for j in 0..nr {
                if (j as isize) > (i as isize).saturating_add(tri_cut) {
                    continue;
                }
                let mut sum = c[i * ldc + j];
                for p in 0..kb {
                    sum += a[p * MR + i] * b[p * NR + j];
                }
                c[i * ldc + j] = sum;
            }
        }
    }

    fn panel_pair(kb: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        // Deterministic, awkward values (mixed signs + magnitudes) so any
        // reassociation in a kernel shows up in the low mantissa bits.
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 3.0_f64.powi((s % 7) as i32 - 3)
        };
        let a: Vec<f64> = (0..kb * MR).map(|_| next()).collect();
        let b: Vec<f64> = (0..kb * NR).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn all_tiers_match_the_contract_bitwise() {
        for &kb in &[0usize, 1, 2, 7, 33] {
            let (a, b) = panel_pair(kb.max(1), 42 + kb as u64);
            for ldc in [NR, NR + 3] {
                let c0: Vec<f64> = (0..MR * ldc).map(|v| (v as f64) * 0.125 - 3.0).collect();
                let mut want = c0.clone();
                reference_tile(kb, &a, &b, &mut want, ldc, MR, NR, isize::MAX);
                for tier in supported_tiers() {
                    let mut got = c0.clone();
                    ukr_full(tier, kb, &a, MR, &b, NR, &mut got, ldc);
                    let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(gb, wb, "tier {} kb {kb} ldc {ldc}", tier.name());
                }
            }
        }
    }

    #[test]
    fn masked_tiles_match_contract_on_every_tier() {
        // Live elements follow the contract bitwise; dead (masked or ragged)
        // elements and the `ldc` gutter column keep their sentinel values,
        // which `reference_tile` never touches either.
        let kb = 9;
        let (a, b) = panel_pair(kb, 7);
        let ldc = NR + 1;
        for tier in supported_tiers() {
            for mr in 1..=MR {
                for nr in 1..=NR {
                    for tri_cut in [isize::MIN, -9, -2, 0, 1, 3, isize::MAX] {
                        let c0: Vec<f64> = (0..MR * ldc).map(|v| v as f64 * 0.5 - 7.0).collect();
                        let mut want = c0.clone();
                        reference_tile(kb, &a, &b, &mut want, ldc, mr, nr, tri_cut);
                        let mut got = c0.clone();
                        ukr_masked(tier, kb, &a, MR, &b, NR, &mut got, ldc, mr, nr, tri_cut);
                        assert_eq!(
                            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "tier {} mr {mr} nr {nr} cut {tri_cut}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernel_masks_the_lower_triangle() {
        // An 18×18 triangular block at global (0, 0) — full, diagonal-
        // crossing and ragged tiles: strictly-upper elements must remain
        // untouched, everything else must follow the contract.
        let (m, k) = (18usize, 6usize);
        let kb = k;
        let mb_p = m.div_ceil(MR) * MR;
        let nb_p = m.div_ceil(NR) * NR;
        let mut a_pack = vec![0.0; mb_p * kb];
        let mut b_pack = vec![0.0; kb * nb_p];
        let src: Vec<f64> = (0..m * k).map(|v| (v as f64).sin()).collect();
        let source = crate::pack::Source::rows(k);
        crate::pack::pack_a(&mut a_pack, source, 1.0, &src, 0, m, 0, kb);
        crate::pack::pack_b(&mut b_pack, source, &src, 0, kb, 0, m);
        let sentinel = -1234.5;
        for tier in supported_tiers() {
            let mut c = vec![sentinel; m * m];
            let (full, masked) = block_kernel(
                tier,
                Panels::Packed(&a_pack),
                Panels::Packed(&b_pack),
                m,
                m,
                kb,
                &mut c,
                m,
                Some((0, 0)),
            );
            assert!(full > 0 && masked > 0);
            for i in 0..m {
                for j in 0..m {
                    if j > i {
                        assert_eq!(c[i * m + j], sentinel, "upper ({i},{j}) was written");
                    } else {
                        let mut want = sentinel;
                        for p in 0..k {
                            want += src[i * k + p] * src[j * k + p];
                        }
                        assert_eq!(
                            c[i * m + j].to_bits(),
                            want.to_bits(),
                            "tier {} ({i},{j})",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernel_dense_matches_reference_across_tiers() {
        let (mb, nb, kb) = (13usize, 9usize, 11usize);
        let mb_p = mb.div_ceil(MR) * MR;
        let nb_p = nb.div_ceil(NR) * NR;
        let asrc: Vec<f64> = (0..mb * kb).map(|v| (v as f64 * 0.7).cos()).collect();
        let bsrc: Vec<f64> = (0..kb * nb).map(|v| (v as f64 * 1.3).sin()).collect();
        let mut a_pack = vec![0.0; mb_p * kb];
        let mut b_pack = vec![0.0; kb * nb_p];
        crate::pack::pack_a(
            &mut a_pack,
            crate::pack::Source::rows(kb),
            1.0,
            &asrc,
            0,
            mb,
            0,
            kb,
        );
        crate::pack::pack_b(
            &mut b_pack,
            crate::pack::Source::cols(nb),
            &bsrc,
            0,
            kb,
            0,
            nb,
        );
        let c0: Vec<f64> = (0..mb * nb).map(|v| v as f64 * 0.01).collect();
        let mut want: Option<Vec<u64>> = None;
        for tier in supported_tiers() {
            let mut c = c0.clone();
            block_kernel(
                tier,
                Panels::Packed(&a_pack),
                Panels::Packed(&b_pack),
                mb,
                nb,
                kb,
                &mut c,
                nb,
                None,
            );
            // Cross-check a few elements against a direct sum.
            for &(i, j) in &[(0usize, 0usize), (7, 3), (12, 8), (5, 4)] {
                let mut s = c0[i * nb + j];
                for p in 0..kb {
                    s += asrc[i * kb + p] * bsrc[p * nb + j];
                }
                assert_eq!(c[i * nb + j].to_bits(), s.to_bits(), "tier {}", tier.name());
            }
            let bits: Vec<u64> = c.iter().map(|v| v.to_bits()).collect();
            match &want {
                None => want = Some(bits),
                Some(w) => assert_eq!(&bits, w, "tier {} diverged", tier.name()),
            }
        }
    }
}

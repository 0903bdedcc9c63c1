//! Proptest battery for the packed microkernel kernels (ISSUE 8).
//!
//! The renegotiated determinism contract says: every output element of
//! GEMM/SYRK is one running accumulator, seeded from the beta-scaled C,
//! adding `fl(fl(alpha·a)·b)` terms in ascending contraction order, no FMA —
//! on **every** SIMD tier, for **every** shape, transpose combination, and
//! leading dimension. `gemm_slices_reference` / `syrk_slices_reference`
//! state that recurrence executably; this battery forces each supported
//! `TUCKER_SIMD` tier in turn and requires the production kernels to agree
//! with the reference — and therefore with each other — **bit for bit**.
//!
//! Tier forcing is process-global, so every test in this binary serializes
//! on one mutex and restores the detected tier before releasing it.

use proptest::prelude::*;
use std::sync::Mutex;
use tucker_linalg::blocking::{force_blocking, Blocking};
use tucker_linalg::gemm::{gemm_slices, gemm_slices_reference, Transpose};
use tucker_linalg::pack::Source;
use tucker_linalg::simd::{detected_tier, force_tier, supported_tiers};
use tucker_linalg::syrk::{syrk_rows_slices, syrk_slices, syrk_slices_reference};

/// Serializes tier forcing across the (parallel) test harness threads.
static TIER_LOCK: Mutex<()> = Mutex::new(());

fn tier_guard() -> std::sync::MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic pseudo-random fill with mixed signs and magnitudes, so any
/// reassociation shows up in the low mantissa bits.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let frac = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            frac * 3.0_f64.powi((s % 9) as i32 - 4)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn check_gemm_case(
    m: usize,
    k: usize,
    n: usize,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    beta: f64,
    pads: (usize, usize, usize),
    seed: u64,
) -> Result<(), String> {
    let (ar, ac) = match ta {
        Transpose::No => (m, k),
        Transpose::Yes => (k, m),
    };
    let (br, bc) = match tb {
        Transpose::No => (k, n),
        Transpose::Yes => (n, k),
    };
    let (lda, ldb, ldc) = (ac + pads.0, bc + pads.1, n + pads.2);
    let a = fill(ar * lda, seed ^ 0xa);
    let b = fill(br * ldb, seed ^ 0xb);
    let c0 = fill(m * ldc, seed ^ 0xc);

    let mut want = c0.clone();
    gemm_slices_reference(
        ta, tb, alpha, &a, ar, ac, lda, &b, br, bc, ldb, beta, &mut want, ldc,
    );
    let want_bits = bits(&want);

    let _g = tier_guard();
    for tier in supported_tiers() {
        if !force_tier(tier) {
            return Err(format!("could not force supported tier {}", tier.name()));
        }
        let mut got = c0.clone();
        gemm_slices(
            ta, tb, alpha, &a, ar, ac, lda, &b, br, bc, ldb, beta, &mut got, ldc,
        );
        // Live columns must match the contract bitwise; ld gutters must be
        // untouched.
        for i in 0..m {
            for j in 0..ldc {
                let (g, w) = (got[i * ldc + j], want[i * ldc + j]);
                if j < n {
                    if g.to_bits() != w.to_bits() {
                        return Err(format!(
                            "tier {} m={m} k={k} n={n} ta={ta:?} tb={tb:?} \
                             α={alpha} β={beta} ({i},{j}): {g:e} != {w:e}",
                            tier.name()
                        ));
                    }
                } else if g.to_bits() != c0[i * ldc + j].to_bits() {
                    return Err(format!(
                        "tier {} wrote the ld gutter at ({i},{j})",
                        tier.name()
                    ));
                }
            }
        }
        let _ = want_bits.len();
    }
    force_tier(detected_tier());
    Ok(())
}

fn check_syrk_case(
    m: usize,
    k: usize,
    pad_a: usize,
    pad_c: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
) -> Result<(), String> {
    let (lda, ldc) = (k + pad_a, m + pad_c);
    let a = fill(m * lda, seed ^ 0x5);
    // Symmetric seed so beta-scaling keeps C symmetric (the kernel contract).
    let mut c0 = vec![0.0f64; m * ldc];
    let raw = fill(m * m, seed ^ 0x6);
    for i in 0..m {
        for j in 0..m {
            let v = raw[i.max(j) * m + i.min(j)];
            c0[i * ldc + j] = v;
        }
    }

    let mut want = c0.clone();
    syrk_slices_reference(alpha, &a, m, k, lda, beta, &mut want, ldc);
    // The same op(A) stored transposed: `k × m` with its own padding.
    let ldt = m + pad_a;
    let mut at = fill(k * ldt, seed ^ 0x7);
    for i in 0..m {
        for p in 0..k {
            at[p * ldt + i] = a[i * lda + p];
        }
    }

    let _g = tier_guard();
    for tier in supported_tiers() {
        if !force_tier(tier) {
            return Err(format!("could not force supported tier {}", tier.name()));
        }
        let mut got = c0.clone();
        syrk_slices(alpha, &a, m, k, lda, beta, &mut got, ldc);
        for i in 0..m {
            for j in 0..m {
                let (g, w) = (got[i * ldc + j], want[i * ldc + j]);
                if g.to_bits() != w.to_bits() {
                    return Err(format!(
                        "tier {} m={m} k={k} α={alpha} β={beta} ({i},{j}): {g:e} != {w:e}",
                        tier.name()
                    ));
                }
            }
        }
        // Panel decomposition: rebuilding the lower triangle from uneven row
        // panels must reproduce the same bits on this tier — from A as
        // stored and from its explicit transpose.
        if beta == 0.0 && m >= 3 {
            for (source, src) in [(Source::rows(lda), &a), (Source::cols(ldt), &at)] {
                let mut panels = vec![0.0f64; m * ldc];
                let cut1 = m / 3;
                let cut2 = (2 * m) / 3;
                for rows in [0..cut1, cut1..cut2, cut2..m] {
                    if rows.is_empty() {
                        continue;
                    }
                    let row0 = rows.start;
                    syrk_rows_slices(source, alpha, src, k, rows, &mut panels[row0 * ldc..], ldc);
                }
                for i in 0..m {
                    for j in 0..=i {
                        if panels[i * ldc + j].to_bits() != want[i * ldc + j].to_bits() {
                            return Err(format!(
                                "tier {} {source:?} panel split diverged at ({i},{j})",
                                tier.name()
                            ));
                        }
                    }
                }
            }
        }
    }
    force_tier(detected_tier());
    Ok(())
}

fn transpose_of(flag: bool) -> Transpose {
    if flag {
        Transpose::Yes
    } else {
        Transpose::No
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM ≡ contract reference bitwise: odd shapes, every transpose combo,
    /// strided leading dimensions, alpha/beta variants, every supported tier.
    #[test]
    fn gemm_matches_reference_bitwise_on_all_tiers(
        m in 1usize..=40,
        k in 1usize..=40,
        n in 1usize..=40,
        ta in 0usize..2,
        tb in 0usize..2,
        ab in 0usize..4,
        pad_a in 0usize..4,
        pad_b in 0usize..4,
        pad_c in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (alpha, beta) = [(1.0, 0.0), (1.3, 0.0), (0.7, 1.0), (-1.1, 0.5)][ab];
        if let Err(msg) = check_gemm_case(
            m, k, n, transpose_of(ta == 1), transpose_of(tb == 1), alpha, beta,
            (pad_a, pad_b, pad_c), seed,
        ) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// SYRK ≡ contract reference bitwise, plus panel-split equivalence, on
    /// every supported tier.
    #[test]
    fn syrk_matches_reference_bitwise_on_all_tiers(
        m in 1usize..=40,
        k in 1usize..=36,
        ab in 0usize..3,
        pad_a in 0usize..4,
        pad_c in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (alpha, beta) = [(1.0, 0.0), (2.0, 0.0), (0.5, 1.0)][ab];
        if let Err(msg) = check_syrk_case(m, k, pad_a, pad_c, alpha, beta, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Fixed shapes big enough to cross every MC/KC/NC block edge (the proptest
/// ranges above stay small to keep the sweep fast).
#[test]
fn block_edge_crossing_shapes_match_reference_on_all_tiers() {
    for (m, k, n) in [
        (130usize, 300usize, 70usize),
        (97, 257, 513),
        (96, 256, 512),
    ] {
        check_gemm_case(
            m,
            k,
            n,
            Transpose::No,
            Transpose::No,
            1.5,
            0.25,
            (3, 0, 1),
            0xfeed ^ (m as u64),
        )
        .unwrap();
    }
    check_syrk_case(150, 260, 2, 3, 1.0, 0.0, 0xbeef).unwrap();
}

/// SYRK rows from a transposed A — the first-mode Gram `Dᵀ·D` — at sizes that
/// cross the block edges, on every tier, under the detected blocking and
/// under a tiny 16³ one. (Other tests in this binary may briefly run under
/// the forced blocking too; the contract makes that invisible in their bits.)
#[test]
fn transposed_syrk_rows_match_reference_under_forced_blocking() {
    let shapes = [(37usize, 300usize), (150, 260)];
    let run = || {
        shapes
            .iter()
            .try_for_each(|&(m, k)| check_syrk_case(m, k, 3, 1, 1.0, 0.0, 0xd00d ^ m as u64))
    };
    run().unwrap();
    let prev = force_blocking(Blocking {
        mc: 16,
        kc: 16,
        nc: 16,
    });
    let forced = run();
    force_blocking(prev);
    forced.unwrap();
}

/// The transpose-heavy variants at block-edge size (packing takes different
/// code paths per transpose flag).
#[test]
fn block_edge_transposed_shapes_match_reference_on_all_tiers() {
    for (ta, tb) in [
        (Transpose::Yes, Transpose::No),
        (Transpose::No, Transpose::Yes),
        (Transpose::Yes, Transpose::Yes),
    ] {
        check_gemm_case(101, 270, 99, ta, tb, 1.0, 0.0, (1, 2, 0), 0xc0de).unwrap();
    }
}

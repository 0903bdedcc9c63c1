//! Proptest battery for the blocked Level-3 factorizations (ISSUE 9).
//!
//! The renegotiated determinism contract says: `householder_qr`, `sym_eig`,
//! and `jacobi_svd` are defined bit-for-bit by their `*_reference`
//! restatements — on **every** SIMD tier, **every** `MC/KC/NC` blocking
//! (including `TUCKER_BLOCK` overrides), and **every** thread count, for
//! every input shape, including shapes that straddle the fixed panel widths
//! (`QR_PANEL`, `EIG_BLOCK`, `SVD_BLOCK`) and shapes small enough to take
//! the pre-blocking direct paths. This battery generates odd shapes around
//! those edges, forces each supported `TUCKER_SIMD` tier in turn, re-runs
//! under a shrunken blocking override, and requires bit equality throughout.
//!
//! Tier forcing is process-global, so every test in this binary serializes
//! on one mutex and restores the detected tier before releasing it.

use proptest::prelude::*;
use std::sync::Mutex;
use tucker_exec::ExecContext;
use tucker_linalg::blocking::{force_blocking, Blocking};
use tucker_linalg::qr::{householder_qr, householder_qr_ctx, householder_qr_reference, QrFactors};
use tucker_linalg::simd::{detected_tier, force_tier, supported_tiers};
use tucker_linalg::{
    jacobi_svd, jacobi_svd_ctx, jacobi_svd_reference, sym_eig, sym_eig_ctx, sym_eig_reference,
    Matrix, Svd, SymEig,
};

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn tier_guard() -> std::sync::MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    Matrix::from_vec(m, n, fill(m * n, seed))
}

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let raw = fill(n * n, seed);
    Matrix::from_fn(n, n, |i, j| raw[i.max(j) * n + i.min(j)])
}

fn matrices_eq(x: &Matrix, y: &Matrix, what: &str) -> Result<(), String> {
    if x.shape() != y.shape() {
        return Err(format!("{what}: shape {:?} vs {:?}", x.shape(), y.shape()));
    }
    for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice().iter()).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!("{what}[{i}]: {a:e} != {b:e}"));
        }
    }
    Ok(())
}

fn values_eq(x: &[f64], y: &[f64], what: &str) -> Result<(), String> {
    if x.len() != y.len() {
        return Err(format!("{what}: length {} vs {}", x.len(), y.len()));
    }
    for (i, (a, b)) in x.iter().zip(y.iter()).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!("{what}[{i}]: {a:e} != {b:e}"));
        }
    }
    Ok(())
}

fn qr_eq(x: &QrFactors, y: &QrFactors, what: &str) -> Result<(), String> {
    matrices_eq(&x.q, &y.q, &format!("{what} Q"))?;
    matrices_eq(&x.r, &y.r, &format!("{what} R"))
}

fn eig_eq(x: &SymEig, y: &SymEig, what: &str) -> Result<(), String> {
    values_eq(&x.values, &y.values, &format!("{what} values"))?;
    matrices_eq(&x.vectors, &y.vectors, &format!("{what} vectors"))
}

fn svd_eq(x: &Svd, y: &Svd, what: &str) -> Result<(), String> {
    values_eq(&x.s, &y.s, &format!("{what} s"))?;
    matrices_eq(&x.u, &y.u, &format!("{what} U"))?;
    matrices_eq(&x.v, &y.v, &format!("{what} V"))
}

const SHRUNKEN: Blocking = Blocking {
    mc: 16,
    kc: 16,
    nc: 16,
};

/// Runs `compute` under every supported tier plus a shrunken-blocking
/// override and checks the result against `want` with `compare`.
fn check_invariance<T>(
    compute: impl Fn() -> T,
    want: &T,
    compare: impl Fn(&T, &T, &str) -> Result<(), String>,
) -> Result<(), String> {
    let _g = tier_guard();
    for tier in supported_tiers() {
        if !force_tier(tier) {
            return Err(format!("could not force supported tier {}", tier.name()));
        }
        compare(&compute(), want, &format!("tier {}", tier.name()))?;
    }
    let prev = force_blocking(SHRUNKEN);
    let got = compute();
    force_blocking(prev);
    force_tier(detected_tier());
    compare(&got, want, "shrunken TUCKER_BLOCK")?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocked QR ≡ reference bitwise: shapes on both sides of QR_PANEL and
    /// across panel edges, tall and wide, every tier, shrunken blocking.
    #[test]
    fn qr_matches_reference_bitwise(
        m in 2usize..=90,
        n in 2usize..=90,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let a = random_matrix(m, n, seed);
        let want = householder_qr_reference(&a);
        let r = check_invariance(|| householder_qr(&a), &want, qr_eq);
        prop_assert!(r.is_ok(), "{m}x{n}: {}", r.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocked-tridiagonalization sym_eig ≡ reference bitwise just past the
    /// blocked cutoff, including ragged last panels.
    #[test]
    fn sym_eig_matches_reference_bitwise(
        n in 129usize..=150,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let a = random_symmetric(n, seed);
        let want = sym_eig_reference(&a);
        let r = check_invariance(|| sym_eig(&a), &want, eig_eq);
        prop_assert!(r.is_ok(), "n={n}: {}", r.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocked one-sided Jacobi SVD ≡ reference bitwise past the blocked
    /// cutoff (the m/n jitter also exercises the transpose dispatch).
    #[test]
    fn jacobi_svd_matches_reference_bitwise(
        m in 193usize..=216,
        extra in 0usize..=30,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let a = random_matrix(m + extra, m, seed);
        let want = jacobi_svd_reference(&a);
        let r = check_invariance(|| jacobi_svd(&a), &want, svd_eq);
        prop_assert!(r.is_ok(), "{}x{m}: {}", a.rows(), r.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Small problems take the pre-blocking direct paths: production,
    /// reference, and the pinned unblocked functions all agree bitwise.
    #[test]
    fn direct_paths_are_the_pinned_recurrences(
        n in 2usize..=32,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let a = random_matrix(n, n, seed);
        let qr = householder_qr(&a);
        let r = qr_eq(&qr, &tucker_linalg::householder_qr_unblocked(&a), "qr direct");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        let s = random_symmetric(n, seed ^ 0xee);
        let e = sym_eig(&s);
        let r = eig_eq(&e, &tucker_linalg::sym_eig_unblocked(&s), "eig direct");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        let sv = jacobi_svd(&a);
        let r = svd_eq(&sv, &tucker_linalg::jacobi_svd_unblocked(&a), "svd direct");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Thread counts only affect scheduling of the Level-3 updates, never bits.
#[test]
fn factorization_bits_are_invariant_to_thread_count() {
    let _g = tier_guard();
    let a = random_matrix(140, 120, 0x51);
    let s = random_symmetric(140, 0x52);
    let ctx1 = ExecContext::new(1);
    let qr1 = householder_qr_ctx(&ctx1, &a);
    let eig1 = sym_eig_ctx(&ctx1, &s);
    let svd1 = jacobi_svd_ctx(&ctx1, &a);
    for threads in [2usize, 4, 32] {
        let ctx = ExecContext::new(threads);
        qr_eq(
            &householder_qr_ctx(&ctx, &a),
            &qr1,
            &format!("qr t={threads}"),
        )
        .unwrap();
        eig_eq(&sym_eig_ctx(&ctx, &s), &eig1, &format!("eig t={threads}")).unwrap();
        svd_eq(
            &jacobi_svd_ctx(&ctx, &a),
            &svd1,
            &format!("svd t={threads}"),
        )
        .unwrap();
    }
}

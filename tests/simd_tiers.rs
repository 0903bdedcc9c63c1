//! Cross-`TUCKER_SIMD` bit- and byte-identity at the pipeline level (ISSUE 8).
//!
//! The microkernel determinism contract pins every GEMM/SYRK output element
//! to one ascending-order running sum with no FMA, on every SIMD tier — so
//! not just the kernels but the entire compression pipeline must produce
//! identical bits whichever tier executes it, and `.tkr` artifacts written
//! under different tiers (and thread counts) must be **byte**-identical.
//! These tests force each supported tier in-process ([`force_tier`]) and
//! check exactly that; CI additionally re-runs whole suites under
//! `TUCKER_SIMD=scalar` and `TUCKER_SIMD=auto` from the environment.
//!
//! Tier forcing is process-global, so tests in this binary serialize on one
//! mutex and restore the detected tier before releasing it.

use std::sync::Mutex;
use tucker_core::sthosvd::SthosvdOptions;
use tucker_core::try_st_hosvd_ctx;
use tucker_exec::ExecContext;
use tucker_linalg::blocking::{force_blocking, Blocking};
use tucker_linalg::simd::{detected_tier, force_tier, supported_tiers, SimdTier};
use tucker_store::{write_tucker_ctx, Codec, StoreOptions};
use tucker_tensor::{gram_ctx, DenseTensor};

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn tier_guard() -> std::sync::MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Large enough that GEMM/SYRK leave the direct-path and small-problem
/// fallbacks and actually exercise the packed tile grid.
fn test_tensor() -> DenseTensor {
    DenseTensor::from_fn(&[40, 36, 34], |idx| {
        let mut v = 0.3;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.11 * i as f64).sin();
        }
        v
    })
}

#[test]
fn pipelines_are_bit_identical_across_simd_tiers() {
    let _g = tier_guard();
    let x = test_tensor();
    let opts = SthosvdOptions::with_ranks(vec![9, 8, 7]);

    assert!(force_tier(SimdTier::Scalar));
    let ctx1 = ExecContext::new(1);
    let baseline = try_st_hosvd_ctx(&x, &opts, &ctx1).unwrap();
    let baseline_gram = gram_ctx(&ctx1, &x, 0);
    let baseline_rec = baseline.tucker.reconstruct_ctx(&ctx1);

    for tier in supported_tiers() {
        assert!(force_tier(tier), "cannot force supported tier");
        for threads in [1usize, 4, 32] {
            let ctx = ExecContext::new(threads);
            let r = try_st_hosvd_ctx(&x, &opts, &ctx).unwrap();
            assert_eq!(
                r.tucker.core.as_slice(),
                baseline.tucker.core.as_slice(),
                "core diverged: tier {} threads {threads}",
                tier.name()
            );
            for (a, b) in r.tucker.factors.iter().zip(baseline.tucker.factors.iter()) {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "factor diverged: tier {} threads {threads}",
                    tier.name()
                );
            }
            let g = gram_ctx(&ctx, &x, 0);
            assert_eq!(
                g.as_slice(),
                baseline_gram.as_slice(),
                "gram diverged: tier {} threads {threads}",
                tier.name()
            );
            let rec = r.tucker.reconstruct_ctx(&ctx);
            assert_eq!(
                rec.as_slice(),
                baseline_rec.as_slice(),
                "reconstruction diverged: tier {} threads {threads}",
                tier.name()
            );
        }
    }
    force_tier(detected_tier());
}

#[test]
fn artifacts_are_byte_identical_across_simd_tiers() {
    let _g = tier_guard();
    let x = test_tensor();
    let eps = 1e-3;
    let sth = SthosvdOptions::with_tolerance(eps);
    let pid = std::process::id();
    let tmp = |tag: &str| std::env::temp_dir().join(format!("simd_tiers_{pid}_{tag}.tkr"));

    assert!(force_tier(SimdTier::Scalar));
    let ctx1 = ExecContext::new(1);
    let baseline_path = tmp("scalar_t1");
    let baseline = try_st_hosvd_ctx(&x, &sth, &ctx1).unwrap();
    write_tucker_ctx(
        &baseline_path,
        &baseline.tucker,
        &StoreOptions::new(Codec::F64, eps),
        &ctx1,
    )
    .unwrap();
    let baseline_bytes = std::fs::read(&baseline_path).unwrap();
    std::fs::remove_file(&baseline_path).ok();

    for tier in supported_tiers() {
        assert!(force_tier(tier), "cannot force supported tier");
        for threads in [1usize, 4] {
            let ctx = ExecContext::new(threads);
            let path = tmp(&format!("{}_t{threads}", tier.name()));
            let r = try_st_hosvd_ctx(&x, &sth, &ctx).unwrap();
            write_tucker_ctx(&path, &r.tucker, &StoreOptions::new(Codec::F64, eps), &ctx).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(
                bytes,
                baseline_bytes,
                "artifact bytes diverged: tier {} threads {threads}",
                tier.name()
            );
        }
    }
    force_tier(detected_tier());
}

/// `MC/KC/NC` only schedule the packed tile grid — a `TUCKER_BLOCK` override
/// (here forced in-process) must leave `.tkr` artifact bytes untouched.
#[test]
fn artifacts_are_byte_identical_across_blocking_overrides() {
    let _g = tier_guard();
    let x = test_tensor();
    let eps = 1e-3;
    let sth = SthosvdOptions::with_tolerance(eps);
    let pid = std::process::id();
    let tmp = |tag: &str| std::env::temp_dir().join(format!("simd_tiers_{pid}_blk_{tag}.tkr"));

    let write = |tag: &str, threads: usize| -> Vec<u8> {
        let ctx = ExecContext::new(threads);
        let path = tmp(tag);
        let r = try_st_hosvd_ctx(&x, &sth, &ctx).unwrap();
        write_tucker_ctx(&path, &r.tucker, &StoreOptions::new(Codec::F64, eps), &ctx).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };

    let baseline_bytes = write("default", 1);
    let shrunken = Blocking {
        mc: 16,
        kc: 16,
        nc: 16,
    };
    let prev = force_blocking(shrunken);
    for threads in [1usize, 4] {
        let bytes = write(&format!("shrunken_t{threads}"), threads);
        assert_eq!(
            bytes, baseline_bytes,
            "artifact bytes diverged under shrunken blocking, threads {threads}"
        );
    }
    force_blocking(prev);
}

//! Tab. IV (this repo's extension) — shared-pool thread scaling of the hot
//! kernels (ISSUE 3).
//!
//! The paper runs on multi-threaded BLAS within each node (Sec. IX); this
//! harness measures the equivalent in our pure-Rust execution layer: the
//! large TTM and Gram kernels plus the end-to-end ST-HOSVD at 1/2/4/8
//! threads on the persistent `tucker-exec` pool.
//!
//! Three contracts are enforced:
//!
//! * **Determinism (hard):** every multi-threaded result must be
//!   bit-identical to the single-threaded run, and every forced-SIMD-tier
//!   result bit-identical to the scalar tier. Any mismatch exits non-zero —
//!   this is the CI smoke gate.
//! * **Thread scaling (reported):** per-kernel speedups are printed; when
//!   the host has at least 4 cores, a speedup below 2× at 4 threads on the
//!   large TTM and Gram kernels is flagged loudly (and exits non-zero under
//!   `TUCKER_TABLE4_STRICT=1`). On smaller hosts the table is informational —
//!   oversubscribed pools cannot speed anything up, only stay correct.
//! * **SIMD speedup (hard on AVX2 hosts, ISSUE 8):** the packed microkernel
//!   on the detected tier must beat the **pinned scalar baseline** — the
//!   executable contract references `gemm_slices_reference` /
//!   `syrk_slices_reference`, which state the pre-microkernel naive loops —
//!   by ≥2× on single-threaded GEMM and SYRK. (The forced-scalar *tier* is
//!   reported too, but only informationally: LLVM auto-vectorizes the
//!   scalar microkernel to baseline SSE2, so tier-vs-tier hovers near the
//!   2-lane/4-lane ceiling and is not a stable gate.) Skipped with a
//!   message when the detected tier is below AVX2.
//! * **Blocked factorization speedup (hard, ISSUE 9):** the blocked
//!   `householder_qr_ctx` and `sym_eig_ctx` must beat their **pinned pre-blocking
//!   recurrences** (`householder_qr_unblocked` / `sym_eig_unblocked`) by
//!   ≥2× at n = 512 on a single thread. This gate compares two algorithms
//!   on the *same* tier, so it holds on any host, scalar included, and
//!   runs even under `TUCKER_TABLE4_SMOKE=1`. The blocked SVD row is
//!   informational. Factorization bits are also re-checked across every
//!   supported SIMD tier (AVX-512 only where the host reports it), a
//!   shrunken `TUCKER_BLOCK` override, and thread counts.
//!
//! The GFLOP/s column is derived from the `tucker-obs` flop counters
//! (`linalg.gemm.flops` + `linalg.syrk.flops`) that the kernels maintain,
//! not from re-derived analytic formulas — so it doubles as a check that the
//! counters fire (it reads `-` if metrics are disabled).
//!
//! Run: `cargo run --release -p tucker-bench --bin table4_threads`
//! (set `TUCKER_TABLE4_SMOKE=1` for the quick CI shape).

use tucker_bench::{print_header, print_row, timed};
use tucker_core::sthosvd::SthosvdOptions;
use tucker_core::try_st_hosvd_ctx;
use tucker_exec::ExecContext;
use tucker_linalg::blocking::{force_blocking, Blocking};
use tucker_linalg::gemm::{gemm, gemm_slices_reference, Transpose};
use tucker_linalg::simd::{detected_tier, force_tier, supported_tiers, SimdTier};
use tucker_linalg::syrk::{syrk, syrk_slices_reference};
use tucker_linalg::{
    householder_qr_ctx, householder_qr_unblocked, jacobi_svd_ctx, jacobi_svd_unblocked,
    sym_eig_ctx, sym_eig_unblocked, Matrix, QrFactors, Svd, SymEig,
};
use tucker_obs::metrics::Counter;
use tucker_tensor::{gram_ctx, ttm_ctx, DenseTensor, TtmTranspose};

/// Same-name handles share storage with the kernels' own counters, so these
/// read the process-wide flop totals maintained inside `tucker-linalg`.
static GEMM_FLOPS: Counter = Counter::new("linalg.gemm.flops");
static SYRK_FLOPS: Counter = Counter::new("linalg.syrk.flops");
static QR_FLOPS: Counter = Counter::new("linalg.qr.flops");
static EIG_FLOPS: Counter = Counter::new("linalg.eig.flops");
static SVD_FLOPS: Counter = Counter::new("linalg.svd.flops");

fn kernel_flops() -> u64 {
    GEMM_FLOPS.value() + SYRK_FLOPS.value()
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn wavy(dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = 0.4;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 2) as f64 * 0.13 * i as f64).sin();
        }
        v
    })
}

/// Best-of-`reps` wall time plus the (first) result for identity checks.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let (result, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (_, t) = timed(&mut f);
        best = best.min(t);
    }
    (result, best)
}

struct KernelRow {
    name: &'static str,
    /// Whether this row participates in the ≥2× @ 4 threads check.
    scaling_gated: bool,
    /// Seconds per thread count, indexed like `THREADS`.
    secs: Vec<f64>,
    /// GEMM+SYRK flops of one invocation, from the obs counters (0 when
    /// metrics are disabled).
    flops: u64,
}

fn main() {
    let smoke = std::env::var("TUCKER_TABLE4_SMOKE").is_ok_and(|v| v == "1");
    let strict = std::env::var("TUCKER_TABLE4_STRICT").is_ok_and(|v| v == "1");
    let (dims, rank, reps) = if smoke {
        (vec![36usize, 36, 36], 9usize, 2usize)
    } else {
        (vec![96usize, 96, 96], 24usize, 3usize)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Tab. IV — kernel scaling on the shared pool ({dims:?}, rank {rank}, {cores} core(s))\n"
    );

    let x = wavy(&dims);
    let v0 = Matrix::from_fn(dims[0], rank, |i, j| ((i * 3 + j * 11) as f64 * 0.21).cos());
    let v1 = Matrix::from_fn(dims[1], rank, |i, j| ((i * 7 + j * 5) as f64 * 0.19).sin());
    let opts = SthosvdOptions::with_ranks(vec![rank; dims.len()]);

    let mut rows: Vec<KernelRow> = ["ttm mode-0", "ttm mode-1", "gram mode-0", "gram mode-1"]
        .into_iter()
        .map(|name| KernelRow {
            name,
            scaling_gated: true,
            secs: Vec::new(),
            flops: 0,
        })
        .collect();
    rows.push(KernelRow {
        name: "st_hosvd",
        scaling_gated: false,
        secs: Vec::new(),
        flops: 0,
    });
    let mut baselines: Vec<Vec<f64>> = Vec::new();
    let mut mismatches = 0usize;

    for (ti, &threads) in THREADS.iter().enumerate() {
        let ctx = ExecContext::new(threads);
        // (result, best seconds, counter-derived flops of one invocation)
        let outputs: Vec<(Vec<f64>, f64, u64)> = vec![
            {
                let f0 = kernel_flops();
                let (y, s) = best_of(reps, || ttm_ctx(&ctx, &x, &v0, 0, TtmTranspose::Transpose));
                (y.into_vec(), s, (kernel_flops() - f0) / reps as u64)
            },
            {
                let f0 = kernel_flops();
                let (y, s) = best_of(reps, || ttm_ctx(&ctx, &x, &v1, 1, TtmTranspose::Transpose));
                (y.into_vec(), s, (kernel_flops() - f0) / reps as u64)
            },
            {
                let f0 = kernel_flops();
                let (s_mat, s) = best_of(reps, || gram_ctx(&ctx, &x, 0));
                (s_mat.into_vec(), s, (kernel_flops() - f0) / reps as u64)
            },
            {
                let f0 = kernel_flops();
                let (s_mat, s) = best_of(reps, || gram_ctx(&ctx, &x, 1));
                (s_mat.into_vec(), s, (kernel_flops() - f0) / reps as u64)
            },
            {
                let f0 = kernel_flops();
                let n = reps.min(2);
                let (r, s) = best_of(n, || try_st_hosvd_ctx(&x, &opts, &ctx).unwrap());
                (
                    r.tucker.core.into_vec(),
                    s,
                    (kernel_flops() - f0) / n as u64,
                )
            },
        ];
        for (ki, (data, secs, flops)) in outputs.into_iter().enumerate() {
            rows[ki].secs.push(secs);
            if ti == 0 {
                rows[ki].flops = flops;
                baselines.push(data);
            } else if data != baselines[ki] {
                eprintln!(
                    "DETERMINISM VIOLATION: {} differs at {threads} threads vs 1 thread",
                    rows[ki].name
                );
                mismatches += 1;
            }
        }
    }

    let widths = [12usize, 11, 11, 11, 11, 12, 10];
    print_header(
        &[
            "kernel",
            "t=1 (s)",
            "t=2 (s)",
            "t=4 (s)",
            "t=8 (s)",
            "speedup@4",
            "GF/s@4",
        ],
        &widths,
    );
    let four = THREADS.iter().position(|&t| t == 4).expect("4 in THREADS");
    let mut weak_scaling = Vec::new();
    for row in &rows {
        let speedup4 = row.secs[0] / row.secs[four].max(1e-12);
        let mut cells: Vec<String> = vec![row.name.to_string()];
        cells.extend(row.secs.iter().map(|s| format!("{s:.4}")));
        cells.push(format!("{speedup4:.2}x"));
        cells.push(if row.flops == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", row.flops as f64 / row.secs[four].max(1e-12) / 1e9)
        });
        print_row(&cells, &widths);
        if row.scaling_gated && speedup4 < 2.0 {
            weak_scaling.push((row.name, speedup4));
        }
    }

    println!();
    if mismatches > 0 {
        eprintln!("table4_threads: FAILED — {mismatches} kernel(s) are not bit-identical across thread counts");
        std::process::exit(1);
    }
    println!("determinism: OK — all kernels bit-identical at 1/2/4/8 threads");
    if weak_scaling.is_empty() {
        println!("scaling: OK — every gated kernel reached >=2x at 4 threads");
    } else if cores >= 4 {
        for (name, s) in &weak_scaling {
            eprintln!("scaling: {name} reached only {s:.2}x at 4 threads (target >=2x)");
        }
        if strict {
            std::process::exit(1);
        }
    } else {
        println!(
            "scaling: skipped — host has {cores} core(s); oversubscribed pools are checked for correctness only"
        );
    }

    simd_speedup_section(smoke, reps);
    factorization_speedup_section(smoke);
}

/// Single-threaded microkernel speedup vs the pinned scalar baseline
/// (ISSUE 8): the contract references `gemm_slices_reference` /
/// `syrk_slices_reference` *are* the pre-microkernel naive loops, so they
/// double as the measurement baseline. Hard ≥2× gate on AVX2 hosts; also
/// re-checks bit-identity across baseline, forced-scalar tier, and the
/// detected tier, then restores the detected tier.
fn simd_speedup_section(smoke: bool, reps: usize) {
    let detected = detected_tier();
    let (m, k, n) = if smoke {
        (256usize, 256usize, 256usize)
    } else {
        (512usize, 384usize, 512usize)
    };
    // The kernel runs are millisecond-scale, so extra best-of reps are cheap
    // insurance against noise on shared CI boxes (noise only ever inflates a
    // wall-clock sample; best-of converges on the true time from above).
    let reps = reps.max(4);
    println!(
        "\nSIMD microkernel speedup — single thread, GEMM {m}x{k}x{n} / SYRK {m}x{k} \
         (detected tier: {})",
        detected.name()
    );

    let a = Matrix::from_fn(m, k, |i, j| ((i * 5 + j * 3) as f64 * 0.23).sin());
    let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 11) as f64 * 0.17).cos());
    let gemm_flop = 2.0 * (m * k * n) as f64;
    let syrk_flop = (m * (m + 1) * k) as f64;

    // Pinned scalar baseline: the executable contract references (the
    // pre-microkernel loops, one ascending-order accumulator per element).
    let (gemm_base_out, gemm_base_s) = best_of(reps, || {
        let mut c = vec![0.0f64; m * n];
        gemm_slices_reference(
            Transpose::No,
            Transpose::No,
            1.0,
            a.as_slice(),
            m,
            k,
            k,
            b.as_slice(),
            k,
            n,
            n,
            0.0,
            &mut c,
            n,
        );
        c
    });
    let (syrk_base_out, syrk_base_s) = best_of(reps, || {
        let mut c = vec![0.0f64; m * m];
        syrk_slices_reference(1.0, a.as_slice(), m, k, k, 0.0, &mut c, m);
        c
    });

    assert!(
        force_tier(SimdTier::Scalar),
        "scalar tier must always force"
    );
    let (gemm_scalar_out, gemm_scalar_s) =
        best_of(reps, || gemm(Transpose::No, Transpose::No, 1.0, &a, &b));
    let (syrk_scalar_out, syrk_scalar_s) = best_of(reps, || syrk(&a));

    assert!(force_tier(detected), "detected tier must force");
    let (gemm_tier_out, gemm_tier_s) =
        best_of(reps, || gemm(Transpose::No, Transpose::No, 1.0, &a, &b));
    let (syrk_tier_out, syrk_tier_s) = best_of(reps, || syrk(&a));

    if gemm_tier_out.as_slice() != gemm_scalar_out.as_slice()
        || syrk_tier_out.as_slice() != syrk_scalar_out.as_slice()
        || gemm_tier_out.as_slice() != gemm_base_out.as_slice()
        || syrk_tier_out.as_slice() != syrk_base_out.as_slice()
    {
        eprintln!(
            "table4_threads: FAILED — {} tier is not bit-identical to the scalar \
             tier / contract reference",
            detected.name()
        );
        std::process::exit(1);
    }

    let widths = [12usize, 13, 13, 12, 10, 10];
    print_header(
        &[
            "kernel",
            "baseline (s)",
            "scalar-t (s)",
            "tier (s)",
            "speedup",
            "GF/s",
        ],
        &widths,
    );
    let mut weak: Vec<(&str, f64)> = Vec::new();
    for (name, base_s, scalar_s, tier_s, flop) in [
        ("gemm", gemm_base_s, gemm_scalar_s, gemm_tier_s, gemm_flop),
        ("syrk", syrk_base_s, syrk_scalar_s, syrk_tier_s, syrk_flop),
    ] {
        let speedup = base_s / tier_s.max(1e-12);
        print_row(
            &[
                name.to_string(),
                format!("{base_s:.4}"),
                format!("{scalar_s:.4}"),
                format!("{tier_s:.4}"),
                format!("{speedup:.2}x"),
                format!("{:.2}", flop / tier_s.max(1e-12) / 1e9),
            ],
            &widths,
        );
        if speedup < 2.0 {
            weak.push((name, speedup));
        }
    }
    println!(
        "\nsimd determinism: OK — {} tier bit-identical to the scalar tier and the \
         contract reference",
        detected.name()
    );
    if detected < SimdTier::Avx2 {
        println!(
            "simd speedup: informational — detected tier {} cannot guarantee 2x over \
             the scalar baseline",
            detected.name()
        );
    } else if weak.is_empty() {
        println!("simd speedup: OK — GEMM and SYRK reached >=2x over the pinned scalar baseline");
    } else {
        for (name, s) in &weak {
            eprintln!(
                "simd speedup: {name} reached only {s:.2}x over the pinned scalar \
                 baseline (target >=2x on AVX2)"
            );
        }
        eprintln!("table4_threads: FAILED — microkernel speedup gate");
        std::process::exit(1);
    }
}

fn bits_eq(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

fn qr_bits_eq(x: &QrFactors, y: &QrFactors) -> bool {
    bits_eq(x.q.as_slice(), y.q.as_slice()) && bits_eq(x.r.as_slice(), y.r.as_slice())
}

fn eig_bits_eq(x: &SymEig, y: &SymEig) -> bool {
    bits_eq(&x.values, &y.values) && bits_eq(x.vectors.as_slice(), y.vectors.as_slice())
}

fn svd_bits_eq(x: &Svd, y: &Svd) -> bool {
    bits_eq(&x.s, &y.s)
        && bits_eq(x.u.as_slice(), y.u.as_slice())
        && bits_eq(x.v.as_slice(), y.v.as_slice())
}

/// Blocked Level-3 factorization speedup vs the pinned pre-blocking
/// recurrences. Hard ≥2× gate on `householder_qr_ctx` and
/// `sym_eig_ctx` at n = 512; the blocked SVD is reported but not gated. Also re-checks
/// that the factorization bits are invariant to the SIMD tier (every tier
/// the host supports), to a shrunken `TUCKER_BLOCK` override, and to the
/// pool thread count.
fn factorization_speedup_section(smoke: bool) {
    let n = 512usize;
    let (svd_m, svd_n) = if smoke {
        (256usize, 224usize)
    } else {
        (384usize, 352usize)
    };
    println!(
        "\nBlocked factorization speedup — single thread, QR/sym-eig n={n} (gated >=2x), \
         SVD {svd_m}x{svd_n} (informational)"
    );

    // Full-rank pseudo-random inputs: smooth trig fills are numerically
    // low-rank, which skews Jacobi sweep counts both ways (the eigensolver
    // converges in one sweep, the one-sided SVD crawls on tiny columns).
    let hash = |i: usize, j: usize, salt: usize| {
        let h = (i
            .wrapping_mul(2654435761)
            .wrapping_add(j.wrapping_mul(40503))
            .wrapping_add(salt.wrapping_mul(97)))
            % 10007;
        h as f64 / 10007.0 - 0.5
    };
    let a = Matrix::from_fn(n, n, |i, j| hash(i, j, 1));
    let g = {
        let b = Matrix::from_fn(n, n / 2, |i, j| hash(i, j, 2));
        syrk(&b)
    };
    let asvd = Matrix::from_fn(svd_m, svd_n, |i, j| hash(i, j, 3));

    // Pinned pre-blocking baselines: one rep each — they are the slow side
    // of a gate with a wide margin, and noise only inflates them.
    let (_, qr_base_s) = timed(|| householder_qr_unblocked(&a));
    let (_, eig_base_s) = timed(|| sym_eig_unblocked(&g));
    let (_, svd_base_s) = timed(|| jacobi_svd_unblocked(&asvd));

    let blocked_reps = 2usize;
    let f0 = QR_FLOPS.value();
    let (qr_blk, qr_s) = best_of(blocked_reps, || {
        householder_qr_ctx(ExecContext::global(), &a)
    });
    let qr_flops = (QR_FLOPS.value() - f0) / blocked_reps as u64;
    let f0 = EIG_FLOPS.value();
    let (eig_blk, eig_s) = best_of(blocked_reps, || sym_eig_ctx(ExecContext::global(), &g));
    let eig_flops = (EIG_FLOPS.value() - f0) / blocked_reps as u64;
    let f0 = SVD_FLOPS.value();
    let (svd_blk, svd_s) = best_of(blocked_reps, || {
        jacobi_svd_ctx(ExecContext::global(), &asvd)
    });
    let svd_flops = (SVD_FLOPS.value() - f0) / blocked_reps as u64;

    // Cross-configuration bit-identity: every supported tier, a shrunken
    // TUCKER_BLOCK override, and a 4-thread pool must reproduce the
    // detected-tier single-thread bits exactly.
    let mut mismatches: Vec<String> = Vec::new();
    let mut check = |label: String, qr: &QrFactors, eig: &SymEig, svd: &Svd| {
        if !qr_bits_eq(qr, &qr_blk) {
            mismatches.push(format!("householder_qr @ {label}"));
        }
        if !eig_bits_eq(eig, &eig_blk) {
            mismatches.push(format!("sym_eig @ {label}"));
        }
        if !svd_bits_eq(svd, &svd_blk) {
            mismatches.push(format!("jacobi_svd @ {label}"));
        }
    };
    for tier in supported_tiers() {
        assert!(force_tier(tier), "cannot force supported tier");
        check(
            format!("tier {}", tier.name()),
            &householder_qr_ctx(ExecContext::global(), &a),
            &sym_eig_ctx(ExecContext::global(), &g),
            &jacobi_svd_ctx(ExecContext::global(), &asvd),
        );
    }
    force_tier(detected_tier());
    let prev = force_blocking(Blocking {
        mc: 16,
        kc: 16,
        nc: 16,
    });
    check(
        "TUCKER_BLOCK=16,16,16".to_string(),
        &householder_qr_ctx(ExecContext::global(), &a),
        &sym_eig_ctx(ExecContext::global(), &g),
        &jacobi_svd_ctx(ExecContext::global(), &asvd),
    );
    force_blocking(prev);
    let ctx4 = ExecContext::new(4);
    check(
        "4 threads".to_string(),
        &householder_qr_ctx(&ctx4, &a),
        &sym_eig_ctx(&ctx4, &g),
        &jacobi_svd_ctx(&ctx4, &asvd),
    );
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("DETERMINISM VIOLATION: {m} differs from the detected-tier 1-thread bits");
        }
        eprintln!("table4_threads: FAILED — factorization bit-identity");
        std::process::exit(1);
    }

    let widths = [16usize, 13, 12, 10, 10];
    print_header(
        &[
            "factorization",
            "baseline (s)",
            "blocked (s)",
            "speedup",
            "GF/s",
        ],
        &widths,
    );
    let mut weak: Vec<(&str, f64)> = Vec::new();
    for (name, gated, base_s, blk_s, flops) in [
        ("householder_qr", true, qr_base_s, qr_s, qr_flops),
        ("sym_eig", true, eig_base_s, eig_s, eig_flops),
        ("jacobi_svd", false, svd_base_s, svd_s, svd_flops),
    ] {
        let speedup = base_s / blk_s.max(1e-12);
        print_row(
            &[
                name.to_string(),
                format!("{base_s:.4}"),
                format!("{blk_s:.4}"),
                format!("{speedup:.2}x"),
                if flops == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2}", flops as f64 / blk_s.max(1e-12) / 1e9)
                },
            ],
            &widths,
        );
        if gated && speedup < 2.0 {
            weak.push((name, speedup));
        }
    }
    println!(
        "\nfactorization determinism: OK — bits invariant across SIMD tiers, \
         TUCKER_BLOCK=16,16,16, and thread counts"
    );
    if weak.is_empty() {
        println!(
            "factorization speedup: OK — blocked QR and sym_eig reached >=2x over \
             the pinned pre-blocking recurrences at n={n}"
        );
    } else {
        for (name, s) in &weak {
            eprintln!(
                "factorization speedup: {name} reached only {s:.2}x over its pinned \
                 pre-blocking recurrence (target >=2x at n={n})"
            );
        }
        eprintln!("table4_threads: FAILED — blocked factorization speedup gate");
        std::process::exit(1);
    }
}

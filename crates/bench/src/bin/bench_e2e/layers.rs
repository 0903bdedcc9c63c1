//! Traced-run probes: one function per layer, each measuring the layer from
//! outside — timing calls into its public functions and reading the public
//! `tucker-obs` counters — and filing the numbers under the layer's name.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use tucker_core::rank::discarded_tail;
use tucker_core::sthosvd::{st_hosvd_ctx, SthosvdOptions, SthosvdResult};
use tucker_exec::ExecContext;
use tucker_linalg::eig::sym_eig_desc;
use tucker_linalg::{gemm_ctx, householder_qr_ctx, jacobi_svd_ctx, syrk_ctx, Matrix, SimdTier};
use tucker_obs::metrics::Counter;
use tucker_store::{write_tucker_ctx, StoreOptions, TkrReader};
use tucker_tensor::{
    gram_accumulate_ctx, gram_ctx, ttm_chain_ctx, ttm_ctx, ttm_slab_chain_ctx, DenseTensor,
    TtmTranspose,
};

use crate::ops::{run_on_reader, Class, OpStream};
use crate::pipeline::Cx;
use crate::stats::median;

// Same-name statics resolve to the registry slots the library records into.
static GEMM_FLOPS: Counter = Counter::new("linalg.gemm.flops");
static SYRK_FLOPS: Counter = Counter::new("linalg.syrk.flops");
static QR_FLOPS: Counter = Counter::new("linalg.qr.flops");
static GRAM_FLOPS: Counter = Counter::new("tensor.gram.flops");
static TTM_FLOPS: Counter = Counter::new("tensor.ttm.flops");
static ENCODE_BYTES: Counter = Counter::new("store.encode.bytes");
static CACHE_HITS: Counter = Counter::new("store.cache.hits");
static CACHE_DECODES: Counter = Counter::new("store.cache.decodes");
static CACHE_EVICTIONS: Counter = Counter::new("store.cache.evictions");

// ---------------------------------------------------------------------------
// machine
// ---------------------------------------------------------------------------

/// `iters` rounds of `acc = acc * m + a` over `N` independent accumulators:
/// a separate multiply and add (Rust never contracts them into an FMA), all
/// register-resident once the loop is unrolled and vectorized for the
/// enclosing function's target features. `N` is 12 vectors of the tier's
/// width — enough independent chains to cover mul/add latency on two ports.
#[inline(always)]
fn mul_add_chains<const N: usize>(iters: u64) -> f64 {
    let mut acc = [1.0f64; N];
    let m = black_box([0.999_999f64; N]);
    let a = black_box([1e-6f64; N]);
    for _ in 0..iters {
        for i in 0..N {
            acc[i] = acc[i] * m[i] + a[i];
        }
    }
    black_box(acc).iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_add_chains_avx2(iters: u64) -> f64 {
    mul_add_chains::<48>(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mul_add_chains_avx512(iters: u64) -> f64 {
    mul_add_chains::<96>(iters)
}

/// Runs the chains at the SIMD tier the library is using; returns flops done.
fn peak_kernel(tier: SimdTier, iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if tier == SimdTier::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement of the callee was just checked
            // on the running CPU.
            black_box(unsafe { mul_add_chains_avx512(iters) });
            return (iters * 96 * 2) as f64;
        }
        if tier >= SimdTier::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 requirement of the callee was just checked on
            // the running CPU.
            black_box(unsafe { mul_add_chains_avx2(iters) });
            return (iters * 48 * 2) as f64;
        }
    }
    let _ = tier;
    black_box(mul_add_chains::<24>(iters));
    (iters * 24 * 2) as f64
}

/// GFLOP/s of the mul+add chains on `threads` threads at once.
fn peak_gflops(threads: usize, iters: u64) -> f64 {
    let tier = tucker_linalg::current_tier();
    let t0 = Instant::now();
    let flops: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(move || peak_kernel(tier, iters)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("peak probe thread"))
            .sum()
    });
    flops / t0.elapsed().as_secs_f64() / 1e9
}

/// STREAM triad `a = b + s·c` on two threads; GB/s of computed bytes (two
/// reads and one write per element; write-allocate traffic not counted).
fn triad_gb_s(elems: usize, passes: usize) -> f64 {
    let mut a = vec![0.0f64; elems];
    let b = vec![1.5f64; elems];
    let c = vec![0.25f64; elems];
    let half = elems / 2;
    let mut rates = Vec::new();
    for _ in 0..passes {
        let t0 = Instant::now();
        let (a_lo, a_hi) = a.split_at_mut(half);
        std::thread::scope(|s| {
            s.spawn(|| {
                for ((x, y), z) in a_lo.iter_mut().zip(&b[..half]).zip(&c[..half]) {
                    *x = y + 3.0 * z;
                }
            });
            for ((x, y), z) in a_hi.iter_mut().zip(&b[half..]).zip(&c[half..]) {
                *x = y + 3.0 * z;
            }
        });
        rates.push((3 * elems * 8) as f64 / t0.elapsed().as_secs_f64() / 1e9);
        black_box(&a);
    }
    median(&rates)
}

/// Raw `TcpStream` loopback: median round trip of an 8-byte ping (µs) and
/// the one-way rate of a bulk transfer (GB/s).
fn loopback(pings: usize, bulk_bytes: usize) -> std::io::Result<(f64, f64)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut ping = [0u8; 8];
        for _ in 0..pings {
            s.read_exact(&mut ping)?;
            s.write_all(&ping)?;
        }
        let mut sink = vec![0u8; 1 << 20];
        let mut left = bulk_bytes;
        while left > 0 {
            let n = s.read(&mut sink)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            left -= n.min(left);
        }
        s.write_all(&[1])
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut rtts = Vec::with_capacity(pings);
    let mut ping = [7u8; 8];
    for _ in 0..pings {
        let t0 = Instant::now();
        s.write_all(&ping)?;
        s.read_exact(&mut ping)?;
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let block = vec![0x5au8; 1 << 20];
    let t0 = Instant::now();
    let mut left = bulk_bytes;
    while left > 0 {
        let n = left.min(block.len());
        s.write_all(&block[..n])?;
        left -= n;
    }
    let mut ack = [0u8; 1];
    s.read_exact(&mut ack)?;
    let gb_s = bulk_bytes as f64 / t0.elapsed().as_secs_f64() / 1e9;
    echo.join().expect("loopback echo thread")?;
    Ok((median(&rtts), gb_s))
}

/// The `machine.*` denominators. Sizes: the triad arrays are at least 4× the
/// detected L3 each (both printed), capped so the three stay under 1 GiB.
pub fn machine(cx: &mut Cx) {
    let span = cx.tr.enter("machine.probes");
    let iters: u64 = if cx.smoke { 2_000_000 } else { 20_000_000 };
    let (one, _) = cx.tr.time("machine.peak_1t", || peak_gflops(1, iters));
    let (two, _) = cx.tr.time("machine.peak_2t", || peak_gflops(2, iters));
    cx.vals.set("machine.peak_gflops_1t", one);
    cx.vals.set("machine.peak_gflops_2t", two);

    let (_, _, l3) = tucker_linalg::detected_caches();
    let array_bytes = if cx.smoke {
        4 << 20
    } else {
        (4 * l3).min((1 << 30) / 3)
    };
    let (gb_s, _) = cx
        .tr
        .time("machine.triad", || triad_gb_s(array_bytes / 8, 3));
    cx.vals.set("machine.triad_gb_s", gb_s);
    cx.details.set(
        "triad",
        crate::json::Json::obj()
            .with("array_bytes", array_bytes)
            .with("l3_bytes", l3),
    );

    let (pings, bulk) = if cx.smoke {
        (200, 4 << 20)
    } else {
        (2000, 128 << 20)
    };
    let (lb, _) = cx.tr.time("machine.loopback", || loopback(pings, bulk));
    match lb {
        Ok((rtt_us, gb_s)) => {
            cx.vals.set("machine.loopback_rtt_us", rtt_us);
            cx.vals.set("machine.loopback_gb_s", gb_s);
        }
        Err(e) => cx.checks.record("machine.loopback", false, e.to_string()),
    }
    cx.tr.exit(span);
}

// ---------------------------------------------------------------------------
// exec + linalg
// ---------------------------------------------------------------------------

/// Cost of one empty two-way scatter through the pool.
pub fn exec_scatter(cx: &mut Cx) {
    let ctx = cx.exec.clone();
    let span = cx.tr.enter("exec.scatter_probe");
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        ctx.for_each_chunk(ctx.threads().max(2), 1, |r| {
            black_box(r);
        });
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    cx.tr.exit(span);
    cx.vals.set_median("exec.scatter_us", &us);
}

/// Columns of the mode-0 unfolding the GEMM/SYRK probes use: enough to be
/// far out of cache, bounded so the probe stays a fraction of a second.
const PROBE_COLS: usize = 1 << 16;

/// GEMM and SYRK on the workload's own mode-0 TTM / Gram shapes, one square
/// 512³ GEMM, and the two factorizations no pipeline path calls today.
pub fn linalg(cx: &mut Cx, x: &DenseTensor, r0: usize) {
    let ctx = cx.prep_ctx();
    let peak = if ctx.threads() >= 2 {
        cx.vals.get("machine.peak_gflops_2t")
    } else {
        cx.vals.get("machine.peak_gflops_1t")
    };
    let pct = |gflops: f64| {
        if peak > 0.0 {
            100.0 * gflops / peak
        } else {
            0.0
        }
    };
    let span = cx.tr.enter("linalg.probes");

    // X_(0) is d0 × codim column-major, i.e. `a` = X_(0)ᵀ row-major.
    let d0 = x.dim(0);
    let cols = x.codim(0).min(PROBE_COLS);
    let a = Matrix::from_vec(cols, d0, x.as_slice()[..cols * d0].to_vec());
    let u = Matrix::from_fn(d0, r0, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let rate = |cx: &mut Cx, name: &'static str, counter: &Counter, f: &dyn Fn()| -> f64 {
        f();
        let mut rates = Vec::new();
        for _ in 0..5 {
            let before = counter.value();
            let (_, secs) = cx.tr.time(name, f);
            rates.push((counter.value() - before) as f64 / secs / 1e9);
        }
        median(&rates)
    };
    use tucker_linalg::Transpose::No as N;
    let gemm = rate(cx, "linalg.gemm_ttm_shape", &GEMM_FLOPS, &|| {
        black_box(gemm_ctx(&ctx, N, N, 1.0, &a, &u));
    });
    cx.vals.set("linalg.gemm_gflops", gemm);
    cx.vals.set("linalg.gemm_pct_peak", pct(gemm));

    let at = a.transpose();
    let syrk = rate(cx, "linalg.syrk_gram_shape", &SYRK_FLOPS, &|| {
        black_box(syrk_ctx(&ctx, &at));
    });
    cx.vals.set("linalg.syrk_gflops", syrk);
    cx.vals.set("linalg.syrk_pct_peak", pct(syrk));

    let n = if cx.smoke { 128 } else { 512 };
    let sq = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
    let gemm512 = rate(cx, "linalg.gemm_square", &GEMM_FLOPS, &|| {
        black_box(gemm_ctx(&ctx, N, N, 1.0, &sq, &sq));
    });
    cx.vals.set("linalg.gemm512_gflops", gemm512);

    let tall = Matrix::from_fn(n, n / 4, |i, j| {
        (0.37 * i as f64 + 1.3 * j as f64).sin() + if i == j { 2.0 } else { 0.0 }
    });
    let qr = rate(cx, "linalg.qr", &QR_FLOPS, &|| {
        black_box(householder_qr_ctx(&ctx, &tall));
    });
    cx.vals.set("linalg.qr_gflops", qr);
    let mut svd_s = Vec::new();
    for _ in 0..3 {
        svd_s.push(
            cx.tr
                .time("linalg.svd", || black_box(jacobi_svd_ctx(&ctx, &tall)))
                .1,
        );
    }
    cx.vals.set_median("linalg.svd_s", &svd_s);
    cx.tr.exit(span);
}

// ---------------------------------------------------------------------------
// tensor + core: where compress_s goes
// ---------------------------------------------------------------------------

/// Times `st_hosvd_ctx` alone, then a stagewise replica built only from
/// `norm_sq` / `clone` / `gram_ctx` / `sym_eig_desc` / `RankSelection::select`
/// / `ttm_ctx`, whose ranks and core bits must equal the driver's. Both run
/// twice and every time is the faster of the two (attribution wants the
/// undisturbed cost of each stage, not its typical one). Files the stage
/// times under `tensor.*` / `linalg.eig_s` / `core.*` and returns the
/// driver's result.
pub fn attribution(cx: &mut Cx, x: &DenseTensor, opts: &SthosvdOptions) -> SthosvdResult {
    let ctx = cx.prep_ctx();
    let span = cx.tr.enter("core.attribution");

    let (mut driver, mut sthosvd_s) = cx.tr.time("core.st_hosvd", || st_hosvd_ctx(x, opts, &ctx));
    let (again, secs) = cx.tr.time("core.st_hosvd", || st_hosvd_ctx(x, opts, &ctx));
    if secs < sthosvd_s {
        (driver, sthosvd_s) = (again, secs);
    }
    cx.vals.set("core.sthosvd_s", sthosvd_s);

    // The plain single-thread baseline of the same driver.
    let seq = ExecContext::sequential();
    let (_, one_s) = cx.tr.time("exec.st_hosvd_1t", || {
        black_box(st_hosvd_ctx(x, opts, &seq))
    });
    let two_s = if ctx.threads() >= 2 {
        sthosvd_s
    } else {
        let two = ExecContext::new(2);
        cx.tr
            .time("exec.st_hosvd_2t", || {
                black_box(st_hosvd_ctx(x, opts, &two))
            })
            .1
    };
    cx.vals.set("exec.speedup_2t", one_s / two_s);

    // Stagewise replica. Stage order: norm, copy, gram, eig, ttm.
    let nmodes = x.ndims();
    let mut best = [f64::INFINITY; 5];
    let (mut gram_flops, mut ttm_flops, mut ttm_bytes) = (0.0, 0.0, 0usize);
    for _ in 0..2 {
        let replica = cx.tr.enter("core.replica");
        let mut stage = [0.0f64; 5];
        let (norm_x_sq, t) = cx.tr.time("tensor.norm", || x.norm_sq());
        stage[0] = t;
        let (mut y, t) = cx.tr.time("core.input_copy", || x.clone());
        stage[1] = t;
        let (gram_f0, ttm_f0) = (GRAM_FLOPS.value(), TTM_FLOPS.value());
        ttm_bytes = 0;
        let mut ranks = vec![0usize; nmodes];
        let mut discarded = 0.0;
        for &n in &driver.processed_order {
            let (s, t) = cx.tr.time("tensor.gram", || gram_ctx(&ctx, &y, n));
            stage[2] += t;
            let (eig, t) = cx.tr.time("linalg.eig", || sym_eig_desc(&s));
            stage[3] += t;
            let r = opts.rank.select(n, &eig.values, norm_x_sq, nmodes);
            discarded += discarded_tail(&eig.values, r);
            let u = eig.leading_vectors(r);
            let (shrunk, t) = cx.tr.time("tensor.ttm", || {
                ttm_ctx(&ctx, &y, &u, n, TtmTranspose::Transpose)
            });
            stage[4] += t;
            ttm_bytes += (y.len() + shrunk.len() + u.len()) * 8;
            y = shrunk;
            ranks[n] = r;
        }
        cx.tr.exit(replica);
        gram_flops = (GRAM_FLOPS.value() - gram_f0) as f64;
        ttm_flops = (TTM_FLOPS.value() - ttm_f0) as f64;
        for (b, s) in best.iter_mut().zip(stage) {
            *b = b.min(s);
        }
        let same_bits = y.dims() == driver.tucker.core.dims()
            && y.as_slice()
                .iter()
                .zip(driver.tucker.core.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        cx.checks.record(
            "replica_equals_driver",
            ranks == driver.ranks
                && same_bits
                && discarded.to_bits() == driver.discarded_energy.to_bits(),
            format!(
                "replica ranks {ranks:?}, driver ranks {:?}, core bits equal: {same_bits}",
                driver.ranks
            ),
        );
    }
    let [norm_s, copy_s, gram_s, eig_s, ttm_s] = best;
    cx.vals.set("tensor.norm_s", norm_s);
    cx.vals.set("core.input_copy_s", copy_s);
    cx.vals.set("tensor.gram_s", gram_s);
    cx.vals.set("tensor.gram_gflops", gram_flops / gram_s / 1e9);
    cx.vals.set("tensor.ttm_s", ttm_s);
    cx.vals.set("tensor.ttm_gflops", ttm_flops / ttm_s / 1e9);
    cx.vals
        .set("tensor.ttm_gb_s", ttm_bytes as f64 / ttm_s / 1e9);
    cx.vals.set("linalg.eig_s", eig_s);
    // Reported, not enforced: a timing ratio must not decide correctness.
    let coverage = best.iter().sum::<f64>() / sthosvd_s;
    cx.vals.set("core.attrib_coverage", coverage);
    if !(0.85..=1.15).contains(&coverage) {
        eprintln!(
            "bench_e2e: note: stage times cover {coverage:.3} of st_hosvd_ctx (want 0.85..1.15)"
        );
    }
    cx.tr.exit(span);
    driver
}

/// The slab kernels of the streaming driver, per slab, on the first slab of
/// `x` with the factors the decomposition found.
pub fn slab_kernels(cx: &mut Cx, x: &DenseTensor, result: &SthosvdResult) {
    let ctx = cx.prep_ctx();
    let span = cx.tr.enter("tensor.slab_kernels");
    let nmodes = x.ndims();
    let mut dims = x.dims().to_vec();
    dims[nmodes - 1] = 1;
    let slab = DenseTensor::from_vec(&dims, x.last_mode_slab(0, 1).to_vec());
    let mut s = Matrix::zeros(dims[0], dims[0]);
    let mut factors: Vec<Option<&Matrix>> = result.tucker.factors.iter().map(Some).collect();
    factors[nmodes - 1] = None;
    let (mut gram_s, mut ttm_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        gram_s.push(
            cx.tr
                .time("tensor.slab_gram", || {
                    gram_accumulate_ctx(&ctx, &slab, 0, &mut s)
                })
                .1,
        );
        let own = slab.clone();
        ttm_s.push(
            cx.tr
                .time("tensor.slab_ttm", || {
                    black_box(ttm_slab_chain_ctx(
                        &ctx,
                        own,
                        &factors,
                        TtmTranspose::Transpose,
                        &result.processed_order,
                    ))
                })
                .1,
        );
    }
    cx.tr.exit(span);
    cx.vals.set_median("tensor.slab_gram_s", &gram_s);
    cx.vals.set_median("tensor.slab_ttm_s", &ttm_s);
}

/// `write_tucker_ctx` on the result, and the reconstruction chain taken
/// apart: the store's share of `compress_s` and the tensor share of
/// `reconstruct_s`.
pub fn store_write_and_reconstruct(
    cx: &mut Cx,
    result: &SthosvdResult,
    store: &StoreOptions,
    path: &Path,
) -> f64 {
    let ctx = cx.prep_ctx();
    let mut write_s = Vec::new();
    let mut mb_s = Vec::new();
    for _ in 0..3 {
        let before = ENCODE_BYTES.value();
        let (rep, secs) = cx.tr.time("store.write_tucker", || {
            write_tucker_ctx(path, &result.tucker, store, &ctx)
        });
        if let Err(e) = rep {
            cx.checks.record("store.write", false, e.to_string());
        }
        write_s.push(secs);
        mb_s.push((ENCODE_BYTES.value() - before) as f64 / secs / 1e6);
    }
    cx.vals.set_median("store.write_s", &write_s);
    cx.vals.set_median("store.encode_mb_s", &mb_s);

    let factors: Vec<&Matrix> = result.tucker.factors.iter().collect();
    let mut chain_s = Vec::new();
    for _ in 0..2 {
        chain_s.push(
            cx.tr
                .time("tensor.reconstruct_ttm", || {
                    black_box(ttm_chain_ctx(
                        &ctx,
                        &result.tucker.core,
                        &factors,
                        TtmTranspose::NoTranspose,
                    ))
                })
                .1,
        );
    }
    cx.vals.set_median("tensor.reconstruct_ttm_s", &chain_s);
    cx.vals.get("store.write_s")
}

// ---------------------------------------------------------------------------
// store: the read side, without the daemon
// ---------------------------------------------------------------------------

/// Median direct-reader latency per op class, in ms.
pub type ClassMs = [f64; 3];

/// Replays the head of client 0's op sequence on a direct `TkrReader`, one
/// caller, at the workload's cache budget and at a budget that holds every
/// chunk. Returns the per-class medians at the workload's budget.
pub fn store_replay(cx: &mut Cx, path: &Path, dims: &[usize], budget_s: f64) -> ClassMs {
    // One thread per query, like a daemon worker's share of the pool.
    let ctx = cx.exec.with_budget(1);
    let span = cx.tr.enter("store.replay");
    let mut at_budget = [0.0; 3];
    let names: [[&'static str; 3]; 2] = [
        [
            "store.query_element_ms",
            "store.query_range_ms",
            "store.query_slice_ms",
        ],
        [
            "store.query_element_fit_ms",
            "store.query_range_fit_ms",
            "store.query_slice_fit_ms",
        ],
    ];
    // First at the workload's budget, then at one that holds every chunk.
    let mut budget = cx.w.cache_chunks;
    for (pass, pass_names) in names.iter().enumerate() {
        let reader = match TkrReader::open_with(path, budget, &ctx) {
            Ok(r) => r,
            Err(e) => {
                cx.checks.record("store.replay_open", false, e.to_string());
                break;
            }
        };
        budget = reader.chunk_count().max(1);
        let (hits0, dec0, evict0) = (
            CACHE_HITS.value(),
            CACHE_DECODES.value(),
            CACHE_EVICTIONS.value(),
        );
        let mut stream = OpStream::new(cx.seed, 0, dims);
        let mut ms: [Vec<f64>; 3] = Default::default();
        let t0 = Instant::now();
        let mut ops = 0u64;
        // Whole strata only, so both passes replay the same mix.
        while ops < 20 || (t0.elapsed().as_secs_f64() < budget_s / 2.0 && ops < 4000) {
            for _ in 0..20 {
                let op = stream.next_op();
                let (r, secs) = cx.tr.time("store.query", || run_on_reader(&op, &reader));
                match r {
                    Ok(raw) => {
                        black_box(raw.values());
                        ms[op.class().index()].push(secs * 1e3);
                    }
                    Err(e) => cx.checks.record("store.replay_query", false, e.to_string()),
                }
                ops += 1;
            }
        }
        for class in Class::ALL {
            cx.vals
                .set_median(pass_names[class.index()], &ms[class.index()]);
            if pass == 0 {
                at_budget[class.index()] = median(&ms[class.index()]);
            }
        }
        if pass == 0 {
            let hits = (CACHE_HITS.value() - hits0) as f64;
            let decodes = (CACHE_DECODES.value() - dec0) as f64;
            cx.vals
                .set("store.cache_hit_ratio", hits / (hits + decodes).max(1.0));
            cx.vals.set("store.decodes_per_query", decodes / ops as f64);
            cx.vals
                .set("store.evictions", (CACHE_EVICTIONS.value() - evict0) as f64);
        }
    }
    cx.tr.exit(span);
    at_budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_kernel_counts_its_flops_and_converges() {
        // acc → a / (1 − m) = 1 for every chain.
        let sum = mul_add_chains::<24>(1000);
        assert!((sum - 24.0).abs() < 1e-6);
        assert_eq!(peak_kernel(SimdTier::Scalar, 10), 480.0);
        assert!(peak_gflops(1, 10_000) > 0.0);
    }

    #[test]
    fn triad_and_loopback_report_positive_rates() {
        assert!(triad_gb_s(1 << 14, 2) > 0.0);
        let (rtt_us, gb_s) = loopback(20, 1 << 18).unwrap();
        assert!(rtt_us > 0.0 && gb_s > 0.0);
    }
}

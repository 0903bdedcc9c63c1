//! Tab. V (this repo's extension) — peak-memory gate for the out-of-core
//! pipeline.
//!
//! The whole point of `try_st_hosvd_streaming_ctx` + `compress_streaming` is that
//! neither compression nor serialization ever holds the full tensor: peak
//! memory is `O(slab + truncated tensor)` instead of `O(full tensor)` (the
//! in-memory pipeline holds the whole tensor plus its first TTM output).
//! This harness *measures* that claim with a tracking global
//! allocator and enforces it:
//!
//! * **in-memory**  — materialize the HCCI surrogate slab source, run
//!   `try_st_hosvd_ctx`, `write_tucker` the result;
//! * **streaming**  — run `compress_streaming` on the same slab source (the
//!   field is generated slab by slab, never materialized);
//! * **gate**       — the run **exits non-zero** unless the streaming peak
//!   is below 50% of the in-memory peak and the two artifacts are
//!   byte-identical.
//!
//! Peak accounting is "live heap bytes above the phase baseline", reset
//! between phases; pool worker allocations are counted too (both paths use
//! the same pool). `TUCKER_TABLE5_SLAB` overrides the slab width
//! (default 1 — the strictest profile).
//!
//! Run: `cargo run --release -p tucker-bench --bin table5_memory`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tucker_bench::{print_header, print_row};
use tucker_core::prelude::*;
use tucker_exec::ExecContext;
use tucker_scidata::DatasetPreset;
use tucker_store::{compress_streaming, write_tucker_ctx, Codec, StoreOptions};
use tucker_tensor::SlabSource;

/// Live heap bytes and the high-water mark above the last reset.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl TrackingAlloc {
    fn record_alloc(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }

    /// Resets the high-water mark to the current live volume and returns
    /// the baseline.
    fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }

    /// Peak bytes above `baseline` since the last reset.
    fn peak_above(baseline: usize) -> usize {
        PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
    }
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::record_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::record_dealloc(layout.size());
            Self::record_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let eps = 1e-3;
    let slab_width: usize = std::env::var("TUCKER_TABLE5_SLAB")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1);
    let preset = DatasetPreset::Hcci;
    let src = preset.slab_source(1, 2024);
    let dims = SlabSource::dims(&src).to_vec();
    let field_bytes = 8 * dims.iter().product::<usize>();
    let ctx = ExecContext::global();
    let tmp = std::env::temp_dir();
    let path_mem = tmp.join(format!("table5_{}_inmem.tkr", std::process::id()));
    let path_str = tmp.join(format!("table5_{}_stream.tkr", std::process::id()));

    println!(
        "Tab. V — peak heap of compress-and-store on the {} surrogate\n\
         (shape {:?}, raw field {} MiB, eps = {eps:.0e}, slab width {slab_width})\n",
        preset.name(),
        dims,
        mib(field_bytes),
    );

    // In-memory pipeline: materialize → try_st_hosvd_ctx → write_tucker.
    let base = TrackingAlloc::reset_peak();
    let inmem_report = {
        let x = src.materialize();
        let result = try_st_hosvd_ctx(&x, &SthosvdOptions::with_tolerance(eps), ctx).unwrap();
        write_tucker_ctx(
            &path_mem,
            &result.tucker,
            &StoreOptions::new(Codec::F32, eps),
            ctx,
        )
        .expect("in-memory write failed")
    };
    let inmem_peak = TrackingAlloc::peak_above(base);

    // Streaming pipeline: the source is generated slab by slab.
    let base = TrackingAlloc::reset_peak();
    let (stream_result, stream_report) = compress_streaming(
        &path_str,
        &src,
        &SthosvdOptions::with_tolerance(eps),
        &StreamingOptions::with_slab_width(slab_width),
        &StoreOptions::new(Codec::F32, eps),
        ctx,
    )
    .expect("streaming write failed");
    let stream_peak = TrackingAlloc::peak_above(base);

    let widths = [12usize, 12, 14, 12];
    print_header(&["pipeline", "peak MiB", "peak/field", "file MiB"], &widths);
    for (name, peak, bytes) in [
        ("in-memory", inmem_peak, inmem_report.bytes),
        ("streaming", stream_peak, stream_report.bytes),
    ] {
        print_row(
            &[
                name.to_string(),
                mib(peak),
                format!("{:.2}", peak as f64 / field_bytes as f64),
                mib(bytes as usize),
            ],
            &widths,
        );
    }

    // Gate 1: the two pipelines must produce byte-identical artifacts —
    // streaming is a memory optimization, not a different compressor.
    let bytes_mem = std::fs::read(&path_mem).expect("read in-memory artifact");
    let bytes_str = std::fs::read(&path_str).expect("read streaming artifact");
    std::fs::remove_file(&path_mem).ok();
    std::fs::remove_file(&path_str).ok();
    assert_eq!(
        bytes_mem, bytes_str,
        "streaming artifact differs from the in-memory artifact"
    );
    println!(
        "\nartifacts byte-identical ({} bytes, ranks {:?}, error bound {:.2e})",
        bytes_mem.len(),
        stream_result.ranks,
        stream_result.error_bound()
    );

    // Gate 2: streaming peak below 50% of the in-memory pipeline.
    let ratio = stream_peak as f64 / inmem_peak as f64;
    println!(
        "streaming peak is {:.1}% of the in-memory peak (gate: < 50%)",
        100.0 * ratio
    );
    if ratio >= 0.5 {
        eprintln!(
            "FAIL: streaming pipeline peaked at {} MiB vs {} MiB in-memory \
             ({:.1}% >= 50%)",
            mib(stream_peak),
            mib(inmem_peak),
            100.0 * ratio
        );
        std::process::exit(1);
    }
    println!("\nMemory gate passed.");
}

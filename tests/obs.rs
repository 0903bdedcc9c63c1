//! Workspace-level observability contracts (ISSUE 7, `docs/ARCHITECTURE.md` §9).
//!
//! Two promises the `tucker-obs` layer makes to every other crate are pinned
//! here, where the full pipeline is available:
//!
//! * **Zero cost when off** — with metrics disabled, recording calls touch
//!   no heap at all (measured with a counting global allocator), and with
//!   metrics enabled the steady state after registration is allocation-free
//!   too (pure atomics).
//! * **Bit-identity** — instrumentation observes, it never participates:
//!   compressing and querying with span tracing (and metrics) enabled
//!   produces byte-identical artifacts and bit-identical query answers to a
//!   fully dark run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use tucker_api::{Compressor, Open, TensorQuery};
use tucker_core::ordering::window_order;
use tucker_obs::metrics::{self, Counter, Gauge, Histogram};
use tucker_obs::trace;
use tucker_tensor::DenseTensor;

/// Counts heap allocations made by the *current thread* (thread-local so
/// pool workers and parallel sibling tests cannot pollute a measurement).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // try_with: never panic inside the allocator (TLS teardown).
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests that flip the process-wide enabled flag or the
/// global trace sink (tests in one binary run on parallel threads).
fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_metrics_allocate_nothing_and_register_nothing() {
    let _g = obs_guard();
    // Fresh names: these instruments must never have been registered.
    static C: Counter = Counter::new("test.obs.dark_counter");
    static G: Gauge = Gauge::new("test.obs.dark_gauge");
    static H: Histogram = Histogram::new("test.obs.dark_hist");

    metrics::set_enabled(false);
    let before = thread_allocs();
    for i in 0..10_000u64 {
        C.add(i);
        G.add(i as i64);
        G.dec();
        H.observe_us(i);
        // Inactive span: one atomic load, no guard state.
        let _s = tucker_obs::span!("test.obs.dark_span", i = i);
    }
    let delta = thread_allocs() - before;
    metrics::set_enabled(true);

    assert_eq!(
        delta, 0,
        "disabled instruments must not touch the heap ({delta} allocations)"
    );
    // Nothing was registered either: the names are absent from exposition.
    let text = metrics::render();
    assert!(
        !text.contains("test.obs.dark_"),
        "disabled instruments must not register:\n{text}"
    );
}

#[test]
fn enabled_metrics_are_allocation_free_after_registration() {
    let _g = obs_guard();
    static C: Counter = Counter::new("test.obs.steady_counter");
    static H: Histogram = Histogram::new("test.obs.steady_hist");

    metrics::set_enabled(true);
    // First touch registers storage (allocates once, by design).
    C.inc();
    H.observe_us(1);

    let before = thread_allocs();
    for i in 0..10_000u64 {
        C.add(2);
        H.observe_us(i % 4096);
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state recording must be pure atomics ({delta} allocations)"
    );
    assert!(C.value() >= 20_001);
    assert!(H.snapshot().count >= 10_001);
}

/// A deterministic mid-size tensor: large enough to exercise multi-chunk
/// storage and real kernel work, small enough for CI.
fn pipeline_input() -> DenseTensor {
    DenseTensor::from_fn(&[17, 13, 11, 7], |i| {
        let x = i[0] as f64 * 0.37 + i[1] as f64 * 0.11;
        let y = i[2] as f64 * 0.23 - i[3] as f64 * 0.05;
        (x.sin() + 1.3 * y.cos()) * (1.0 + 0.01 * (i[0] * i[3]) as f64)
    })
}

/// Runs compress → write → reopen → query and returns the artifact bytes
/// plus every query answer, so two runs can be compared bit-for-bit.
fn run_pipeline(path: &std::path::Path) -> (Vec<u8>, Vec<f64>) {
    let x = pipeline_input();
    Compressor::new(&x)
        .tolerance(1e-6)
        .write_to(path)
        .unwrap_or_else(|e| panic!("compress/write failed: {e}"));
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read artifact failed: {e}"));

    let reader = Open::lazy()
        .cache_chunks(8)
        .open(path)
        .unwrap_or_else(|e| panic!("open failed: {e}"));
    let mut answers = Vec::new();
    answers.push(
        reader
            .element(&[3, 1, 4, 1])
            .unwrap_or_else(|e| panic!("element failed: {e}")),
    );
    answers.extend(
        reader
            .elements(&[&[0, 0, 0, 0], &[16, 12, 10, 6], &[8, 6, 5, 3]])
            .unwrap_or_else(|e| panic!("elements failed: {e}")),
    );
    let window = reader
        .reconstruct_range(&[(2, 5), (0, 13), (7, 3), (1, 4)])
        .unwrap_or_else(|e| panic!("range failed: {e}"));
    answers.extend_from_slice(window.as_slice());
    let slice = reader
        .reconstruct_slice(2, 6)
        .unwrap_or_else(|e| panic!("slice failed: {e}"));
    answers.extend_from_slice(slice.as_slice());
    (bytes, answers)
}

#[test]
fn tracing_and_metrics_never_change_the_bits() {
    let _g = obs_guard();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let dark_tkr = dir.join(format!("tucker_obs_bitid_dark_{pid}.tkr"));
    let lit_tkr = dir.join(format!("tucker_obs_bitid_lit_{pid}.tkr"));
    let trace_path = dir.join(format!("tucker_obs_bitid_{pid}.trace"));

    // Dark run: metrics off, no trace sink.
    trace::uninstall();
    metrics::set_enabled(false);
    let (dark_bytes, dark_answers) = run_pipeline(&dark_tkr);

    // Lit run: metrics on and a JSON-lines span sink installed.
    metrics::set_enabled(true);
    trace::install(trace_path.to_str().unwrap_or_default())
        .unwrap_or_else(|e| panic!("cannot install trace sink: {e}"));
    let (lit_bytes, lit_answers) = run_pipeline(&lit_tkr);
    trace::uninstall();

    assert_eq!(
        dark_bytes, lit_bytes,
        "artifact bytes differ between instrumented and dark runs"
    );
    assert_eq!(dark_answers.len(), lit_answers.len());
    for (i, (d, l)) in dark_answers.iter().zip(lit_answers.iter()).enumerate() {
        assert!(
            d.to_bits() == l.to_bits(),
            "query answer {i} differs bitwise: dark {d:?} vs instrumented {l:?}"
        );
    }

    // The lit run must actually have traced something: the compression path
    // opens kernel spans (st_hosvd/ttm/gram) on this thread.
    let trace_text =
        std::fs::read_to_string(&trace_path).unwrap_or_else(|e| panic!("read trace: {e}"));
    assert!(
        trace_text.lines().count() > 0 && trace_text.contains("\"ph\":\"X\""),
        "instrumented run emitted no span events:\n{trace_text}"
    );

    // Each window query opens one `query.window` span that records where its
    // mode order folds the chunks (`fold_at`) and whether it left the
    // natural order (`reordered`).
    let ranks = Open::eager()
        .open(&lit_tkr)
        .unwrap_or_else(|e| panic!("reopen failed: {e}"))
        .header()
        .ranks
        .clone();
    let window_spans: Vec<&str> = trace_text
        .lines()
        .filter(|l| l.contains("\"name\":\"query.window\""))
        .collect();
    assert_eq!(window_spans.len(), 2, "{window_spans:?}");
    for (span, extents) in window_spans
        .iter()
        .zip([[5usize, 13, 3, 4], [17, 13, 1, 7]])
    {
        let order = window_order(&ranks, &extents);
        let fold_at = order.iter().position(|&n| n == 3).unwrap_or_default();
        let reordered = u8::from(order != [0, 1, 2, 3]);
        let args = format!("\"args\":{{\"fold_at\":{fold_at},\"reordered\":{reordered}}}");
        assert!(span.contains(&args), "{extents:?}: want {args} in {span}");
    }

    std::fs::remove_file(&dark_tkr).ok();
    std::fs::remove_file(&lit_tkr).ok();
    std::fs::remove_file(&trace_path).ok();
}

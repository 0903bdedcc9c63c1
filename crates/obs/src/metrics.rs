//! The process-wide metrics registry: counters, gauges, latency histograms.
//!
//! # Design
//!
//! Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! `const`-constructible, so call sites declare them as statics next to the
//! code they instrument:
//!
//! ```
//! use tucker_obs::metrics::Counter;
//! static FLOPS: Counter = Counter::new("linalg.gemm.flops");
//! FLOPS.add(2 * 64 * 64 * 64);
//! ```
//!
//! The first recording call registers the metric's storage (one leaked
//! atomic — the registry lives for the whole process) in a global sorted
//! map and caches the reference in the handle's `OnceLock`; every later
//! call is a load of the enabled flag plus one relaxed atomic RMW. Two
//! handles declaring the same name share storage, so a metric can be
//! bumped from several call sites.
//!
//! # Disabling
//!
//! `TUCKER_METRICS=0` (read once, overridable at runtime with
//! [`set_enabled`]) short-circuits every recording call before it touches
//! the registry: nothing is allocated, registered, or written — the
//! zero-allocation contract is pinned by `tests/obs.rs`.
//!
//! # Exposition
//!
//! [`render`] serializes the whole registry as sorted text, one metric per
//! line (the format served over the `tucker-serve` wire):
//!
//! ```text
//! counter <name> <value>
//! gauge <name> <value>
//! hist <name> count=<n> sum_us=<total> p50=<us> p99=<us>
//! ```
//!
//! Histogram quantiles are nearest-rank over the fixed power-of-two
//! microsecond buckets, reported as the bucket's inclusive upper bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Cached process-wide enabled flag (default on; `TUCKER_METRICS=0` → off).
fn enabled_cell() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = match std::env::var("TUCKER_METRICS") {
            Ok(v) => v != "0",
            Err(_) => true,
        };
        AtomicBool::new(on)
    })
}

/// Whether metric recording is currently enabled.
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Overrides the `TUCKER_METRICS` switch at runtime.
///
/// Used by the overhead gate (to time the same process with metrics on and
/// off) and by tests; production code should leave the env-derived default
/// alone.
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

/// Registered storage for one metric.
enum Slot {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicI64),
    Hist(&'static HistStorage),
}

/// The global name → storage map behind every handle.
fn registry() -> &'static Mutex<BTreeMap<&'static str, Slot>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Slot>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Slot>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing `u64` metric.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Declares a counter; storage is registered on first use.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn storage(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| {
            let mut reg = lock_registry();
            let slot = reg
                .entry(self.name)
                .or_insert_with(|| Slot::Counter(Box::leak(Box::new(AtomicU64::new(0)))));
            match slot {
                Slot::Counter(c) => c,
                // Name already registered as a different type: record into a
                // detached cell rather than corrupting the registered metric.
                _ => Box::leak(Box::new(AtomicU64::new(0))),
            }
        })
    }

    /// Adds `v` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            self.storage().fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (registers the metric if it was never recorded).
    pub fn value(&self) -> u64 {
        self.storage().load(Ordering::Relaxed)
    }
}

/// A signed up/down metric (queue depths, in-flight request counts).
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static AtomicI64>,
}

impl Gauge {
    /// Declares a gauge; storage is registered on first use.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn storage(&self) -> &'static AtomicI64 {
        self.cell.get_or_init(|| {
            let mut reg = lock_registry();
            let slot = reg
                .entry(self.name)
                .or_insert_with(|| Slot::Gauge(Box::leak(Box::new(AtomicI64::new(0)))));
            match slot {
                Slot::Gauge(g) => g,
                _ => Box::leak(Box::new(AtomicI64::new(0))),
            }
        })
    }

    /// Adds `v` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, v: i64) {
        if enabled() {
            self.storage().fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Subtracts `v`.
    #[inline]
    pub fn sub(&self, v: i64) {
        self.add(-v);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrites the value (no-op while metrics are disabled).
    pub fn set(&self, v: i64) {
        if enabled() {
            self.storage().store(v, Ordering::Relaxed);
        }
    }

    /// Current value (registers the metric if it was never recorded).
    pub fn value(&self) -> i64 {
        self.storage().load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: indices `0..=26` hold values whose
/// microsecond magnitude is at most `2^index` (inclusive upper bound), and
/// the final slot collects everything larger (> ~67 s).
pub const HIST_BUCKETS: usize = 28;

/// Index of the fixed bucket a microsecond value falls into.
///
/// Bucket `i < 27` covers `(2^(i-1), 2^i]` µs (bucket 0 covers `[0, 1]`);
/// bucket 27 is the overflow slot.
pub fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        let idx = 64 - ((us - 1).leading_zeros() as usize);
        idx.min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of bucket `idx`; `u64::MAX` for the overflow
/// slot (and any out-of-range index).
fn bucket_upper_bound_us(idx: usize) -> u64 {
    if idx >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << idx
    }
}

/// Heap storage of one histogram.
struct HistStorage {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl HistStorage {
    fn new() -> HistStorage {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistStorage {
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A fixed-bucket latency histogram over power-of-two microsecond bounds.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistStorage>,
}

impl Histogram {
    /// Declares a histogram; storage is registered on first use.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn storage(&self) -> &'static HistStorage {
        self.cell.get_or_init(|| {
            let mut reg = lock_registry();
            let slot = reg
                .entry(self.name)
                .or_insert_with(|| Slot::Hist(Box::leak(Box::new(HistStorage::new()))));
            match slot {
                Slot::Hist(h) => h,
                _ => Box::leak(Box::new(HistStorage::new())),
            }
        })
    }

    /// Records one observation of `us` microseconds (no-op while disabled).
    #[inline]
    pub fn observe_us(&self, us: u64) {
        if enabled() {
            let h = self.storage();
            h.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Records one observed duration (microsecond resolution, saturating).
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough copy of the current state (relaxed reads; exact
    /// once concurrent writers have quiesced).
    pub fn snapshot(&self) -> HistSnapshot {
        self.storage().snapshot()
    }
}

/// A point-in-time copy of one histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum_us: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Nearest-rank quantile: the inclusive upper bound (µs) of the bucket
    /// holding the `ceil(q·count)`-th smallest observation (`q` clamped to
    /// `[0, 1]`). Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return bucket_upper_bound_us(i);
            }
        }
        bucket_upper_bound_us(HIST_BUCKETS - 1)
    }
}

/// Serializes the whole registry as sorted `counter`/`gauge`/`hist` lines
/// (see the module docs for the grammar). Metrics recorded while rendering
/// may or may not appear; names registered but never bumped render as 0.
pub fn render() -> String {
    let reg = lock_registry();
    let mut out = String::new();
    for (name, slot) in reg.iter() {
        match slot {
            Slot::Counter(c) => {
                let _ = writeln!(out, "counter {name} {}", c.load(Ordering::Relaxed));
            }
            Slot::Gauge(g) => {
                let _ = writeln!(out, "gauge {name} {}", g.load(Ordering::Relaxed));
            }
            Slot::Hist(h) => {
                let s = h.snapshot();
                let _ = writeln!(
                    out,
                    "hist {name} count={} sum_us={} p50={} p99={}",
                    s.count,
                    s.sum_us,
                    s.quantile_us(0.50),
                    s.quantile_us(0.99)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex as StdMutex;

    /// Serializes tests that flip the global enabled flag.
    fn enabled_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: StdMutex<()> = StdMutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_accumulates_and_renders() {
        let _g = enabled_guard();
        set_enabled(true);
        static C: Counter = Counter::new("test.metrics.counter_accumulates");
        let before = C.value();
        C.inc();
        C.add(41);
        assert_eq!(C.value(), before + 42);
        let text = render();
        assert!(text
            .lines()
            .any(|l| l.starts_with("counter test.metrics.counter_accumulates ")));
    }

    #[test]
    fn same_name_shares_storage() {
        let _g = enabled_guard();
        set_enabled(true);
        static A: Counter = Counter::new("test.metrics.shared_storage");
        static B: Counter = Counter::new("test.metrics.shared_storage");
        let before = A.value();
        B.add(7);
        assert_eq!(A.value(), before + 7);
    }

    #[test]
    fn gauge_tracks_up_and_down() {
        let _g = enabled_guard();
        set_enabled(true);
        static G: Gauge = Gauge::new("test.metrics.gauge_up_down");
        G.set(0);
        G.add(5);
        G.dec();
        assert_eq!(G.value(), 4);
        G.sub(10);
        assert_eq!(G.value(), -6);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = enabled_guard();
        static C: Counter = Counter::new("test.metrics.disabled_counter");
        static H: Histogram = Histogram::new("test.metrics.disabled_hist");
        set_enabled(true);
        C.add(1); // register storage while enabled
        let before = C.value();
        let hist_before = H.snapshot().count;
        set_enabled(false);
        C.add(100);
        H.observe_us(123);
        set_enabled(true);
        assert_eq!(C.value(), before);
        assert_eq!(H.snapshot().count, hist_before);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is [0, 1] µs; bucket i is (2^(i-1), 2^i] µs.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 1..(HIST_BUCKETS - 1) {
            let ub = 1u64 << i;
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(ub + 1), (i + 1).min(HIST_BUCKETS - 1));
        }
        // Overflow slot.
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_bound_us(HIST_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_upper_bound_us(0), 1);
        assert_eq!(bucket_upper_bound_us(10), 1024);
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank() {
        let _g = enabled_guard();
        set_enabled(true);
        static H: Histogram = Histogram::new("test.metrics.quantiles");
        // 10 observations: 4 in bucket ≤16µs, 5 in ≤256µs, 1 in ≤4096µs.
        for _ in 0..4 {
            H.observe_us(10);
        }
        for _ in 0..5 {
            H.observe_us(200);
        }
        H.observe_us(3000);
        let s = H.snapshot();
        assert_eq!(s.count, 10);
        // rank(0.5) = 5 → bucket of 200µs (ub 256).
        assert_eq!(s.quantile_us(0.5), 256);
        // rank(0.99) = 10 → bucket of 3000µs (ub 4096).
        assert_eq!(s.quantile_us(0.99), 4096);
        // Clamping: q <= 0 → first observation's bucket, q >= 1 → last.
        assert_eq!(s.quantile_us(0.0), 16);
        assert_eq!(s.quantile_us(1.0), 4096);
        assert_eq!(s.quantile_us(2.0), 4096);
        // Empty histogram.
        let empty = HistSnapshot {
            count: 0,
            sum_us: 0,
            buckets: [0; HIST_BUCKETS],
        };
        assert_eq!(empty.quantile_us(0.5), 0);
    }

    #[test]
    fn histogram_duration_observation_saturates() {
        let _g = enabled_guard();
        set_enabled(true);
        static H: Histogram = Histogram::new("test.metrics.duration_saturate");
        let before = H.snapshot().count;
        H.observe(Duration::from_micros(100));
        H.observe(Duration::MAX); // saturates into the overflow bucket
        let s = H.snapshot();
        assert_eq!(s.count, before + 2);
        assert!(s.buckets[HIST_BUCKETS - 1] >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// N threads hammering one counter and one histogram concurrently:
        /// the totals must be exact (no lost updates).
        #[test]
        fn concurrent_recording_is_exact(threads in 2usize..8, per_thread in 1u64..400) {
            let _g = enabled_guard();
            set_enabled(true);
            static C: Counter = Counter::new("test.metrics.concurrent_counter");
            static H: Histogram = Histogram::new("test.metrics.concurrent_hist");
            let c_before = C.value();
            let h_before = H.snapshot();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            C.add(1 + (i % 3));
                            H.observe_us(1 + (t as u64) * 100 + i);
                        }
                    });
                }
            });
            // Each thread adds sum over i of 1 + i%3.
            let per_thread_total: u64 = (0..per_thread).map(|i| 1 + (i % 3)).sum();
            prop_assert_eq!(C.value() - c_before, threads as u64 * per_thread_total);
            let h_after = H.snapshot();
            prop_assert_eq!(h_after.count - h_before.count, threads as u64 * per_thread);
            let bucket_total: u64 = h_after.buckets.iter().sum::<u64>()
                - h_before.buckets.iter().sum::<u64>();
            prop_assert_eq!(bucket_total, threads as u64 * per_thread);
        }
    }
}

//! The persistent thread pool and the [`ExecContext`] scatter API.
//!
//! # Design
//!
//! A pool of `threads − 1` worker OS threads pulls type-erased jobs from one
//! shared unbounded channel (the caller of a scatter always executes the
//! first chunk itself, so `threads` chunks run concurrently on a pool of
//! `threads − 1` workers plus the submitting thread). Workers live as long as
//! the pool: [`ExecContext::global`] keeps them for the whole process, an
//! explicit [`ExecContext::new`] keeps them until the last clone is dropped.
//!
//! # Safety of borrowed jobs
//!
//! [`ExecContext::run`] accepts closures that borrow the caller's stack
//! (slices of the output matrix, the shared input tensor). Their lifetimes
//! are erased before they cross the channel, which is sound because `run`
//! **does not return — normally or by unwinding — until every submitted job
//! has signalled completion** over a private channel. Worker panics are
//! caught, forwarded, and re-raised on the calling thread after the scatter
//! has fully settled.
//!
//! # Determinism
//!
//! Scatter primitives only partition *output* index space; each output
//! element is owned by exactly one job and computed with the same inner-loop
//! order the sequential kernel uses. Chunk boundaries therefore affect
//! scheduling, never values: results are bit-identical for every thread
//! count, including oversubscription (`threads > cores`).

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tucker_obs::metrics::{Counter, Gauge};

/// Pool-level observability (all relaxed atomics; see `tucker-obs`).
/// Scatter counts, queued-but-unstarted jobs, and cumulative worker
/// busy/idle wall time — enough to read pool utilization off the registry.
static SCATTER_CALLS: Counter = Counter::new("exec.scatter.calls");
static SCATTER_JOBS: Counter = Counter::new("exec.scatter.jobs");
static QUEUE_DEPTH: Gauge = Gauge::new("exec.queue.depth");
static WORKER_BUSY_NS: Counter = Counter::new("exec.worker.busy_ns");
static WORKER_IDLE_NS: Counter = Counter::new("exec.worker.idle_ns");

/// A job after lifetime erasure (see module docs for why this is sound).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed job as accepted from callers.
pub type ScopedJob<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Hard cap on pool size, so a typo in `TUCKER_THREADS` cannot spawn an
/// unbounded number of OS threads.
const MAX_THREADS: usize = 256;

/// Work (in multiply-adds or equivalent) below which parallel kernels stay
/// sequential: at this size the scatter overhead beats the kernel time.
pub const PAR_MIN_WORK: usize = 1 << 16;

thread_local! {
    /// Set while a pool worker is executing a job; nested scatters detect it
    /// and degrade to inline execution instead of deadlocking the pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct PoolInner {
    submit: Mutex<Sender<Job>>,
    /// Total thread count the pool represents (workers + the caller).
    threads: usize,
}

fn spawn_workers(workers: usize) -> Sender<Job> {
    let (tx, rx) = channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    for i in 0..workers {
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::clone(&rx);
        std::thread::Builder::new()
            .name(format!("tucker-exec-{i}"))
            .spawn(move || loop {
                // Hold the lock only for the dequeue; run the job unlocked.
                let idle_from = Instant::now();
                let job = {
                    let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                    guard.recv()
                };
                match job {
                    Ok(job) => {
                        WORKER_IDLE_NS.add(idle_from.elapsed().as_nanos() as u64);
                        IN_WORKER.with(|f| f.set(true));
                        let busy_from = Instant::now();
                        job();
                        WORKER_BUSY_NS.add(busy_from.elapsed().as_nanos() as u64);
                        IN_WORKER.with(|f| f.set(false));
                    }
                    // All senders dropped: the owning contexts are gone.
                    Err(_) => break,
                }
            })
            .expect("tucker-exec: failed to spawn pool worker");
    }
    tx
}

/// A handle to the shared execution pool plus a parallelism *budget*.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same workers.
/// The budget caps how many chunks a scatter splits work into — the hybrid
/// ranks × threads mode gives each simulated rank a budget of
/// `threads / ranks` over the one global pool.
#[derive(Clone)]
pub struct ExecContext {
    pool: Option<Arc<PoolInner>>,
    budget: usize,
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("threads", &self.threads())
            .field("pool_threads", &self.pool_threads())
            .finish()
    }
}

impl ExecContext {
    /// Creates a context backed by its own pool of `threads − 1` workers
    /// (the scattering thread is the remaining executor). `threads <= 1`
    /// creates a pool-less, purely sequential context.
    pub fn new(threads: usize) -> ExecContext {
        let threads = threads.clamp(1, MAX_THREADS);
        if threads <= 1 {
            return ExecContext::sequential();
        }
        let submit = spawn_workers(threads - 1);
        ExecContext {
            pool: Some(Arc::new(PoolInner {
                submit: Mutex::new(submit),
                threads,
            })),
            budget: threads,
        }
    }

    /// A context that always executes inline on the calling thread.
    pub fn sequential() -> ExecContext {
        ExecContext {
            pool: None,
            budget: 1,
        }
    }

    /// The process-wide context, created on first use and reused forever.
    ///
    /// Pool size: `TUCKER_THREADS` when set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static ExecContext {
        static GLOBAL: OnceLock<ExecContext> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let configured = std::env::var("TUCKER_THREADS")
                .ok()
                .and_then(|s| parse_threads(&s));
            let threads = configured.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            ExecContext::new(threads)
        })
    }

    /// A view on the same pool whose scatters split into at most `budget`
    /// chunks (clamped to at least 1). This is how each simulated rank of a
    /// hybrid run gets its thread share without spawning anything.
    pub fn with_budget(&self, budget: usize) -> ExecContext {
        ExecContext {
            pool: self.pool.clone(),
            budget: budget.clamp(1, MAX_THREADS),
        }
    }

    /// The parallelism budget of this context (≥ 1).
    pub fn threads(&self) -> usize {
        self.budget
    }

    /// Total thread count of the backing pool (1 for a sequential context).
    pub fn pool_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads)
    }

    /// Runs every job to completion, using the pool when it helps.
    ///
    /// The calling thread executes the first job itself while the workers
    /// drain the rest; the call returns (or unwinds, if a job panicked) only
    /// after **all** jobs have finished, which is what makes borrowing jobs
    /// sound. Callers should pass at most [`ExecContext::threads`] jobs of
    /// comparable size — more is correct but queues.
    pub fn run<'a>(&self, mut jobs: Vec<ScopedJob<'a>>) {
        let inline = jobs.len() <= 1
            || self.budget <= 1
            || self.pool.is_none()
            || IN_WORKER.with(|f| f.get());
        if inline {
            for job in jobs {
                job();
            }
            return;
        }
        let pool = self.pool.as_ref().expect("checked above");
        let first = jobs.remove(0);
        let sent = jobs.len();
        SCATTER_CALLS.inc();
        SCATTER_JOBS.add(sent as u64 + 1);
        let (done_tx, done_rx) = channel::<Result<(), Box<dyn Any + Send>>>();
        {
            let submit = pool.submit.lock().unwrap_or_else(|e| e.into_inner());
            for job in jobs {
                // SAFETY: lifetime erasure only; this function does not
                // return or unwind before the completion loop below has
                // received one message per submitted job.
                let job: Job =
                    unsafe { std::mem::transmute::<ScopedJob<'a>, ScopedJob<'static>>(job) };
                let tx = done_tx.clone();
                QUEUE_DEPTH.inc();
                submit
                    .send(Box::new(move || {
                        QUEUE_DEPTH.dec();
                        let result = catch_unwind(AssertUnwindSafe(job));
                        // The receiver outlives every job (we drain below),
                        // so a send failure means the scatter already died.
                        let _ = tx.send(result);
                    }))
                    .expect("tucker-exec: pool workers disconnected");
            }
        }
        let mut panic = catch_unwind(AssertUnwindSafe(first)).err();
        for _ in 0..sent {
            match done_rx
                .recv()
                .expect("tucker-exec: worker dropped a completion")
            {
                Ok(()) => {}
                Err(e) => panic = Some(e),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Deterministically partitions `0..n` into at most `threads()` contiguous
    /// chunks of at least `min_per_chunk` items and runs `f` on each chunk
    /// (in parallel when a pool is available).
    pub fn for_each_chunk<F>(&self, n: usize, min_per_chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let parts = self.partition(n, min_per_chunk);
        if parts <= 1 {
            f(0..n);
            return;
        }
        let jobs: Vec<ScopedJob<'_>> = chunk_ranges(n, parts)
            .into_iter()
            .map(|r| {
                let f = &f;
                Box::new(move || f(r)) as ScopedJob<'_>
            })
            .collect();
        self.run(jobs);
    }

    /// Runs `f(index, &mut slot)` for every slot, partitioning the slots into
    /// at most `threads()` contiguous chunks. The per-slot work may borrow
    /// shared inputs; slots are disjoint by construction.
    pub fn for_each_slot<T, F>(&self, slots: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = slots.len();
        if n == 0 {
            return;
        }
        let parts = self.partition(n, 1);
        if parts <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                f(i, slot);
            }
            return;
        }
        let mut jobs: Vec<ScopedJob<'_>> = Vec::with_capacity(parts);
        let mut rest = slots;
        let mut offset = 0usize;
        for range in chunk_ranges(n, parts) {
            let take = range.len();
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            let base = offset;
            jobs.push(Box::new(move || {
                for (i, slot) in head.iter_mut().enumerate() {
                    f(base + i, slot);
                }
            }));
            offset += take;
        }
        self.run(jobs);
    }

    /// Splits `out` into one disjoint row panel per range (rows of width
    /// `ld`) and runs `f(rows, panel)` on each, in parallel. The panel of the
    /// final range absorbs whatever tail of `out` remains, so a last row
    /// shorter than `ld` (the usual `(rows-1)·ld + cols` slice shape of the
    /// kernels) is allowed. Ranges must be consecutive and start at 0 — the
    /// shape [`chunk_ranges`] and [`triangle_row_chunks`] produce.
    pub fn for_each_row_panel<F>(&self, out: &mut [f64], ld: usize, ranges: Vec<Range<usize>>, f: F)
    where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        let Some(last_end) = ranges.last().map(|r| r.end) else {
            return;
        };
        if ranges.len() == 1 {
            f(0..last_end, out);
            return;
        }
        let mut jobs: Vec<ScopedJob<'_>> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for r in ranges {
            debug_assert!(r.end == last_end || rest.len() >= r.len() * ld);
            let take = if r.end == last_end {
                rest.len()
            } else {
                r.len() * ld
            };
            let (panel, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            jobs.push(Box::new(move || f(r, panel)));
        }
        self.run(jobs);
    }

    /// How many chunks a scatter over `n` items should use.
    pub fn partition(&self, n: usize, min_per_chunk: usize) -> usize {
        let cap = n / min_per_chunk.max(1);
        self.budget.min(cap).max(1)
    }

    /// [`ExecContext::partition`] gated by total problem size: returns 1
    /// (stay sequential) when `work < `[`PAR_MIN_WORK`], else up to one
    /// chunk per budget thread over `n` output rows. The single threshold
    /// every parallel kernel in the workspace shares.
    pub fn partition_for_work(&self, n: usize, work: usize) -> usize {
        if work < PAR_MIN_WORK {
            1
        } else {
            self.partition(n, 1)
        }
    }
}

/// Parses a `TUCKER_THREADS` value: positive integers are accepted (capped at
/// an internal maximum), everything else falls back to auto-detection.
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim()
        .parse::<usize>()
        .ok()
        .filter(|&t| t >= 1)
        .map(|t| t.min(MAX_THREADS))
}

/// Splits `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one (earlier ranges take the remainder). Deterministic in `n` and
/// `parts` only.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let rem = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

/// Splits the rows of an `m × m` lower triangle into at most `parts`
/// contiguous row ranges of roughly equal triangle *area* (row `i` costs
/// `i + 1`), so threads working on triangular Gram updates stay balanced.
pub fn triangle_row_chunks(m: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, m.max(1));
    if parts <= 1 {
        return std::iter::once(0..m).collect();
    }
    let total = m * (m + 1) / 2;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    let mut chunk = 1usize;
    for i in 0..m {
        acc += i + 1;
        // Close the current chunk once it reaches its share of the area (the
        // last chunk always runs to the final row).
        if chunk < parts && acc * parts >= total * chunk {
            ranges.push(start..i + 1);
            start = i + 1;
            chunk += 1;
        }
    }
    if start < m || ranges.is_empty() {
        ranges.push(start..m);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_context_runs_inline() {
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.threads(), 1);
        let mut hits = vec![false; 5];
        ctx.for_each_slot(&mut hits, |_, h| *h = true);
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn for_each_chunk_covers_range_exactly_once() {
        let ctx = ExecContext::new(4);
        for n in [0usize, 1, 3, 7, 64, 1001] {
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            ctx.for_each_chunk(n, 1, |r| {
                for i in r {
                    counts[i].fetch_add(1, Ordering::SeqCst);
                }
            });
            assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn min_per_chunk_limits_splitting() {
        let ctx = ExecContext::new(8);
        assert_eq!(ctx.partition(10, 8), 1);
        assert_eq!(ctx.partition(16, 8), 2);
        assert_eq!(ctx.partition(1000, 8), 8);
        assert_eq!(ctx.partition(3, 1), 3);
    }

    #[test]
    fn budget_views_share_the_pool() {
        let ctx = ExecContext::new(4);
        let limited = ctx.with_budget(2);
        assert_eq!(limited.threads(), 2);
        assert_eq!(limited.pool_threads(), 4);
        let mut out = vec![0usize; 64];
        limited.for_each_slot(&mut out, |i, v| *v = i * i);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn pool_is_reused_across_many_scatters() {
        // A smoke test that hammering the same context does not deadlock or
        // leak: 200 scatters over the same 2-worker pool.
        let ctx = ExecContext::new(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..200 {
            ctx.for_each_chunk(12, 1, |r| {
                hits.fetch_add(r.len(), Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 200 * 12);
    }

    #[test]
    fn concurrent_submitters_are_supported() {
        // Hybrid mode: several "rank" threads scatter onto one shared pool.
        let ctx = ExecContext::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let ctx = ctx.with_budget(2);
                let total = &total;
                scope.spawn(move || {
                    for _ in 0..50 {
                        ctx.for_each_chunk(8, 1, |r| {
                            total.fetch_add(r.len(), Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 6 * 50 * 8);
    }

    #[test]
    fn worker_panics_propagate_after_settling() {
        let ctx = ExecContext::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ctx.for_each_chunk(8, 1, |r| {
                if r.contains(&5) {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicking job.
        let hits = AtomicUsize::new(0);
        ctx.for_each_chunk(8, 1, |r| {
            hits.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_scatter_degrades_to_inline() {
        let ctx = ExecContext::new(2);
        let hits = AtomicUsize::new(0);
        ctx.for_each_chunk(2, 1, |_| {
            // A scatter from inside a worker must not deadlock the pool.
            ctx.for_each_chunk(4, 1, |r| {
                hits.fetch_add(r.len(), Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn row_panel_scatter_writes_disjoint_panels() {
        // A 10×5 "matrix" with leading dimension 6 and the usual short last
        // row ((m-1)·ld + cols elements).
        let (m, ld, cols) = (10usize, 6usize, 5usize);
        for threads in [1usize, 3, 8] {
            let ctx = ExecContext::new(threads);
            let mut out = vec![-1.0; (m - 1) * ld + cols];
            ctx.for_each_row_panel(&mut out, ld, chunk_ranges(m, threads), |rows, panel| {
                for (i, r) in rows.enumerate() {
                    for j in 0..cols {
                        panel[i * ld + j] = (r * cols + j) as f64;
                    }
                }
            });
            for r in 0..m {
                for j in 0..cols {
                    assert_eq!(out[r * ld + j], (r * cols + j) as f64);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_are_even_and_exhaustive() {
        for (n, parts) in [(10usize, 3usize), (7, 7), (5, 9), (64, 4), (1, 1)] {
            let ranges = chunk_ranges(n, parts);
            assert!(ranges.len() <= parts.max(1));
            let mut expected = 0;
            for r in &ranges {
                assert_eq!(r.start, expected);
                expected = r.end;
            }
            assert_eq!(expected, n);
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn triangle_chunks_balance_area() {
        let m = 100;
        let chunks = triangle_row_chunks(m, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, m);
        let areas: Vec<usize> = chunks
            .iter()
            .map(|r| r.clone().map(|i| i + 1).sum())
            .collect();
        let total: usize = areas.iter().sum();
        assert_eq!(total, m * (m + 1) / 2);
        for &a in &areas {
            // Every chunk within 2x of the ideal share.
            assert!(a * 4 >= total / 2, "unbalanced triangle chunk: {areas:?}");
            assert!(a * 2 <= total, "unbalanced triangle chunk: {areas:?}");
        }
    }

    #[test]
    fn triangle_chunks_handle_degenerate_sizes() {
        assert_eq!(triangle_row_chunks(0, 4), vec![0..0]);
        assert_eq!(triangle_row_chunks(1, 4), vec![0..1]);
        let chunks = triangle_row_chunks(3, 8);
        assert_eq!(chunks.iter().map(|r| r.len()).sum::<usize>(), 3);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("lots"), None);
        assert_eq!(parse_threads("99999"), Some(MAX_THREADS));
    }

    #[test]
    fn global_context_is_a_singleton() {
        let a = ExecContext::global();
        let b = ExecContext::global();
        assert_eq!(a.threads(), b.threads());
        assert!(a.threads() >= 1);
    }
}

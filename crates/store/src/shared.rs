//! A lock-striped, scan-resistant chunk cache shared across reader sessions.
//!
//! Historically every [`crate::TkrReader`] owned a private LRU of decoded
//! core chunks, so two sessions on the same artifact each decoded (and each
//! kept resident) their own copies — exactly wrong for a service where many
//! concurrent connections query a handful of hot artifacts. This module
//! lifts the cache out of the reader:
//!
//! * [`SharedChunkCache`] — one process-wide (or per-server) pool of decoded
//!   chunks with a **global** capacity budget, split over lock stripes so
//!   concurrent sessions contend on `1/stripes` of the key space instead of
//!   one mutex.
//! * [`CacheSession`] — a cheap handle binding one *artifact key* to the
//!   shared pool. Every reader opened with
//!   [`crate::TkrReader::open_shared`] holds one; readers registered under
//!   the same key share decoded chunks and aggregate their
//!   hit/decode/resident accounting per artifact.
//!
//! The private reader cache is the degenerate case: [`crate::TkrReader::open_with`]
//! simply creates a single-stripe `SharedChunkCache` nobody else can see, so
//! one implementation serves both shapes and the accounting is identical by
//! construction (pinned by the shared-cache tests in `crate::tests`).
//!
//! # Contracts
//!
//! * **Keying** — a key identifies the artifact *bytes*: all sessions
//!   registered under one key must come from the same file. (The server's
//!   registry maps each artifact name to one path, which guarantees this.)
//! * **Global budget** — the total number of resident decoded chunks never
//!   exceeds the construction-time capacity. The budget is distributed over
//!   the stripes (stripe count is clamped to the capacity so every stripe
//!   owns at least one slot); chunks map to stripes round-robin
//!   (`chunk % stripes`), so a single artifact's chunks spread evenly.
//! * **Residency is decided by admission, not recency.** Every query scans
//!   its artifact's chunks `0..C` in ascending order (each output depends on
//!   every core entry), so with `C` above the budget any recency policy
//!   evicts exactly the chunk the next scan needs first — sequential
//!   flooding, a 0% hit rate. Instead a freshly decoded chunk is *admitted*
//!   only into a free slot of its stripe, or over a chunk of an artifact
//!   that has gone **cold** (see below); it never displaces a chunk of its
//!   own artifact. A chunk that is not admitted is used by the query that
//!   decoded it and dropped (`store.cache.bypassed`). Steady state for one
//!   artifact: a stable resident prefix, `budget / C` of every scan served
//!   from memory, no evictions.
//! * **Cold artifacts give their slots up.** The pool counts scans
//!   ([`CacheSession::begin_scan`], one per query); an artifact is cold once
//!   the pool has served [`COLD_AFTER_SCANS`] scans since its own last one.
//!   An idle artifact therefore loses its slots to whatever is being
//!   queried, while artifacts queried alternately (any interleaving that
//!   revisits each within that many scans) keep theirs and never flush each
//!   other. Displacing a cold chunk is the only eviction
//!   (`store.cache.evictions`), and it never costs the displacing artifact a
//!   decode it would not have done anyway.
//! * **No cross-session blocking** — misses are *not* deduplicated across
//!   sessions: two sessions racing on the same cold chunk may both decode
//!   it (the results are identical; the first insert stays). This is a
//!   deliberate trade — a slow session can never stall another one behind
//!   an in-flight marker — and it only costs duplicate work under exact
//!   races, never under re-query of a warm cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tucker_obs::metrics::Counter;

/// Pool-wide aggregates in the global metrics registry (see `tucker-obs`).
/// The per-artifact [`ArtifactCacheStats`] slots remain the source of truth
/// for per-key accounting; these are the process-level roll-up the serve
/// exposition reports alongside them.
static CACHE_HITS: Counter = Counter::new("store.cache.hits");
static CACHE_DECODES: Counter = Counter::new("store.cache.decodes");
static CACHE_EVICTIONS: Counter = Counter::new("store.cache.evictions");
static CACHE_BYPASSED: Counter = Counter::new("store.cache.bypassed");

/// Pool-wide scans after which an artifact that was not scanned itself
/// counts as cold: its resident chunks may be displaced by another
/// artifact's. Eight keeps any rotation over up to eight artifacts stable
/// and costs an abandoned artifact's slots eight queries of lingering.
pub const COLD_AFTER_SCANS: u64 = 8;

/// A point-in-time snapshot of one artifact's cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Cumulative chunk decodes charged to this artifact (every insert is
    /// one decode, admitted or not; duplicate decodes under cross-session
    /// races count).
    pub decoded_chunks: usize,
    /// Cumulative cache hits across all sessions of this artifact.
    pub cache_hits: usize,
    /// Decoded chunks of this artifact currently resident.
    pub resident_chunks: usize,
}

/// Per-artifact accounting plus the identity that keys stripe entries.
struct ArtifactSlot {
    id: u64,
    key: String,
    decoded: AtomicUsize,
    hits: AtomicUsize,
    resident: AtomicUsize,
    /// The pool's scan clock at this artifact's latest scan.
    last_scan: AtomicU64,
}

/// One stripe entry: owning artifact, decoded values.
struct StripeEntry {
    slot: Arc<ArtifactSlot>,
    data: Arc<Vec<f64>>,
}

/// One lock stripe: a bounded map from `(artifact id, chunk index)` to
/// decoded chunks.
struct Stripe {
    capacity: usize,
    entries: HashMap<(u64, usize), StripeEntry>,
}

impl Stripe {
    /// The resident chunk of the coldest artifact other than `own` that has
    /// gone cold by scan clock `now` (an `O(len)` scan, paid only by a miss
    /// on a full stripe).
    fn coldest_foreign_entry(&self, own: u64, now: u64) -> Option<(u64, usize)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.slot.id != own)
            .map(|(&k, e)| (e.slot.last_scan.load(Ordering::Relaxed), k))
            .filter(|&(last, _)| now.saturating_sub(last) >= COLD_AFTER_SCANS)
            .min()
            .map(|(_, k)| k)
    }
}

struct CacheInner {
    stripes: Vec<Mutex<Stripe>>,
    capacity: usize,
    /// Scan clock: scans begun on the pool, across every artifact.
    scans: AtomicU64,
    registry: Mutex<HashMap<String, Arc<ArtifactSlot>>>,
    next_id: AtomicU64,
}

/// A shared, bounded, lock-striped pool of decoded core chunks.
///
/// Cloning is cheap (an `Arc` bump); clones see the same pool. See the
/// module docs for the keying, budget, and admission contracts.
#[derive(Clone)]
pub struct SharedChunkCache {
    inner: Arc<CacheInner>,
}

impl SharedChunkCache {
    /// Creates a pool holding at most `capacity_chunks` decoded chunks
    /// (clamped to at least 1) split over `stripes` lock stripes (clamped to
    /// `1..=capacity`, so every stripe owns at least one slot and the global
    /// budget is exact).
    pub fn new(capacity_chunks: usize, stripes: usize) -> SharedChunkCache {
        let capacity = capacity_chunks.max(1);
        let stripes = stripes.clamp(1, capacity);
        // Distribute the budget like `chunk_ranges`: earlier stripes absorb
        // the remainder, mirroring the round-robin chunk→stripe map so a
        // single artifact with `chunks <= capacity` always fits.
        let base = capacity / stripes;
        let rem = capacity % stripes;
        let stripes = (0..stripes)
            .map(|i| {
                Mutex::new(Stripe {
                    capacity: base + usize::from(i < rem),
                    entries: HashMap::new(),
                })
            })
            .collect();
        SharedChunkCache {
            inner: Arc::new(CacheInner {
                stripes,
                capacity,
                scans: AtomicU64::new(0),
                registry: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// Binds `key` to the pool and returns the session handle readers cache
    /// through. Registering the same key again returns a session sharing the
    /// first registration's entries and accounting.
    pub fn register(&self, key: &str) -> CacheSession {
        let mut registry = self
            .inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let slot = registry
            .entry(key.to_string())
            .or_insert_with(|| {
                Arc::new(ArtifactSlot {
                    id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
                    key: key.to_string(),
                    decoded: AtomicUsize::new(0),
                    hits: AtomicUsize::new(0),
                    resident: AtomicUsize::new(0),
                    last_scan: AtomicU64::new(0),
                })
            })
            .clone();
        CacheSession {
            inner: Arc::clone(&self.inner),
            slot,
        }
    }

    /// The global capacity budget in chunks.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total decoded chunks currently resident, across every artifact
    /// (always `<=` [`SharedChunkCache::capacity`]).
    pub fn resident_total(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Accounting snapshot for one registered key, if present.
    pub fn artifact_stats(&self, key: &str) -> Option<ArtifactCacheStats> {
        let registry = self
            .inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        registry.get(key).map(|slot| snapshot(slot))
    }

    /// Accounting snapshots for every registered key, sorted by key.
    pub fn artifacts(&self) -> Vec<(String, ArtifactCacheStats)> {
        let registry = self
            .inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, ArtifactCacheStats)> = registry
            .values()
            .map(|slot| (slot.key.clone(), snapshot(slot)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl std::fmt::Debug for SharedChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedChunkCache")
            .field("capacity", &self.capacity())
            .field("stripes", &self.inner.stripes.len())
            .field("resident", &self.resident_total())
            .finish()
    }
}

fn snapshot(slot: &ArtifactSlot) -> ArtifactCacheStats {
    ArtifactCacheStats {
        decoded_chunks: slot.decoded.load(Ordering::Relaxed),
        cache_hits: slot.hits.load(Ordering::Relaxed),
        resident_chunks: slot.resident.load(Ordering::Relaxed),
    }
}

/// One artifact's handle into a [`SharedChunkCache`]: probe and insert
/// decoded chunks, with per-artifact accounting updated on each operation.
///
/// Cloning shares the binding (same artifact, same pool).
#[derive(Clone)]
pub struct CacheSession {
    inner: Arc<CacheInner>,
    slot: Arc<ArtifactSlot>,
}

impl CacheSession {
    fn stripe(&self, chunk: usize) -> &Mutex<Stripe> {
        // Round-robin, artifact-independent: a single artifact's chunks
        // spread exactly evenly over the stripes (see module docs).
        &self.inner.stripes[chunk % self.inner.stripes.len()]
    }

    /// Marks the start of one query's scan over this session's artifact:
    /// advances the pool's scan clock and stamps the artifact with it (the
    /// coldness measure of the module docs). Readers call it once per query.
    pub fn begin_scan(&self) {
        let now = self.inner.scans.fetch_add(1, Ordering::Relaxed) + 1;
        self.slot.last_scan.store(now, Ordering::Relaxed);
    }

    /// Probes chunk `chunk` of this session's artifact, counting a hit when
    /// present.
    pub fn get(&self, chunk: usize) -> Option<Arc<Vec<f64>>> {
        let stripe = self.stripe(chunk).lock().unwrap_or_else(|e| e.into_inner());
        let data = Arc::clone(&stripe.entries.get(&(self.slot.id, chunk))?.data);
        drop(stripe);
        self.slot.hits.fetch_add(1, Ordering::Relaxed);
        CACHE_HITS.inc();
        Some(data)
    }

    /// Offers a freshly decoded chunk (counted against this artifact's
    /// `decoded_chunks` whatever happens next). It becomes resident only if
    /// its stripe has a free slot or holds a chunk of a cold artifact, which
    /// it then displaces; otherwise the caller's copy is the only one and
    /// dies with the query.
    pub fn insert(&self, chunk: usize, data: Arc<Vec<f64>>) {
        self.slot.decoded.fetch_add(1, Ordering::Relaxed);
        CACHE_DECODES.inc();
        let key = (self.slot.id, chunk);
        let mut stripe = self.stripe(chunk).lock().unwrap_or_else(|e| e.into_inner());
        if stripe.entries.contains_key(&key) {
            // Lost a decode race; the resident copy holds the same values.
            return;
        }
        if stripe.entries.len() >= stripe.capacity {
            let now = self.inner.scans.load(Ordering::Relaxed);
            let victim = stripe
                .coldest_foreign_entry(self.slot.id, now)
                .and_then(|k| stripe.entries.remove(&k));
            let Some(victim) = victim else {
                CACHE_BYPASSED.inc();
                return;
            };
            victim.slot.resident.fetch_sub(1, Ordering::Relaxed);
            CACHE_EVICTIONS.inc();
        }
        stripe.entries.insert(
            key,
            StripeEntry {
                slot: Arc::clone(&self.slot),
                data,
            },
        );
        self.slot.resident.fetch_add(1, Ordering::Relaxed);
    }

    /// The pool's global capacity budget in chunks.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The key this session was registered under.
    pub fn key(&self) -> &str {
        &self.slot.key
    }

    /// Cumulative chunk decodes charged to this session's artifact (all
    /// sessions of the key combined).
    pub fn decoded_chunks(&self) -> usize {
        self.slot.decoded.load(Ordering::Relaxed)
    }

    /// Cumulative cache hits of this session's artifact.
    pub fn cache_hits(&self) -> usize {
        self.slot.hits.load(Ordering::Relaxed)
    }

    /// Decoded chunks of this session's artifact currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.slot.resident.load(Ordering::Relaxed)
    }

    /// Full accounting snapshot of this session's artifact.
    pub fn stats(&self) -> ArtifactCacheStats {
        snapshot(&self.slot)
    }
}

impl std::fmt::Debug for CacheSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSession")
            .field("key", &self.slot.key)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(v: f64) -> Arc<Vec<f64>> {
        Arc::new(vec![v; 4])
    }

    /// One query's scan over chunks `0..chunks`: probe, decode-and-offer on
    /// a miss. Returns the number of hits.
    fn scan(s: &CacheSession, chunks: usize) -> usize {
        s.begin_scan();
        let mut hits = 0;
        for c in 0..chunks {
            match s.get(c) {
                Some(_) => hits += 1,
                None => s.insert(c, chunk(c as f64)),
            }
        }
        hits
    }

    #[test]
    fn a_full_stripe_bypasses_rather_than_evict_its_own_artifact() {
        let cache = SharedChunkCache::new(2, 1);
        let s = cache.register("a");
        s.insert(0, chunk(0.0));
        s.insert(1, chunk(1.0));
        assert_eq!(s.resident_chunks(), 2);
        // No recency: touching 0 does not make 1 a victim.
        assert!(s.get(0).is_some());
        s.insert(2, chunk(2.0));
        assert_eq!(s.resident_chunks(), 2);
        assert!(s.get(2).is_none(), "chunk 2 must have been bypassed");
        assert!(s.get(0).is_some() && s.get(1).is_some());
        // The bypassed chunk still counts as a decode.
        assert_eq!(s.decoded_chunks(), 3);
        // Hits: the miss probe of 2 does not count, the other three do.
        assert_eq!(s.cache_hits(), 3);
        // Re-offering a resident chunk (a lost decode race) is a decode and
        // nothing else.
        s.insert(1, chunk(1.0));
        assert_eq!((s.decoded_chunks(), s.resident_chunks()), (4, 2));
    }

    #[test]
    fn cyclic_scans_hit_exactly_the_budget_and_never_evict() {
        for (chunks, budget, stripes) in
            [(21usize, 8usize, 8usize), (21, 8, 1), (10, 3, 2), (5, 1, 1)]
        {
            let cache = SharedChunkCache::new(budget, stripes);
            let s = cache.register("a");
            assert_eq!(scan(&s, chunks), 0, "cold pass");
            assert_eq!(s.resident_chunks(), budget);
            for pass in 1..=5 {
                let hits = scan(&s, chunks);
                assert_eq!(hits, budget, "{chunks}/{budget}/{stripes} pass {pass}");
                assert_eq!(s.resident_chunks(), budget);
                // Every miss was decoded, none admitted: had any resident
                // chunk been evicted, a later pass would fall short of
                // `budget` hits.
                assert_eq!(s.decoded_chunks(), chunks + pass * (chunks - budget));
            }
            // The resident set is the prefix that was decoded first.
            for c in 0..budget {
                assert!(s.get(c).is_some(), "chunk {c} not resident");
            }
        }
    }

    #[test]
    fn artifacts_scanned_alternately_keep_stable_resident_sets() {
        let cache = SharedChunkCache::new(8, 1);
        let a = cache.register("a");
        let b = cache.register("b");
        // A arrives first and takes 6 slots, B the remaining 2; from then on
        // neither moves, however long they alternate.
        assert_eq!((scan(&a, 6), scan(&b, 6)), (0, 0));
        for round in 0..(3 * COLD_AFTER_SCANS) {
            assert_eq!(scan(&a, 6), 6, "round {round}");
            assert_eq!(scan(&b, 6), 2, "round {round}");
            assert_eq!((a.resident_chunks(), b.resident_chunks()), (6, 2));
        }
    }

    #[test]
    fn an_idle_artifact_loses_its_slots_to_the_one_being_queried() {
        let cache = SharedChunkCache::new(4, 2);
        let a = cache.register("a");
        let b = cache.register("b");
        scan(&a, 4);
        assert_eq!(a.resident_chunks(), 4);
        // While A is merely lukewarm, B decodes everything and displaces
        // nothing.
        for _ in 1..COLD_AFTER_SCANS {
            assert_eq!(scan(&b, 4), 0);
            assert_eq!((a.resident_chunks(), b.resident_chunks()), (4, 0));
        }
        // The scan that finds A cold takes its slots over, and the next one
        // is served from memory.
        assert_eq!(scan(&b, 4), 0);
        assert_eq!((a.resident_chunks(), b.resident_chunks()), (0, 4));
        assert_eq!(scan(&b, 4), 4);
        // A comes back to a pool whose owner is hot: it is served, bypassed,
        // and leaves B alone.
        assert_eq!(scan(&a, 4), 0);
        assert_eq!((a.resident_chunks(), b.resident_chunks()), (0, 4));
        assert_eq!(cache.resident_total(), 4);
    }

    #[test]
    fn same_key_shares_entries_distinct_keys_do_not() {
        let cache = SharedChunkCache::new(8, 2);
        let a1 = cache.register("a");
        let a2 = cache.register("a");
        let b = cache.register("b");
        a1.insert(3, chunk(3.0));
        assert!(a2.get(3).is_some(), "same key must share decoded chunks");
        assert!(b.get(3).is_none(), "distinct keys must not collide");
        assert_eq!(a1.stats(), a2.stats());
        assert_eq!(cache.artifact_stats("a").unwrap().resident_chunks, 1);
        assert_eq!(cache.artifact_stats("b").unwrap().resident_chunks, 0);
        assert!(cache.artifact_stats("c").is_none());
    }

    #[test]
    fn global_budget_holds_across_artifacts_and_stripes() {
        let cache = SharedChunkCache::new(5, 3);
        let a = cache.register("a");
        let b = cache.register("b");
        for i in 0..20 {
            a.insert(i, chunk(i as f64));
            b.insert(i, chunk(-(i as f64)));
        }
        assert!(cache.resident_total() <= cache.capacity());
        assert_eq!(
            a.resident_chunks() + b.resident_chunks(),
            cache.resident_total()
        );
    }

    #[test]
    fn stripe_count_is_clamped_to_capacity() {
        // capacity 2 with 8 requested stripes: only 2 stripes, 1 slot each —
        // the budget stays exactly 2, not ceil-inflated to 8.
        let cache = SharedChunkCache::new(2, 8);
        let s = cache.register("a");
        for i in 0..10 {
            s.insert(i, chunk(i as f64));
        }
        assert!(cache.resident_total() <= 2);
    }

    #[test]
    fn an_artifact_no_larger_than_the_budget_fits_entirely() {
        // Round-robin chunk→stripe mapping + remainder-first budget split:
        // chunks 0..capacity land one per slot, so nothing is evicted.
        for (capacity, stripes) in [(7usize, 3usize), (8, 8), (5, 2), (9, 4)] {
            let cache = SharedChunkCache::new(capacity, stripes);
            let s = cache.register("a");
            for i in 0..capacity {
                s.insert(i, chunk(i as f64));
            }
            assert_eq!(s.resident_chunks(), capacity, "{capacity}/{stripes}");
            for i in 0..capacity {
                assert!(
                    s.get(i).is_some(),
                    "chunk {i} evicted at {capacity}/{stripes}"
                );
            }
        }
    }

    #[test]
    fn concurrent_sessions_stay_within_budget() {
        let cache = SharedChunkCache::new(6, 3);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let session = cache.register(if t % 2 == 0 { "x" } else { "y" });
                scope.spawn(move || {
                    for round in 0..50 {
                        let i = (t * 7 + round * 3) % 24;
                        if session.get(i).is_none() {
                            session.insert(i, chunk(i as f64));
                        }
                    }
                });
            }
        });
        assert!(cache.resident_total() <= cache.capacity());
        let sum: usize = cache
            .artifacts()
            .iter()
            .map(|(_, s)| s.resident_chunks)
            .sum();
        assert_eq!(sum, cache.resident_total());
    }
}

//! Memoized minimization: the [`GlobalMinimizeCache`] memo, the
//! per-caller [`MinimizeCache`] view over it, and the [`CoverEngine`]
//! selector.
//!
//! The evaluation pipeline prices an encoding by minimizing the encoded
//! constraint functions, and search loops (ENC-style probes, portfolio
//! sweeps) re-price covers they have already seen: a swap of two symbols
//! leaves every constraint containing neither of them untouched — a
//! byte-identical cover sequence. The cache memoizes *minimized cube
//! counts* keyed by that exact sequence, so repeat functions cost one hash
//! lookup instead of a full ESPRESSO run.
//!
//! Determinism: the key is the exact call — engine tag, domain shape, and
//! the on/dc cube sequences verbatim. ESPRESSO's result is order-sensitive
//! (stable sorts, first-cube-wins expansion), so reordered covers are
//! deliberately keyed apart: aliasing them would let a hit return a count
//! an uncached run would not. Because ESPRESSO is deterministic on a given
//! input sequence, every process — regardless of thread count or call
//! order — computes the same value for a given key, so cache hits can never
//! change a result, only skip recomputation. Eviction, sharing and
//! poisoned shards therefore change work, never answers; the differential
//! tests assert that against the uncached reference leg.
//!
//! One memo type serves every caller. A single run (an ENC search, a
//! one-shot evaluation) owns a fresh, unshared [`GlobalMinimizeCache`];
//! the daemon shares one across requests. Either way the caller prices
//! through its own [`MinimizeCache`], which holds only the key and scratch
//! buffers and that caller's hit/miss tallies.
//!
//! Observability: every call bumps [`obs::Counter::MinimizeCalls`] and
//! exactly one of [`obs::Counter::MinimizeCacheHit`] /
//! [`obs::Counter::MinimizeCacheMiss`], so traces conserve
//! `hits + misses == calls`. A cache hit performs **zero** budget work —
//! the minimizer is never entered, so no `espresso.iter` ticks fire and
//! traced work totals stay conserved.

use crate::budget::Budget;
use crate::chaos;
use crate::cover::Cover;
use crate::espresso::{espresso_bounded, MinimizeOptions};
use crate::flat::{flat_minimized_len, MinimizeScratch};
use crate::obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which cover engine a minimization request should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverEngine {
    /// The flat engine ([`crate::flat_espresso_bounded`]), which handles
    /// **every** domain — single- and multi-word, binary and multi-valued —
    /// with no fallback. Bit-identical to `Legacy`; this is the only
    /// production engine.
    #[default]
    Flat,
    /// The legacy `Vec<Cube>` driver ([`crate::espresso_bounded`]) — kept
    /// selectable purely as the independent test oracle for the
    /// differential/property suites and the honest A/B bench legs. Release
    /// paths never choose it.
    Legacy,
}

impl CoverEngine {
    /// Stable short name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            CoverEngine::Flat => "flat",
            CoverEngine::Legacy => "legacy",
        }
    }
}

/// Default maximum number of memoized entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// A per-caller view over a [`GlobalMinimizeCache`]: the key buffer and
/// the minimizer scratch, so the steady state allocates nothing, plus this
/// caller's hit/miss tallies. The memo itself is the argument of each
/// lookup — a fresh unshared one for a single run, or a daemon's shared
/// one — so per-run statistics stay meaningful either way.
#[derive(Debug, Default)]
pub struct MinimizeCache {
    hits: u64,
    misses: u64,
    key: Vec<u64>,
    scratch: MinimizeScratch,
}

impl MinimizeCache {
    /// A fresh view with zeroed tallies and empty buffers.
    pub fn new() -> MinimizeCache {
        MinimizeCache::default()
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the minimizer.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Minimized cube count of `(on, dc)` under `engine`, answered through
    /// `memo`.
    ///
    /// Bumps `MinimizeCalls` plus exactly one of `MinimizeCacheHit` /
    /// `MinimizeCacheMiss`, and a hit performs zero budget work. Chaos
    /// point `cache.shard` simulates a poisoned shard: the memo is
    /// bypassed and the call degrades to an honest miss (computed locally,
    /// never inserted) — bit-identical results, just slower.
    pub fn minimized_cube_count(
        &mut self,
        memo: &GlobalMinimizeCache,
        on: &Cover,
        dc: &Cover,
        engine: CoverEngine,
    ) -> usize {
        obs::count(obs::Counter::MinimizeCalls, 1);
        memo.calls.fetch_add(1, Ordering::Relaxed);
        self.build_key(on, dc, engine);
        if chaos::should_fire("cache.shard") {
            // Shard poisoned: degrade to a miss without touching the map.
            memo.poison_bypasses.fetch_add(1, Ordering::Relaxed);
            self.misses += 1;
            memo.misses.fetch_add(1, Ordering::Relaxed);
            obs::count(obs::Counter::MinimizeCacheMiss, 1);
            return self.run(on, dc, engine);
        }
        if let Some(n) = memo.lookup(&self.key) {
            self.hits += 1;
            memo.hits.fetch_add(1, Ordering::Relaxed);
            obs::count(obs::Counter::MinimizeCacheHit, 1);
            return n;
        }
        self.misses += 1;
        memo.misses.fetch_add(1, Ordering::Relaxed);
        obs::count(obs::Counter::MinimizeCacheMiss, 1);
        let n = self.run(on, dc, engine);
        memo.insert(&self.key, n);
        n
    }

    /// [`MinimizeCache::minimized_cube_count`] without consulting or
    /// populating any memo — the reference leg of differential tests and
    /// A/B comparisons, with the same counter discipline (every call is a
    /// miss).
    pub fn minimized_cube_count_uncached(
        &mut self,
        on: &Cover,
        dc: &Cover,
        engine: CoverEngine,
    ) -> usize {
        obs::count(obs::Counter::MinimizeCalls, 1);
        self.misses += 1;
        obs::count(obs::Counter::MinimizeCacheMiss, 1);
        self.run(on, dc, engine)
    }

    fn run(&mut self, on: &Cover, dc: &Cover, engine: CoverEngine) -> usize {
        minimize_count(on, dc, engine, &mut self.scratch)
    }

    /// Exact signature of `(engine, domain shape, on, dc)` into `self.key`:
    /// engine tag, variable count, per-variable part counts, on-set length,
    /// then the on and dc cube words in the caller's order. The minimizer's
    /// result depends on cube order (stable sorts, first-cube-wins
    /// expansion), so reordered covers must *not* share a key — a hit would
    /// otherwise return a count the uncached run disagrees with.
    fn build_key(&mut self, on: &Cover, dc: &Cover, engine: CoverEngine) {
        let dom = on.domain();
        let key = &mut self.key;
        key.clear();
        key.push(match engine {
            CoverEngine::Flat => 0,
            CoverEngine::Legacy => 1,
        });
        key.push(dom.num_vars() as u64);
        for v in 0..dom.num_vars() {
            key.push(dom.var(v).parts() as u64);
        }
        key.push(on.len() as u64);
        for c in on.iter() {
            key.extend_from_slice(c.words());
        }
        for c in dc.iter() {
            key.extend_from_slice(c.words());
        }
    }
}

/// Point-in-time statistics of a [`GlobalMinimizeCache`].
///
/// `hits + misses == calls` is the cross-shard conservation law the server
/// soak test asserts: `calls` is bumped once on entry, independently of
/// the hit/miss classification, so a code path that forgot to tally (or
/// double-tallied) an outcome shows up as a broken sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups routed through the cache (bumped on entry, before any
    /// hit/miss/poison classification).
    pub calls: u64,
    /// Lookups answered from a shard without running the minimizer.
    pub hits: u64,
    /// Lookups that ran the minimizer (cold entry, evicted entry, or a
    /// poisoned/chaos-bypassed shard).
    pub misses: u64,
    /// Lookups that bypassed the map because a shard was poisoned (real
    /// lock poisoning or the `cache.shard` chaos point). Always ≤ `misses`.
    pub poison_bypasses: u64,
    /// Memoized entries over all shards (both generations). May briefly
    /// exceed `capacity` by up to 50% — promote-on-hit parks an extra entry
    /// in a live generation until the next insert rebalances.
    pub entries: usize,
    /// Sum of every shard's eviction epoch (each epoch advance retired one
    /// generation of that shard).
    pub epoch_advances: u64,
    /// Number of shards.
    pub shards: usize,
    /// Total entry capacity over all shards.
    pub capacity: usize,
}

/// One shard of the memo: two generations of entries under a mutex.
///
/// Eviction is *epoch-based*: when the live generation fills its per-shard
/// budget, the shard advances its epoch — the previous generation is
/// dropped wholesale and the live one becomes previous. A hit in the
/// previous generation promotes the entry back into the live one, so hot
/// covers survive any number of epochs while cold ones age out after two.
/// All reads and writes happen under the shard mutex and entries are moved
/// whole, so readers can never observe a torn entry; racing inserts of the
/// same key write the same value (the minimizer is deterministic on a given
/// cube sequence), so the cache can change only *work*, never results.
#[derive(Debug, Default)]
struct Shard {
    live: HashMap<Vec<u64>, usize>,
    prev: HashMap<Vec<u64>, usize>,
    epoch: u64,
}

/// A concurrent, sharded, capacity-bounded memo of minimized cube counts —
/// the one memo type. A single run owns a fresh one; a long-running server
/// shares one across requests. Callers look up through a
/// [`MinimizeCache`] view, which builds the exact engine + domain +
/// cube-sequence key (see the module docs). The memo is:
///
/// * **Sharded** — keys are distributed over lock-striped shards by a
///   64-bit FNV-1a hash of the signature words, so concurrent workers
///   rarely contend. The minimizer never runs under a shard lock; a miss
///   computes outside and inserts afterwards (duplicate concurrent
///   computes of one key are benign: same value).
/// * **Epoch-evicting** — shards retire their oldest generation when full
///   (see [`Shard`]), so a server that sees millions of distinct covers
///   keeps a bounded, hot working set instead of freezing on the first
///   `capacity` entries.
/// * **Poison-safe** — a worker that panics while holding a shard lock (or
///   the `cache.shard` chaos point) degrades lookups to honest misses; the
///   poisoned shard's entries are discarded and the shard keeps serving.
#[derive(Debug)]
pub struct GlobalMinimizeCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard live-generation capacity; total capacity is
    /// `shards.len() * 2 * shard_capacity` (two generations).
    shard_capacity: usize,
    calls: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    poison_bypasses: AtomicU64,
}

impl Default for GlobalMinimizeCache {
    fn default() -> Self {
        GlobalMinimizeCache::new()
    }
}

/// Default shard count of a [`GlobalMinimizeCache`].
pub const DEFAULT_CACHE_SHARDS: usize = 16;

impl GlobalMinimizeCache {
    /// A fresh memo with [`DEFAULT_CACHE_CAPACITY`] total entries
    /// over [`DEFAULT_CACHE_SHARDS`] shards.
    pub fn new() -> GlobalMinimizeCache {
        GlobalMinimizeCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A fresh memo bounded to roughly `capacity` total entries
    /// (over [`DEFAULT_CACHE_SHARDS`] shards).
    pub fn with_capacity(capacity: usize) -> GlobalMinimizeCache {
        GlobalMinimizeCache::with_capacity_and_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// A fresh memo bounded to roughly `capacity` total entries
    /// distributed over `shards` lock-striped shards (both clamped to at
    /// least 1; capacities below `2 * shards` round up so every shard can
    /// hold at least one entry per generation).
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> GlobalMinimizeCache {
        let shards = shards.max(1);
        // Two generations per shard share the budget.
        let shard_capacity = capacity.div_ceil(shards * 2).max(1);
        GlobalMinimizeCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            calls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_bypasses: AtomicU64::new(0),
        }
    }

    /// Point-in-time statistics over all shards. `hits + misses == calls`
    /// by construction (`calls` is tallied on entry, the outcome after
    /// classification) — the conservation law the soak test asserts.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0usize;
        let mut epoch_advances = 0u64;
        for shard in self.shards.iter() {
            if let Ok(s) = shard.lock() {
                epoch_advances += s.epoch;
                entries += s.live.len() + s.prev.len();
            }
        }
        CacheStats {
            calls: self.calls.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            poison_bypasses: self.poison_bypasses.load(Ordering::Relaxed),
            entries,
            epoch_advances,
            shards: self.shards.len(),
            capacity: self.shards.len() * 2 * self.shard_capacity,
        }
    }

    /// Total memoized entries over all shards.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether no entries are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// FNV-1a over the signature words picks the shard, so the full hash
    /// map (with its own hasher) never sees systematically colliding keys.
    fn shard_index(&self, key: &[u64]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in key {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Recovers a shard guard from a poisoned mutex: the panicking holder
    /// cannot have left a *logically* torn entry (entries move whole), but
    /// fail safe anyway by discarding the shard's contents — correctness
    /// never depends on what the cache remembers.
    fn shard(&self, index: usize) -> std::sync::MutexGuard<'_, Shard> {
        match self.shards[index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_bypasses.fetch_add(1, Ordering::Relaxed);
                let mut guard = poisoned.into_inner();
                *guard = Shard {
                    epoch: guard.epoch.saturating_add(1),
                    ..Shard::default()
                };
                self.shards[index].clear_poison();
                guard
            }
        }
    }

    /// Looks `key` up; a hit in the previous generation is promoted into
    /// the live one. Does not touch the hit/miss tallies — the calling
    /// [`MinimizeCache::minimized_cube_count`] owns the counter
    /// discipline.
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        let mut shard = self.shard(self.shard_index(key));
        if let Some(&n) = shard.live.get(key) {
            return Some(n);
        }
        // Promote: hot entries survive any number of epochs. The live
        // generation may momentarily exceed its budget here; the next
        // insert rebalances.
        let n = shard.prev.remove(key)?;
        shard.live.insert(key.to_vec(), n);
        Some(n)
    }

    /// Inserts `key → value`, advancing the shard's epoch (retiring the
    /// previous generation) when the live one is full.
    fn insert(&self, key: &[u64], value: usize) {
        let mut shard = self.shard(self.shard_index(key));
        if shard.live.len() >= self.shard_capacity {
            shard.epoch = shard.epoch.saturating_add(1);
            shard.prev = std::mem::take(&mut shard.live);
        }
        shard.live.insert(key.to_vec(), value);
    }
}

/// One uncached, uncounted minimization of `(on, dc)` under `engine`,
/// drawing buffers from `scratch` — the shared kernel behind the memo's
/// miss path and the one-shot [`crate::minimized_cube_count`] wrapper.
pub(crate) fn minimize_count(
    on: &Cover,
    dc: &Cover,
    engine: CoverEngine,
    scratch: &mut MinimizeScratch,
) -> usize {
    match engine {
        CoverEngine::Flat => flat_minimized_len(on, dc, scratch),
        CoverEngine::Legacy => {
            espresso_bounded(on, dc, &MinimizeOptions::default(), &Budget::unlimited())
                .0
                .len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;
    use crate::cube::Cube;
    use crate::domain::Domain;
    use crate::espresso::espresso;

    fn cover_from_codes(dom: &Domain, nv: usize, codes: &[u32]) -> Cover {
        let mut c = Cover::empty(dom);
        for &code in codes {
            let mut cube = Cube::full(dom);
            for v in 0..nv {
                cube.restrict_binary(dom, v, code >> v & 1 != 0);
            }
            c.push(cube);
        }
        c
    }

    /// A fresh view's uncached answer — the reference every memoized
    /// answer must equal.
    fn fresh(on: &Cover, dc: &Cover, engine: CoverEngine) -> usize {
        MinimizeCache::new().minimized_cube_count_uncached(on, dc, engine)
    }

    #[test]
    fn cache_returns_minimizer_result() {
        let dom = Domain::binary(3);
        let on = cover_from_codes(&dom, 3, &[0, 1, 2, 3]);
        let dc = Cover::empty(&dom);
        let expected = espresso(&on, &dc).len();
        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        for engine in [CoverEngine::Flat, CoverEngine::Legacy] {
            assert_eq!(
                cache.minimized_cube_count(&memo, &on, &dc, engine),
                expected
            );
        }
    }

    #[test]
    fn repeat_queries_hit() {
        let dom = Domain::binary(3);
        let on = cover_from_codes(&dom, 3, &[0, 5, 7]);
        let dc = cover_from_codes(&dom, 3, &[1]);
        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        let a = cache.minimized_cube_count(&memo, &on, &dc, CoverEngine::Flat);
        let b = cache.minimized_cube_count(&memo, &on, &dc, CoverEngine::Flat);
        assert_eq!(a, b);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn reordered_covers_are_keyed_apart() {
        let dom = Domain::binary(3);
        let on_a = cover_from_codes(&dom, 3, &[0, 5, 7]);
        let on_b = cover_from_codes(&dom, 3, &[7, 0, 5]);
        let dc = Cover::empty(&dom);
        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        let a = cache.minimized_cube_count(&memo, &on_a, &dc, CoverEngine::Flat);
        let b = cache.minimized_cube_count(&memo, &on_b, &dc, CoverEngine::Flat);
        // each order computes its own entry; repeating either order hits it
        assert_eq!(
            cache.minimized_cube_count(&memo, &on_a, &dc, CoverEngine::Flat),
            a
        );
        assert_eq!(
            cache.minimized_cube_count(&memo, &on_b, &dc, CoverEngine::Flat),
            b
        );
        assert_eq!(memo.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
    }

    /// Regression for the order-sensitivity bug: ESPRESSO can minimize a
    /// cover and its reversal to *different* cube counts (stable sorts,
    /// first-cube-wins expansion), so a key that unified reorderings let a
    /// hit return a count an uncached run would not. Every cached answer
    /// must equal an uncached run on the same cube sequence.
    #[test]
    fn cached_result_always_matches_uncached_for_any_order() {
        let dom = Domain::binary(3);
        let codes = [0u32, 3, 4, 6, 7];
        let mut reversed = codes;
        reversed.reverse();
        let dc = cover_from_codes(&dom, 3, &[1]);
        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        for order in [&codes[..], &reversed[..]] {
            let on = cover_from_codes(&dom, 3, order);
            for engine in [CoverEngine::Flat, CoverEngine::Legacy] {
                let fresh = fresh(&on, &dc, engine);
                // first lookup (a miss) and second lookup (a hit) must both
                // agree with the uncached run
                assert_eq!(cache.minimized_cube_count(&memo, &on, &dc, engine), fresh);
                assert_eq!(cache.minimized_cube_count(&memo, &on, &dc, engine), fresh);
            }
        }
    }

    #[test]
    fn global_cache_shares_hits_across_runs() {
        let dom = Domain::binary(3);
        let on = cover_from_codes(&dom, 3, &[0, 5, 7]);
        let dc = cover_from_codes(&dom, 3, &[1]);
        let global = GlobalMinimizeCache::new();
        let mut run_a = MinimizeCache::new();
        let mut run_b = MinimizeCache::new();
        let a = run_a.minimized_cube_count(&global, &on, &dc, CoverEngine::Flat);
        // a *different* per-run view sees the shared entry
        let b = run_b.minimized_cube_count(&global, &on, &dc, CoverEngine::Flat);
        assert_eq!(a, b);
        assert_eq!(
            a,
            fresh(&on, &dc, CoverEngine::Flat),
            "shared hits stay bit-identical to uncached"
        );
        let stats = global.stats();
        assert_eq!(stats.hits + stats.misses, 2, "conservation across shards");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(run_b.hits(), 1, "per-run tallies still meaningful");
        assert_eq!(global.len(), 1);
    }

    #[test]
    fn global_cache_epoch_eviction_keeps_hot_entries() {
        let dom = Domain::binary(4);
        let dc = Cover::empty(&dom);
        // One shard, one entry per generation: every insert past the first
        // advances the epoch, yet a promoted (hot) entry keeps hitting.
        let global = GlobalMinimizeCache::with_capacity_and_shards(2, 1);
        let mut cache = MinimizeCache::new();
        let hot = cover_from_codes(&dom, 4, &[0, 3]);
        let _ = cache.minimized_cube_count(&global, &hot, &dc, CoverEngine::Flat);
        for i in 1..8u32 {
            let cold = cover_from_codes(&dom, 4, &[i]);
            let _ = cache.minimized_cube_count(&global, &cold, &dc, CoverEngine::Flat);
            // touching the hot cover promotes it out of the retiring generation
            let _ = cache.minimized_cube_count(&global, &hot, &dc, CoverEngine::Flat);
        }
        let stats = global.stats();
        assert!(stats.epoch_advances > 0, "evictions actually happened");
        // promote-on-hit may briefly push a live generation over its budget
        // (rebalanced at the next insert), so the hard bound is 1.5x nominal
        assert!(
            stats.entries <= stats.capacity + stats.capacity / 2,
            "bounded despite churn: {} entries vs capacity {}",
            stats.entries,
            stats.capacity
        );
        assert_eq!(stats.hits, 7, "hot cover survived every epoch");
        assert_eq!(stats.hits + stats.misses, 15, "conservation holds");
    }

    #[test]
    fn global_cache_chaos_shard_poison_degrades_to_miss() {
        let dom = Domain::binary(3);
        let on = cover_from_codes(&dom, 3, &[0, 5, 7]);
        let dc = Cover::empty(&dom);
        let global = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        let clean = cache.minimized_cube_count(&global, &on, &dc, CoverEngine::Flat);
        let poisoned = {
            let _guard = chaos::arm("cache.shard", 0);
            cache.minimized_cube_count(&global, &on, &dc, CoverEngine::Flat)
        };
        assert_eq!(poisoned, clean, "poisoned shard changes work, not results");
        let stats = global.stats();
        assert_eq!(stats.poison_bypasses, 1);
        assert_eq!(
            stats.hits + stats.misses,
            2,
            "bypass still counted as a miss"
        );
        // disarmed again: the entry (inserted by the clean miss) hits
        let after = cache.minimized_cube_count(&global, &on, &dc, CoverEngine::Flat);
        assert_eq!(after, clean);
        assert_eq!(global.stats().hits, 1);
    }

    #[test]
    fn global_cache_is_usable_concurrently() {
        use std::sync::Arc;
        let dom = Domain::binary(4);
        let global = Arc::new(GlobalMinimizeCache::with_capacity_and_shards(64, 4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let global = Arc::clone(&global);
                let dom = dom.clone();
                std::thread::spawn(move || {
                    let dc = Cover::empty(&dom);
                    let mut cache = MinimizeCache::new();
                    let mut counts = Vec::new();
                    for i in 0..8u32 {
                        // every thread prices the same 8 covers
                        let on = cover_from_codes(&dom, 4, &[i, (i + t) % 8]);
                        counts.push(cache.minimized_cube_count(
                            &global,
                            &on,
                            &dc,
                            CoverEngine::Flat,
                        ));
                    }
                    counts
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.push(h.join().expect("worker thread panicked"));
        }
        // every thread's answers agree with a fresh uncached run
        for (t, counts) in all.iter().enumerate() {
            let dc = Cover::empty(&dom);
            for (i, &n) in counts.iter().enumerate() {
                let on = cover_from_codes(&dom, 4, &[i as u32, (i as u32 + t as u32) % 8]);
                assert_eq!(n, fresh(&on, &dc, CoverEngine::Flat));
            }
        }
        let stats = global.stats();
        assert_eq!(stats.hits + stats.misses, 32, "conservation across threads");
    }

    #[test]
    fn uncached_path_counts_misses() {
        let dom = Domain::binary(2);
        let on = cover_from_codes(&dom, 2, &[0, 1]);
        let dc = Cover::empty(&dom);
        let mut cache = MinimizeCache::new();
        let a = cache.minimized_cube_count_uncached(&on, &dc, CoverEngine::Flat);
        let b = cache.minimized_cube_count_uncached(&on, &dc, CoverEngine::Flat);
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }

    /// Re-interprets a cover's exact raw cube words in another domain of
    /// the same word stride — the adversarial input for key-collision tests.
    fn reinterpret(cover: &Cover, dom: &Domain) -> Cover {
        assert_eq!(cover.domain().words(), dom.words());
        Cover::from_cubes(
            dom,
            cover
                .iter()
                .map(|c| Cube::from_raw_words(c.words().to_vec())),
        )
    }

    #[test]
    fn equal_bit_width_different_part_strides_never_share_an_entry() {
        // binary(2) (parts 2+2) and multi(4) (parts 4) pack to the same
        // single word, and the on-set {00, 11} has byte-identical cube
        // words in both — but the functions differ: the binary cover stays
        // two cubes while the 4-valued literals {0,2} and {1,3} merge to
        // the universe. A key that ignored part strides would hand the
        // second domain the first domain's count.
        let d1 = Domain::binary(2);
        let on1 = cover_from_codes(&d1, 2, &[0, 3]);
        let dc1 = Cover::empty(&d1);
        let d2 = crate::domain::DomainBuilder::new().multi("s", 4).build();
        let on2 = reinterpret(&on1, &d2);
        let dc2 = Cover::empty(&d2);
        assert_eq!(
            on1.iter().next().unwrap().words(),
            on2.iter().next().unwrap().words()
        );

        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        let c1 = cache.minimized_cube_count(&memo, &on1, &dc1, CoverEngine::Flat);
        let c2 = cache.minimized_cube_count(&memo, &on2, &dc2, CoverEngine::Flat);
        assert_eq!(c1, 2, "binary cover: 00 and 11 cannot merge");
        assert_eq!(c2, 1, "4-valued cover: {{0,2}} ∪ {{1,3}} is the universe");
        assert_eq!(cache.hits(), 0, "cross-domain lookup must not hit");
        assert_eq!(cache.misses(), 2);
        let stats = memo.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "cross-domain lookup must not hit a shard"
        );
        // repeat lookups now hit, each within its own domain's entry
        assert_eq!(
            cache.minimized_cube_count(&memo, &on1, &dc1, CoverEngine::Flat),
            2
        );
        assert_eq!(
            cache.minimized_cube_count(&memo, &on2, &dc2, CoverEngine::Flat),
            1
        );
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn same_var_count_swapped_part_strides_are_keyed_apart() {
        // multi(3)+multi(5) vs multi(5)+multi(3): same word count, same
        // number of variables, same total parts — only the per-variable
        // stride differs, which is exactly what the key's parts section
        // must capture.
        let d1 = crate::domain::DomainBuilder::new()
            .multi("a", 3)
            .multi("b", 5)
            .build();
        let d2 = crate::domain::DomainBuilder::new()
            .multi("a", 5)
            .multi("b", 3)
            .build();
        let mut on1 = Cover::empty(&d1);
        for part in [0usize, 1] {
            let mut c = Cube::full(&d1);
            c.restrict(&d1, 0, part);
            on1.push(c);
        }
        let dc1 = Cover::empty(&d1);
        let on2 = reinterpret(&on1, &d2);
        let dc2 = Cover::empty(&d2);

        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        let c1 = cache.minimized_cube_count(&memo, &on1, &dc1, CoverEngine::Flat);
        let c2 = cache.minimized_cube_count(&memo, &on2, &dc2, CoverEngine::Flat);
        assert_eq!(cache.hits(), 0, "swapped strides must not share an entry");
        assert_eq!(cache.misses(), 2);
        assert_eq!(c1, fresh(&on1, &dc1, CoverEngine::Flat));
        assert_eq!(c2, fresh(&on2, &dc2, CoverEngine::Flat));
    }

    #[test]
    fn engines_agree_on_multi_word_domains() {
        // 33 binary vars: two words, handled by the flat multi-word engine
        // (no fallback — the legacy leg below is the independent oracle).
        let dom = Domain::binary(33);
        let mut on = Cover::empty(&dom);
        let mut c0 = Cube::full(&dom);
        c0.restrict_binary(&dom, 0, false);
        let mut c1 = Cube::full(&dom);
        c1.restrict_binary(&dom, 0, true);
        on.push(c0);
        on.push(c1);
        let dc = Cover::empty(&dom);
        let memo = GlobalMinimizeCache::new();
        let mut cache = MinimizeCache::new();
        let f = cache.minimized_cube_count(&memo, &on, &dc, CoverEngine::Flat);
        let l = cache.minimized_cube_count(&memo, &on, &dc, CoverEngine::Legacy);
        assert_eq!(f, l);
        assert_eq!(f, 1);
    }
}

//! Bounded, deterministic FIFO caches for request results.
//!
//! `predict` is a pure function of `(workload, platform, layout, model)`
//! — the simulation is deterministic and the fitted coefficients are
//! immutable once the registry entry exists — so repeat queries for the
//! same layout can skip the partial simulation entirely. The same holds
//! for `recommend` over `(workload, platform, budget, threshold)`. Both
//! caches are instances of one generic [`FifoCache`], keyed on
//! *canonical* request descriptions (e.g.
//! [`vmcore::MemoryLayout::describe`]), so spellings that name the same
//! request (`2m:0..64M`, `2mb:0..65536K`) share one entry.
//!
//! Determinism invariants (the hashed maps are banned by clippy's
//! `disallowed-types` table in `crates/clippy.toml`): the map is a
//! `BTreeMap` and eviction is strict FIFO through a `VecDeque`, so the
//! cache's contents and eviction order are a pure function of the
//! request sequence — never of a per-process hasher seed. Hits return a
//! clone of the stored value, which is bit-identical to the uncached
//! answer (same `f64` bits, same rendered bytes).
//!
//! The prediction cache is additionally *sharded* per
//! `(workload, platform)` ([`ShardedPredictionCache`]): mixed-pair
//! traffic contends on one of [`CACHE_SHARDS`] independent locks
//! instead of a single global one. Shard selection is FNV-1a over the
//! pair strings ([`pair_shard`]) — a pure function of the request, so
//! sharding cannot perturb determinism: one pair always lives in one
//! shard, and eviction within a shard stays strict FIFO.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mosmodel::ModelKind;
use vmcore::MemoryLayout;

use crate::protocol::Prediction;

/// Prediction cache key:
/// `(workload, platform, canonical layout, model wire name)`.
pub type PredictionKey = (String, String, String, &'static str);

/// Builds the canonical cache key for one prediction request. The
/// layout component comes from the *parsed* layout, not the raw spec
/// text, so equivalent spellings coalesce.
pub fn prediction_key(
    workload: &str,
    platform: &str,
    layout: &MemoryLayout,
    model: ModelKind,
) -> PredictionKey {
    (
        workload.to_string(),
        platform.to_string(),
        layout.describe(),
        model.name(),
    )
}

/// Counts of how cache lookups were satisfied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache (no simulation run).
    pub hits: u64,
    /// Lookups that had to compute the result.
    pub misses: u64,
}

/// The FIFO map: insertion order doubles as eviction order.
#[derive(Debug)]
struct Inner<K, V> {
    map: BTreeMap<K, V>,
    order: VecDeque<K>,
}

impl<K, V> Default for Inner<K, V> {
    fn default() -> Self {
        Inner {
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }
}

/// A bounded FIFO cache of complete request results.
#[derive(Debug)]
pub struct FifoCache<K, V> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The predict verb's cache of complete [`Prediction`]s (one shard).
pub type PredictionCache = FifoCache<PredictionKey, Prediction>;

/// Number of independent `(workload, platform)` shards in the
/// prediction cache and the registry read path. Eight is enough that
/// mixed-pair traffic rarely collides, while per-shard gauges stay
/// readable in the Prometheus exposition.
pub const CACHE_SHARDS: usize = 8;

/// Deterministic shard selector: FNV-1a over the workload bytes, a
/// separator, and the platform bytes, reduced mod `shards`. A pure
/// function of the pair, so every process routes a pair to the same
/// shard.
pub fn pair_shard(workload: &str, platform: &str, shards: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in workload.bytes().chain([0xff]).chain(platform.bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    if shards == 0 {
        0
    } else {
        (hash % shards as u64) as usize
    }
}

/// The prediction cache, split into [`CACHE_SHARDS`] independent FIFO
/// shards keyed by [`pair_shard`]. The external contract is unchanged
/// from the single [`PredictionCache`]: hits are bit-identical clones,
/// counters sum across shards, and a capacity of 0 disables caching.
/// Total capacity is distributed evenly (rounded up), so a sharded
/// cache never holds fewer entries than its nominal capacity.
#[derive(Debug)]
pub struct ShardedPredictionCache {
    shards: Vec<PredictionCache>,
}

impl ShardedPredictionCache {
    /// Creates a sharded cache holding at least `capacity` values in
    /// total; `capacity == 0` disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(CACHE_SHARDS).max(1)
        };
        ShardedPredictionCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| FifoCache::new(per_shard))
                .collect(),
        }
    }

    fn shard(&self, key: &PredictionKey) -> Option<&PredictionCache> {
        self.shards
            .get(pair_shard(&key.0, &key.1, self.shards.len()))
    }

    /// Looks up a value in the key's shard; counts a hit or a miss.
    pub fn get(&self, key: &PredictionKey) -> Option<Prediction> {
        self.shard(key).and_then(|s| s.get(key))
    }

    /// Stores a value in the key's shard (FIFO eviction within it).
    pub fn insert(&self, key: PredictionKey, value: Prediction) {
        if let Some(shard) = self.shard(&key) {
            shard.insert(key, value);
        }
    }

    /// Entries currently cached, summed across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FifoCache::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FifoCache::is_empty)
    }

    /// Lookup counters summed across shards.
    pub fn counters(&self) -> CacheCounters {
        let mut sum = CacheCounters::default();
        for c in self.shards.iter().map(FifoCache::counters) {
            sum.hits = sum.hits.saturating_add(c.hits);
            sum.misses = sum.misses.saturating_add(c.misses);
        }
        sum
    }

    /// Per-shard occupancy, in shard-index order — the
    /// `mosaicd_prediction_cache_shard_len` gauge series.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(FifoCache::len).collect()
    }
}

impl<K: Ord + Clone, V: Clone> FifoCache<K, V> {
    /// Creates a cache holding at most `capacity` values;
    /// `capacity == 0` disables caching (every lookup is a miss).
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the map, recovering from poisoning: the map holds owned
    /// values with no cross-entry invariants, so a panicked writer
    /// cannot leave it in a state a reader must not see.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a value; counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = if self.capacity == 0 {
            None
        } else {
            self.lock().map.get(key).cloned()
        };
        match found {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a value, evicting the oldest entries (FIFO) beyond the
    /// capacity. Re-inserting an existing key overwrites the value
    /// without changing its eviction position — two workers racing on
    /// the same key store the same deterministic result anyway.
    pub fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.map.insert(key.clone(), value).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup-counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> PredictionKey {
        (
            "w".to_string(),
            "p".to_string(),
            format!("layout-{n}"),
            "mosmodel",
        )
    }

    fn prediction(n: u64) -> Prediction {
        Prediction {
            runtime_cycles: n,
            stlb_hits: 1,
            stlb_misses: 2,
            walk_cycles: 3,
            model: ModelKind::Mosmodel,
            predicted: n as f64 + 0.5,
            max_err: 0.1,
            geo_mean_err: 0.05,
        }
    }

    #[test]
    fn hits_return_bit_identical_clones() {
        let cache = PredictionCache::new(4);
        let k = key(1);
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), prediction(7));
        let hit = cache.get(&k).unwrap();
        assert_eq!(hit, prediction(7));
        assert_eq!(hit.predicted.to_bits(), prediction(7).predicted.to_bits());
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
    }

    #[test]
    fn eviction_is_fifo() {
        let cache = PredictionCache::new(2);
        cache.insert(key(1), prediction(1));
        cache.insert(key(2), prediction(2));
        // Re-inserting key 1 must not refresh its eviction position.
        cache.insert(key(1), prediction(1));
        cache.insert(key(3), prediction(3)); // evicts key 1 (oldest)
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&key(2)), Some(prediction(2)));
        assert_eq!(cache.get(&key(3)), Some(prediction(3)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PredictionCache::new(0);
        cache.insert(key(1), prediction(1));
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 1 });
    }

    #[test]
    fn generic_instances_share_the_machinery() {
        // The recommendation cache is another instantiation of the same
        // FIFO map; string keys and values exercise the generic path.
        let cache: FifoCache<(String, u64), String> = FifoCache::new(2);
        cache.insert(("w".into(), 1), "a".into());
        cache.insert(("w".into(), 2), "b".into());
        cache.insert(("w".into(), 3), "c".into()); // evicts ("w", 1)
        assert_eq!(cache.get(&("w".into(), 1)), None);
        assert_eq!(cache.get(&("w".into(), 3)), Some("c".into()));
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
    }

    #[test]
    fn shard_selection_is_deterministic_and_in_range() {
        for shards in [1, 2, 8, 13] {
            for (w, p) in [("gups/8GB", "sandybridge"), ("mcf", "broadwell")] {
                let s = pair_shard(w, p, shards);
                assert!(s < shards);
                assert_eq!(s, pair_shard(w, p, shards), "selector must be pure");
            }
        }
        // The separator keeps ("ab", "c") and ("a", "bc") distinct
        // inputs (they may still collide mod shards, but the hashes
        // must differ).
        assert_eq!(pair_shard("x", "y", 0), 0, "0 shards degrades to 0");
    }

    #[test]
    fn sharded_cache_sums_counters_and_lens_across_shards() {
        let cache = ShardedPredictionCache::new(16);
        // Distinct pairs land in (usually) distinct shards; the
        // aggregate view must not care either way.
        let pairs = [
            ("gups/8GB", "sandybridge"),
            ("mcf", "broadwell"),
            ("a", "b"),
        ];
        for (i, (w, p)) in pairs.iter().enumerate() {
            let k = (w.to_string(), p.to_string(), "4k".to_string(), "mosmodel");
            assert_eq!(cache.get(&k), None);
            cache.insert(k.clone(), prediction(i as u64));
            assert_eq!(cache.get(&k), Some(prediction(i as u64)));
        }
        assert_eq!(cache.len(), pairs.len());
        assert!(!cache.is_empty());
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: pairs.len() as u64,
                misses: pairs.len() as u64
            }
        );
        let lens = cache.shard_lens();
        assert_eq!(lens.len(), CACHE_SHARDS);
        assert_eq!(lens.iter().sum::<usize>(), pairs.len());
    }

    #[test]
    fn sharded_zero_capacity_disables_caching() {
        let cache = ShardedPredictionCache::new(0);
        cache.insert(key(1), prediction(1));
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.shard_lens().iter().sum::<usize>(), 0);
    }

    #[test]
    fn equivalent_spec_spellings_share_one_key() {
        use vmcore::{Region, VirtAddr};
        let pool = Region::new(VirtAddr::new(0x2000_0000_0000), 1 << 30);
        let a = layouts::parse_spec(pool, "2m:0..64M").unwrap();
        let b = layouts::parse_spec(pool, "2mb:0..65536K").unwrap();
        assert_eq!(
            prediction_key("w", "p", &a, ModelKind::Mosmodel),
            prediction_key("w", "p", &b, ModelKind::Mosmodel),
        );
        let c = layouts::parse_spec(pool, "2m:0..32M").unwrap();
        assert_ne!(
            prediction_key("w", "p", &a, ModelKind::Mosmodel),
            prediction_key("w", "p", &c, ModelKind::Mosmodel),
        );
    }
}

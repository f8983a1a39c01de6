//! Generation-tagged GFU header cache.
//!
//! Planning a query reads the same GFU values over and over: dashboards
//! re-issue the same aggregation every few seconds, and the inner region
//! of a stable grid never changes between appends. This cache keeps
//! decoded [`GfuValue`]s (headers *and* slice locations) in memory,
//! keyed by the encoded [`GfuKey`](crate::gfu::GfuKey) **qualified by
//! the index generation** the value was read at — the generation of the
//! [`ReadView`](crate::view::ReadView) a plan pinned. Entries of
//! different generations coexist: a reader pinned to an older view keeps
//! hitting its own entries while a commit is publishing the next
//! generation, and superseded entries simply age out of the LRU. An
//! entry can therefore never be served to a view it does not belong to,
//! with no invalidation coordination at commit time at all.
//!
//! The cache also stores **negative entries** (`None`) for cells the
//! planner proved absent by scanning their key run. Without them a
//! repeated query could never tell "absent" from "evicted" and would
//! have to re-scan; with them, a repeated identical query is answered
//! entirely from memory with zero key-value traffic.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dgf_common::counter_block;
use dgf_common::obs::names;

use crate::gfu::GfuValue;

/// Default total entry capacity of a [`GfuHeaderCache`].
pub const DEFAULT_HEADER_CACHE_CAPACITY: usize = 1 << 16;

const SHARDS: usize = 8;

/// A cached lookup result: `Some(v)` for a present GFU, `None` for a
/// cell proven absent at this generation.
pub type CachedGfu = Option<Arc<GfuValue>>;

counter_block! {
    /// Probe counters of a [`GfuHeaderCache`]; [`CacheStats`] is their
    /// cumulative snapshot.
    pub struct CacheCounters, snapshot CacheStats {
        /// Probes answered from the cache (including negative entries).
        hits: names::CACHE_HEADER_HITS,
        /// Probes that found no entry for the probed generation.
        misses: names::CACHE_HEADER_MISSES,
    }
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `0` when no probes happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The stored key: big-endian generation, then the raw GFU key, so
/// entries of one generation cluster and can never alias another's.
fn tag(generation: u64, key: &[u8]) -> Vec<u8> {
    let mut t = Vec::with_capacity(8 + key.len());
    t.extend_from_slice(&generation.to_be_bytes());
    t.extend_from_slice(key);
    t
}

struct Shard {
    /// LRU clock, incremented per touch.
    stamp: u64,
    entries: HashMap<Vec<u8>, (CachedGfu, u64)>,
    /// stamp → tagged key, for O(log n) eviction of the coldest entry.
    lru: BTreeMap<u64, Vec<u8>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            stamp: 0,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
        }
    }

    fn touch(&mut self, tagged: &[u8]) {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some((_, old)) = self.entries.get_mut(tagged) {
            self.lru.remove(old);
            *old = stamp;
            self.lru.insert(stamp, tagged.to_vec());
        }
    }
}

/// Sharded LRU cache of decoded GFU values, keyed by `(generation, key)`.
///
/// Thread-safe behind `&self`; locks are per-shard so concurrent plans
/// probing different keys rarely contend. Shard selection hashes the
/// *raw* key only, so the same cell lands in the same shard at every
/// generation and stale generations drain evenly.
pub struct GfuHeaderCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    probes: CacheCounters,
    /// Highest generation floor passed to [`retire_below`]
    /// (Self::retire_below): lets repeated calls at the same floor skip
    /// the shard sweep entirely.
    floor: AtomicU64,
}

impl GfuHeaderCache {
    /// A cache holding up to `capacity` entries across all shards.
    pub fn new(capacity: usize) -> GfuHeaderCache {
        GfuHeaderCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            probes: CacheCounters::default(),
            floor: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        let h = dgf_common::codec::fnv1a(key) as usize;
        &self.shards[h % SHARDS]
    }

    /// Probe for `key` at `generation`. `Some(cached)` is a hit — where
    /// `cached` itself may be a negative entry; `None` is a miss. Counts
    /// toward [`stats`](Self::stats) and refreshes the entry's LRU
    /// position.
    pub fn get(&self, generation: u64, key: &[u8]) -> Option<CachedGfu> {
        let tagged = tag(generation, key);
        let mut shard = self.shard(key).lock();
        match shard.entries.get(&tagged) {
            Some((value, _)) => {
                let value = value.clone();
                shard.touch(&tagged);
                self.probes.hits.inc();
                Some(value)
            }
            None => {
                self.probes.misses.inc();
                None
            }
        }
    }

    /// Store `value` for `key` at `generation`, evicting the coldest
    /// entry of the shard when full. Does not count as a hit or miss.
    /// Fills below the [`retire_below`](Self::retire_below) floor are
    /// dropped — a plan pinned to a superseded view racing a retirement
    /// must not resurrect dead generations.
    pub fn insert(&self, generation: u64, key: Vec<u8>, value: CachedGfu) {
        if generation < self.floor.load(Ordering::Acquire) {
            return;
        }
        let mut shard = self.shard(&key).lock();
        let tagged = tag(generation, &key);
        shard.stamp += 1;
        let stamp = shard.stamp;
        if let Some((_, old)) = shard.entries.get(&tagged) {
            let old = *old;
            shard.lru.remove(&old);
        } else if shard.entries.len() >= self.per_shard_capacity {
            if let Some((_, coldest)) = shard.lru.pop_first() {
                shard.entries.remove(&coldest);
            }
        }
        shard.lru.insert(stamp, tagged.clone());
        shard.entries.insert(tagged, (value, stamp));
    }

    /// Drop every entry whose generation is below `generation`.
    ///
    /// Called when the planner observes a committed view: all entries of
    /// superseded generations are dead weight (no future plan will pin a
    /// view that old), and on a long-running server they would otherwise
    /// crowd out live entries until LRU pressure happened to evict them.
    /// Entries *at* `generation` (and pending ones above it) survive.
    /// Idempotent and monotonic: a floor at or below a previous call is
    /// a no-op.
    pub fn retire_below(&self, generation: u64) {
        let prev = self.floor.fetch_max(generation, Ordering::AcqRel);
        if prev >= generation {
            return;
        }
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dead: Vec<(Vec<u8>, u64)> = shard
                .entries
                .iter()
                .filter(|(tagged, _)| {
                    tagged
                        .first_chunk::<8>()
                        .is_some_and(|g| u64::from_be_bytes(*g) < generation)
                })
                .map(|(tagged, (_, stamp))| (tagged.clone(), *stamp))
                .collect();
            for (tagged, stamp) in dead {
                shard.entries.remove(&tagged);
                shard.lru.remove(&stamp);
            }
        }
    }

    /// The distinct generations with at least one live entry, sorted.
    /// Test/diagnostic helper for cache-occupancy assertions.
    pub fn live_generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .entries
                    .keys()
                    .filter_map(|tagged| tagged.first_chunk::<8>().map(|g| u64::from_be_bytes(*g)))
                    .collect::<Vec<u64>>()
            })
            .collect();
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Cumulative probe counters.
    pub fn stats(&self) -> CacheStats {
        self.probes.snapshot()
    }

    /// Number of live entries (all generations, all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for GfuHeaderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("GfuHeaderCache")
            .field("entries", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(n: u64) -> CachedGfu {
        Some(Arc::new(GfuValue {
            header: vec![n as u8],
            slices: vec![],
            record_count: n,
        }))
    }

    #[test]
    fn insert_then_get_hits() {
        let cache = GfuHeaderCache::new(16);
        assert!(cache.get(0, b"k1").is_none());
        cache.insert(0, b"k1".to_vec(), value(7));
        let got = cache.get(0, b"k1").expect("hit");
        assert_eq!(got.unwrap().record_count, 7);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn negative_entries_are_hits() {
        let cache = GfuHeaderCache::new(16);
        cache.insert(0, b"absent".to_vec(), None);
        assert_eq!(cache.get(0, b"absent"), Some(None));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn generations_are_isolated() {
        let cache = GfuHeaderCache::new(16);
        cache.insert(3, b"k".to_vec(), value(1));
        assert!(cache.get(3, b"k").is_some());
        // The next generation sees nothing until its own fill lands…
        assert!(cache.get(4, b"k").is_none());
        cache.insert(4, b"k".to_vec(), value(2));
        // …and a reader still pinned to the old view keeps its entry.
        assert_eq!(cache.get(3, b"k").unwrap().unwrap().record_count, 1);
        assert_eq!(cache.get(4, b"k").unwrap().unwrap().record_count, 2);
    }

    #[test]
    fn lru_evicts_coldest() {
        // Single-entry shards: every insert into an occupied shard evicts.
        let cache = GfuHeaderCache::new(1);
        // Find two keys in the same shard by brute force.
        let base = b"a".to_vec();
        let mut other = None;
        for i in 0u32..1000 {
            let k = format!("probe-{i}").into_bytes();
            if std::ptr::eq(cache.shard(&k), cache.shard(&base)) {
                other = Some(k);
                break;
            }
        }
        let other = other.expect("some key shares a shard");
        cache.insert(0, base.clone(), value(1));
        cache.insert(0, other.clone(), value(2));
        assert!(cache.get(0, &base).is_none(), "coldest entry evicted");
        assert!(cache.get(0, &other).is_some());
    }

    #[test]
    fn touch_refreshes_lru_position() {
        let cache = GfuHeaderCache::new(1);
        let a = b"a".to_vec();
        let mut same_shard = Vec::new();
        for i in 0u32..2000 {
            let k = format!("probe-{i}").into_bytes();
            if std::ptr::eq(cache.shard(&k), cache.shard(&a)) {
                same_shard.push(k);
                if same_shard.len() == 2 {
                    break;
                }
            }
        }
        let [b, c] = <[Vec<u8>; 2]>::try_from(same_shard).expect("two keys share a shard");
        cache.insert(0, a.clone(), value(1));
        cache.insert(0, b.clone(), value(2)); // evicts a
        cache.get(0, &b); // touch b
        cache.insert(0, c.clone(), value(3)); // must evict... b is the only entry
        assert!(cache.get(0, &c).is_some());
    }

    #[test]
    fn stale_generations_age_out_under_pressure() {
        // One-entry shards again: a new generation's fill for the same
        // key evicts the old generation's entry rather than growing.
        let cache = GfuHeaderCache::new(1);
        cache.insert(1, b"k".to_vec(), value(1));
        cache.insert(2, b"k".to_vec(), value(2));
        assert!(cache.get(1, b"k").is_none(), "old generation evicted");
        assert_eq!(cache.get(2, b"k").unwrap().unwrap().record_count, 2);
    }

    #[test]
    fn retire_below_drops_only_dead_generations() {
        let cache = GfuHeaderCache::new(64);
        for generation in 1..=4u64 {
            for k in 0..5u32 {
                cache.insert(generation, k.to_be_bytes().to_vec(), value(generation));
            }
        }
        assert_eq!(cache.live_generations(), vec![1, 2, 3, 4]);
        cache.retire_below(3);
        assert_eq!(cache.live_generations(), vec![3, 4]);
        // Survivors still hit; retired generations are true misses.
        assert!(cache.get(3, &0u32.to_be_bytes()).is_some());
        assert!(cache.get(2, &0u32.to_be_bytes()).is_none());
        // Monotonic: a lower floor is a no-op.
        cache.retire_below(1);
        assert_eq!(cache.live_generations(), vec![3, 4]);
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = GfuHeaderCache::new(32);
        for i in 0..10_000u32 {
            cache.insert(0, i.to_be_bytes().to_vec(), value(i as u64));
        }
        assert!(cache.len() <= 32usize.div_ceil(SHARDS).max(1) * SHARDS);
    }
}

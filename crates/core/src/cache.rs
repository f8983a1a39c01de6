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
//! The cache also stores **negative entries** (`None`) for keys the
//! planner's batched read proved absent. Without them a repeated query
//! could never tell "absent" from "evicted" and would have to read them
//! again; with them, a repeated identical query is answered
//! entirely from memory, and the planner then re-reads no view either
//! (`DESIGN.md` §11): its one key-value read is the pin.
//!
//! A warm plan probes thousands of keys, so a probe must cost little
//! beside the header it returns. Keys hash with [`WordHasher`], eight
//! bytes a step — the keys are the planner's own fixed-width `g:`/`p:`
//! encodings, never client input, so a keyed hash buys nothing — and
//! the shard a key lives in comes from the same hash. A batch
//! ([`get_many`](GfuHeaderCache::get_many)) finds each key's shard once,
//! groups the keys by shard in one pass and takes each shard's lock once.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dgf_common::codec::WordHasher;
use dgf_common::counter_block;
use dgf_common::obs::names;

use crate::gfu::GfuValue;

/// Default total entry capacity of a [`GfuHeaderCache`].
pub const DEFAULT_HEADER_CACHE_CAPACITY: usize = 1 << 16;

const SHARDS: usize = 8;

/// One generation's entries of a shard, by raw key.
type KeyMap = HashMap<Vec<u8>, Entry, BuildHasherDefault<WordHasher>>;

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
        /// Entries evicted to make room for a fill: steadily non-zero
        /// when the grid's working set outgrows the cache.
        evictions: names::CACHE_HEADER_EVICTIONS,
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

struct Entry {
    value: CachedGfu,
    /// LRU stamp of the entry's last touch.
    stamp: u64,
}

/// One LRU shard. Entries are filed by generation, then raw key, so a
/// probe borrows both halves of its `(generation, key)` tag and
/// allocates nothing; only a handful of generations are ever live, so
/// they sit in a short list.
///
/// Eviction order is a lazy min-heap with exactly one
/// `(stamp, generation, key)` record per entry. A hit rewrites only the
/// entry's stamp, so a record may lag behind its entry; eviction pops
/// the smallest record and, when it lags, re-queues it at the entry's
/// stamp instead of evicting. Every record is at most its entry's
/// stamp, so the record popped with a current stamp is the shard's
/// least recently touched entry: the policy is exact LRU.
struct Shard {
    /// LRU clock, incremented per touch.
    clock: u64,
    generations: Vec<(u64, KeyMap)>,
    queue: BinaryHeap<Reverse<(u64, u64, Vec<u8>)>>,
    len: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            clock: 0,
            generations: Vec::new(),
            queue: BinaryHeap::new(),
            len: 0,
        }
    }

    fn entry(&mut self, generation: u64, key: &[u8]) -> Option<&mut Entry> {
        let (_, entries) = self.generations.iter_mut().find(|(g, _)| *g == generation)?;
        entries.get_mut(key)
    }

    /// Probe one tag; a hit refreshes the entry's stamp.
    fn probe(&mut self, generation: u64, key: &[u8]) -> Option<CachedGfu> {
        let stamp = self.clock + 1;
        let entry = self.entry(generation, key)?;
        entry.stamp = stamp;
        let value = entry.value.clone();
        self.clock = stamp;
        Some(value)
    }

    /// Store a tag's value; `true` when a full shard evicted for it.
    fn insert(&mut self, generation: u64, key: Vec<u8>, value: CachedGfu, capacity: usize) -> bool {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(entry) = self.entry(generation, &key) {
            *entry = Entry { value, stamp };
            return false;
        }
        let evicted = self.len >= capacity && self.evict_coldest();
        let entries = match self.generations.iter().position(|(g, _)| *g == generation) {
            Some(i) => &mut self.generations[i].1,
            None => {
                self.generations.push((generation, KeyMap::default()));
                &mut self.generations.last_mut().expect("just pushed").1
            }
        };
        entries.insert(key.clone(), Entry { value, stamp });
        self.queue.push(Reverse((stamp, generation, key)));
        self.len += 1;
        evicted
    }

    fn evict_coldest(&mut self) -> bool {
        while let Some(Reverse((stamp, generation, key))) = self.queue.pop() {
            let Some(i) = self.generations.iter().position(|(g, _)| *g == generation) else {
                continue;
            };
            let entries = &mut self.generations[i].1;
            let Some(current) = entries.get(&key).map(|e| e.stamp) else {
                continue;
            };
            if current != stamp {
                self.queue.push(Reverse((current, generation, key)));
                continue;
            }
            entries.remove(&key);
            if entries.is_empty() {
                self.generations.swap_remove(i);
            }
            self.len -= 1;
            return true;
        }
        false
    }

    /// Drop every generation below `floor`, and their queue records.
    fn retire_below(&mut self, floor: u64) {
        if self.generations.iter().all(|(g, _)| *g >= floor) {
            return;
        }
        self.generations.retain(|(g, _)| *g >= floor);
        self.len = self.generations.iter().map(|(_, e)| e.len()).sum();
        self.queue.retain(|Reverse((_, g, _))| *g >= floor);
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

    /// The shard of `key`: bits of the very hash its shard's map files
    /// it under, taken above the low bits that pick a slot in the map and
    /// below the top bits that tag one, so a shard's keys still spread
    /// over its whole table.
    fn shard_index(key: &[u8]) -> usize {
        (BuildHasherDefault::<WordHasher>::default().hash_one(key) >> 32) as usize % SHARDS
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    /// Probe for `key` at `generation`. `Some(cached)` is a hit — where
    /// `cached` itself may be a negative entry; `None` is a miss. Counts
    /// toward [`stats`](Self::stats) and refreshes the entry's LRU
    /// position.
    pub fn get(&self, generation: u64, key: &[u8]) -> Option<CachedGfu> {
        let probe = self.shard(key).lock().probe(generation, key);
        match probe {
            Some(_) => self.probes.hits.inc(),
            None => self.probes.misses.inc(),
        }
        probe
    }

    /// [`get`](Self::get) for every key of `keys` at `generation`, one
    /// result per key in `keys` order. The keys are grouped by shard in
    /// one pass (a stable counting sort, so each shard's keys keep their
    /// `keys` order); each shard is then locked once and probed in that
    /// order, and the counters move once per batch, so stamps and later
    /// evictions are exactly those of the same `get`s made one at a time.
    pub fn get_many<'k, I>(&self, generation: u64, keys: I) -> Vec<Option<CachedGfu>>
    where
        I: IntoIterator<Item = &'k [u8]>,
    {
        let keys: Vec<&[u8]> = keys.into_iter().collect();
        let shard_of: Vec<u8> = keys.iter().map(|k| Self::shard_index(k) as u8).collect();
        // `starts[s]..starts[s + 1]` is shard `s`'s stretch of `order`.
        let mut starts = [0usize; SHARDS + 1];
        for s in &shard_of {
            starts[*s as usize + 1] += 1;
        }
        for s in 0..SHARDS {
            starts[s + 1] += starts[s];
        }
        let mut order = vec![0usize; keys.len()];
        let mut next = starts;
        for (i, s) in shard_of.iter().enumerate() {
            order[next[*s as usize]] = i;
            next[*s as usize] += 1;
        }
        let mut out = vec![None; keys.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            let mine = &order[starts[s]..starts[s + 1]];
            if mine.is_empty() {
                continue;
            }
            let mut shard = shard.lock();
            for i in mine {
                out[*i] = shard.probe(generation, keys[*i]);
            }
        }
        let hits = out.iter().filter(|p| p.is_some()).count() as u64;
        self.probes.hits.add(hits);
        self.probes.misses.add(out.len() as u64 - hits);
        out
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
        let evicted = self
            .shard(&key)
            .lock()
            .insert(generation, key, value, self.per_shard_capacity);
        if evicted {
            self.probes.evictions.inc();
        }
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
            shard.lock().retire_below(generation);
        }
    }

    /// The distinct generations with at least one live entry, sorted.
    /// Test/diagnostic helper for cache-occupancy assertions.
    pub fn live_generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().generations.iter().map(|(g, _)| *g).collect::<Vec<u64>>())
            .collect();
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Cumulative probe and eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.probes.snapshot()
    }

    /// Number of live entries (all generations, all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
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
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
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

    /// The LRU policy written the slow way, as the cache once was: per
    /// shard, a stamp per touch and a `BTreeMap` from stamp to tag.
    struct Model {
        shards: Vec<ModelShard>,
        per_shard_capacity: usize,
        floor: u64,
        stats: CacheStats,
    }

    #[derive(Default)]
    struct ModelShard {
        stamp: u64,
        entries: HashMap<(u64, Vec<u8>), (CachedGfu, u64)>,
        lru: std::collections::BTreeMap<u64, (u64, Vec<u8>)>,
    }

    impl Model {
        fn new(capacity: usize) -> Model {
            Model {
                shards: (0..SHARDS).map(|_| ModelShard::default()).collect(),
                per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
                floor: 0,
                stats: CacheStats::default(),
            }
        }

        fn get(&mut self, generation: u64, key: &[u8]) -> Option<CachedGfu> {
            let shard = &mut self.shards[GfuHeaderCache::shard_index(key)];
            let tag = (generation, key.to_vec());
            let Some((value, old)) = shard.entries.get_mut(&tag) else {
                self.stats.misses += 1;
                return None;
            };
            shard.stamp += 1;
            shard.lru.remove(old);
            *old = shard.stamp;
            let value = value.clone();
            shard.lru.insert(shard.stamp, tag);
            self.stats.hits += 1;
            Some(value)
        }

        fn insert(&mut self, generation: u64, key: Vec<u8>, value: CachedGfu) {
            if generation < self.floor {
                return;
            }
            let shard = &mut self.shards[GfuHeaderCache::shard_index(&key)];
            let tag = (generation, key);
            shard.stamp += 1;
            if let Some((_, old)) = shard.entries.get(&tag) {
                let old = *old;
                shard.lru.remove(&old);
            } else if shard.entries.len() >= self.per_shard_capacity {
                if let Some((_, coldest)) = shard.lru.pop_first() {
                    shard.entries.remove(&coldest);
                    self.stats.evictions += 1;
                }
            }
            shard.lru.insert(shard.stamp, tag.clone());
            shard.entries.insert(tag, (value, shard.stamp));
        }

        fn retire_below(&mut self, generation: u64) {
            self.floor = self.floor.max(generation);
            for shard in &mut self.shards {
                shard.entries.retain(|(g, _), _| *g >= generation);
                shard.lru.retain(|_, (g, _)| *g >= generation);
            }
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.entries.len()).sum()
        }

        fn live_generations(&self) -> Vec<u64> {
            let gens: std::collections::BTreeSet<u64> =
                self.shards.iter().flat_map(|s| s.entries.keys().map(|(g, _)| *g)).collect();
            gens.into_iter().collect()
        }
    }

    /// What a probe returned, comparable across the cache and the model.
    fn seen(probe: &Option<CachedGfu>) -> Option<Option<u64>> {
        probe.as_ref().map(|v| v.as_ref().map(|v| v.record_count))
    }

    #[test]
    fn policy_matches_the_stamp_and_btree_model() {
        use rand::{Rng, SeedableRng};
        for seed in 0..128u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let capacity = rng.random_range(1..=64usize);
            let cache = GfuHeaderCache::new(capacity);
            let mut model = Model::new(capacity);
            // Half again as many keys as the cache holds, and few
            // generations: probes hit often, shards fill, evictions choose
            // among recently touched entries and retirements find work.
            let alphabet = capacity as u32 * 3 / 2 + 2;
            let key = |rng: &mut rand::rngs::StdRng| {
                let k = rng.random_range(0..alphabet);
                k.to_be_bytes()[..rng.random_range(3..=4usize)].to_vec()
            };
            let mut fills = 0u64;
            for step in 0..600 {
                let generation = model.floor.saturating_sub(1) + rng.random_range(0..3u64);
                let ctx = format!("seed {seed}, capacity {capacity}, step {step}");
                match rng.random_range(0..10u32) {
                    0..=2 => {
                        let k = key(&mut rng);
                        let got = cache.get(generation, &k);
                        assert_eq!(seen(&got), seen(&model.get(generation, &k)), "{ctx}: get");
                    }
                    3..=4 => {
                        let keys: Vec<Vec<u8>> =
                            (0..rng.random_range(0..24usize)).map(|_| key(&mut rng)).collect();
                        let got = cache.get_many(generation, keys.iter().map(Vec::as_slice));
                        assert_eq!(got.len(), keys.len());
                        for (k, g) in keys.iter().zip(&got) {
                            assert_eq!(seen(g), seen(&model.get(generation, k)), "{ctx}: get_many");
                        }
                    }
                    5..=8 => {
                        let k = key(&mut rng);
                        fills += 1;
                        let v = if rng.random_bool(0.2) { None } else { value(fills) };
                        cache.insert(generation, k.clone(), v.clone());
                        model.insert(generation, k, v);
                    }
                    _ => {
                        let floor = model.floor + rng.random_range(0..2u64);
                        cache.retire_below(floor);
                        model.retire_below(floor);
                    }
                }
                assert_eq!(cache.len(), model.len(), "{ctx}: len");
                assert_eq!(cache.stats(), model.stats, "{ctx}: stats");
                assert_eq!(cache.live_generations(), model.live_generations(), "{ctx}");
            }
        }
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

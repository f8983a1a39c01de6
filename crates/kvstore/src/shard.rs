//! A range-partitioned shard router.
//!
//! The paper spreads GFU entries across HBase region servers by key
//! range; [`ShardedKv`] reproduces that topology in-process. N inner
//! stores ("shards") each own one contiguous slice of the keyspace,
//! split on the same order-preserving GFU key encoding the planner's
//! prefix-scan runs exploit — so a run of consecutive cells stays
//! contiguous *within* a shard and a cross-shard run splits into at most
//! one sub-range per shard, never an interleaving.
//!
//! ## Snapshot atomicity
//!
//! The [`KvStore`] contract says an overridden `multi_get` must serve
//! the whole batch under one consistent view. A single shard inherits
//! that from its inner store, but a batch straddling shards could tear:
//! shard A read before a writer's pair of puts, shard B after. The
//! router closes that window with a two-sided gate: every mutation
//! routed through the router holds the gate in *shared* mode, and every
//! cross-shard batch (`multi_get` or `scan_range`) holds it in
//! *exclusive* mode for the duration of the fan-out. Writers never block
//! each other; a cross-shard batch briefly drains and excludes them,
//! which is exactly a snapshot. Single-shard batches skip the gate and
//! delegate, because the shard's own atomicity suffices. (Writes that
//! bypass the router and go straight to a shard are outside the
//! contract, just as writes bypassing a region server would be.)
//!
//! ## Accounting
//!
//! The router keeps its own [`KvStats`] with *logical* (single-node)
//! semantics: one `multi_get` however many shards it touches, one scan
//! per logical range. Per-shard physical sub-operations land in each
//! shard's own stats; [`FanoutStats`] counts the scatter itself. The
//! serving-equivalence suite asserts the router's logical counters match
//! a single-node store running the same plan exactly.
//!
//! Cross-shard fan-outs run their per-shard sub-operations concurrently,
//! the first on the calling thread and the rest on scoped threads, so a
//! latency-charging shard stack (e.g. [`LatencyKv`]
//! wrapping each shard) charges the *maximum* shard latency per batch,
//! not the sum — the fix for the router double-charging per underlying
//! op when fanned out serially.
//!
//! [`LatencyKv`]: crate::latency::LatencyKv

use std::sync::Arc;

use parking_lot::RwLock;

use dgf_common::fault::FaultPlan;
use dgf_common::obs::names;
use dgf_common::{counter_block, run_scoped, DgfError, Result};

use crate::traits::{KvPair, KvStats, KvStore};

/// One per-shard unit of work in a cross-shard fan-out: a boxed closure
/// handed to [`ShardedKv::scatter`] together with its shard index.
type ShardJob<'a, T> = Box<dyn FnOnce(&dyn KvStore) -> Result<T> + Send + 'a>;

counter_block! {
    /// Scatter-level counters for a [`ShardedKv`] (the logical op counters
    /// live in the router's [`KvStats`]). The two cross-shard counters
    /// share one registry name, which therefore holds their sum.
    pub struct FanoutStats, snapshot FanoutSnapshot {
        /// `multi_get` batches that straddled at least two shards.
        cross_shard_multi_gets: names::SERVE_SCATTERS,
        /// Range scans that straddled at least two shards.
        cross_shard_scans: names::SERVE_SCATTERS,
        /// Per-shard sub-operations issued by cross-shard fan-outs.
        shard_subops: names::SERVE_SHARD_SUBOPS,
    }
}

/// A [`KvStore`] that range-partitions the keyspace across inner shards.
pub struct ShardedKv {
    shards: Vec<Arc<dyn KvStore>>,
    /// Sorted split keys, `len() == shards.len() - 1`. Shard `i` owns
    /// `[boundaries[i-1], boundaries[i])`, with the first shard open
    /// below and the last open above.
    boundaries: Vec<Vec<u8>>,
    gate: RwLock<()>,
    stats: KvStats,
    fanout: FanoutStats,
    fault: Option<Arc<FaultPlan>>,
}

impl ShardedKv {
    /// Build a router over `shards` split at `boundaries` (must be
    /// strictly increasing, exactly one fewer than the shard count).
    pub fn new(shards: Vec<Arc<dyn KvStore>>, boundaries: Vec<Vec<u8>>) -> Result<ShardedKv> {
        if shards.is_empty() {
            return Err(DgfError::KvStore("sharded router needs >= 1 shard".into()));
        }
        if boundaries.len() + 1 != shards.len() {
            return Err(DgfError::KvStore(format!(
                "{} shards need {} boundaries, got {}",
                shards.len(),
                shards.len() - 1,
                boundaries.len()
            )));
        }
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DgfError::KvStore(
                "shard boundaries must be strictly increasing".into(),
            ));
        }
        Ok(ShardedKv {
            shards,
            boundaries,
            gate: RwLock::new(()),
            stats: KvStats::default(),
            fanout: FanoutStats::default(),
            fault: None,
        })
    }

    /// Attach a fault plan whose `sync_point`s fire around cross-shard
    /// fan-outs (`serve.router.scatter` / `.fetch` / `.merge`), so the
    /// interleaving harness can pause the router mid-scatter by seed.
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> ShardedKv {
        self.fault = Some(fault);
        self
    }

    /// The inner shards, in key order.
    pub fn shards(&self) -> &[Arc<dyn KvStore>] {
        &self.shards
    }

    /// The split keys between shards.
    pub fn boundaries(&self) -> &[Vec<u8>] {
        &self.boundaries
    }

    /// Scatter counters.
    pub fn fanout(&self) -> &FanoutStats {
        &self.fanout
    }

    /// Which shard owns `key`: the number of boundaries at or below it.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }

    fn sync(&self, site: &str) {
        if let Some(f) = &self.fault {
            f.sync_point(site);
        }
    }

    /// Clip `[start, end)` to each shard's range, returning the shards
    /// with a non-empty sub-range in key order.
    fn sub_ranges(&self, start: &[u8], end: &[u8]) -> Vec<(usize, Vec<u8>, Vec<u8>)> {
        if start >= end {
            return Vec::new();
        }
        let lo = self.shard_of(start);
        let hi = self.shard_of(end);
        (lo..=hi.min(self.shards.len() - 1))
            .filter_map(|s| {
                let s_lo = if s == 0 { &[][..] } else { &self.boundaries[s - 1] };
                let sub_start = start.max(s_lo).to_vec();
                let sub_end = match self.boundaries.get(s) {
                    Some(b) => end.min(b.as_slice()).to_vec(),
                    None => end.to_vec(),
                };
                (sub_start < sub_end).then_some((s, sub_start, sub_end))
            })
            .collect()
    }

    /// Run one closure per involved shard, the first on the calling
    /// thread and the rest on scoped threads ([`run_scoped`]), returning
    /// results in the given (key) order. Shard latency overlaps instead
    /// of accumulating, the first error in shard order wins, and a
    /// panicking job is [`DgfError::Job`].
    fn scatter<T: Send>(&self, jobs: Vec<(usize, ShardJob<'_, T>)>) -> Result<Vec<T>> {
        self.fanout.shard_subops.add(jobs.len() as u64);
        let results = run_scoped(
            "a shard fan-out job",
            jobs.into_iter().map(|(shard, job)| {
                let store = &self.shards[shard];
                move || {
                    self.sync("serve.router.fetch");
                    job(store.as_ref())
                }
            }),
        );
        self.sync("serve.router.merge");
        results?.into_iter().collect()
    }
}

impl KvStore for ShardedKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let _shared = self.gate.read();
        self.stats.on_put((key.len() + value.len()) as u64);
        self.shards[self.shard_of(key)].put(key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let got = self.shards[self.shard_of(key)].get(key)?;
        self.stats.on_get(got.as_ref().map_or(0, |v| v.len() as u64));
        Ok(got)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        let _shared = self.gate.read();
        self.shards[self.shard_of(key)].delete(key)
    }

    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        let ranges = self.sub_ranges(start, end);
        let out: Vec<KvPair> = match ranges.len() {
            0 => Vec::new(),
            // One shard owns the whole range: its own scan is atomic.
            1 => {
                let (s, lo, hi) = &ranges[0];
                self.shards[*s].scan_range(lo, hi)?
            }
            _ => {
                self.fanout.cross_shard_scans.inc();
                self.sync("serve.router.scatter");
                let _excl = self.gate.write();
                let jobs: Vec<(usize, ShardJob<'_, Vec<KvPair>>)> = ranges
                    .into_iter()
                    .map(|(s, lo, hi)| {
                        let job: ShardJob<'_, Vec<KvPair>> =
                            Box::new(move |kv| kv.scan_range(&lo, &hi));
                        (s, job)
                    })
                    .collect();
                // Shards are disjoint and ordered, so concatenating the
                // per-shard results in shard order IS key order.
                self.scatter(jobs)?.into_iter().flatten().collect()
            }
        };
        self.stats
            .on_scan(out.iter().map(|(_, v)| v.len() as u64).sum());
        Ok(out)
    }

    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        let _shared = self.gate.read();
        let mut written = 0u64;
        self.shards[self.shard_of(key)].update(key, &mut |old| {
            let new = f(old);
            written = (key.len() + new.len()) as u64;
            new
        })?;
        self.stats.on_put(written);
        Ok(())
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Group the batch per shard, remembering each key's slot.
        let mut per_shard: Vec<(Vec<usize>, Vec<Vec<u8>>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            let s = self.shard_of(key);
            per_shard[s].0.push(i);
            per_shard[s].1.push(key.clone());
        }
        let involved: Vec<usize> = (0..self.shards.len())
            .filter(|s| !per_shard[*s].0.is_empty())
            .collect();
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        if involved.len() == 1 {
            let s = involved[0];
            let (slots, sub_keys) = &per_shard[s];
            let got = self.shards[s].multi_get(sub_keys)?;
            for (slot, v) in slots.iter().zip(got) {
                out[*slot] = v;
            }
        } else {
            self.fanout.cross_shard_multi_gets.inc();
            self.sync("serve.router.scatter");
            // Exclusive gate: no routed writer can land between the
            // per-shard sub-batches, so the union is one snapshot.
            let _excl = self.gate.write();
            let jobs: Vec<_> = involved
                .iter()
                .map(|&s| {
                    let sub_keys = per_shard[s].1.clone();
                    let job: ShardJob<'_, Vec<Option<Vec<u8>>>> =
                        Box::new(move |kv| kv.multi_get(&sub_keys));
                    (s, job)
                })
                .collect();
            let got = self.scatter(jobs)?;
            for (&s, values) in involved.iter().zip(got) {
                for (slot, v) in per_shard[s].0.iter().zip(values) {
                    out[*slot] = v;
                }
            }
        }
        let bytes = out.iter().flatten().map(|v| v.len() as u64).sum::<u64>();
        self.stats.on_multi_get(keys.len() as u64, bytes);
        Ok(out)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn logical_size_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.logical_size_bytes()).sum()
    }

    fn flush(&self) -> Result<()> {
        for s in &self.shards {
            s.flush()?;
        }
        Ok(())
    }

    fn maintain(&self) -> Result<u64> {
        let mut reclaimed = 0;
        for s in &self.shards {
            reclaimed += s.maintain()?;
        }
        Ok(reclaimed)
    }

    fn stats(&self) -> &KvStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemKvStore;
    use std::sync::atomic::Ordering;

    fn router(n: usize, boundaries: &[&[u8]]) -> ShardedKv {
        let shards: Vec<Arc<dyn KvStore>> =
            (0..n).map(|_| Arc::new(MemKvStore::new()) as Arc<dyn KvStore>).collect();
        ShardedKv::new(shards, boundaries.iter().map(|b| b.to_vec()).collect()).unwrap()
    }

    #[test]
    fn rejects_malformed_boundaries() {
        let shards = |n: usize| -> Vec<Arc<dyn KvStore>> {
            (0..n).map(|_| Arc::new(MemKvStore::new()) as Arc<dyn KvStore>).collect()
        };
        assert!(ShardedKv::new(shards(0), vec![]).is_err());
        assert!(ShardedKv::new(shards(2), vec![]).is_err());
        assert!(ShardedKv::new(shards(3), vec![b"m".to_vec(), b"g".to_vec()]).is_err());
        assert!(ShardedKv::new(shards(3), vec![b"g".to_vec(), b"g".to_vec()]).is_err());
        assert!(ShardedKv::new(shards(1), vec![]).is_ok());
    }

    #[test]
    fn routes_by_boundary() {
        let kv = router(3, &[b"g", b"m"]);
        assert_eq!(kv.shard_of(b"a"), 0);
        assert_eq!(kv.shard_of(b"fzz"), 0);
        assert_eq!(kv.shard_of(b"g"), 1); // boundary key belongs to the upper shard
        assert_eq!(kv.shard_of(b"h"), 1);
        assert_eq!(kv.shard_of(b"m"), 2);
        assert_eq!(kv.shard_of(b"zzz"), 2);
        kv.put(b"a", b"1").unwrap();
        kv.put(b"g", b"2").unwrap();
        kv.put(b"z", b"3").unwrap();
        assert_eq!(kv.shards()[0].len(), 1);
        assert_eq!(kv.shards()[1].len(), 1);
        assert_eq!(kv.shards()[2].len(), 1);
        assert_eq!(kv.get(b"g").unwrap().unwrap(), b"2");
        assert!(kv.delete(b"g").unwrap());
        assert_eq!(kv.shards()[1].len(), 0);
    }

    #[test]
    fn empty_shard_is_transparent() {
        // Shard 1 owns ["g","m") but never receives a key: scans and
        // batches across the hole behave as if it were not there.
        let kv = router(3, &[b"g", b"m"]);
        kv.put(b"a", b"1").unwrap();
        kv.put(b"z", b"2").unwrap();
        assert_eq!(kv.shards()[1].len(), 0);
        assert_eq!(kv.len(), 2);
        let got = kv.scan_range(b"a", b"zz").unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
            vec![b"a".as_slice(), b"z".as_slice()]
        );
        let got = kv.multi_get(&[b"a".to_vec(), b"h".to_vec(), b"z".to_vec()]).unwrap();
        assert_eq!(got[0].as_deref(), Some(b"1".as_slice()));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_deref(), Some(b"2".as_slice()));
    }

    #[test]
    fn all_keys_on_one_shard() {
        let kv = router(4, &[b"x1", b"x2", b"x3"]);
        for i in 0..10u8 {
            kv.put(&[b'a', i], &[i]).unwrap();
        }
        assert_eq!(kv.shards()[0].len(), 10);
        assert!(kv.shards()[1..].iter().all(|s| s.is_empty()));
        // Single-shard batch: delegated whole, counted once.
        let keys: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'a', i]).collect();
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(|v| v.is_some()));
        assert_eq!(kv.fanout().snapshot(), FanoutSnapshot::default());
        assert_eq!(kv.scan_range(b"a", b"b").unwrap().len(), 10);
        assert_eq!(kv.stats().snapshot().scans, 1);
    }

    #[test]
    fn scan_spanning_boundary_is_ordered_and_counted_once() {
        let kv = router(3, &[b"d", b"h"]);
        for k in [&b"a"[..], b"c", b"d", b"e", b"h", b"j"] {
            kv.put(k, k).unwrap();
        }
        let before = kv.stats().snapshot();
        let got = kv.scan_range(b"b", b"i").unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
            vec![b"c".as_slice(), b"d", b"e", b"h"]
        );
        let since = kv.stats().snapshot().since(&before);
        assert_eq!(since.scans, 1, "one logical scan however many shards");
        assert_eq!(since.bytes_read, 4);
        let fanout = kv.fanout().snapshot();
        assert_eq!(fanout.cross_shard_scans, 1);
        assert_eq!(fanout.shard_subops, 3);
    }

    #[test]
    fn multi_get_straddling_shards_preserves_order_and_counters() {
        let kv = router(3, &[b"d", b"h"]);
        kv.put(b"a", b"1").unwrap();
        kv.put(b"e", b"2").unwrap();
        kv.put(b"z", b"3").unwrap();
        let before = kv.stats().snapshot();
        let got = kv
            .multi_get(&[b"z".to_vec(), b"missing".to_vec(), b"a".to_vec(), b"e".to_vec()])
            .unwrap();
        assert_eq!(got[0].as_deref(), Some(b"3".as_slice()));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_deref(), Some(b"1".as_slice()));
        assert_eq!(got[3].as_deref(), Some(b"2".as_slice()));
        let since = kv.stats().snapshot().since(&before);
        assert_eq!(since.multi_gets, 1, "one logical batch");
        assert_eq!(since.multi_get_keys, 4);
        assert_eq!(since.gets, 0);
        assert!(kv.multi_get(&[]).unwrap().is_empty());
        assert_eq!(kv.stats().snapshot().since(&before).multi_gets, 1);
    }

    #[test]
    fn logical_counters_match_single_node_for_same_ops() {
        // The same operation sequence against a single MemKvStore and a
        // 3-way router must produce byte-identical logical KvStats.
        let single = MemKvStore::new();
        let sharded = router(3, &[b"d", b"h"]);
        let ops = |kv: &dyn KvStore| {
            for k in [&b"a"[..], b"c", b"d", b"e", b"h", b"j"] {
                kv.put(k, b"val").unwrap();
            }
            kv.update(b"e", &mut |old| {
                let mut v = old.unwrap().to_vec();
                v.push(b'!');
                v
            })
            .unwrap();
            kv.get(b"c").unwrap();
            kv.get(b"nope").unwrap();
            kv.scan_range(b"a", b"z").unwrap();
            kv.scan_prefix(b"a").unwrap();
            kv.multi_get(&[b"a".to_vec(), b"e".to_vec(), b"j".to_vec()]).unwrap();
        };
        ops(&single);
        ops(&sharded);
        assert_eq!(single.stats().snapshot(), sharded.stats().snapshot());
    }

    #[test]
    fn cross_shard_multi_get_is_a_snapshot_under_routed_writes() {
        // The mem.rs torn-batch test, with x and y deliberately placed
        // on different shards: without the router's gate, shard 0 could
        // serve x before a flip and shard 1 serve y after it.
        let kv = Arc::new(router(2, &[b"m"]));
        kv.put(b"a_x", b"0").unwrap();
        kv.put(b"z_y", b"0").unwrap();
        assert_ne!(kv.shard_of(b"a_x"), kv.shard_of(b"z_y"));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let kv = Arc::clone(&kv);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = round.to_string().into_bytes();
                    kv.update(b"a_x", &mut |_| v.clone()).unwrap();
                    kv.update(b"z_y", &mut |_| v.clone()).unwrap();
                    round += 1;
                }
            })
        };
        for _ in 0..1000 {
            let got = kv.multi_get(&[b"a_x".to_vec(), b"z_y".to_vec()]).unwrap();
            let x: u64 = String::from_utf8(got[0].clone().unwrap()).unwrap().parse().unwrap();
            let y: u64 = String::from_utf8(got[1].clone().unwrap()).unwrap().parse().unwrap();
            assert!(x == y || x == y + 1, "torn cross-shard multi_get: x={x} y={y}");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn cross_shard_scan_is_a_snapshot_under_routed_writes() {
        let kv = Arc::new(router(2, &[b"m"]));
        kv.put(b"a", b"0").unwrap();
        kv.put(b"z", b"0").unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let kv = Arc::clone(&kv);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = round.to_string().into_bytes();
                    kv.update(b"a", &mut |_| v.clone()).unwrap();
                    kv.update(b"z", &mut |_| v.clone()).unwrap();
                    round += 1;
                }
            })
        };
        for _ in 0..500 {
            let got = kv.scan_range(b"a", b"zz").unwrap();
            assert_eq!(got.len(), 2);
            let x: u64 = String::from_utf8(got[0].1.clone()).unwrap().parse().unwrap();
            let y: u64 = String::from_utf8(got[1].1.clone()).unwrap().parse().unwrap();
            assert!(x == y || x == y + 1, "torn cross-shard scan: x={x} y={y}");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn shard_error_propagates_from_fanout() {
        use crate::chaos::ChaosKv;
        use dgf_common::fault::{FaultConfig, FaultPlan};
        // Shard 1 is crashed (sticky): a cross-shard scan must error
        // cleanly, never return the surviving shards' half.
        let dead = ChaosKv::new(
            Arc::new(MemKvStore::new()),
            Arc::new(FaultPlan::new(FaultConfig::crash_after_writes(1, 1))),
        );
        assert!(dead.put(b"x", b"x").is_err()); // trips the crash trigger
        let shards: Vec<Arc<dyn KvStore>> = vec![
            Arc::new(MemKvStore::new()),
            Arc::new(dead),
        ];
        let kv = ShardedKv::new(shards, vec![b"m".to_vec()]).unwrap();
        kv.put(b"a", b"1").unwrap();
        assert!(kv.scan_range(b"a", b"zz").is_err());
        assert!(kv.multi_get(&[b"a".to_vec(), b"z".to_vec()]).is_err());
        // The healthy shard alone still serves.
        assert_eq!(kv.scan_range(b"a", b"b").unwrap().len(), 1);
    }
}

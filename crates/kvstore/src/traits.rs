//! The `KvStore` abstraction.
//!
//! The paper stores `GFUKey → GFUValue` pairs in a distributed key-value
//! store ("we can utilize HBase, Cassandra, or Voldemort … in the current
//! implementation, we use HBase"). The index layer only needs ordered
//! get/put/scan, so it programs against this trait and any conforming store
//! can back a DGFIndex.

use std::sync::Arc;

use dgf_common::obs::names;
use dgf_common::{counter_block, Result};

/// A key-value pair.
pub type KvPair = (Vec<u8>, Vec<u8>);

counter_block! {
    /// Operation counters for a key-value store.
    ///
    /// "Read index time" in the paper's figures is dominated by these
    /// operations; benches snapshot them to attribute time between index
    /// access and data access.
    pub struct KvStats, snapshot KvStatsSnapshot {
        /// Single-key `get` lookups (and per-key fallbacks of un-batched
        /// `multi_get` implementations).
        gets: names::KV_GETS,
        /// `put` operations.
        puts: names::KV_PUTS,
        /// Range/prefix scans.
        scans: names::KV_SCANS,
        /// Batched `multi_get` round trips (one per batch, however large).
        multi_gets: names::KV_MULTI_GETS,
        /// Total keys requested across all batched `multi_get` calls.
        multi_get_keys: names::KV_MULTI_GET_KEYS,
        /// Value bytes returned to callers.
        bytes_read: names::KV_BYTES_READ,
        /// Key+value bytes written.
        bytes_written: names::KV_BYTES_WRITTEN,
        /// Transient faults absorbed by retry loops around this store.
        retries_absorbed: names::KV_RETRIES_ABSORBED,
        /// Log compactions run by the store (manual calls and opportunistic
        /// auto-compactions alike; always 0 for purely in-memory stores).
        compactions: names::KV_COMPACTIONS,
    }
}

impl KvStats {
    /// Record a lookup returning `n` value bytes.
    pub fn on_get(&self, n: u64) {
        self.gets.inc();
        self.bytes_read.add(n);
    }

    /// Record a write of `n` key+value bytes.
    pub fn on_put(&self, n: u64) {
        self.puts.inc();
        self.bytes_written.add(n);
    }

    /// Record a scan returning `n` value bytes.
    pub fn on_scan(&self, n: u64) {
        self.scans.inc();
        self.bytes_read.add(n);
    }

    /// Record one batched lookup of `keys` keys returning `n` value bytes.
    pub fn on_multi_get(&self, keys: u64, n: u64) {
        self.multi_gets.inc();
        self.multi_get_keys.add(keys);
        self.bytes_read.add(n);
    }

    /// Record one log compaction.
    pub fn on_compact(&self) {
        self.compactions.inc();
    }
}

impl KvStatsSnapshot {
    /// Read-side round trips: each `get`, each scan, and each batched
    /// `multi_get` count as one KV operation (one RPC in the paper's
    /// HBase deployment), regardless of how many keys or entries they
    /// carry.
    pub fn read_ops(&self) -> u64 {
        self.gets + self.scans + self.multi_gets
    }
}

/// An ordered key-value store.
///
/// All operations are safe for concurrent use; `update` is an atomic
/// read-modify-write. No DGFIndex path calls `update`: a writer merges a
/// GFU header itself and stages the merged value with `put`, to be
/// published by its commit. ROADMAP item 2(e) deletes it once the
/// benchmark's store wrappers stop naming it.
pub trait KvStore: Send + Sync {
    /// Insert or replace `key`.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Look up `key`.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Remove `key`, returning whether it existed.
    fn delete(&self, key: &[u8]) -> Result<bool>;

    /// All pairs with `start <= key < end`, in key order.
    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>>;

    /// Atomically replace the value at `key` with `f(current)`.
    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Logical size: the sum of live key and value lengths. This is the
    /// paper's "index size" metric for DGFIndex (Table 2, Table 5).
    fn logical_size_bytes(&self) -> u64;

    /// Make all writes durable (no-op for memory stores).
    fn flush(&self) -> Result<()>;

    /// Operation counters.
    fn stats(&self) -> &KvStats;

    /// Whether the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Batched lookup preserving input order: the result has exactly one
    /// entry per requested key, `None` where the key is absent.
    ///
    /// **Snapshot atomicity**: an override that serves the batch in a
    /// single operation must read every key under one consistent view of
    /// the store — no concurrent writer's puts may land between the
    /// batch's reads. The planner relies on this when it fetches a plan's
    /// pyramid nodes and boundary cells with one call; a torn batch there
    /// is exactly the blended-epoch read the versioned view protocol
    /// exists to prevent.
    ///
    /// The default implementation degrades to one `get` round trip per
    /// key and is therefore **not** atomic under concurrent writes;
    /// stores that can serve a batch in a single operation should
    /// override it and record the batch via [`KvStats::on_multi_get`].
    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Run the store's background maintenance (log compaction, garbage
    /// reclamation), returning the number of bytes reclaimed. Unlike
    /// [`flush`](Self::flush) — which serving paths may never call —
    /// this is invoked explicitly by the index maintenance daemon, so a
    /// store whose opportunistic compaction only piggybacks on other
    /// operations still gets bounded under sustained appends. The
    /// default is a no-op: purely in-memory stores hold no dead bytes.
    fn maintain(&self) -> Result<u64> {
        Ok(0)
    }

    /// All pairs whose key starts with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<KvPair>> {
        match prefix_upper_bound(prefix) {
            Some(end) => self.scan_range(prefix, &end),
            // Prefix of all 0xFF bytes: scan to the end of the keyspace by
            // using an impossible sentinel — handled by stores as unbounded.
            None => {
                let mut all = self.scan_range(prefix, &[0xFFu8; 64])?;
                all.retain(|(k, _)| k.starts_with(prefix));
                Ok(all)
            }
        }
    }
}

/// Shared trait-object handle.
pub type KvRef = Arc<dyn KvStore>;

/// The smallest byte string strictly greater than every string starting
/// with `prefix`, or `None` when no such bound exists (all-0xFF prefix).
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_bound_simple() {
        assert_eq!(prefix_upper_bound(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_upper_bound(&[1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(b""), None);
    }

    #[test]
    fn scan_prefix_handles_unbounded_prefixes() {
        use crate::mem::MemKvStore;
        let kv = MemKvStore::new();
        kv.put(&[0xFF, 0xFF, 1], b"a").unwrap();
        kv.put(&[0xFF, 0xFF, 0xFF], b"b").unwrap();
        kv.put(&[0xFF, 0xFE], b"other").unwrap();
        kv.put(b"low", b"c").unwrap();

        // All-0xFF prefix has no upper bound; the sentinel path must
        // still return exactly the matching keys.
        let got = kv.scan_prefix(&[0xFF, 0xFF]).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(k, _)| k.starts_with(&[0xFF, 0xFF])));

        // The empty prefix matches every key.
        let all = kv.scan_prefix(b"").unwrap();
        assert_eq!(all.len(), kv.len());
    }

    #[test]
    fn since_saturates_when_counters_were_reset() {
        let s = KvStats::default();
        s.on_get(100);
        s.on_put(50);
        let before = s.snapshot();
        s.reset();
        s.on_get(3);
        let after = s.snapshot();
        // `after` is numerically behind `before`; the delta must clamp to
        // zero instead of wrapping to u64::MAX.
        let d = after.since(&before);
        assert_eq!(d.gets, 0);
        assert_eq!(d.puts, 0);
        assert_eq!(d.bytes_read, 0);
        assert_eq!(d.bytes_written, 0);
        assert_eq!(d.retries_absorbed, 0);
        // And a forward delta still works on the reset counters.
        s.on_get(2);
        let d2 = s.snapshot().since(&after);
        assert_eq!(d2.gets, 1);
    }

    #[test]
    fn stats_accumulate() {
        let s = KvStats::default();
        s.on_get(10);
        s.on_put(20);
        s.on_scan(5);
        assert_eq!(s.gets.get(), 1);
        assert_eq!(s.bytes_read.get(), 15);
        assert_eq!(s.bytes_written.get(), 20);
        s.reset();
        assert_eq!(s.bytes_read.get(), 0);
    }
}

//! The `KvStore` abstraction.
//!
//! The paper stores `GFUKey → GFUValue` pairs in a distributed key-value
//! store ("we can utilize HBase, Cassandra, or Voldemort … in the current
//! implementation, we use HBase"). The index layer only needs ordered
//! get/put/scan, so it programs against this trait and any conforming store
//! can back a DGFIndex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgf_common::obs::{names, MetricsRegistry, SpanGuard};
use dgf_common::Result;

/// A key-value pair.
pub type KvPair = (Vec<u8>, Vec<u8>);

/// Operation counters for a key-value store.
///
/// "Read index time" in the paper's figures is dominated by these
/// operations; benches snapshot them to attribute time between index access
/// and data access.
#[derive(Debug, Default)]
pub struct KvStats {
    /// Single-key `get` lookups (and per-key fallbacks of un-batched
    /// `multi_get` implementations).
    pub gets: AtomicU64,
    /// `put` operations.
    pub puts: AtomicU64,
    /// Range/prefix scans.
    pub scans: AtomicU64,
    /// Batched `multi_get` round trips (one per batch, however large).
    pub multi_gets: AtomicU64,
    /// Total keys requested across all batched `multi_get` calls.
    pub multi_get_keys: AtomicU64,
    /// Value bytes returned to callers.
    pub bytes_read: AtomicU64,
    /// Key+value bytes written.
    pub bytes_written: AtomicU64,
    /// Transient faults absorbed by retry loops around this store.
    pub retries_absorbed: AtomicU64,
    /// Log compactions run by the store (manual calls and opportunistic
    /// auto-compactions alike; always 0 for purely in-memory stores).
    pub compactions: AtomicU64,
}

impl KvStats {
    /// Record a lookup returning `n` value bytes.
    pub fn on_get(&self, n: u64) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a write of `n` key+value bytes.
    pub fn on_put(&self, n: u64) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a scan returning `n` value bytes.
    pub fn on_scan(&self, n: u64) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one batched lookup of `keys` keys returning `n` value bytes.
    pub fn on_multi_get(&self, keys: u64, n: u64) {
        self.multi_gets.fetch_add(1, Ordering::Relaxed);
        self.multi_get_keys.fetch_add(keys, Ordering::Relaxed);
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one log compaction.
    pub fn on_compact(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> KvStatsSnapshot {
        KvStatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            multi_gets: self.multi_gets.load(Ordering::Relaxed),
            multi_get_keys: self.multi_get_keys.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            retries_absorbed: self.retries_absorbed.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.gets.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.scans.store(0, Ordering::Relaxed);
        self.multi_gets.store(0, Ordering::Relaxed);
        self.multi_get_keys.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.retries_absorbed.store(0, Ordering::Relaxed);
        self.compactions.store(0, Ordering::Relaxed);
    }
}

/// A plain-value copy of [`KvStats`], for before/after deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KvStatsSnapshot {
    /// Single-key `get` lookups.
    pub gets: u64,
    /// `put` operations.
    pub puts: u64,
    /// Range/prefix scans.
    pub scans: u64,
    /// Batched `multi_get` round trips.
    pub multi_gets: u64,
    /// Total keys requested across all batched `multi_get` calls.
    pub multi_get_keys: u64,
    /// Value bytes returned to callers.
    pub bytes_read: u64,
    /// Key+value bytes written.
    pub bytes_written: u64,
    /// Transient faults absorbed by retry loops around this store.
    pub retries_absorbed: u64,
    /// Log compactions run by the store.
    pub compactions: u64,
}

impl KvStatsSnapshot {
    /// Read-side round trips: each `get`, each scan, and each batched
    /// `multi_get` count as one KV operation (one RPC in the paper's
    /// HBase deployment), regardless of how many keys or entries they
    /// carry.
    pub fn read_ops(&self) -> u64 {
        self.gets + self.scans + self.multi_gets
    }

    /// Project this snapshot into a [`MetricsRegistry`] under the stable
    /// `kv.*` names (see [`dgf_common::obs::names`]).
    pub fn record_into(&self, reg: &MetricsRegistry) {
        for (name, v) in self.named() {
            reg.add(name, v);
        }
    }

    /// Attach this snapshot (usually a delta) to a span under the `kv.*`
    /// names. Zero-valued counters are skipped to keep profiles readable.
    pub fn attach_to_span(&self, span: &SpanGuard) {
        for (name, v) in self.named() {
            if v > 0 {
                span.add(name, v);
            }
        }
    }

    fn named(&self) -> [(&'static str, u64); 9] {
        [
            (names::KV_GETS, self.gets),
            (names::KV_PUTS, self.puts),
            (names::KV_SCANS, self.scans),
            (names::KV_MULTI_GETS, self.multi_gets),
            (names::KV_MULTI_GET_KEYS, self.multi_get_keys),
            (names::KV_BYTES_READ, self.bytes_read),
            (names::KV_BYTES_WRITTEN, self.bytes_written),
            (names::KV_RETRIES_ABSORBED, self.retries_absorbed),
            (names::KV_COMPACTIONS, self.compactions),
        ]
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &KvStatsSnapshot) -> KvStatsSnapshot {
        KvStatsSnapshot {
            gets: self.gets.saturating_sub(earlier.gets),
            puts: self.puts.saturating_sub(earlier.puts),
            scans: self.scans.saturating_sub(earlier.scans),
            multi_gets: self.multi_gets.saturating_sub(earlier.multi_gets),
            multi_get_keys: self.multi_get_keys.saturating_sub(earlier.multi_get_keys),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            retries_absorbed: self.retries_absorbed.saturating_sub(earlier.retries_absorbed),
            compactions: self.compactions.saturating_sub(earlier.compactions),
        }
    }
}

/// An ordered key-value store.
///
/// All operations are safe for concurrent use; `update` is an atomic
/// read-modify-write (the DGFIndex uses it to merge GFU headers when new
/// data lands in an existing cell).
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
        assert_eq!(s.gets.load(Ordering::Relaxed), 1);
        assert_eq!(s.bytes_read.load(Ordering::Relaxed), 15);
        assert_eq!(s.bytes_written.load(Ordering::Relaxed), 20);
        s.reset();
        assert_eq!(s.bytes_read.load(Ordering::Relaxed), 0);
    }
}

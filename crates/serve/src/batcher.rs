//! Shared header-fetch batching across concurrent queries.
//!
//! Every query pins its `ReadView` with a point read of `m:view` and
//! re-reads it to validate. Under a concurrent frontend many of those
//! reads are issued within microseconds of each other — against a real region server each would
//! be its own RPC. [`BatchingKv`] coalesces them: the first `get` in a
//! quiet store becomes the *leader*, waits one batch window for
//! followers to pile on, then issues a single `multi_get` for all
//! distinct pending keys and distributes the answers. Routed through a
//! [`ShardedKv`](dgf_kvstore::ShardedKv), that combined batch is served
//! under the router's exclusive gate, so the coalesced reads keep the
//! snapshot-atomicity contract they would have had individually — the
//! batch sees one store state, which is a superset of each follower's
//! single-key consistency.
//!
//! With a zero window the wrapper is a transparent pass-through; scans
//! and writes always pass straight through.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dgf_common::{DgfError, Result};
use dgf_kvstore::{KvPair, KvStats, KvStore};

/// Counters for the batcher (see `serve.batch_*` metric names).
#[derive(Debug, Default)]
pub struct BatchStats {
    /// Combined `multi_get` flushes issued by batch leaders.
    pub flushes: AtomicU64,
    /// Point reads that joined another read's in-flight batch.
    pub joins: AtomicU64,
    /// Distinct keys served by combined flushes.
    pub batched_keys: AtomicU64,
}

/// A slot one waiting `get` parks on until its leader fills it. Errors
/// cross threads as `(is_transient, message)` so retry loops upstream
/// still see transient faults as transient.
type SlotResult = std::result::Result<Option<Vec<u8>>, (bool, String)>;

struct Slot {
    result: Mutex<Option<SlotResult>>,
    ready: Condvar,
}

struct Pending {
    key: Vec<u8>,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct BatchState {
    pending: Vec<Pending>,
    leader_active: bool,
}

/// A [`KvStore`] decorator that coalesces concurrent point reads into
/// shared `multi_get` batches.
pub struct BatchingKv {
    inner: Arc<dyn KvStore>,
    window: Duration,
    state: Mutex<BatchState>,
    stats: BatchStats,
}

impl BatchingKv {
    /// Wrap `inner`; a zero `window` disables coalescing entirely.
    pub fn new(inner: Arc<dyn KvStore>, window: Duration) -> BatchingKv {
        BatchingKv {
            inner,
            window,
            state: Mutex::new(BatchState::default()),
            stats: BatchStats::default(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn KvStore> {
        &self.inner
    }

    /// Batching counters.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.stats
    }

    fn flush(&self, batch: Vec<Pending>) {
        // Dedup keys so ten queries pinning the same `m:view` cost one
        // slot in the combined batch.
        let mut unique: Vec<Vec<u8>> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(batch.len());
        for p in &batch {
            match unique.iter().position(|k| *k == p.key) {
                Some(i) => slot_of.push(i),
                None => {
                    unique.push(p.key.clone());
                    slot_of.push(unique.len() - 1);
                }
            }
        }
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .batched_keys
            .fetch_add(unique.len() as u64, Ordering::Relaxed);
        let outcome = self.inner.multi_get(&unique);
        for (p, &ui) in batch.iter().zip(&slot_of) {
            let r: SlotResult = match &outcome {
                Ok(values) => Ok(values[ui].clone()),
                Err(e) => Err((dgf_common::fault::is_transient(e), e.to_string())),
            };
            *p.slot.result.lock().expect("slot poisoned") = Some(r);
            p.slot.ready.notify_all();
        }
    }
}

impl KvStore for BatchingKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if self.window.is_zero() {
            return self.inner.get(key);
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let is_leader = {
            let mut st = self.state.lock().expect("batch state poisoned");
            st.pending.push(Pending {
                key: key.to_vec(),
                slot: Arc::clone(&slot),
            });
            if st.leader_active {
                self.stats.joins.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                st.leader_active = true;
                true
            }
        };
        if is_leader {
            // Hold the batch open for one window, then take everything
            // that accumulated (our own read included) in one flush.
            std::thread::sleep(self.window);
            let batch = {
                let mut st = self.state.lock().expect("batch state poisoned");
                st.leader_active = false;
                std::mem::take(&mut st.pending)
            };
            self.flush(batch);
        }
        let mut guard = slot.result.lock().expect("slot poisoned");
        while guard.is_none() {
            guard = slot.ready.wait(guard).expect("slot poisoned");
        }
        match guard.take().expect("checked above") {
            Ok(v) => Ok(v),
            Err((true, msg)) => Err(DgfError::Transient(msg)),
            Err((false, msg)) => Err(DgfError::KvStore(msg)),
        }
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        self.inner.delete(key)
    }

    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        self.inner.scan_range(start, end)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<KvPair>> {
        self.inner.scan_prefix(prefix)
    }

    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        self.inner.update(key, f)
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.inner.multi_get(keys)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn logical_size_bytes(&self) -> u64 {
        self.inner.logical_size_bytes()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn maintain(&self) -> Result<u64> {
        self.inner.maintain()
    }

    fn stats(&self) -> &KvStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_kvstore::MemKvStore;

    #[test]
    fn zero_window_is_a_pass_through() {
        let kv = BatchingKv::new(Arc::new(MemKvStore::new()), Duration::ZERO);
        kv.put(b"a", b"1").unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(kv.batch_stats().flushes.load(Ordering::Relaxed), 0);
        // Pass-through gets hit the inner store's get counter.
        assert_eq!(kv.stats().snapshot().gets, 1);
    }

    #[test]
    fn single_get_still_answers_with_a_window() {
        let kv = BatchingKv::new(Arc::new(MemKvStore::new()), Duration::from_micros(200));
        kv.put(b"a", b"1").unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert!(kv.get(b"missing").unwrap().is_none());
        assert_eq!(kv.batch_stats().flushes.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_gets_share_one_flush() {
        let inner = Arc::new(MemKvStore::new());
        inner.put(b"m:view", b"42").unwrap();
        let kv = Arc::new(BatchingKv::new(
            inner.clone(),
            Duration::from_millis(20),
        ));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || kv.get(b"m:view").unwrap().unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), b"42");
        }
        let flushes = kv.batch_stats().flushes.load(Ordering::Relaxed);
        let joins = kv.batch_stats().joins.load(Ordering::Relaxed);
        assert!(flushes >= 1);
        assert_eq!(
            flushes + joins,
            8,
            "every read either led a flush or joined one"
        );
        // Identical keys dedup inside each flush: the inner store saw
        // far fewer key slots than reads.
        let snap = inner.stats().snapshot();
        assert_eq!(snap.gets, 0, "no read bypassed the batcher");
        assert_eq!(snap.multi_gets, flushes);
        assert_eq!(snap.multi_get_keys, flushes, "one distinct key per flush");
    }

    #[test]
    fn distinct_keys_in_one_batch_all_answer() {
        let inner = Arc::new(MemKvStore::new());
        for i in 0..16u8 {
            inner.put(&[b'k', i], &[i]).unwrap();
        }
        let kv = Arc::new(BatchingKv::new(
            inner.clone(),
            Duration::from_millis(10),
        ));
        let handles: Vec<_> = (0..16u8)
            .map(|i| {
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || kv.get(&[b'k', i]).unwrap().unwrap())
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), vec![i as u8]);
        }
    }
}

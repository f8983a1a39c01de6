//! A fault-injecting decorator.
//!
//! The paper's DGFIndex trusts HBase to ride out region-server hiccups;
//! this reproduction has to earn that trust explicitly. [`ChaosKv`]
//! wraps any [`KvStore`] and consults a shared [`FaultPlan`] before
//! every operation: the plan may inject a transient error (which a
//! [`RetryPolicy`](dgf_common::fault::RetryPolicy) upstream is expected
//! to absorb) or — once a configured crash trigger fires — fail *every*
//! subsequent operation, modeling a dead store process. Because the plan
//! is seeded and deterministic, a chaos test that fails replays
//! byte-for-byte.
//!
//! The wrapper holds its inner store behind an [`Arc`], so a test can
//! keep a second, fault-free handle to the same data and verify that a
//! "crashed" store's surviving state is still fully queryable.

use std::sync::Arc;

use dgf_common::fault::FaultPlan;
use dgf_common::Result;

use crate::traits::{KvPair, KvStats, KvStore};

/// A [`KvStore`] decorator that injects faults from a [`FaultPlan`].
pub struct ChaosKv {
    inner: Arc<dyn KvStore>,
    plan: Arc<FaultPlan>,
}

impl ChaosKv {
    /// Wrap `inner`, drawing faults from `plan`.
    pub fn new(inner: Arc<dyn KvStore>, plan: Arc<FaultPlan>) -> ChaosKv {
        ChaosKv { inner, plan }
    }

    /// The wrapped store (a clean handle that bypasses fault injection).
    pub fn inner(&self) -> &Arc<dyn KvStore> {
        &self.inner
    }

    /// The fault schedule this wrapper consults.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl KvStore for ChaosKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.plan.before_write("kv.put")?;
        self.inner.put(key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.plan.before_read("kv.get")?;
        self.inner.get(key)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        self.plan.before_write("kv.delete")?;
        self.inner.delete(key)
    }

    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        self.plan.before_read("kv.scan_range")?;
        self.inner.scan_range(start, end)
    }

    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        // The fault fires before `f` runs, so a retried update re-reads
        // the current value and stays a correct read-modify-write.
        self.plan.before_write("kv.update")?;
        self.inner.update(key, f)
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.plan.before_read("kv.multi_get")?;
        self.inner.multi_get(keys)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<KvPair>> {
        // One fault draw per prefix scan; the default trait impl would
        // re-enter scan_range and draw twice.
        self.plan.before_read("kv.scan_prefix")?;
        self.inner.scan_prefix(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn logical_size_bytes(&self) -> u64 {
        self.inner.logical_size_bytes()
    }

    fn flush(&self) -> Result<()> {
        self.plan.before_write("kv.flush")?;
        self.inner.flush()
    }

    fn maintain(&self) -> Result<u64> {
        self.plan.before_write("kv.maintain")?;
        self.inner.maintain()
    }

    fn stats(&self) -> &KvStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemKvStore;
    use dgf_common::fault::{is_transient, FaultConfig, RetryPolicy};

    fn chaos(cfg: FaultConfig) -> ChaosKv {
        ChaosKv::new(Arc::new(MemKvStore::new()), Arc::new(FaultPlan::new(cfg)))
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let kv = chaos(FaultConfig::quiet(1));
        kv.put(b"a", b"1").unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(kv.scan_prefix(b"a").unwrap().len(), 1);
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.plan().faults_injected(), 0);
    }

    #[test]
    fn transient_faults_are_injected_and_typed() {
        let kv = chaos(FaultConfig::transient(7, 1.0));
        let err = kv.get(b"a").unwrap_err();
        assert!(is_transient(&err), "injected faults must be transient");
        assert_eq!(kv.plan().faults_injected(), 1);
    }

    #[test]
    fn retry_loop_absorbs_scheduled_faults() {
        // p = 0.5 with 20 attempts: success is effectively certain, and
        // the absorbed count equals the number of injected faults.
        let kv = chaos(FaultConfig::transient(11, 0.5));
        kv.inner().put(b"k", b"v").unwrap();
        let absorbed = dgf_common::Counter::new();
        let got = RetryPolicy::fast(20)
            .run(&absorbed, || kv.get(b"k"))
            .unwrap();
        assert_eq!(got.unwrap(), b"v");
        assert_eq!(absorbed.get(), kv.plan().faults_injected());
    }

    #[test]
    fn crash_after_writes_kills_the_store_but_not_the_data() {
        let kv = chaos(FaultConfig::crash_after_writes(3, 3));
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        let err = kv.put(b"c", b"3").unwrap_err();
        assert!(!is_transient(&err), "a crash is not retryable");
        // Sticky: even reads fail now.
        assert!(kv.get(b"a").is_err());
        assert!(kv.scan_range(b"a", b"z").is_err());
        // But the inner store survived with the acknowledged writes only.
        assert_eq!(kv.inner().len(), 2);
        assert_eq!(kv.inner().get(b"a").unwrap().unwrap(), b"1");
    }

    #[test]
    fn stats_pass_through_composes_over_latency_kv() {
        use crate::latency::{LatencyKv, LatencyModel};
        // ChaosKv over LatencyKv over MemKvStore: stats() must reach the
        // base store through both decorators, and operations through the
        // chaos wrapper must be the ones accounted.
        let base = Arc::new(LatencyKv::new(MemKvStore::new(), LatencyModel::ZERO));
        let kv = ChaosKv::new(base, Arc::new(FaultPlan::new(FaultConfig::quiet(5))));
        kv.put(b"a", b"1").unwrap();
        kv.get(b"a").unwrap();
        kv.multi_get(&[b"a".to_vec()]).unwrap();
        kv.scan_prefix(b"a").unwrap();
        let snap = kv.stats().snapshot();
        assert_eq!(snap.puts, 1);
        assert_eq!(snap.gets, 1);
        assert_eq!(snap.multi_gets, 1);
        assert_eq!(snap.multi_get_keys, 1);
        assert_eq!(snap.scans, 1);
    }

    #[test]
    fn stats_pass_through_to_inner() {
        let kv = chaos(FaultConfig::quiet(1));
        kv.put(b"a", b"1").unwrap();
        kv.get(b"a").unwrap();
        let snap = kv.stats().snapshot();
        assert_eq!(snap.puts, 1);
        assert_eq!(snap.gets, 1);
    }
}

//! # dgf-kvstore
//!
//! The key-value store substrate standing in for HBase (the paper stores
//! `GFUKey → GFUValue` pairs there; §4.1 notes Cassandra or Voldemort work
//! equally well, so the index programs against the [`KvStore`] trait).
//!
//! * [`MemKvStore`] — ordered, thread-safe, in-memory.
//! * [`LogKvStore`] — persistent single-file log with checksums, torn-tail
//!   recovery, and compaction.
//! * [`LatencyKv`] — a decorator charging simulated RPC latency so benches
//!   can reproduce the index-read-time trends of Figures 12–13.
//! * [`ChaosKv`] — a decorator injecting deterministic faults from a
//!   seeded [`FaultPlan`](dgf_common::fault::FaultPlan), for the chaos
//!   test suite.
//! * [`ShardedKv`] — a range-partitioned router spreading the keyspace
//!   across N inner shards, the in-process stand-in for a fleet of
//!   region servers (serving tier, DESIGN.md §13).

#![warn(missing_docs)]

pub mod chaos;
pub mod latency;
pub mod log;
pub mod mem;
pub mod shard;
pub mod traits;

pub use chaos::ChaosKv;
pub use latency::{LatencyKv, LatencyModel};
pub use log::{LogKvConfig, LogKvStore};
pub use mem::MemKvStore;
pub use shard::{FanoutSnapshot, FanoutStats, ShardedKv};
pub use traits::{prefix_upper_bound, KvPair, KvRef, KvStats, KvStatsSnapshot, KvStore};

#[cfg(test)]
mod proptests {
    use super::*;
    use dgf_common::TempDir;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Put(Vec<u8>, Vec<u8>),
        Delete(Vec<u8>),
        Scan(Vec<u8>, Vec<u8>),
    }

    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..8, 1..4)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_key(), prop::collection::vec(any::<u8>(), 0..8))
                .prop_map(|(k, v)| Op::Put(k, v)),
            arb_key().prop_map(Op::Delete),
            (arb_key(), arb_key()).prop_map(|(a, b)| {
                if a <= b {
                    Op::Scan(a, b)
                } else {
                    Op::Scan(b, a)
                }
            }),
        ]
    }

    fn check_against_model(kv: &dyn KvStore, ops: &[Op]) {
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    kv.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    let existed = kv.delete(k).unwrap();
                    assert_eq!(existed, model.remove(k).is_some());
                }
                Op::Scan(a, b) => {
                    let got = kv.scan_range(a, b).unwrap();
                    let want: Vec<_> = model
                        .range(a.clone()..b.clone())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got, want);
                }
            }
        }
        assert_eq!(kv.len(), model.len());
        for (k, v) in &model {
            assert_eq!(kv.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mem_store_matches_btreemap(ops in prop::collection::vec(arb_op(), 0..64)) {
            check_against_model(&MemKvStore::new(), &ops);
        }

        #[test]
        fn sharded_store_matches_btreemap(ops in prop::collection::vec(arb_op(), 0..64)) {
            // 3-way router split inside the generated key domain: the
            // router must be observationally identical to one store.
            let shards: Vec<std::sync::Arc<dyn KvStore>> = (0..3)
                .map(|_| std::sync::Arc::new(MemKvStore::new()) as std::sync::Arc<dyn KvStore>)
                .collect();
            let kv = ShardedKv::new(shards, vec![vec![2], vec![5]]).unwrap();
            check_against_model(&kv, &ops);
        }

        #[test]
        fn log_store_matches_btreemap(ops in prop::collection::vec(arb_op(), 0..64)) {
            let t = TempDir::new("kv-prop").unwrap();
            let kv = LogKvStore::open(t.path().join("kv.log")).unwrap();
            check_against_model(&kv, &ops);
        }

        #[test]
        fn log_store_survives_reopen(ops in prop::collection::vec(arb_op(), 0..64)) {
            let t = TempDir::new("kv-prop").unwrap();
            let path = t.path().join("kv.log");
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            {
                let kv = LogKvStore::open(&path).unwrap();
                for op in &ops {
                    match op {
                        Op::Put(k, v) => {
                            kv.put(k, v).unwrap();
                            model.insert(k.clone(), v.clone());
                        }
                        Op::Delete(k) => {
                            kv.delete(k).unwrap();
                            model.remove(k);
                        }
                        Op::Scan(..) => {}
                    }
                }
                kv.flush().unwrap();
            }
            let kv = LogKvStore::open(&path).unwrap();
            prop_assert_eq!(kv.len(), model.len());
            for (k, v) in &model {
                let got = kv.get(k).unwrap();
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
            }
        }
    }
}

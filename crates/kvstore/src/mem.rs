//! In-memory ordered key-value store.

use std::collections::BTreeMap;

use parking_lot::RwLock;

use dgf_common::Result;

use crate::traits::{KvPair, KvStats, KvStore};

/// A thread-safe, ordered, in-memory store. The default backing for a
/// DGFIndex in tests and single-run benchmarks.
#[derive(Debug, Default)]
pub struct MemKvStore {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
    stats: KvStats,
}

impl MemKvStore {
    /// An empty store.
    pub fn new() -> Self {
        MemKvStore::default()
    }
}

impl KvStore for MemKvStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.stats.on_put((key.len() + value.len()) as u64);
        self.map.write().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let got = self.map.read().get(key).cloned();
        self.stats.on_get(got.as_ref().map_or(0, |v| v.len() as u64));
        Ok(got)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        Ok(self.map.write().remove(key).is_some())
    }

    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        let map = self.map.read();
        let out: Vec<KvPair> = map
            .range(start.to_vec()..end.to_vec())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.stats
            .on_scan(out.iter().map(|(_, v)| v.len() as u64).sum());
        Ok(out)
    }

    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        let mut map = self.map.write();
        let new = f(map.get(key).map(|v| v.as_slice()));
        self.stats.on_put((key.len() + new.len()) as u64);
        map.insert(key.to_vec(), new);
        Ok(())
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn logical_size_bytes(&self) -> u64 {
        self.map
            .read()
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> &KvStats {
        &self.stats
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // One lock acquisition for the whole batch — this is the moral
        // equivalent of HBase serving a multi-get in one RPC, and is what
        // the planner's batched header fetches rely on.
        let map = self.map.read();
        let out: Vec<Option<Vec<u8>>> = keys.iter().map(|k| map.get(k).cloned()).collect();
        let bytes = out
            .iter()
            .flatten()
            .map(|v| v.len() as u64)
            .sum::<u64>();
        self.stats.on_multi_get(keys.len() as u64, bytes);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let kv = MemKvStore::new();
        kv.put(b"a", b"1").unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert!(kv.get(b"b").unwrap().is_none());
        assert!(kv.delete(b"a").unwrap());
        assert!(!kv.delete(b"a").unwrap());
        assert!(kv.is_empty());
    }

    #[test]
    fn range_scan_is_ordered_half_open() {
        let kv = MemKvStore::new();
        for k in [b"a", b"b", b"c", b"d"] {
            kv.put(k, k).unwrap();
        }
        let got = kv.scan_range(b"b", b"d").unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
            vec![b"b".as_slice(), b"c".as_slice()]
        );
    }

    #[test]
    fn prefix_scan() {
        let kv = MemKvStore::new();
        kv.put(b"row/1", b"x").unwrap();
        kv.put(b"row/2", b"y").unwrap();
        kv.put(b"other", b"z").unwrap();
        let got = kv.scan_prefix(b"row/").unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn update_is_read_modify_write() {
        let kv = MemKvStore::new();
        kv.update(b"k", &mut |old| {
            assert!(old.is_none());
            b"1".to_vec()
        })
        .unwrap();
        kv.update(b"k", &mut |old| {
            let mut v = old.unwrap().to_vec();
            v.extend_from_slice(b"+2");
            v
        })
        .unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), b"1+2");
    }

    #[test]
    fn logical_size_counts_live_bytes() {
        let kv = MemKvStore::new();
        kv.put(b"key", b"value").unwrap(); // 3 + 5
        kv.put(b"k2", b"v").unwrap(); // 2 + 1
        assert_eq!(kv.logical_size_bytes(), 11);
        kv.put(b"key", b"v2").unwrap(); // replaces: 3 + 2
        assert_eq!(kv.logical_size_bytes(), 8);
    }

    #[test]
    fn multi_get_preserves_order() {
        let kv = MemKvStore::new();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"c", b"3").unwrap();
        let gets_before = kv.stats().gets.get();
        let got = kv
            .multi_get(&[b"c".to_vec(), b"b".to_vec(), b"a".to_vec()])
            .unwrap();
        // One result slot per requested key, in request order, with a
        // `None` hole for the missing key.
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_deref(), Some(b"3".as_slice()));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_deref(), Some(b"1".as_slice()));
        // The batch is one round trip: no per-key gets, one multi_get
        // covering all three keys (including the miss).
        assert_eq!(kv.stats().gets.get(), gets_before);
        assert_eq!(kv.stats().multi_gets.get(), 1);
        assert_eq!(kv.stats().multi_get_keys.get(), 3);
    }

    #[test]
    fn multi_get_empty_key_list_is_free() {
        let kv = MemKvStore::new();
        kv.put(b"a", b"1").unwrap();
        assert!(kv.multi_get(&[]).unwrap().is_empty());
        assert_eq!(kv.stats().multi_gets.get(), 0);
        assert_eq!(kv.stats().multi_get_keys.get(), 0);
    }

    #[test]
    fn multi_get_is_a_snapshot_under_concurrent_writes() {
        use std::sync::Arc;
        // A writer flips two keys together between two values; a batched
        // reader must never see one key from before the flip and the
        // other from after — the trait's snapshot-atomicity contract.
        let kv = Arc::new(MemKvStore::new());
        kv.put(b"x", b"0").unwrap();
        kv.put(b"y", b"0").unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let kv = Arc::clone(&kv);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let v = round.to_string().into_bytes();
                    // Both puts under one write lock so the pair is
                    // always coherent in the store itself.
                    kv.update(b"x", &mut |_| v.clone()).unwrap();
                    kv.update(b"y", &mut |_| v.clone()).unwrap();
                    round += 1;
                }
            })
        };
        // `update` writes x then y separately, so a torn batch would show
        // x ahead of y. x == y or x one ahead (between the two updates)
        // are the only legal observations; x behind y means the batch
        // read y after a write that happened *during* the batch.
        for _ in 0..2000 {
            let got = kv.multi_get(&[b"x".to_vec(), b"y".to_vec()]).unwrap();
            let x: u64 = String::from_utf8(got[0].clone().unwrap()).unwrap().parse().unwrap();
            let y: u64 = String::from_utf8(got[1].clone().unwrap()).unwrap().parse().unwrap();
            assert!(x == y || x == y + 1, "torn multi_get: x={x} y={y}");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        use std::sync::Arc;
        let kv = Arc::new(MemKvStore::new());
        kv.put(b"n", &0u64.to_le_bytes()).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    kv.update(b"n", &mut |old| {
                        let cur = u64::from_le_bytes(old.unwrap().try_into().unwrap());
                        (cur + 1).to_le_bytes().to_vec()
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = kv.get(b"n").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 800);
    }
}

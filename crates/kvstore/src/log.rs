//! A persistent, log-structured key-value store.
//!
//! Writes append checksummed records to a single log file; the full live
//! key set is kept in an in-memory ordered map (GFU entries are tiny — a
//! few dozen bytes — so even a large grid fits comfortably). On open, the
//! log is replayed; a torn or corrupt tail is truncated rather than
//! poisoning the store. `compact` rewrites the log to contain only live
//! entries; the store also tracks dead (overwritten or deleted) bytes and
//! compacts opportunistically at [`flush`](crate::KvStore::flush) once
//! they exceed a configurable fraction of the log (see [`LogKvConfig`]).
//! The trigger deliberately sits at flush — a durability boundary —
//! rather than inline on the put path, so a single metadata put mid
//! staged-commit never pays a full log rewrite's tail latency.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use dgf_common::codec::{frame_len, write_frame, FrameReader};
use dgf_common::{DgfError, Result};

use crate::traits::{KvPair, KvStats, KvStore};

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Framed on-disk size of one record, whose payload is
/// `op(1) | key_len(u32) | key | value`.
fn framed_len(key_len: usize, value_len: usize) -> u64 {
    frame_len(1 + 4 + key_len + value_len)
}

/// Tuning knobs for [`LogKvStore`].
#[derive(Debug, Clone)]
pub struct LogKvConfig {
    /// Run [`compact`](LogKvStore::compact) automatically at `flush`
    /// once the dead fraction exceeds
    /// [`compact_dead_ratio`](LogKvConfig::compact_dead_ratio) —
    /// individual puts stay cheap appends. Manual compaction stays
    /// available either way.
    pub auto_compact: bool,
    /// Never auto-compact logs smaller than this (rewriting a tiny log
    /// buys nothing).
    pub compact_min_bytes: u64,
    /// Auto-compact when `dead_bytes / log_len` exceeds this fraction.
    pub compact_dead_ratio: f64,
}

impl Default for LogKvConfig {
    fn default() -> Self {
        LogKvConfig {
            auto_compact: true,
            compact_min_bytes: 1 << 20,
            compact_dead_ratio: 0.5,
        }
    }
}

/// On-disk record layout: one [`write_frame`] frame,
/// `[u32 payload_len][payload][u64 fnv1a(payload)]`, where
/// `payload = op(1) | key_len(u32) | key | value`.
#[derive(Debug)]
struct Inner {
    map: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    writer: BufWriter<File>,
    log_len: u64,
    /// Bytes of the log owed to overwritten or deleted records (the
    /// superseded record plus, for deletes, the tombstone itself).
    dead_bytes: u64,
}

/// A crash-safe single-file key-value store.
#[derive(Debug)]
pub struct LogKvStore {
    path: PathBuf,
    inner: Mutex<Inner>,
    stats: KvStats,
    config: LogKvConfig,
}

impl LogKvStore {
    /// Open (or create) the store at `path`, replaying any existing log.
    pub fn open(path: impl Into<PathBuf>) -> Result<LogKvStore> {
        Self::open_with(path, LogKvConfig::default())
    }

    /// Open with explicit [`LogKvConfig`] (compaction policy).
    pub fn open_with(path: impl Into<PathBuf>, config: LogKvConfig) -> Result<LogKvStore> {
        let path = path.into();
        let (map, valid_len, dead_bytes) = replay(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Drop a torn tail so subsequent appends start at a record boundary.
        if file.metadata()?.len() > valid_len {
            file.set_len(valid_len)?;
        }
        Ok(LogKvStore {
            path,
            inner: Mutex::new(Inner {
                map,
                writer: BufWriter::new(file),
                log_len: valid_len,
                dead_bytes,
            }),
            stats: KvStats::default(),
            config,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Physical log length in bytes (grows with every write until
    /// [`compact`](Self::compact)).
    pub fn log_len(&self) -> u64 {
        self.inner.lock().log_len
    }

    /// Bytes of the log owed to overwritten or deleted records.
    pub fn dead_bytes(&self) -> u64 {
        self.inner.lock().dead_bytes
    }

    /// Rewrite the log to hold only live entries. Returns bytes reclaimed.
    pub fn compact(&self) -> Result<u64> {
        let mut inner = self.inner.lock();
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<u64> {
        inner.writer.flush()?;
        let tmp = self.path.with_extension("compact");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for (k, v) in &inner.map {
                write_record(&mut w, OP_PUT, k, v)?;
            }
            w.flush()?;
        }
        let old_len = inner.log_len;
        std::fs::rename(&tmp, &self.path)?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        let new_len = file.metadata()?.len();
        inner.writer = BufWriter::new(file);
        inner.log_len = new_len;
        inner.dead_bytes = 0;
        self.stats.on_compact();
        Ok(old_len.saturating_sub(new_len))
    }

    /// Compact if the dead fraction crossed the configured threshold.
    /// Called with the lock held from `flush` — never from the put path,
    /// where an inline rewrite would add unbounded tail latency to (for
    /// example) a metadata put inside a staged commit.
    fn maybe_auto_compact(&self, inner: &mut Inner) -> Result<()> {
        if !self.config.auto_compact
            || inner.log_len < self.config.compact_min_bytes
            || inner.dead_bytes == 0
        {
            return Ok(());
        }
        let dead_frac = inner.dead_bytes as f64 / inner.log_len as f64;
        if dead_frac > self.config.compact_dead_ratio {
            self.compact_locked(inner)?;
        }
        Ok(())
    }
}

impl Inner {
    /// Log a put of `key` and apply it.
    fn put(&mut self, key: &[u8], value: Vec<u8>) -> Result<()> {
        self.log_len += write_record(&mut self.writer, OP_PUT, key, &value)?;
        if let Some(old) = self.map.insert(key.to_vec(), value) {
            self.dead_bytes += framed_len(key.len(), old.len());
        }
        Ok(())
    }

    /// Log a tombstone for `key` and drop it, if it is live. The check
    /// and the tombstone are one step under the store's lock: two racing
    /// deletes of one key log one tombstone, and `dead_bytes` counts it.
    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let Some(old_len) = self.map.get(key).map(Vec::len) else {
            return Ok(false);
        };
        let n = write_record(&mut self.writer, OP_DELETE, key, &[])?;
        self.log_len += n;
        self.map.remove(key);
        // The superseded put and the tombstone both vanish at the next
        // compaction.
        self.dead_bytes += framed_len(key.len(), old_len) + n;
        Ok(true)
    }
}

fn write_record<W: Write>(w: &mut W, op: u8, key: &[u8], value: &[u8]) -> Result<u64> {
    let mut payload = Vec::with_capacity(1 + 4 + key.len() + value.len());
    payload.push(op);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(key);
    payload.extend_from_slice(value);
    write_frame(w, &payload)
}

type ReplayResult = (std::collections::BTreeMap<Vec<u8>, Vec<u8>>, u64, u64);

/// The live map, the length of the log's intact prefix and its dead
/// bytes. Replay stops at the first torn or corrupt frame, or the first
/// whose payload is not a record; the caller truncates the log there.
fn replay(path: &Path) -> Result<ReplayResult> {
    let mut map = std::collections::BTreeMap::new();
    let Ok(file) = File::open(path) else {
        return Ok((map, 0, 0));
    };
    let len = file.metadata()?.len();
    let mut valid_len = 0u64;
    let mut dead_bytes = 0u64;
    for payload in FrameReader::new(BufReader::new(file), len) {
        if payload.len() < 5 {
            break;
        }
        let op = payload[0];
        let klen = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
        if payload.len() - 5 < klen {
            break;
        }
        let key = payload[5..5 + klen].to_vec();
        let value = payload[5 + klen..].to_vec();
        let rec_len = frame_len(payload.len());
        match op {
            OP_PUT => {
                if let Some(old) = map.insert(key.clone(), value) {
                    dead_bytes += framed_len(key.len(), old.len());
                }
            }
            OP_DELETE => {
                if let Some(old) = map.remove(&key) {
                    dead_bytes += framed_len(key.len(), old.len()) + rec_len;
                }
            }
            _ => break,
        }
        valid_len += rec_len;
    }
    Ok((map, valid_len, dead_bytes))
}

impl KvStore for LogKvStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.stats.on_put((key.len() + value.len()) as u64);
        self.inner.lock().put(key, value.to_vec())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let got = self.inner.lock().map.get(key).cloned();
        self.stats.on_get(got.as_ref().map_or(0, |v| v.len() as u64));
        Ok(got)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        self.inner.lock().delete(key)
    }

    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        let inner = self.inner.lock();
        let out: Vec<KvPair> = inner
            .map
            .range(start.to_vec()..end.to_vec())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.stats
            .on_scan(out.iter().map(|(_, v)| v.len() as u64).sum());
        Ok(out)
    }

    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        // Hold the lock across read and write so concurrent updates serialize.
        let mut inner = self.inner.lock();
        let new = f(inner.map.get(key).map(|v| v.as_slice()));
        self.stats.on_put((key.len() + new.len()) as u64);
        inner.put(key, new)
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        // One lock acquisition for the whole batch — the single-RPC
        // analogue the planner's batched GFU fetch counts on.
        let inner = self.inner.lock();
        let out: Vec<Option<Vec<u8>>> = keys.iter().map(|k| inner.map.get(k).cloned()).collect();
        let bytes: u64 = out
            .iter()
            .map(|v| v.as_ref().map_or(0, |v| v.len() as u64))
            .sum();
        self.stats.on_multi_get(keys.len() as u64, bytes);
        Ok(out)
    }

    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    fn logical_size_bytes(&self) -> u64 {
        self.inner
            .lock()
            .map
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }

    fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.writer.flush().map_err(DgfError::from)?;
        self.maybe_auto_compact(&mut inner)
    }

    /// Threshold-gated compaction for the maintenance daemon. Serving
    /// paths never call `flush()` — its opportunistic compaction would
    /// otherwise be the log's only bound, and a store under sustained
    /// appends would leak dead bytes forever. Runs regardless of
    /// `auto_compact` (that flag only governs the flush-time trigger),
    /// but still respects the size floor and dead-ratio threshold so an
    /// idle store is not rewritten for nothing.
    fn maintain(&self) -> Result<u64> {
        let mut inner = self.inner.lock();
        inner.writer.flush().map_err(DgfError::from)?;
        if inner.log_len < self.config.compact_min_bytes || inner.dead_bytes == 0 {
            return Ok(0);
        }
        let dead_frac = inner.dead_bytes as f64 / inner.log_len as f64;
        if dead_frac <= self.config.compact_dead_ratio {
            return Ok(0);
        }
        self.compact_locked(&mut inner)
    }

    fn stats(&self) -> &KvStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::TempDir;

    #[test]
    fn basic_ops_and_persistence() {
        let t = TempDir::new("logkv").unwrap();
        let p = t.path().join("kv.log");
        {
            let kv = LogKvStore::open(&p).unwrap();
            kv.put(b"a", b"1").unwrap();
            kv.put(b"b", b"2").unwrap();
            kv.delete(b"a").unwrap();
            kv.flush().unwrap();
        }
        let kv = LogKvStore::open(&p).unwrap();
        assert!(kv.get(b"a").unwrap().is_none());
        assert_eq!(kv.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let t = TempDir::new("logkv").unwrap();
        let p = t.path().join("kv.log");
        {
            let kv = LogKvStore::open(&p).unwrap();
            kv.put(b"a", b"1").unwrap();
            kv.put(b"b", b"2").unwrap();
            kv.flush().unwrap();
        }
        // Chop 5 bytes off the tail, tearing the second record.
        let len = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 5).unwrap();

        let kv = LogKvStore::open(&p).unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert!(kv.get(b"b").unwrap().is_none());
        // And the store keeps working after recovery.
        kv.put(b"c", b"3").unwrap();
        kv.flush().unwrap();
        let kv = LogKvStore::open(&p).unwrap();
        assert_eq!(kv.get(b"c").unwrap().unwrap(), b"3");
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let t = TempDir::new("logkv").unwrap();
        let p = t.path().join("kv.log");
        {
            let kv = LogKvStore::open(&p).unwrap();
            kv.put(b"a", b"1").unwrap();
            kv.put(b"b", b"2").unwrap();
            kv.flush().unwrap();
        }
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();

        let kv = LogKvStore::open(&p).unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert!(kv.get(b"b").unwrap().is_none());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let t = TempDir::new("logkv").unwrap();
        let p = t.path().join("kv.log");
        let kv = LogKvStore::open(&p).unwrap();
        for i in 0..100u32 {
            kv.put(b"hot", &i.to_le_bytes()).unwrap();
        }
        let before = kv.log_len();
        let reclaimed = kv.compact().unwrap();
        assert!(reclaimed > 0);
        assert!(kv.log_len() < before);
        assert_eq!(kv.get(b"hot").unwrap().unwrap(), 99u32.to_le_bytes());
        // Still durable after compaction.
        kv.flush().unwrap();
        drop(kv);
        let kv = LogKvStore::open(&p).unwrap();
        assert_eq!(kv.get(b"hot").unwrap().unwrap(), 99u32.to_le_bytes());
    }

    #[test]
    fn dead_bytes_track_overwrites_and_survive_reopen() {
        let t = TempDir::new("logkv").unwrap();
        let p = t.path().join("kv.log");
        let cfg = LogKvConfig {
            auto_compact: false,
            ..LogKvConfig::default()
        };
        {
            let kv = LogKvStore::open_with(&p, cfg.clone()).unwrap();
            assert_eq!(kv.dead_bytes(), 0);
            kv.put(b"k", b"v1").unwrap();
            assert_eq!(kv.dead_bytes(), 0);
            kv.put(b"k", b"v2").unwrap();
            // Overwrite kills the first record: 17 + klen + vlen bytes.
            assert_eq!(kv.dead_bytes(), 17 + 1 + 2);
            kv.put(b"gone", b"x").unwrap();
            kv.delete(b"gone").unwrap();
            // Delete kills the put and its own tombstone.
            assert_eq!(kv.dead_bytes(), (17 + 1 + 2) + (17 + 4 + 1) + (17 + 4));
            kv.flush().unwrap();
        }
        // Replay recomputes the same dead-byte count.
        let kv = LogKvStore::open_with(&p, cfg).unwrap();
        assert_eq!(kv.dead_bytes(), (17 + 1 + 2) + (17 + 4 + 1) + (17 + 4));
        // Manual compaction resets it and bumps the counter.
        kv.compact().unwrap();
        assert_eq!(kv.dead_bytes(), 0);
        assert_eq!(kv.stats().snapshot().compactions, 1);
    }

    /// Racing deletes of one key: exactly one wins and logs a tombstone,
    /// so `dead_bytes` is exactly what a compaction then reclaims.
    #[test]
    fn racing_deletes_log_one_tombstone_per_key() {
        let t = TempDir::new("logkv").unwrap();
        let kv = LogKvStore::open(t.path().join("kv.log")).unwrap();
        let keys: Vec<[u8; 4]> = (0..1000u32).map(u32::to_le_bytes).collect();
        for k in &keys {
            kv.put(k, b"value").unwrap();
        }
        let won: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| s.spawn(|| keys.iter().filter(|k| kv.delete(&k[..]).unwrap()).count()))
                .collect();
            threads.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(won, keys.len());
        let dead = kv.dead_bytes();
        assert_eq!(kv.compact().unwrap(), dead);
        assert_eq!(kv.log_len(), 0);
    }

    #[test]
    fn auto_compaction_triggers_on_dead_ratio() {
        let t = TempDir::new("logkv").unwrap();
        let kv = LogKvStore::open_with(
            t.path().join("kv.log"),
            LogKvConfig {
                auto_compact: true,
                compact_min_bytes: 256,
                compact_dead_ratio: 0.5,
            },
        )
        .unwrap();
        // Hammer one key: almost every byte of the log goes dead, so the
        // store must compact itself at the flush boundaries along the way
        // (puts themselves never compact — they stay cheap appends).
        for i in 0..200u32 {
            kv.put(b"hot", &i.to_le_bytes()).unwrap();
            kv.flush().unwrap();
        }
        let snap = kv.stats().snapshot();
        assert!(snap.compactions > 0, "auto-compaction never ran");
        // Live state intact, log bounded near a single record.
        assert_eq!(kv.get(b"hot").unwrap().unwrap(), 199u32.to_le_bytes());
        assert!(kv.log_len() < 256 + 64);
        // Dead bytes are bounded by the trigger point (`compact_min_bytes`
        // floor plus one record), not by the 4.8 KB the 200 puts appended.
        assert!(kv.dead_bytes() <= 256 + 32);
    }

    #[test]
    fn multi_get_is_one_batch() {
        let t = TempDir::new("logkv").unwrap();
        let kv = LogKvStore::open(t.path().join("kv.log")).unwrap();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"c", b"3").unwrap();
        let got = kv
            .multi_get(&[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()])
            .unwrap();
        assert_eq!(
            got,
            vec![Some(b"1".to_vec()), None, Some(b"3".to_vec())]
        );
        let snap = kv.stats().snapshot();
        // One batched round trip, zero single-key fallbacks.
        assert_eq!(snap.multi_gets, 1);
        assert_eq!(snap.multi_get_keys, 3);
        assert_eq!(snap.gets, 0);
    }

    #[test]
    fn update_persists() {
        let t = TempDir::new("logkv").unwrap();
        let p = t.path().join("kv.log");
        {
            let kv = LogKvStore::open(&p).unwrap();
            kv.update(b"k", &mut |_| b"v1".to_vec()).unwrap();
            kv.update(b"k", &mut |old| {
                assert_eq!(old.unwrap(), b"v1");
                b"v2".to_vec()
            })
            .unwrap();
            kv.flush().unwrap();
        }
        let kv = LogKvStore::open(&p).unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn scan_matches_mem_semantics() {
        let t = TempDir::new("logkv").unwrap();
        let kv = LogKvStore::open(t.path().join("kv.log")).unwrap();
        for k in [&b"a"[..], b"b", b"c"] {
            kv.put(k, k).unwrap();
        }
        let got = kv.scan_range(b"a", b"c").unwrap();
        assert_eq!(got.len(), 2);
        let got = kv.scan_prefix(b"b").unwrap();
        assert_eq!(got.len(), 1);
    }
}

//! The streaming write-ahead log.
//!
//! Acknowledged batches hit this single-file log before they are visible
//! anywhere else; the memtable and every query answer derive from state
//! the WAL can reconstruct. A record is one checksummed frame of the
//! codec [`dgf_kvstore::LogKvStore`]'s log uses too
//! ([`dgf_common::codec::write_frame`]:
//! `[u32 payload_len][payload][u64 fnv1a(payload)]`), so a torn or
//! corrupt tail truncates cleanly instead of poisoning recovery, and a
//! batch is atomic: after a crash it is either fully replayable or
//! entirely absent (its ack was then never returned).
//!
//! The payload of one record is one ingest batch: `seq(u64)`, a varint
//! row count, and per row a varint cell count and its cells in the tagged
//! [`dgf_common::codec::put_value`] encoding RCFile cells use, so a batch
//! replays exactly as it was acknowledged. A checksummed frame that is no
//! batch is not a torn tail: opening such a log is `Corrupt`.
//!
//! Group commit: [`append_batch`](IngestWal::append_batch) hands out a
//! monotone *ticket* under the log lock, and [`sync`](IngestWal::sync)
//! makes everything appended so far durable in one writer flush +
//! `fsync`, skipping entirely when a concurrent caller's sync already
//! covered this call's own ticket — N racing ingesters pay one fsync,
//! not N. Coverage is judged by append order (tickets), never by batch
//! sequence numbers: sequences are allocated before the log lock, so a
//! lower seq can be appended *after* a higher one was synced, and a
//! seq-based skip test would wrongly treat its buffered bytes as
//! durable.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use dgf_common::codec::{get_value, put_value, put_varint, write_frame, Decoder, FrameReader};
use dgf_common::{DgfError, Result, Row};

/// One acknowledged WAL batch (possibly not yet flushed into Slices).
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Monotone batch sequence number; the index's persisted ingest
    /// watermark is the highest `seq` whose rows are committed.
    pub seq: u64,
    /// The batch's rows, as acknowledged.
    pub rows: Vec<Row>,
}

#[derive(Debug)]
struct WalState {
    writer: BufWriter<File>,
    len: u64,
    /// Monotone count of appends through this handle; each append's
    /// ticket is the counter value after it (buffered; durable only once
    /// a sync covers the ticket).
    append_ticket: u64,
    /// Highest append ticket covered by a durable sync.
    synced_ticket: u64,
    /// `(seq, payload)` of every batch `rewrite` has not dropped, oldest
    /// first.
    tail: VecDeque<(u64, Vec<u8>)>,
}

/// A checksummed, group-committed write-ahead log of ingest batches.
#[derive(Debug)]
pub struct IngestWal {
    path: PathBuf,
    state: Mutex<WalState>,
}

impl IngestWal {
    /// Open (or create) the WAL at `path`. Batches with
    /// `seq <= flushed_seq` were committed into Slices by a flush whose
    /// watermark advance reached the store — they are dropped here (the
    /// log is rewritten without them). Everything newer is returned for
    /// the caller to rebuild the memtable from, and retained in the log
    /// until a future [`rewrite`](Self::rewrite) covers it.
    pub fn open(path: impl Into<PathBuf>, flushed_seq: u64) -> Result<(IngestWal, Vec<WalBatch>)> {
        let path = path.into();
        let (mut tail, mut batches) = (VecDeque::new(), Vec::new());
        for payload in frames(&path)? {
            let batch = decode_batch(&payload)?;
            if batch.seq > flushed_seq {
                tail.push_back((batch.seq, payload));
                batches.push(batch);
            }
        }
        write_whole_log(&path, &tail)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        let wal = IngestWal {
            path,
            state: Mutex::new(WalState {
                writer: BufWriter::new(file),
                len,
                append_ticket: 0,
                synced_ticket: 0,
                tail,
            }),
        };
        Ok((wal, batches))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.state.lock().len
    }

    /// Number of batches the log still retains.
    pub fn batch_count(&self) -> usize {
        self.state.lock().tail.len()
    }

    /// Append batch `seq`, whose rows [`encode_rows`] made `encoded`
    /// (buffered — not durable until a sync covers the returned ticket).
    /// Returns `(framed bytes written, append ticket)`; tickets are
    /// handed out in append order under the log lock, so ticket coverage
    /// — unlike seq coverage — is exactly byte coverage.
    pub fn append_batch(&self, seq: u64, encoded: &[u8]) -> Result<(u64, u64)> {
        let payload = [&seq.to_le_bytes()[..], encoded].concat();
        let mut st = self.state.lock();
        let n = write_frame(&mut st.writer, &payload)?;
        st.len += n;
        st.append_ticket += 1;
        let ticket = st.append_ticket;
        st.tail.push_back((seq, payload));
        Ok((n, ticket))
    }

    /// Group commit: make every append up to (at least) `ticket` durable
    /// (writer flush + `sync_data`). Returns `false` when a concurrent
    /// sync already covered the ticket and this call did no I/O at all.
    pub fn sync(&self, ticket: u64) -> Result<bool> {
        let mut st = self.state.lock();
        if st.synced_ticket >= ticket {
            return Ok(false);
        }
        st.writer.flush()?;
        st.writer.get_ref().sync_data()?;
        // One fsync covers everything appended so far, not just `ticket`.
        st.synced_ticket = st.append_ticket;
        Ok(true)
    }

    /// Drop batches with `seq <= flushed_seq` by rewriting the log
    /// (write-temporary-then-rename, like the key-value store's
    /// compaction). Crash-safe in both orders: if the rename never
    /// lands, replay still skips the stale prefix by watermark.
    pub fn rewrite(&self, flushed_seq: u64) -> Result<()> {
        let mut st = self.state.lock();
        st.writer.flush()?;
        while st.tail.front().is_some_and(|(seq, _)| *seq <= flushed_seq) {
            st.tail.pop_front();
        }
        write_whole_log(&self.path, &st.tail)?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        st.len = file.metadata()?.len();
        st.writer = BufWriter::new(file);
        // The rewritten file holds exactly the retained tail, fsynced
        // before the rename — every outstanding ticket is durable now.
        st.synced_ticket = st.append_ticket;
        Ok(())
    }
}

/// The rows of one batch as its WAL record carries them (see the module
/// docs), for [`IngestWal::append_batch`].
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, rows.len() as u64);
    for row in rows {
        put_varint(&mut buf, row.len() as u64);
        for v in row {
            put_value(&mut buf, v);
        }
    }
    buf
}

/// Replace the log file with exactly the `batches` payloads via tmp +
/// fsync + rename (+ directory fsync, so the rename itself survives
/// power loss).
fn write_whole_log(path: &Path, batches: &VecDeque<(u64, Vec<u8>)>) -> Result<()> {
    let tmp = path.with_extension("rewrite");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        for (_, payload) in batches {
            write_frame(&mut w, payload)?;
        }
        w.flush()?;
        w.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Every intact frame's payload, up to the first torn or corrupt one.
fn frames(path: &Path) -> Result<Vec<Vec<u8>>> {
    let Ok(file) = File::open(path) else {
        return Ok(Vec::new());
    };
    let len = file.metadata()?.len();
    Ok(FrameReader::new(BufReader::new(file), len).collect())
}

fn decode_batch(payload: &[u8]) -> Result<WalBatch> {
    let mut d = Decoder::new(payload);
    let seq = d.u64()?;
    let n = d.varint_count(1)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let cells = d.varint_count(1)?;
        rows.push((0..cells).map(|_| get_value(&mut d)).collect::<Result<Row>>()?);
    }
    if d.remaining() != 0 {
        return Err(DgfError::Corrupt(format!("WAL batch {seq} has trailing bytes")));
    }
    Ok(WalBatch { seq, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{TempDir, Value};

    fn rows(tag: &str, n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::Str(format!("{tag}-{i}")), Value::Null])
            .collect()
    }

    fn append(wal: &IngestWal, seq: u64, rows: &[Row]) -> (u64, u64) {
        wal.append_batch(seq, &encode_rows(rows)).unwrap()
    }

    /// Seeded byte mutations of a synced log — every truncation, one bit
    /// of every byte, and multi-bit flips. Opening a mutant never panics,
    /// and it replays exactly the batches whose frames end before the
    /// first damaged byte.
    #[test]
    fn mutated_logs_replay_the_batches_before_the_damage() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        let batches: Vec<WalBatch> = (1..=4)
            .map(|seq| WalBatch { seq, rows: rows(&format!("b{seq}"), seq as usize) })
            .collect();
        let mut ends = Vec::new();
        {
            let (wal, _) = IngestWal::open(&p, 0).unwrap();
            let mut end = 0;
            for b in &batches {
                let (n, ticket) = append(&wal, b.seq, &b.rows);
                wal.sync(ticket).unwrap();
                end += n;
                ends.push(end);
            }
        }
        let good = std::fs::read(&p).unwrap();
        assert_eq!(Some(&(good.len() as u64)), ends.last());

        let mut mutants: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        let mut rng = dgf_common::fault::XorShift64::new(31);
        for at in 0..good.len() {
            let mut m = good.clone();
            m[at] ^= 1 << rng.next_below(8);
            mutants.push(m);
        }
        for _ in 0..200 {
            let mut m = good.clone();
            for _ in 0..2 + rng.next_below(3) {
                m[rng.next_below(good.len() as u64) as usize] ^= 1 << rng.next_below(8);
            }
            mutants.push(m);
        }
        for (n, bytes) in mutants.iter().enumerate() {
            let damaged = (bytes.iter().zip(&good).position(|(a, b)| a != b))
                .unwrap_or(bytes.len()) as u64;
            let intact = ends.iter().filter(|&&end| end <= damaged).count();
            std::fs::write(&p, bytes).unwrap();
            let opened = std::panic::catch_unwind(|| IngestWal::open(&p, 0));
            let (_, replayed) = opened.unwrap_or_else(|_| panic!("mutant {n} panicked")).unwrap();
            assert_eq!(replayed, batches[..intact], "mutant {n} of {} bytes", bytes.len());
        }
    }

    /// A frame whose checksum holds but whose payload is no batch was not
    /// torn by a crash: the log is `Corrupt`, and the acknowledged batches
    /// before it are not silently truncated away.
    #[test]
    fn a_checksummed_frame_that_is_no_batch_is_corrupt() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        {
            let (wal, _) = IngestWal::open(&p, 0).unwrap();
            let (_, ticket) = append(&wal, 1, &rows("a", 2));
            wal.sync(ticket).unwrap();
        }
        let good = std::fs::read(&p).unwrap();
        let mut trailing = 2u64.to_le_bytes().to_vec();
        trailing.extend(encode_rows(&rows("b", 1)));
        trailing.push(0);
        let mut unknown_tag = 2u64.to_le_bytes().to_vec();
        unknown_tag.extend([1, 1, 9]);
        let huge_count = [&2u64.to_le_bytes()[..], &[0xFF, 0xFF, 0xFF, 0x7F]].concat();
        for payload in [&b""[..], b"not a batch", &trailing, &unknown_tag, &huge_count] {
            let mut log = good.clone();
            write_frame(&mut log, payload).unwrap();
            std::fs::write(&p, &log).unwrap();
            let opened = IngestWal::open(&p, 0);
            assert!(matches!(opened, Err(DgfError::Corrupt(_))), "{payload:02x?}");
            assert_eq!(std::fs::read(&p).unwrap(), log, "a corrupt log is left as found");
        }
    }

    /// Every value replays as it was logged: `""` apart from NULL, the
    /// sign of `-0.0`, a date before 1970.
    #[test]
    fn append_replay_roundtrip() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        let odd = vec![vec![
            Value::Str(String::new()),
            Value::Null,
            Value::Str("on".into()),
            Value::Float(-0.0),
            Value::Date(-4_000),
        ]];
        {
            let (wal, replayed) = IngestWal::open(&p, 0).unwrap();
            assert!(replayed.is_empty());
            append(&wal, 1, &rows("a", 3));
            let (_, t) = append(&wal, 2, &odd);
            assert!(wal.sync(t).unwrap());
        }
        let (wal, replayed) = IngestWal::open(&p, 0).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0], WalBatch { seq: 1, rows: rows("a", 3) });
        assert_eq!(replayed[1], WalBatch { seq: 2, rows: odd });
        let Value::Float(zero) = replayed[1].rows[0][3] else { panic!("not a float") };
        assert!(zero.is_sign_negative());
        assert_eq!(wal.batch_count(), 2);
    }

    #[test]
    fn open_drops_flushed_batches() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        {
            let (wal, _) = IngestWal::open(&p, 0).unwrap();
            let mut last = 0;
            for s in 1..=4u64 {
                last = append(&wal, s, &rows("x", 1)).1;
            }
            wal.sync(last).unwrap();
        }
        // Watermark 2: batches 1–2 are committed in Slices already.
        let (wal, replayed) = IngestWal::open(&p, 2).unwrap();
        assert_eq!(replayed.iter().map(|b| b.seq).collect::<Vec<_>>(), [3, 4]);
        drop(wal);
        // The rewrite stuck: a second open with watermark 0 no longer
        // sees the flushed prefix.
        let (_, replayed) = IngestWal::open(&p, 0).unwrap();
        assert_eq!(replayed.iter().map(|b| b.seq).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn torn_tail_drops_only_last_batch() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        {
            let (wal, _) = IngestWal::open(&p, 0).unwrap();
            append(&wal, 1, &rows("a", 2));
            let (_, t) = append(&wal, 2, &rows("b", 2));
            wal.sync(t).unwrap();
        }
        let len = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 3).unwrap();

        let (_, replayed) = IngestWal::open(&p, 0).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].seq, 1);
    }

    #[test]
    fn group_commit_skips_covered_tickets() {
        let t = TempDir::new("wal").unwrap();
        let (wal, _) = IngestWal::open(t.path().join("ingest.wal"), 0).unwrap();
        let (_, t1) = append(&wal, 1, &rows("a", 1));
        let (_, t2) = append(&wal, 2, &rows("b", 1));
        let (_, t3) = append(&wal, 3, &rows("c", 1));
        // One sync at the last ticket covers everything…
        assert!(wal.sync(t3).unwrap());
        // …so syncing the earlier appends is free.
        assert!(!wal.sync(t1).unwrap());
        assert!(!wal.sync(t2).unwrap());
        assert!(!wal.sync(t3).unwrap());
    }

    #[test]
    fn sync_covers_out_of_order_seq_appends() {
        // Batch sequences are allocated before the log lock, so a lower
        // seq can be appended after a higher one was already synced. The
        // later append's bytes are still only buffered — its sync must do
        // I/O (a seq-based `synced >= requested` test would skip it and
        // acknowledge a batch a crash could lose).
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        let (wal, _) = IngestWal::open(&p, 0).unwrap();
        let (_, t6) = append(&wal, 6, &rows("late", 1));
        assert!(wal.sync(t6).unwrap());
        let (_, t5) = append(&wal, 5, &rows("early", 1));
        assert!(
            wal.sync(t5).unwrap(),
            "append after a sync must not be treated as covered"
        );
        assert!(!wal.sync(t5).unwrap());
        // Both batches replay.
        drop(wal);
        let (_, replayed) = IngestWal::open(&p, 0).unwrap();
        assert_eq!(replayed.iter().map(|b| b.seq).collect::<Vec<_>>(), [6, 5]);
    }

    #[test]
    fn rewrite_shrinks_log() {
        let t = TempDir::new("wal").unwrap();
        let (wal, _) = IngestWal::open(t.path().join("ingest.wal"), 0).unwrap();
        let mut last = 0;
        for s in 1..=10u64 {
            last = append(&wal, s, &rows("r", 4)).1;
        }
        wal.sync(last).unwrap();
        let before = wal.len_bytes();
        wal.rewrite(8).unwrap();
        assert!(wal.len_bytes() < before);
        assert_eq!(wal.batch_count(), 2);
    }
}

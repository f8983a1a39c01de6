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
//! The payload of one record is one ingest batch:
//! `seq(u64) | nrows(u32) | nrows × (u32 line_len | line)`, where each
//! line is a [`dgf_common::format_row`] rendering of one row.
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

use dgf_common::codec::{write_frame, FrameReader};
use dgf_common::Result;

/// One acknowledged WAL batch (possibly not yet flushed into Slices).
#[derive(Debug, Clone)]
pub struct WalBatch {
    /// Monotone batch sequence number; the index's persisted ingest
    /// watermark is the highest `seq` whose rows are committed.
    pub seq: u64,
    /// The batch's rows in `format_row` text form.
    pub lines: Vec<String>,
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
    /// Appended batches not yet dropped by `rewrite`, oldest first.
    tail: VecDeque<WalBatch>,
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
        let mut batches = replay(&path)?;
        batches.retain(|b| b.seq > flushed_seq);
        write_whole_log(&path, &batches)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        let wal = IngestWal {
            path,
            state: Mutex::new(WalState {
                writer: BufWriter::new(file),
                len,
                append_ticket: 0,
                synced_ticket: 0,
                tail: batches.iter().cloned().collect(),
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

    /// Append one batch (buffered — not durable until a sync covers the
    /// returned ticket). Returns `(framed bytes written, append ticket)`;
    /// tickets are handed out in append order under the log lock, so
    /// ticket coverage — unlike seq coverage — is exactly byte coverage.
    /// The lines move into the retained tail.
    pub fn append_batch(&self, seq: u64, lines: Vec<String>) -> Result<(u64, u64)> {
        let mut st = self.state.lock();
        let n = write_batch_record(&mut st.writer, seq, &lines)?;
        st.len += n;
        st.append_ticket += 1;
        let ticket = st.append_ticket;
        st.tail.push_back(WalBatch { seq, lines });
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
        while st.tail.front().is_some_and(|b| b.seq <= flushed_seq) {
            st.tail.pop_front();
        }
        let keep: Vec<WalBatch> = st.tail.iter().cloned().collect();
        write_whole_log(&self.path, &keep)?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        st.len = file.metadata()?.len();
        st.writer = BufWriter::new(file);
        // The rewritten file holds exactly the retained tail, fsynced
        // before the rename — every outstanding ticket is durable now.
        st.synced_ticket = st.append_ticket;
        Ok(())
    }
}

fn write_batch_record<W: Write>(w: &mut W, seq: u64, lines: &[String]) -> Result<u64> {
    let body: usize = lines.iter().map(|l| 4 + l.len()).sum();
    let mut payload = Vec::with_capacity(8 + 4 + body);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(lines.len() as u32).to_le_bytes());
    for line in lines {
        payload.extend_from_slice(&(line.len() as u32).to_le_bytes());
        payload.extend_from_slice(line.as_bytes());
    }
    write_frame(w, &payload)
}

/// Replace the log file with exactly `batches` via tmp + fsync + rename
/// (+ directory fsync, so the rename itself survives power loss).
fn write_whole_log(path: &Path, batches: &[WalBatch]) -> Result<()> {
    let tmp = path.with_extension("rewrite");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        for b in batches {
            write_batch_record(&mut w, b.seq, &b.lines)?;
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

/// Replay every intact batch; stop (truncating implicitly) at the first
/// torn or corrupt record, or the first whose payload is not a batch: no
/// such batch was ever acknowledged.
fn replay(path: &Path) -> Result<Vec<WalBatch>> {
    let Ok(file) = File::open(path) else {
        return Ok(Vec::new());
    };
    let len = file.metadata()?.len();
    Ok(FrameReader::new(BufReader::new(file), len)
        .map_while(|payload| decode_batch(&payload))
        .collect())
}

fn decode_batch(payload: &[u8]) -> Option<WalBatch> {
    if payload.len() < 12 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let nrows = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    // Each line takes at least its four-byte length.
    let mut lines = Vec::with_capacity(nrows.min(payload.len() / 4));
    let mut at = 12;
    for _ in 0..nrows {
        let llen = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        let line = std::str::from_utf8(payload.get(at..at + llen)?).ok()?;
        at += llen;
        lines.push(line.to_owned());
    }
    Some(WalBatch { seq, lines })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::TempDir;

    fn lines(tag: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{tag}-{i}")).collect()
    }

    /// Seeded byte mutations of a synced log — every truncation, one bit
    /// of every byte, and multi-bit flips. Opening a mutant never panics,
    /// and it replays exactly the batches whose frames end before the
    /// first damaged byte.
    #[test]
    fn mutated_logs_replay_the_batches_before_the_damage() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        let batches: Vec<(u64, Vec<String>)> =
            (1..=4).map(|s| (s, lines(&format!("b{s}"), s as usize))).collect();
        let mut ends = Vec::new();
        {
            let (wal, _) = IngestWal::open(&p, 0).unwrap();
            let mut end = 0;
            for (seq, l) in &batches {
                let (n, ticket) = wal.append_batch(*seq, l.clone()).unwrap();
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
            let replayed: Vec<(u64, Vec<String>)> =
                replayed.into_iter().map(|b| (b.seq, b.lines)).collect();
            assert_eq!(replayed, batches[..intact], "mutant {n} of {} bytes", bytes.len());
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let t = TempDir::new("wal").unwrap();
        let p = t.path().join("ingest.wal");
        {
            let (wal, replayed) = IngestWal::open(&p, 0).unwrap();
            assert!(replayed.is_empty());
            wal.append_batch(1, lines("a", 3)).unwrap();
            let (_, t) = wal.append_batch(2, lines("b", 2)).unwrap();
            assert!(wal.sync(t).unwrap());
        }
        let (wal, replayed) = IngestWal::open(&p, 0).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].seq, 1);
        assert_eq!(replayed[0].lines, lines("a", 3));
        assert_eq!(replayed[1].lines, lines("b", 2));
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
                last = wal.append_batch(s, lines("x", 1)).unwrap().1;
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
            wal.append_batch(1, lines("a", 2)).unwrap();
            let (_, t) = wal.append_batch(2, lines("b", 2)).unwrap();
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
        let (_, t1) = wal.append_batch(1, lines("a", 1)).unwrap();
        let (_, t2) = wal.append_batch(2, lines("b", 1)).unwrap();
        let (_, t3) = wal.append_batch(3, lines("c", 1)).unwrap();
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
        let (_, t6) = wal.append_batch(6, lines("late", 1)).unwrap();
        assert!(wal.sync(t6).unwrap());
        let (_, t5) = wal.append_batch(5, lines("early", 1)).unwrap();
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
            last = wal.append_batch(s, lines("r", 4)).unwrap().1;
        }
        wal.sync(last).unwrap();
        let before = wal.len_bytes();
        wal.rewrite(8).unwrap();
        assert!(wal.len_bytes() < before);
        assert_eq!(wal.batch_count(), 2);
    }
}

//! The streaming ingestor: WAL → memtable → staged-commit flush.
//!
//! Write path of one batch (`ingest`):
//!
//! 1. **Validate** — every row is conformed to the base table and routed
//!    to its GFU cell *before* any side effect, so a malformed batch is
//!    rejected whole.
//! 2. **Admit** — admission control bounds buffered bytes by *reserving*
//!    the batch's bytes atomically up front (released again on rejection
//!    or failure), so N racing batches cannot each pass a stale check and
//!    collectively overshoot the bound; over the limit the batch is
//!    rejected with [`DgfError::Backpressure`] and counted, never
//!    silently dropped or blocking.
//! 3. **Log** — the batch is appended to the [`IngestWal`] and made
//!    durable by a group commit (one writer flush + fsync covers every
//!    batch appended so far, judged by append ticket).
//! 4. **Buffer** — rows land in the active memtable slot's cells, each
//!    folding into its cell's header as it arrives.
//!
//! Steps 3–4 (from sequence allocation through the memtable insert) run
//! under the shared side of a batch gate; a flush's memtable snapshot
//! takes the exclusive side. The snapshot therefore never observes a
//! `max_seq` while some lower, already-WAL-appended sequence is still on
//! its way into the memtable — without the gate such a flush would
//! commit a watermark covering that in-flight batch, and recovery would
//! drop it from both the WAL and the memtable: an acknowledged batch
//! lost. Concurrent ingesters share the gate (reads), so group-commit
//! amortization is unaffected.
//!
//! The ack (the returned sequence) means: durable in the WAL, and
//! visible to every subsequent query through the index's
//! [`FreshSource`] merge — with **zero** header-cache generation bumps
//! until a flush actually rewrites Slices.
//!
//! The flush (inline when the active slot fills, or from the background
//! flusher when it ages out) swaps the active slot into the flushing
//! slot — the union queries see is unchanged — and hands the slot's cells
//! to the index's staged-commit `append_cells` with the batch watermark
//! riding the published read view: Slices publish and the watermark
//! advances in the same atomic commit, which is exactly when the slot
//! stops being merged from memory. The slot leaves the memtable only
//! after that commit has landed, so a plan pinned to any committed view
//! finds each row either in the view or in the memtable, never both and
//! never neither; a plan the commit overtakes fails its view validation
//! and re-pins. Queries never wait on a flush.
//!
//! Crash anywhere and `dgf_core::txn::recover` plus WAL replay
//! reconstruct a state equal to some prefix of acknowledged batches
//! (plus, possibly, one unacknowledged in-flight batch — atomic either
//! way).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use dgf_common::obs::names;
use dgf_common::{counter_block, DgfError, Result, Row};
use dgf_core::{DgfIndex, FreshSource, GfuCells};

use crate::memtable::{Memtable, Slot};
use crate::wal::{encode_rows, IngestWal};

/// Tuning knobs for [`StreamIngestor`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Admission control: reject batches that would push buffered bytes
    /// (the rows' WAL encoding) past this bound.
    pub max_buffered_bytes: u64,
    /// Flush inline once the active slot buffers this many rows.
    pub flush_rows: u64,
    /// Background flusher: flush a non-empty active slot older than this.
    pub flush_age: Duration,
    /// Poll interval of the background flusher thread; `None` disables
    /// the thread entirely (flushes then happen only inline or via
    /// [`StreamIngestor::flush`] — what deterministic tests want).
    pub auto_flush_interval: Option<Duration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_buffered_bytes: 64 << 20,
            flush_rows: 50_000,
            flush_age: Duration::from_millis(200),
            auto_flush_interval: Some(Duration::from_millis(25)),
        }
    }
}

counter_block! {
    /// Counters of the streaming write path, under the `ingest.*` registry
    /// names.
    pub struct IngestStats, snapshot IngestStatsSnapshot {
        /// Acknowledged batches.
        batches: names::INGEST_BATCHES,
        /// Acknowledged rows.
        rows: names::INGEST_ROWS,
        /// Bytes appended to the WAL.
        wal_bytes: names::INGEST_WAL_BYTES,
        /// WAL sync (group-commit) operations actually performed.
        wal_syncs: names::INGEST_WAL_SYNCS,
        /// Batches rejected by admission control.
        rejections: names::INGEST_REJECTIONS,
        /// Completed flushes.
        flushes: names::INGEST_FLUSHES,
        /// Rows converted into Slices by completed flushes.
        flushed_rows: names::INGEST_FLUSHED_ROWS,
        /// Flush attempts that failed (the ingestor is then poisoned).
        flush_failures: names::INGEST_FLUSH_FAILURES,
        /// Batches restored from the WAL at open.
        replayed_batches: names::INGEST_REPLAYED_BATCHES,
        /// Rows restored from the WAL at open.
        replayed_rows: names::INGEST_REPLAYED_ROWS,
    }
}

/// The memtable and its admission accounting, shared between the
/// ingestor and the planner. The index holds this as its
/// [`FreshSource`]; it holds no reference back to the index, so dropping
/// the [`StreamIngestor`] leaves already-acknowledged (replayed or
/// buffered) rows visible to queries until the source is cleared or the
/// process exits.
#[derive(Debug)]
pub struct IngestShared {
    mem: Mutex<Memtable>,
    buffered_bytes: AtomicU64,
}

impl IngestShared {
    /// Bytes currently buffered (admission-control accounting).
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes.load(Ordering::SeqCst)
    }
}

impl FreshSource for IngestShared {
    fn fresh_cells(&self, flushed_seq: u64) -> Vec<Arc<GfuCells>> {
        self.mem.lock().fresh_cells(flushed_seq)
    }
}

/// Everything the flush path needs, shared with the background flusher.
struct Core {
    index: Arc<DgfIndex>,
    shared: Arc<IngestShared>,
    wal: IngestWal,
    config: IngestConfig,
    next_seq: AtomicU64,
    /// Guards the seq-allocate → WAL-append → memtable-insert window:
    /// ingesters hold the shared side across it, the flush snapshot takes
    /// the exclusive side, so a snapshot's `max_seq` always covers every
    /// lower acknowledged sequence (see the module docs).
    batch_gate: RwLock<()>,
    /// Serializes flushes (inline, explicit, and background).
    flush_lock: Mutex<()>,
    stats: IngestStats,
    /// Set when a flush failed: the flushing slot stays in the memtable
    /// and only the persisted watermark says whether its commit landed,
    /// so the only safe continuation is a reopen (which runs
    /// `dgf_core::txn::recover` and replays the WAL).
    poisoned: AtomicBool,
}

impl Core {
    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(DgfError::Index(
                "streaming ingestor is poisoned by a failed flush; reopen the \
                 index and the ingestor to recover (acknowledged rows are safe \
                 in the WAL)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// No cells yet, routed under the index's current policy.
    fn cells(&self) -> Result<GfuCells> {
        GfuCells::new(self.index.policy(), &self.index.base.schema, &self.index.aggs)
    }

    /// `rows` as the base table stores them, each routed to its GFU cell:
    /// no side effects, so a bad row rejects the batch before the WAL.
    fn validate(&self, rows: &[Row]) -> Result<Vec<Row>> {
        let rows = self.index.base.conform(rows)?;
        let cells = self.cells()?;
        rows.iter().try_for_each(|row| cells.route(row).map(drop))?;
        Ok(rows.into_owned())
    }

    /// Ingest one batch; returns its acknowledged sequence number.
    fn ingest(&self, rows: &[Row]) -> Result<u64> {
        self.check_poisoned()?;
        let stats = &self.stats;
        if rows.is_empty() {
            return Ok(self.next_seq.load(Ordering::SeqCst).saturating_sub(1));
        }
        let rows = self.validate(rows)?;
        let encoded = encode_rows(&rows);
        let n = rows.len() as u64;
        let batch_bytes = encoded.len() as u64;
        // Reserve the batch's bytes atomically: the check and the
        // accounting are one fetch_add, so concurrent batches cannot all
        // pass against the same stale reading and overshoot the bound.
        let already = self
            .shared
            .buffered_bytes
            .fetch_add(batch_bytes, Ordering::SeqCst);
        if already + batch_bytes > self.config.max_buffered_bytes {
            self.shared
                .buffered_bytes
                .fetch_sub(batch_bytes, Ordering::SeqCst);
            stats.rejections.inc();
            return Err(DgfError::Backpressure(format!(
                "{already} buffered + {batch_bytes} incoming exceeds the {} byte \
                 bound; flush (or wait for the background flusher) and resubmit",
                self.config.max_buffered_bytes
            )));
        }
        let span = self.index.profiler().span("ingest.batch");
        let written = (|| -> Result<(u64, u64)> {
            let _gate = self.batch_gate.read();
            let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
            let (wal_bytes, ticket) = self.wal.append_batch(seq, &encoded)?;
            stats.wal_bytes.add(wal_bytes);
            self.index.crash_point("ingest.wal-appended")?;
            if self.wal.sync(ticket)? {
                stats.wal_syncs.inc();
            }
            self.index.crash_point("ingest.wal-synced")?;
            self.shared.mem.lock().active.insert(seq, rows, batch_bytes)?;
            Ok((seq, wal_bytes))
        })();
        let (seq, wal_bytes) = match written {
            Ok(v) => v,
            Err(e) => {
                // The batch never fully reached the memtable: release its
                // reservation so a still-live ingestor's admission
                // accounting matches what is actually buffered.
                self.shared
                    .buffered_bytes
                    .fetch_sub(batch_bytes, Ordering::SeqCst);
                span.finish();
                return Err(e);
            }
        };
        stats.batches.inc();
        stats.rows.add(n);
        span.add(names::INGEST_ROWS, n);
        span.add(names::INGEST_WAL_BYTES, wal_bytes);
        span.finish();
        if self.active_rows() >= self.config.flush_rows {
            self.flush()?;
        }
        Ok(seq)
    }

    fn active_rows(&self) -> u64 {
        self.shared.mem.lock().active.rows
    }

    /// Write the buffered slot's cells as real Slices through the index's
    /// staged-commit `append_cells`. Returns the number of rows flushed
    /// (0 when there was nothing to flush).
    fn flush(&self) -> Result<u64> {
        let _serialize = self.flush_lock.lock();
        self.check_poisoned()?;
        let stats = &self.stats;
        let span = self.index.profiler().span("ingest.flush");
        // The next active slot routes under the policy current now.
        let next = Slot::new(self.cells()?);
        let slot = {
            // Exclusive side of the batch gate: wait out every batch
            // between WAL append and memtable insert, so the snapshot's
            // `max_seq` — committed below as the ingest watermark — never
            // covers an acknowledged sequence the memtable lacks.
            let _gate = self.batch_gate.write();
            let mut mem = self.shared.mem.lock();
            if mem.active.is_empty() {
                span.finish();
                return Ok(0);
            }
            // The swap is invisible to readers: the active/flushing union
            // the planner merges is unchanged, and both sides stay under
            // one lock.
            let slot = Arc::new(std::mem::replace(&mut mem.active, next));
            mem.flushing = Some(Arc::clone(&slot));
            slot
        };
        let kv_before = self.index.kv.stats().snapshot();
        let published = (|| -> Result<()> {
            // The index's fault plan: crash points, and pauses that widen
            // the window around the commit for racing readers.
            self.index.crash_point("ingest.flush-staged")?;
            self.index.sync_point("ingest.flush-commit");
            self.index.append_cells(&slot.cells, slot.max_seq)?;
            self.index.sync_point("ingest.flush-commit");
            self.index.crash_point("ingest.flush-committed")?;
            Ok(())
        })();
        self.index.kv.stats().snapshot().since(&kv_before).attach_to_span(&span);
        match published {
            Ok(()) => {
                self.shared.mem.lock().flushing = None;
                self.shared
                    .buffered_bytes
                    .fetch_sub(slot.bytes, Ordering::SeqCst);
                stats.flushes.inc();
                stats.flushed_rows.add(slot.rows);
                span.add(names::INGEST_FLUSHED_ROWS, slot.rows);
                span.finish();
                // Shrink the WAL; failing here is recoverable (replay
                // skips flushed batches by watermark), so no poisoning.
                self.wal.rewrite(slot.max_seq)?;
                Ok(slot.rows)
            }
            Err(e) => {
                stats.flush_failures.inc();
                self.poisoned.store(true, Ordering::SeqCst);
                // The slot stays: whether its commit landed is the
                // committed watermark's to say, and each plan cuts at it.
                span.finish();
                Err(e)
            }
        }
    }
}

/// The streaming write front-end of a [`DgfIndex`]. See the module docs
/// for the write path and crash story.
pub struct StreamIngestor {
    core: Arc<Core>,
    flusher: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl StreamIngestor {
    /// Open a streaming ingestor over `index`, with its WAL at
    /// `wal_path`. Replays unflushed WAL batches into the memtable (so
    /// acknowledged-but-unflushed rows from a previous process are
    /// immediately query-visible again) and registers the memtable as the
    /// index's fresh source.
    pub fn open(
        index: Arc<DgfIndex>,
        wal_path: impl Into<std::path::PathBuf>,
        config: IngestConfig,
    ) -> Result<StreamIngestor> {
        let flushed = index.ingest_watermark()?;
        let (wal, unflushed) = IngestWal::open(wal_path, flushed)?;
        let active = Slot::new(GfuCells::new(index.policy(), &index.base.schema, &index.aggs)?);
        let mem = Mutex::new(Memtable { active, flushing: None });
        let shared = Arc::new(IngestShared { mem, buffered_bytes: AtomicU64::new(0) });
        let top_seq = unflushed.iter().map(|b| b.seq).fold(flushed, u64::max);
        let core = Arc::new(Core {
            index: index.clone(),
            shared: shared.clone(),
            wal,
            config: config.clone(),
            next_seq: AtomicU64::new(top_seq + 1),
            batch_gate: RwLock::new(()),
            flush_lock: Mutex::new(()),
            poisoned: AtomicBool::new(false),
            stats: IngestStats::default(),
        });
        // Acknowledged-but-unflushed batches take an ingest's route back
        // into the memtable.
        for batch in &unflushed {
            let rows = core.validate(&batch.rows)?;
            let bytes = encode_rows(&rows).len() as u64;
            shared.mem.lock().active.insert(batch.seq, rows, bytes)?;
            shared.buffered_bytes.fetch_add(bytes, Ordering::SeqCst);
            core.stats.replayed_batches.inc();
            core.stats.replayed_rows.add(batch.rows.len() as u64);
        }
        index.set_fresh_source(shared);
        let shutdown = Arc::new(AtomicBool::new(false));
        let flusher = config.auto_flush_interval.map(|interval| {
            let core = core.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                // The vendored parking_lot has no Condvar, so the flusher
                // polls; the interval bounds both freshness lag and the
                // shutdown latency.
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    if core.poisoned.load(Ordering::SeqCst) {
                        break;
                    }
                    let due = {
                        let mem = core.shared.mem.lock();
                        !mem.active.is_empty()
                            && mem
                                .active
                                .first_row_at
                                .is_some_and(|t| t.elapsed() >= core.config.flush_age)
                    };
                    if due {
                        // A failure poisons the ingestor; the next
                        // iteration then exits the loop.
                        let _ = core.flush();
                    }
                }
            })
        });
        Ok(StreamIngestor {
            core,
            flusher,
            shutdown,
        })
    }

    /// Ingest one batch of rows. On success the returned sequence is
    /// acknowledged: durable in the WAL and visible to every query from
    /// now on. Errors leave no trace ([`DgfError::Backpressure`] when
    /// admission control rejects; schema errors reject pre-WAL).
    pub fn ingest(&self, rows: &[Row]) -> Result<u64> {
        self.core.ingest(rows)
    }

    /// Flush buffered rows into real Slices now. Returns rows flushed.
    pub fn flush(&self) -> Result<u64> {
        self.core.flush()
    }

    /// Streaming counters.
    pub fn stats(&self) -> IngestStatsSnapshot {
        self.core.stats.snapshot()
    }

    /// The shared memtable state (the index's registered fresh source).
    pub fn shared(&self) -> Arc<IngestShared> {
        self.core.shared.clone()
    }

    /// Stop the background flusher, flush remaining rows, and detach.
    /// Prefer this over dropping when the process intends to exit
    /// cleanly; plain `drop` stops the flusher but leaves buffered rows
    /// in the WAL (and query-visible), the crash-recovery path.
    pub fn close(mut self) -> Result<()> {
        self.stop_flusher();
        self.flush().map(|_| ())
    }

    fn stop_flusher(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StreamIngestor {
    fn drop(&mut self) {
        self.stop_flusher();
        // Deliberately no flush and no clear_fresh_source: acknowledged
        // rows stay in the WAL (durable) and in the shared memtable the
        // index still references (visible), matching crash semantics.
    }
}

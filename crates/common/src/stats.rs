//! Lightweight atomic counters and timing helpers.
//!
//! The paper's Tables 3, 4 and 6 report *records read after index filtering*;
//! those numbers come out of these counters rather than timings, so they are
//! exact and deterministic.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// I/O accounting shared by the storage layer, formats, and engines.
///
/// One `IoStats` is typically owned by a `SimHdfs` instance and handed to
/// every reader it opens, so a whole query's I/O is visible in one place.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Bytes read from data files.
    pub bytes_read: Counter,
    /// Bytes written to data files.
    pub bytes_written: Counter,
    /// Records decoded by record readers (the paper's "records read").
    pub records_read: Counter,
    /// Records appended by writers.
    pub records_written: Counter,
    /// Seek operations issued by skipping readers.
    pub seeks: Counter,
    /// Transient faults absorbed by retry loops in the storage layer.
    pub retries: Counter,
}

/// Shared handle to [`IoStats`].
pub type IoStatsRef = Arc<IoStats>;

impl IoStats {
    /// A fresh zeroed stats block behind an `Arc`.
    pub fn new_ref() -> IoStatsRef {
        Arc::new(IoStats::default())
    }

    /// Reset every counter (between benchmark runs).
    pub fn reset(&self) {
        self.bytes_read.reset();
        self.bytes_written.reset();
        self.records_read.reset();
        self.records_written.reset();
        self.seeks.reset();
        self.retries.reset();
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            records_read: self.records_read.get(),
            records_written: self.records_written.get(),
            seeks: self.seeks.get(),
            retries: self.retries.get(),
        }
    }
}

/// A copyable snapshot of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Bytes read from data files.
    pub bytes_read: u64,
    /// Bytes written to data files.
    pub bytes_written: u64,
    /// Records decoded by record readers.
    pub records_read: u64,
    /// Records appended by writers.
    pub records_written: u64,
    /// Seek operations issued by skipping readers.
    pub seeks: u64,
    /// Transient faults absorbed by retry loops in the storage layer.
    pub retries: u64,
}

impl IoSnapshot {
    /// Counter deltas `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            records_read: self.records_read.saturating_sub(earlier.records_read),
            records_written: self.records_written.saturating_sub(earlier.records_written),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} B / {} rec, wrote {} B / {} rec, {} seeks",
            self.bytes_read, self.records_read, self.bytes_written, self.records_written, self.seeks
        )
    }
}

/// Columnar scan accounting shared by the batch read path (DESIGN.md §12).
///
/// One `ScanStats` is owned by a `HiveContext` and charged from every map
/// task of every scan, the same snapshot/delta pattern as [`IoStats`]: the
/// batch decoder counts groups and rows and the kernels count selected
/// rows. Busy times are recorded in microseconds because map tasks run in
/// parallel — their summed busy time is meaningful, their wall time is not.
#[derive(Debug, Default)]
pub struct ScanStats {
    /// Row-group batches decoded.
    pub batches: Counter,
    /// Rows decoded into batches (post row-filter).
    pub rows_decoded: Counter,
    /// Rows surviving the predicate kernel.
    pub rows_selected: Counter,
    /// Microseconds spent decoding groups into batches (summed across tasks).
    pub decode_us: Counter,
    /// Microseconds spent in predicate + aggregate kernels (summed).
    pub kernel_us: Counter,
    /// Rows pushed through the row-at-a-time fallback path.
    pub rowwise_rows: Counter,
    /// Sidecars loaded and verified for pruning (DESIGN.md §15).
    pub sidecar_hits: Counter,
    /// Slice files whose sidecar was absent (pruning degraded).
    pub sidecar_misses: Counter,
    /// Sidecars rejected as corrupt or stale (pruning degraded).
    pub sidecar_corrupt: Counter,
    /// Sidecar file bytes read by the planner.
    pub sidecar_bytes: Counter,
    /// Row groups pruned outright by zone maps / hierarchical bitmaps.
    pub sidecar_groups_pruned: Counter,
    /// Slice data bytes those pruned groups would have read — the
    /// bytes-skipped ledger the sidecar bench asserts against.
    pub sidecar_bytes_skipped: Counter,
}

/// Shared handle to [`ScanStats`].
pub type ScanStatsRef = Arc<ScanStats>;

impl ScanStats {
    /// A fresh zeroed stats block behind an `Arc`.
    pub fn new_ref() -> ScanStatsRef {
        Arc::new(ScanStats::default())
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            batches: self.batches.get(),
            rows_decoded: self.rows_decoded.get(),
            rows_selected: self.rows_selected.get(),
            decode_us: self.decode_us.get(),
            kernel_us: self.kernel_us.get(),
            rowwise_rows: self.rowwise_rows.get(),
            sidecar_hits: self.sidecar_hits.get(),
            sidecar_misses: self.sidecar_misses.get(),
            sidecar_corrupt: self.sidecar_corrupt.get(),
            sidecar_bytes: self.sidecar_bytes.get(),
            sidecar_groups_pruned: self.sidecar_groups_pruned.get(),
            sidecar_bytes_skipped: self.sidecar_bytes_skipped.get(),
        }
    }
}

/// A copyable snapshot of [`ScanStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// Row-group batches decoded.
    pub batches: u64,
    /// Rows decoded into batches (post row-filter).
    pub rows_decoded: u64,
    /// Rows surviving the predicate kernel.
    pub rows_selected: u64,
    /// Microseconds spent decoding groups into batches.
    pub decode_us: u64,
    /// Microseconds spent in predicate + aggregate kernels.
    pub kernel_us: u64,
    /// Rows pushed through the row-at-a-time fallback path.
    pub rowwise_rows: u64,
    /// Sidecars loaded and verified for pruning.
    pub sidecar_hits: u64,
    /// Slice files whose sidecar was absent.
    pub sidecar_misses: u64,
    /// Sidecars rejected as corrupt or stale.
    pub sidecar_corrupt: u64,
    /// Sidecar file bytes read by the planner.
    pub sidecar_bytes: u64,
    /// Row groups pruned outright.
    pub sidecar_groups_pruned: u64,
    /// Slice data bytes the pruned groups would have read.
    pub sidecar_bytes_skipped: u64,
}

impl ScanSnapshot {
    /// Counter deltas `self - earlier` (saturating).
    pub fn since(&self, earlier: &ScanSnapshot) -> ScanSnapshot {
        ScanSnapshot {
            batches: self.batches.saturating_sub(earlier.batches),
            rows_decoded: self.rows_decoded.saturating_sub(earlier.rows_decoded),
            rows_selected: self.rows_selected.saturating_sub(earlier.rows_selected),
            decode_us: self.decode_us.saturating_sub(earlier.decode_us),
            kernel_us: self.kernel_us.saturating_sub(earlier.kernel_us),
            rowwise_rows: self.rowwise_rows.saturating_sub(earlier.rowwise_rows),
            sidecar_hits: self.sidecar_hits.saturating_sub(earlier.sidecar_hits),
            sidecar_misses: self.sidecar_misses.saturating_sub(earlier.sidecar_misses),
            sidecar_corrupt: self.sidecar_corrupt.saturating_sub(earlier.sidecar_corrupt),
            sidecar_bytes: self.sidecar_bytes.saturating_sub(earlier.sidecar_bytes),
            sidecar_groups_pruned: self
                .sidecar_groups_pruned
                .saturating_sub(earlier.sidecar_groups_pruned),
            sidecar_bytes_skipped: self
                .sidecar_bytes_skipped
                .saturating_sub(earlier.sidecar_bytes_skipped),
        }
    }

    /// Add `other`'s counters to this snapshot, field by field.
    pub fn accumulate(&mut self, other: &ScanSnapshot) {
        self.batches += other.batches;
        self.rows_decoded += other.rows_decoded;
        self.rows_selected += other.rows_selected;
        self.decode_us += other.decode_us;
        self.kernel_us += other.kernel_us;
        self.rowwise_rows += other.rowwise_rows;
        self.sidecar_hits += other.sidecar_hits;
        self.sidecar_misses += other.sidecar_misses;
        self.sidecar_corrupt += other.sidecar_corrupt;
        self.sidecar_bytes += other.sidecar_bytes;
        self.sidecar_groups_pruned += other.sidecar_groups_pruned;
        self.sidecar_bytes_skipped += other.sidecar_bytes_skipped;
    }

    /// Record into a [`crate::MetricsRegistry`] under the `scan.*` names.
    pub fn record_into(&self, reg: &crate::obs::MetricsRegistry) {
        use crate::obs::names;
        reg.add(names::SCAN_BATCHES, self.batches);
        reg.add(names::SCAN_ROWS_DECODED, self.rows_decoded);
        reg.add(names::SCAN_ROWS_SELECTED, self.rows_selected);
        reg.add(names::SCAN_DECODE_US, self.decode_us);
        reg.add(names::SCAN_KERNEL_US, self.kernel_us);
        reg.add(names::SCAN_ROWWISE_ROWS, self.rowwise_rows);
        reg.add(names::SCAN_SIDECAR_HITS, self.sidecar_hits);
        reg.add(names::SCAN_SIDECAR_MISSES, self.sidecar_misses);
        reg.add(names::SCAN_SIDECAR_CORRUPT, self.sidecar_corrupt);
        reg.add(names::SCAN_SIDECAR_BYTES, self.sidecar_bytes);
        reg.add(names::SCAN_SIDECAR_GROUPS_PRUNED, self.sidecar_groups_pruned);
        reg.add(names::SCAN_SIDECAR_BYTES_SKIPPED, self.sidecar_bytes_skipped);
    }
}

/// Wall-clock stopwatch for benchmark phases.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional seconds.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn snapshot_deltas() {
        let s = IoStats::default();
        s.bytes_read.add(10);
        let a = s.snapshot();
        s.bytes_read.add(7);
        s.records_read.add(2);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.bytes_read, 7);
        assert_eq!(d.records_read, 2);
        assert_eq!(d.bytes_written, 0);
    }

    #[test]
    fn stopwatch_moves_forward() {
        let w = Stopwatch::start();
        assert!(w.secs() >= 0.0);
    }
}

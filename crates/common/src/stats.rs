//! Lightweight atomic counters and timing helpers.
//!
//! The paper's Tables 3, 4 and 6 report *records read after index filtering*;
//! those numbers come out of these counters rather than timings, so they are
//! exact and deterministic.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::obs::names;

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

    /// Charge `elapsed` to a counter of microseconds: the whole
    /// microseconds now, the rest stays in `carry` for the caller's next
    /// piece. Pieces shorter than a microsecond (a 29-row batch) then sum
    /// to within 1 µs of their total instead of to zero.
    pub fn add_micros(&self, carry: &mut Duration, elapsed: Duration) {
        *carry += elapsed;
        let whole = carry.as_micros() as u64;
        self.add(whole);
        *carry -= Duration::from_micros(whole);
    }
}

/// Declare a block of counters: the only place a counter is written
/// down. Each entry is one doc line, a field name and a registry name
/// (a constant of [`crate::obs::names`]); the live block (fields of
/// [`Counter`]), its plain `Copy` snapshot with the same field names,
/// and the five things every block can do come from this declaration:
/// `snapshot`, `reset`, `since` (saturating), `record_into` (every name,
/// zeros included — an absent name and a zero differ to readers of the
/// registry) and `attach_to_span` (non-zero only, to keep profiles
/// readable). Two fields may share a registry name; it then holds
/// their sum.
///
/// ```
/// dgf_common::counter_block! {
///     /// Counters of a demo.
///     pub struct DemoStats, snapshot DemoSnapshot {
///         /// Things seen.
///         seen: "demo.seen",
///     }
/// }
/// let stats = DemoStats::default();
/// stats.seen.add(3);
/// let before = stats.snapshot();
/// stats.seen.inc();
/// assert_eq!(stats.snapshot().since(&before), DemoSnapshot { seen: 1 });
/// let reg = dgf_common::MetricsRegistry::new();
/// stats.record_into(&reg);
/// assert_eq!(reg.get("demo.seen"), 4);
/// ```
#[macro_export]
macro_rules! counter_block {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Block:ident, snapshot $Snap:ident {
            $( $(#[$doc:meta])* $field:ident: $name:expr, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $Block {
            $( $(#[$doc])* pub $field: $crate::stats::Counter, )+
        }

        #[doc = concat!("Plain values of [`", stringify!($Block), "`]: a point in time, or the delta between two.")]
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $vis struct $Snap {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl $Block {
            /// Every counter beside its registry name, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, &$crate::stats::Counter)> {
                [$( ($name, &self.$field) ),+].into_iter()
            }

            /// A point-in-time copy of all counters.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $field: self.$field.get() ),+ }
            }

            /// Reset every counter to zero.
            pub fn reset(&self) {
                self.counters().for_each(|(_, c)| { c.reset(); });
            }

            /// Add the current values to `reg` under the registry names.
            pub fn record_into(&self, reg: &$crate::obs::MetricsRegistry) {
                self.snapshot().record_into(reg);
            }
        }

        impl $Snap {
            /// Counter deltas `self - earlier` (saturating).
            pub fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap { $( $field: self.$field.saturating_sub(earlier.$field) ),+ }
            }

            /// Add every value, zeros included, to `reg` under the
            /// registry names.
            pub fn record_into(&self, reg: &$crate::obs::MetricsRegistry) {
                $( reg.add($name, self.$field); )+
            }

            /// Attach the non-zero values (usually a delta) to `span`
            /// under the registry names.
            pub fn attach_to_span(&self, span: &$crate::obs::SpanGuard) {
                $( if self.$field > 0 { span.add($name, self.$field); } )+
            }
        }
    };
}

counter_block! {
    /// I/O accounting shared by the storage layer, formats, and engines.
    ///
    /// One `IoStats` is typically owned by a `SimHdfs` instance and handed
    /// to every reader it opens, so a whole query's I/O is visible in one
    /// place.
    pub struct IoStats, snapshot IoSnapshot {
        /// Bytes read from data files.
        bytes_read: names::HDFS_BYTES_READ,
        /// Bytes written to data files.
        bytes_written: names::HDFS_BYTES_WRITTEN,
        /// Records decoded by record readers (the paper's "records read").
        records_read: names::HDFS_RECORDS_READ,
        /// Records appended by writers.
        records_written: names::HDFS_RECORDS_WRITTEN,
        /// Seek operations issued by skipping readers.
        seeks: names::HDFS_SEEKS,
        /// File handles opened for reading (in HDFS, a NameNode round trip each).
        opens: names::HDFS_OPENS,
        /// Transient faults absorbed by retry loops in the storage layer.
        retries: names::HDFS_RETRIES,
    }
}

/// Shared handle to [`IoStats`].
pub type IoStatsRef = Arc<IoStats>;

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} B / {} rec, wrote {} B / {} rec, {} seeks, {} opens",
            self.bytes_read,
            self.records_read,
            self.bytes_written,
            self.records_written,
            self.seeks,
            self.opens
        )
    }
}

counter_block! {
    /// Columnar scan accounting shared by the batch read path (DESIGN.md §12).
    ///
    /// One `ScanStats` is owned by a `HiveContext` and charged from every
    /// map task of every scan, the same snapshot/delta pattern as
    /// [`IoStats`]: the batch decoder counts groups and rows and the
    /// kernels count selected rows. Busy times are recorded in
    /// microseconds because map tasks run in parallel — their summed busy
    /// time is meaningful, their wall time is not.
    pub struct ScanStats, snapshot ScanSnapshot {
        /// Row-group batches decoded.
        batches: names::SCAN_BATCHES,
        /// Rows decoded into batches (post row-filter).
        rows_decoded: names::SCAN_ROWS_DECODED,
        /// Rows surviving the predicate kernel.
        rows_selected: names::SCAN_ROWS_SELECTED,
        /// Microseconds spent decoding groups into batches (summed across tasks).
        decode_us: names::SCAN_DECODE_US,
        /// Microseconds spent in predicate + aggregate kernels (summed).
        kernel_us: names::SCAN_KERNEL_US,
        /// Rows of text inputs, which a scan reads row at a time.
        rowwise_rows: names::SCAN_ROWWISE_ROWS,
        /// Join build sides made from a read of the dimension table.
        join_builds: names::SCAN_JOIN_BUILDS,
        /// Joins that reused a build side of the same table version.
        join_build_reuses: names::SCAN_JOIN_BUILD_REUSES,
        /// RCFile footers read from disk: one per file version per context.
        footer_reads: names::SCAN_FOOTER_READS,
        /// RCFile opens served a footer already read for the file's version.
        footer_reuses: names::SCAN_FOOTER_REUSES,
        /// Sidecars loaded and verified for pruning (DESIGN.md §15).
        sidecar_hits: names::SCAN_SIDECAR_HITS,
        /// Slice files whose sidecar was absent (pruning degraded).
        sidecar_misses: names::SCAN_SIDECAR_MISSES,
        /// Sidecars rejected as corrupt or stale (pruning degraded).
        sidecar_corrupt: names::SCAN_SIDECAR_CORRUPT,
        /// Sidecar file bytes read by the planner.
        sidecar_bytes: names::SCAN_SIDECAR_BYTES,
        /// Row groups pruned outright by zone maps / hierarchical bitmaps.
        sidecar_groups_pruned: names::SCAN_SIDECAR_GROUPS_PRUNED,
        /// Slice data bytes those pruned groups would have read — the
        /// bytes-skipped ledger the sidecar bench asserts against.
        sidecar_bytes_skipped: names::SCAN_SIDECAR_BYTES_SKIPPED,
    }
}

/// Shared handle to [`ScanStats`].
pub type ScanStatsRef = Arc<ScanStats>;

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
    fn sub_microsecond_pieces_sum_to_their_total() {
        // Truncating each 300 ns piece to whole microseconds reads 0.
        let c = Counter::new();
        let mut carry = Duration::ZERO;
        for _ in 0..10_000 {
            c.add_micros(&mut carry, Duration::from_nanos(300));
        }
        assert_eq!(c.get(), 3_000);
        assert_eq!(carry, Duration::ZERO);
        c.add_micros(&mut carry, Duration::from_nanos(1_999));
        assert_eq!((c.get(), carry), (3_001, Duration::from_nanos(999)));
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

//! The engine abstraction and its run report.
//!
//! Every query path in the reproduction — full scan, the three Hive
//! indexes, DGFIndex, HadoopDB — implements [`Engine`]. The [`RunStats`]
//! report splits a run into the two phases the paper's figures stack:
//! "read index and other" vs. "read data and process", and carries the
//! records-read counts behind Tables 3, 4 and 6.

use std::time::Duration;

use crate::spec::{Query, QueryResult};
use dgf_common::obs::{names, MetricsRegistry, QueryProfile};
use dgf_common::stats::ScanSnapshot;
use dgf_common::Result;

/// Phase timings and I/O accounting for one query run.
///
/// The I/O fields (`data_*`, `retries_absorbed`, `scan`) are before/after
/// deltas of process-wide counters: exact for a run that runs alone —
/// every table and figure of the reproduction — and an upper bound when
/// runs overlap, each also counting the others' reads. Totals across
/// concurrent runs belong to the [`MetricsRegistry`], not to a sum of
/// these.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Time spent consulting the index (scanning an index table, kv-store
    /// lookups, split selection) plus planning overhead.
    pub index_time: Duration,
    /// Time spent reading base data and computing the answer.
    pub data_time: Duration,
    /// Records of *index* structures read (e.g. Compact Index table rows).
    pub index_records_read: u64,
    /// Records of base data read after index filtering — the paper's
    /// "records number" metric.
    pub data_records_read: u64,
    /// Base-data bytes read.
    pub data_bytes_read: u64,
    /// Input splits of the base table in total.
    pub splits_total: u64,
    /// Splits actually scheduled after filtering.
    pub splits_read: u64,
    /// Index-structure cache hits while planning (DGFIndex: GFU header
    /// cache probes answered from memory). Zero for engines without a
    /// planning cache.
    pub index_cache_hits: u64,
    /// Index-structure cache misses while planning.
    pub index_cache_misses: u64,
    /// Transient storage faults absorbed by retry loops during this run
    /// (key-value and file-system combined). Zero on a healthy cluster;
    /// the chaos suite asserts it is positive exactly when faults were
    /// scheduled, proving the run rode them out rather than dodging them.
    /// Every engine that reads base splits sets it: the Hive-side ones
    /// count every file-system retry of the call, planning included, and
    /// DGFIndex adds its planning's key-value retries to its scan's file
    /// retries.
    pub retries_absorbed: u64,
    /// Structured stage tree for this run, populated when the engine ran
    /// under an enabled [`Profiler`](dgf_common::obs::Profiler) (e.g.
    /// `dgf profile` or `DGF_TRACE=…`). Empty — and costing nothing —
    /// otherwise.
    pub profile: QueryProfile,
    /// Columnar-scan accounting for this run: batches decoded, rows
    /// selected, kernel/decode busy time (DESIGN.md §12), set by every
    /// engine that reads base splits, over the whole run. Its batch
    /// counters are zero for a text table, which is read row at a time and
    /// counts its rows in `scan.rowwise_rows` instead.
    pub scan: ScanSnapshot,
}

impl RunStats {
    /// Total wall time.
    pub fn total_time(&self) -> Duration {
        self.index_time + self.data_time
    }

    /// Project this run's aggregate counters into a [`MetricsRegistry`]
    /// under the stable names, so engine totals reconcile with the
    /// kv/hdfs-level counters collected elsewhere.
    pub fn record_into(&self, reg: &MetricsRegistry) {
        reg.add(names::HDFS_BYTES_READ, self.data_bytes_read);
        reg.add(names::HDFS_RECORDS_READ, self.data_records_read);
        reg.add(names::CACHE_HEADER_HITS, self.index_cache_hits);
        reg.add(names::CACHE_HEADER_MISSES, self.index_cache_misses);
        reg.add(names::PLAN_SPLITS_TOTAL, self.splits_total);
        reg.add(names::PLAN_SPLITS_READ, self.splits_read);
        self.scan.record_into(reg);
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index {:.3}s + data {:.3}s; {} index rec, {} data rec, {}/{} splits",
            self.index_time.as_secs_f64(),
            self.data_time.as_secs_f64(),
            self.index_records_read,
            self.data_records_read,
            self.splits_read,
            self.splits_total,
        )
    }
}

/// A finished run: the answer plus its cost report.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The query answer.
    pub result: QueryResult,
    /// Cost accounting.
    pub stats: RunStats,
}

/// A query-execution strategy over one fact table.
pub trait Engine {
    /// Human-readable engine name (for bench tables).
    fn name(&self) -> String;

    /// Execute `query`.
    fn run(&self, query: &Query) -> Result<EngineRun>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_sums_phases() {
        let s = RunStats {
            index_time: Duration::from_millis(10),
            data_time: Duration::from_millis(25),
            ..RunStats::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(35));
        assert!(s.to_string().contains("splits"));
    }
}

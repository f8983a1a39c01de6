//! Query-lifecycle observability: tracing spans, a unified metrics
//! registry, and structured per-query profiles.
//!
//! The paper's evaluation attributes query latency to its stages — index
//! lookup in the KV store, split pruning, Slice scanning, aggregation from
//! pre-computed GFU headers — and counts exactly how much data each
//! strategy reads. This module provides the plumbing for that attribution:
//!
//! * [`Profiler`] / [`SpanGuard`] — a lightweight span tree with monotonic
//!   wall-clock timing, parent links, and per-span counter attachment.
//!   When the profiler is disabled (the default) every operation is a
//!   no-op on an `Option` that is `None`, so instrumented code pays
//!   nothing.
//! * [`MetricsRegistry`] — named [`Counter`]s under stable hierarchical
//!   names (`kv.gets`, `hdfs.bytes_read`, `cache.header.hits`, …; see
//!   [`names`]). Every block of counters is declared once with
//!   [`counter_block!`](crate::counter_block), which gives it the one
//!   `record_into` / `attach_to_span` pair that reaches this module.
//! * [`QueryProfile`] / [`ProfileNode`] — the frozen result of a profiled
//!   run: a stage tree with wall time, metrics, and children, renderable
//!   as a flame-style text tree or exportable as JSON (`dgf profile --json`).
//! * [`TraceFilter`] — `DGF_TRACE=plan,kv`-style category filtering parsed
//!   from the environment by [`Profiler::from_env`].
//!
//! # Example
//!
//! ```
//! use dgf_common::obs::Profiler;
//!
//! let profiler = Profiler::enabled();
//! {
//!     let query = profiler.span("query");
//!     {
//!         let plan = query.child("query.plan");
//!         plan.add("kv.gets", 7);
//!     } // plan finishes on drop
//! }
//! let profile = profiler.take_profile();
//! assert_eq!(profile.metric_total("kv.gets"), 7);
//! assert!(profile.find("query.plan").is_some());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::stats::Counter;

/// Stable hierarchical metric names used across the workspace.
///
/// Spans, the [`MetricsRegistry`] and the
/// [`counter_block!`](crate::counter_block) declarations all use these
/// constants, so a profile, a registry dump and a stats block speak the
/// same vocabulary; each name's string is written here and nowhere else.
pub mod names {
    /// KV point lookups (`KvStats::gets`).
    pub const KV_GETS: &str = "kv.gets";
    /// KV writes (`KvStats::puts`).
    pub const KV_PUTS: &str = "kv.puts";
    /// KV range scans (`KvStats::scans`).
    pub const KV_SCANS: &str = "kv.scans";
    /// Batched KV lookups (`KvStats::multi_gets`).
    pub const KV_MULTI_GETS: &str = "kv.multi_gets";
    /// Keys requested across batched lookups (`KvStats::multi_get_keys`).
    pub const KV_MULTI_GET_KEYS: &str = "kv.multi_get_keys";
    /// Value bytes returned by the KV store (`KvStats::bytes_read`).
    pub const KV_BYTES_READ: &str = "kv.bytes_read";
    /// Value bytes written to the KV store (`KvStats::bytes_written`).
    pub const KV_BYTES_WRITTEN: &str = "kv.bytes_written";
    /// Transient KV faults absorbed by retry loops
    /// (`KvStats::retries_absorbed`).
    pub const KV_RETRIES_ABSORBED: &str = "kv.retries_absorbed";
    /// Log compactions run by the store, manual or opportunistic
    /// (`KvStats::compactions`).
    pub const KV_COMPACTIONS: &str = "kv.compactions";

    /// Bytes read from simulated HDFS data files (`IoStats::bytes_read`).
    pub const HDFS_BYTES_READ: &str = "hdfs.bytes_read";
    /// Bytes written to data files (`IoStats::bytes_written`).
    pub const HDFS_BYTES_WRITTEN: &str = "hdfs.bytes_written";
    /// Records decoded by record readers (`IoStats::records_read`).
    pub const HDFS_RECORDS_READ: &str = "hdfs.records_read";
    /// Records appended by writers (`IoStats::records_written`).
    pub const HDFS_RECORDS_WRITTEN: &str = "hdfs.records_written";
    /// Seeks issued by skipping readers (`IoStats::seeks`).
    pub const HDFS_SEEKS: &str = "hdfs.seeks";
    /// File handles opened for reading (`IoStats::opens`).
    pub const HDFS_OPENS: &str = "hdfs.opens";
    /// Transient storage faults absorbed by retries (`IoStats::retries`).
    pub const HDFS_RETRIES: &str = "hdfs.retries";

    /// GFU header cache hits (`CacheCounters::hits`).
    pub const CACHE_HEADER_HITS: &str = "cache.header.hits";
    /// GFU header cache misses (`CacheCounters::misses`).
    pub const CACHE_HEADER_MISSES: &str = "cache.header.misses";
    /// GFU header cache entries evicted to make room
    /// (`CacheCounters::evictions`).
    pub const CACHE_HEADER_EVICTIONS: &str = "cache.header.evictions";

    /// Map input records (`JobCounters::map_inputs`).
    pub const MR_MAP_INPUTS: &str = "mr.map_inputs";
    /// Map output records (`JobCounters::map_outputs`).
    pub const MR_MAP_OUTPUTS: &str = "mr.map_outputs";
    /// Key/value pairs shuffled (`JobCounters::shuffled_pairs`).
    pub const MR_SHUFFLED_PAIRS: &str = "mr.shuffled_pairs";
    /// Reduce groups (`JobCounters::reduce_groups`).
    pub const MR_REDUCE_GROUPS: &str = "mr.reduce_groups";
    /// Map phase wall time in microseconds (`JobReport::map_time`).
    pub const MR_MAP_TIME_US: &str = "mr.map_time_us";
    /// Reduce phase wall time in microseconds (`JobReport::reduce_time`).
    pub const MR_REDUCE_TIME_US: &str = "mr.reduce_time_us";

    /// Inner GFUs answered from pre-computed headers (`DgfPlan`).
    pub const PLAN_INNER_GFUS: &str = "plan.inner_gfus";
    /// Boundary GFUs needing Slice reads (`DgfPlan`).
    pub const PLAN_BOUNDARY_GFUS: &str = "plan.boundary_gfus";
    /// Records pre-aggregated from inner GFU headers (`DgfPlan`).
    pub const PLAN_INNER_RECORDS: &str = "plan.inner_records";
    /// Splits in the table (`DgfPlan::splits_total`).
    pub const PLAN_SPLITS_TOTAL: &str = "plan.splits_total";
    /// Splits kept after pruning (`DgfPlan::splits_read`).
    pub const PLAN_SPLITS_READ: &str = "plan.splits_read";
    /// Buffered (unflushed) GFU cells merged into the plan
    /// (`DgfPlan::fresh_gfus`).
    pub const PLAN_FRESH_GFUS: &str = "plan.fresh_gfus";
    /// Buffered records those cells hold (`DgfPlan::fresh_records`).
    pub const PLAN_FRESH_RECORDS: &str = "plan.fresh_records";
    /// Pyramid nodes (level ≥ 1) merged in place of leaf headers
    /// (`DgfPlan::pyramid_nodes`).
    pub const PLAN_PYRAMID_NODES: &str = "plan.pyramid.nodes";
    /// Leaf cells those pyramid nodes summarized — header reads the
    /// decomposition avoided (`DgfPlan::pyramid_cells`).
    pub const PLAN_PYRAMID_CELLS: &str = "plan.pyramid.cells";

    /// Streaming ingest batches acknowledged (`IngestStats::batches`).
    pub const INGEST_BATCHES: &str = "ingest.batches";
    /// Streaming ingest rows acknowledged (`IngestStats::rows`).
    pub const INGEST_ROWS: &str = "ingest.rows";
    /// Bytes appended to the ingest write-ahead log
    /// (`IngestStats::wal_bytes`).
    pub const INGEST_WAL_BYTES: &str = "ingest.wal_bytes";
    /// Write-ahead-log sync (group-commit) round trips
    /// (`IngestStats::wal_syncs`).
    pub const INGEST_WAL_SYNCS: &str = "ingest.wal_syncs";
    /// Ingest batches rejected by admission control
    /// (`IngestStats::rejections`).
    pub const INGEST_REJECTIONS: &str = "ingest.rejections";
    /// Memtable flushes committed into Slices (`IngestStats::flushes`).
    pub const INGEST_FLUSHES: &str = "ingest.flushes";
    /// Rows drained by committed flushes (`IngestStats::flushed_rows`).
    pub const INGEST_FLUSHED_ROWS: &str = "ingest.flushed_rows";
    /// Flush attempts that failed (`IngestStats::flush_failures`).
    pub const INGEST_FLUSH_FAILURES: &str = "ingest.flush_failures";
    /// Unflushed batches restored by WAL replay on open
    /// (`IngestStats::replayed_batches`).
    pub const INGEST_REPLAYED_BATCHES: &str = "ingest.replayed_batches";
    /// Rows those replayed batches held (`IngestStats::replayed_rows`).
    pub const INGEST_REPLAYED_ROWS: &str = "ingest.replayed_rows";

    /// Row-group batches decoded by the columnar scan path
    /// (`ScanStats::batches`).
    pub const SCAN_BATCHES: &str = "scan.batches";
    /// Rows decoded into batches, post row-filter
    /// (`ScanStats::rows_decoded`).
    pub const SCAN_ROWS_DECODED: &str = "scan.rows_decoded";
    /// Rows surviving the predicate kernel (`ScanStats::rows_selected`).
    pub const SCAN_ROWS_SELECTED: &str = "scan.rows_selected";
    /// Microseconds spent decoding groups, summed across parallel map
    /// tasks (`ScanStats::decode_us`).
    pub const SCAN_DECODE_US: &str = "scan.decode_us";
    /// Microseconds spent in predicate/aggregate kernels, summed
    /// (`ScanStats::kernel_us`).
    pub const SCAN_KERNEL_US: &str = "scan.kernel_us";
    /// Rows of text inputs, which a scan reads row at a time
    /// (`ScanStats::rowwise_rows`).
    pub const SCAN_ROWWISE_ROWS: &str = "scan.rowwise_rows";
    /// Join build sides made from a read of the dimension table
    /// (`ScanStats::join_builds`).
    pub const SCAN_JOIN_BUILDS: &str = "scan.join_builds";
    /// Joins served a build side already made for the same version of
    /// the dimension table (`ScanStats::join_build_reuses`).
    pub const SCAN_JOIN_BUILD_REUSES: &str = "scan.join_build_reuses";
    /// RCFile footers read from disk, once per file version on a context
    /// (`ScanStats::footer_reads`).
    pub const SCAN_FOOTER_READS: &str = "scan.footer_reads";
    /// RCFile opens served the footer already read for the same file
    /// version (`ScanStats::footer_reuses`).
    pub const SCAN_FOOTER_REUSES: &str = "scan.footer_reuses";
    /// Sidecars loaded and verified for pruning (`ScanStats::sidecar_hits`).
    pub const SCAN_SIDECAR_HITS: &str = "scan.sidecar.hits";
    /// Slice files with no sidecar (`ScanStats::sidecar_misses`).
    pub const SCAN_SIDECAR_MISSES: &str = "scan.sidecar.misses";
    /// Sidecars rejected as corrupt or stale (`ScanStats::sidecar_corrupt`).
    pub const SCAN_SIDECAR_CORRUPT: &str = "scan.sidecar.corrupt";
    /// Sidecar file bytes read by the planner (`ScanStats::sidecar_bytes`).
    pub const SCAN_SIDECAR_BYTES: &str = "scan.sidecar.bytes";
    /// Row groups pruned by sidecar indexes
    /// (`ScanStats::sidecar_groups_pruned`).
    pub const SCAN_SIDECAR_GROUPS_PRUNED: &str = "scan.sidecar.groups_pruned";
    /// Slice bytes skipped by sidecar pruning
    /// (`ScanStats::sidecar_bytes_skipped`).
    pub const SCAN_SIDECAR_BYTES_SKIPPED: &str = "scan.sidecar.bytes_skipped";

    /// Pages read by the hadoopdb chunk reader (`ChunkStats::pages_read`).
    pub const HADOOPDB_PAGES_READ: &str = "hadoopdb.pages_read";
    /// Rows read by the hadoopdb chunk reader (`ChunkStats::rows_read`).
    pub const HADOOPDB_ROWS_READ: &str = "hadoopdb.rows_read";
    /// Bytes read by the hadoopdb chunk reader (`ChunkStats::bytes_read`).
    pub const HADOOPDB_BYTES_READ: &str = "hadoopdb.bytes_read";

    /// Queries admitted by the serving frontend (`ServeStats::admitted`).
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Queries rejected with backpressure (`ServeStats::rejected`).
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Queries that ran to completion (`ServeStats::completed`).
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Queries that errored after admission (`ServeStats::failed`).
    pub const SERVE_FAILED: &str = "serve.failed";
    /// Microseconds admitted queries waited for a scheduler slot.
    pub const SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";
    /// Cross-shard fan-outs issued by the shard router
    /// (`FanoutStats::cross_shard_multi_gets + cross_shard_scans`).
    pub const SERVE_SCATTERS: &str = "serve.scatters";
    /// Per-shard sub-operations those fan-outs issued
    /// (`FanoutStats::shard_subops`).
    pub const SERVE_SHARD_SUBOPS: &str = "serve.shard_subops";
    /// Maintenance passes the serving frontend ran between queries
    /// (`ServeStats::maintenance_runs`).
    pub const SERVE_MAINTENANCE_RUNS: &str = "serve.maintenance_runs";

    /// Write transactions committed and finished (`TxnStats::commits`):
    /// builds, appends, flushes, compactions and regrids alike.
    pub const TXN_COMMITS: &str = "txn.commits";
    /// Write transactions rolled back (`TxnStats::rollbacks`).
    pub const TXN_ROLLBACKS: &str = "txn.rollbacks";
    /// Committed transactions rolled forward by recovery
    /// (`TxnStats::recovered`).
    pub const TXN_RECOVERED: &str = "txn.recovered";
    /// Staged keys published by committed transactions.
    pub const TXN_STAGED_KEYS: &str = "txn.staged_keys";
    /// Staged files renamed into the data directory.
    pub const TXN_FILES_PUBLISHED: &str = "txn.files_published";
    /// Data files moved onto the deferred-reclamation list.
    pub const TXN_FILES_RETIRED: &str = "txn.files_retired";

    /// Maintenance passes run to completion (`MaintainStats::passes`).
    pub const MAINTAIN_PASSES: &str = "maintain.passes";
    /// Deferred files deleted by maintenance
    /// (`MaintainStats::files_reclaimed`).
    pub const MAINTAIN_FILES_RECLAIMED: &str = "maintain.files_reclaimed";
    /// Data files retired by delta compaction
    /// (`MaintainStats::files_compacted`).
    pub const MAINTAIN_FILES_COMPACTED: &str = "maintain.files_compacted";
    /// GFUs whose slices compaction rewrote contiguously
    /// (`MaintainStats::gfus_rewritten`).
    pub const MAINTAIN_GFUS_REWRITTEN: &str = "maintain.gfus_rewritten";
    /// Data-file bytes compaction wrote (`MaintainStats::bytes_rewritten`).
    pub const MAINTAIN_BYTES_REWRITTEN: &str = "maintain.bytes_rewritten";
    /// Key-value log bytes reclaimed by maintenance
    /// (`MaintainStats::kv_bytes_reclaimed`).
    pub const MAINTAIN_KV_BYTES_RECLAIMED: &str = "maintain.kv_bytes_reclaimed";
    /// Grid adaptations applied (`MaintainStats::regrids`).
    pub const MAINTAIN_REGRIDS: &str = "maintain.regrids";
    /// Recorded queries grid adaptation was advised on
    /// (`MaintainStats::history_len`).
    pub const MAINTAIN_HISTORY_LEN: &str = "maintain.history_len";
    /// Candidate policies grid adaptation priced
    /// (`MaintainStats::candidates`).
    pub const MAINTAIN_CANDIDATES: &str = "maintain.candidates";
    /// Model cost of the grid adaptation found, in thousandths of a row
    /// read per query (`MaintainStats::cost_current`).
    pub const MAINTAIN_COST_CURRENT: &str = "maintain.cost_current";
    /// Model cost of the grid adaptation left behind, same unit
    /// (`MaintainStats::cost_chosen`).
    pub const MAINTAIN_COST_CHOSEN: &str = "maintain.cost_chosen";
}

/// Category filter parsed from a `DGF_TRACE`-style string.
///
/// A span's *category* is the part of its name before the first `.`
/// (`"plan.fetch"` → `"plan"`). A filter of `"plan,kv"` records only
/// spans in those categories; filtered-out spans are *transparent* —
/// their children re-attach to the nearest recorded ancestor and their
/// metrics are dropped. The strings `""`, `"*"`, `"all"` and `"1"`
/// record everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TraceFilter {
    /// Record every span.
    #[default]
    All,
    /// Record only spans whose category is in the list.
    Only(Vec<String>),
}

impl TraceFilter {
    /// Parse a comma-separated category list (`"plan,kv"`).
    pub fn parse(spec: &str) -> TraceFilter {
        let spec = spec.trim();
        if spec.is_empty() || spec == "*" || spec == "all" || spec == "1" {
            return TraceFilter::All;
        }
        TraceFilter::Only(
            spec.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        )
    }

    /// Does this filter record a span with the given name?
    pub fn accepts(&self, span_name: &str) -> bool {
        match self {
            TraceFilter::All => true,
            TraceFilter::Only(cats) => {
                let cat = span_name.split('.').next().unwrap_or(span_name);
                cats.iter().any(|c| c == cat)
            }
        }
    }
}

#[derive(Debug)]
struct SpanNode {
    name: String,
    parent: Option<usize>,
    start: Instant,
    wall: Option<Duration>,
    metrics: BTreeMap<String, u64>,
}

#[derive(Debug)]
struct ProfilerInner {
    filter: TraceFilter,
    spans: Mutex<Vec<SpanNode>>,
}

/// Handle for collecting a span tree during a query or build.
///
/// Cloning a `Profiler` shares the underlying arena; [`Profiler::fork`]
/// creates an independent arena with the same filter (used so plan
/// assembly can own its subtree and embed it in the [`DgfPlan`]'s
/// profile while the engine assembles the enclosing query profile).
///
/// The disabled profiler ([`Profiler::disabled`], also `Default`) holds
/// no allocation at all: every span or metric operation is a branch on
/// `Option::None`.
///
/// [`DgfPlan`]: https://docs.rs/dgf-core
#[derive(Debug, Clone, Default)]
pub struct Profiler(Option<Arc<ProfilerInner>>);

impl Profiler {
    /// A no-op profiler: spans are never recorded, nothing allocates.
    pub fn disabled() -> Profiler {
        Profiler(None)
    }

    /// A profiler recording every span.
    pub fn enabled() -> Profiler {
        Profiler::with_filter(TraceFilter::All)
    }

    /// A profiler recording spans matching `filter`.
    pub fn with_filter(filter: TraceFilter) -> Profiler {
        Profiler(Some(Arc::new(ProfilerInner {
            filter,
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Build from the `DGF_TRACE` environment variable.
    ///
    /// Unset or empty → disabled (zero-cost). `DGF_TRACE=1`/`all`/`*` →
    /// record everything. `DGF_TRACE=plan,kv` → record only those
    /// categories.
    pub fn from_env() -> Profiler {
        match std::env::var("DGF_TRACE") {
            Ok(spec) if !spec.trim().is_empty() => {
                Profiler::with_filter(TraceFilter::parse(&spec))
            }
            _ => Profiler::disabled(),
        }
    }

    /// Is collection active?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// An independent profiler with the same filter but a fresh arena.
    ///
    /// Disabled profilers fork to disabled profilers.
    pub fn fork(&self) -> Profiler {
        match &self.0 {
            Some(inner) => Profiler::with_filter(inner.filter.clone()),
            None => Profiler::disabled(),
        }
    }

    /// Open a root span. Returns a guard that finishes the span when
    /// dropped (or via [`SpanGuard::finish`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.start_span(name, None)
    }

    fn start_span(&self, name: &str, parent: Option<usize>) -> SpanGuard {
        let Some(inner) = &self.0 else {
            return SpanGuard {
                profiler: Profiler::disabled(),
                own: None,
                attach: None,
            };
        };
        if !inner.filter.accepts(name) {
            // Transparent: this guard records nothing itself, but its
            // children re-attach to the nearest recorded ancestor.
            return SpanGuard {
                profiler: self.clone(),
                own: None,
                attach: parent,
            };
        }
        let mut spans = inner.spans.lock().unwrap();
        let id = spans.len();
        spans.push(SpanNode {
            name: name.to_string(),
            parent,
            start: Instant::now(),
            wall: None,
            metrics: BTreeMap::new(),
        });
        SpanGuard {
            profiler: self.clone(),
            own: Some(id),
            attach: Some(id),
        }
    }

    /// Freeze the collected spans into a [`QueryProfile`], draining the
    /// arena. Unfinished spans are closed as of now. Returns an empty
    /// profile when disabled.
    pub fn take_profile(&self) -> QueryProfile {
        let Some(inner) = &self.0 else {
            return QueryProfile::default();
        };
        let mut spans = inner.spans.lock().unwrap();
        let drained: Vec<SpanNode> = spans.drain(..).collect();
        drop(spans);
        let now = Instant::now();
        // Convert arena to nodes; arena order guarantees parents precede
        // children, so build children lists by index.
        let mut nodes: Vec<ProfileNode> = drained
            .iter()
            .map(|s| ProfileNode {
                name: s.name.clone(),
                wall: s.wall.unwrap_or_else(|| now.saturating_duration_since(s.start)),
                metrics: s.metrics.clone(),
                children: Vec::new(),
            })
            .collect();
        // Attach children to parents from the back so each node's own
        // children are complete before it is moved into its parent.
        let mut roots = Vec::new();
        for idx in (0..drained.len()).rev() {
            let node = std::mem::take(&mut nodes[idx]);
            match drained[idx].parent {
                Some(p) => nodes[p].children.insert(0, node),
                None => roots.insert(0, node),
            }
        }
        QueryProfile { roots }
    }
}

/// RAII guard for an open span. Records wall time on drop; metrics are
/// attached with [`SpanGuard::add`]; child spans with
/// [`SpanGuard::child`].
#[derive(Debug)]
pub struct SpanGuard {
    profiler: Profiler,
    /// Arena index of the span this guard opened (None when disabled or
    /// filtered out — such a guard never closes anything).
    own: Option<usize>,
    /// Arena index that child spans attach to (for a transparent guard
    /// this is the nearest recorded ancestor).
    attach: Option<usize>,
}

impl SpanGuard {
    /// Open a child span of this one.
    pub fn child(&self, name: &str) -> SpanGuard {
        self.profiler.start_span(name, self.attach)
    }

    /// Add `n` to the named metric on this span.
    pub fn add(&self, metric: &str, n: u64) {
        let (Some(inner), Some(id)) = (&self.profiler.0, self.own) else {
            return;
        };
        let mut spans = inner.spans.lock().unwrap();
        // The arena may have been drained by `take_profile` while this
        // guard was still open; treat the span as gone.
        let Some(span) = spans.get_mut(id) else {
            return;
        };
        *span.metrics.entry(metric.to_string()).or_insert(0) += n;
    }

    /// Is this guard actually recording?
    pub fn is_recording(&self) -> bool {
        self.own.is_some() && self.profiler.0.is_some()
    }

    /// Close the span now (idempotent; also happens on drop).
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let (Some(inner), Some(id)) = (&self.profiler.0, self.own.take()) else {
            return;
        };
        let mut spans = inner.spans.lock().unwrap();
        let Some(span) = spans.get_mut(id) else {
            return;
        };
        if span.wall.is_none() {
            span.wall = Some(span.start.elapsed());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// One stage in a [`QueryProfile`]: a named span with wall time,
/// attached metrics, and child stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    /// Span name (`"query.plan.fetch"`).
    pub name: String,
    /// Wall-clock duration of the span.
    pub wall: Duration,
    /// Metrics attached to this span (not including children).
    pub metrics: BTreeMap<String, u64>,
    /// Child stages in start order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Sum of `metric` over this node and all descendants.
    pub fn metric_total(&self, metric: &str) -> u64 {
        self.metrics.get(metric).copied().unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.metric_total(metric))
                .sum::<u64>()
    }

    /// First node (pre-order) whose name equals `name`.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn check_nesting_in(&self, errors: &mut Vec<String>) {
        let child_sum: Duration = self.children.iter().map(|c| c.wall).sum();
        // Allow a small tolerance for clock granularity on coarse timers.
        let tolerance = Duration::from_micros(500);
        if child_sum > self.wall + tolerance {
            errors.push(format!(
                "span `{}`: children sum to {:?} > own wall {:?}",
                self.name, child_sum, self.wall
            ));
        }
        for c in &self.children {
            c.check_nesting_in(errors);
        }
    }

    fn render_into(&self, out: &mut String, depth: usize, total: Duration) {
        let indent = "  ".repeat(depth);
        let pct = if total.as_nanos() > 0 {
            100.0 * self.wall.as_secs_f64() / total.as_secs_f64()
        } else {
            0.0
        };
        let bar_len = (pct / 5.0).round() as usize; // 20 chars == 100%
        let bar: String = "#".repeat(bar_len.min(20));
        let _ = writeln!(
            out,
            "{indent}{:<width$} {:>9.3} ms {:>5.1}% |{bar:<20}|",
            self.name,
            self.wall.as_secs_f64() * 1e3,
            pct,
            width = 36usize.saturating_sub(depth * 2),
        );
        if !self.metrics.is_empty() {
            let mut parts = Vec::new();
            for (k, v) in &self.metrics {
                parts.push(format!("{k}={v}"));
            }
            let _ = writeln!(out, "{indent}  · {}", parts.join(" "));
        }
        for c in &self.children {
            c.render_into(out, depth + 1, total);
        }
    }

    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(JsonObject::new(), |o, (k, v)| o.value(k, v));
        JsonObject::new()
            .string("name", &self.name)
            .value("wall_us", self.wall.as_micros())
            .value("metrics", metrics.finish())
            .array("children", self.children.iter().map(ProfileNode::to_json))
            .finish()
    }
}

/// A frozen span tree for one query (or build), carried on `DgfPlan`
/// and `RunStats`, rendered by `dgf profile` as text or JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Root stages (usually exactly one, e.g. `"query"`).
    pub roots: Vec<ProfileNode>,
}

impl QueryProfile {
    /// Is there anything in this profile?
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Sum of `metric` over every node in the tree.
    pub fn metric_total(&self, metric: &str) -> u64 {
        self.roots.iter().map(|r| r.metric_total(metric)).sum()
    }

    /// First node (pre-order) whose name equals `name`.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// Verify that every span's children sum to no more than the span's
    /// own wall time (within clock tolerance). Returns the violations.
    pub fn check_nesting(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for r in &self.roots {
            r.check_nesting_in(&mut errors);
        }
        errors
    }

    /// Flame-style text rendering: one line per span with wall time,
    /// percent of root, a proportional bar, and attached metrics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total: Duration = self.roots.iter().map(|r| r.wall).sum();
        for r in &self.roots {
            r.render_into(&mut out, 0, total);
        }
        out
    }

    /// JSON export (hand-rolled; no serde in this workspace):
    /// `[{"name":..,"wall_us":..,"metrics":{..},"children":[..]}]`.
    pub fn to_json(&self) -> String {
        json_array(self.roots.iter().map(ProfileNode::to_json))
    }

    /// Graft another profile's roots under the named node (e.g. embed a
    /// plan-time subtree under the engine's `"query"` span). No-op when
    /// `sub` is empty; appends to roots when `under` is not found.
    pub fn graft(&mut self, under: &str, sub: QueryProfile) {
        if sub.is_empty() {
            return;
        }
        fn find_mut<'a>(nodes: &'a mut [ProfileNode], name: &str) -> Option<&'a mut ProfileNode> {
            for n in nodes.iter_mut() {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = find_mut(&mut n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        match find_mut(&mut self.roots, under) {
            Some(node) => node.children.extend(sub.roots),
            None => self.roots.extend(sub.roots),
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A JSON object under construction: keys keep insertion order, keys and
/// strings are escaped, commas are placed. The writer behind
/// [`QueryProfile::to_json`] (no serde in this workspace).
///
/// ```
/// use dgf_common::obs::JsonObject;
///
/// let inner = JsonObject::new().value("n", 3).finish();
/// let doc = JsonObject::new()
///     .string("name", "a\"b")
///     .value("ratio", format_args!("{:.2}", 0.5))
///     .array("passes", [inner])
///     .finish();
/// assert_eq!(doc, r#"{"name":"a\"b","ratio":0.50,"passes":[{"n":3}]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject(String);

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// `"key":value` with `value` written as it displays: a number (use
    /// `format_args!("{:.2}", x)` for fixed decimals) or JSON that is
    /// already serialised, such as a nested object.
    pub fn value(mut self, key: &str, value: impl std::fmt::Display) -> JsonObject {
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{}\":{value}", json_escape(key));
        self
    }

    /// `"key":"value"`, escaped.
    pub fn string(self, key: &str, value: &str) -> JsonObject {
        self.value(key, format_args!("\"{}\"", json_escape(value)))
    }

    /// `"key":[items…]` of already-serialised items.
    pub fn array(self, key: &str, items: impl IntoIterator<Item = String>) -> JsonObject {
        self.value(key, json_array(items))
    }

    /// The finished `{…}` text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Named counters under the stable hierarchical scheme of [`names`].
///
/// The registry is the reconciliation point: every counter block
/// projects itself into it through the `record_into` its
/// [`counter_block!`](crate::counter_block) declaration generates, so a
/// single dump shows totals under one naming scheme.
///
/// ```
/// use dgf_common::obs::{names, MetricsRegistry};
///
/// let reg = MetricsRegistry::new();
/// reg.add(names::KV_GETS, 3);
/// reg.add(names::KV_GETS, 2);
/// assert_eq!(reg.get(names::KV_GETS), 5);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, creating it at zero.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap();
        Arc::clone(
            counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Add `n` to the counter under `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Current value of `name` (zero if never registered).
    pub fn get(&self, name: &str) -> u64 {
        let counters = self.counters.lock().unwrap();
        counters.get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Point-in-time copy of every counter, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let counters = self.counters.lock().unwrap();
        counters.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Two-column text table of every counter.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let width = snap.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &snap {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let root = p.span("query");
        assert!(!root.is_recording());
        let child = root.child("query.plan");
        child.add("kv.gets", 5);
        drop(child);
        drop(root);
        let profile = p.take_profile();
        assert!(profile.is_empty());
        assert_eq!(profile.metric_total("kv.gets"), 0);
    }

    #[test]
    fn span_tree_structure_and_metrics() {
        let p = Profiler::enabled();
        {
            let root = p.span("query");
            {
                let plan = root.child("query.plan");
                plan.add("kv.gets", 3);
                plan.add("kv.gets", 2);
                let fetch = plan.child("query.plan.fetch");
                fetch.add("kv.scans", 1);
            }
            let scan = root.child("query.scan");
            scan.add("hdfs.bytes_read", 100);
        }
        let profile = p.take_profile();
        assert_eq!(profile.roots.len(), 1);
        let root = &profile.roots[0];
        assert_eq!(root.name, "query");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "query.plan");
        assert_eq!(root.children[0].metrics["kv.gets"], 5);
        assert_eq!(root.children[0].children[0].name, "query.plan.fetch");
        assert_eq!(profile.metric_total("kv.gets"), 5);
        assert_eq!(profile.metric_total("kv.scans"), 1);
        assert_eq!(profile.metric_total("hdfs.bytes_read"), 100);
        assert!(profile.find("query.scan").is_some());
        assert!(profile.find("nope").is_none());
        // Arena drained: second take is empty.
        assert!(p.take_profile().is_empty());
    }

    #[test]
    fn nesting_invariant_holds() {
        let p = Profiler::enabled();
        {
            let root = p.span("query");
            {
                let _a = root.child("query.a");
                sleep(Duration::from_millis(2));
            }
            {
                let _b = root.child("query.b");
                sleep(Duration::from_millis(2));
            }
        }
        let profile = p.take_profile();
        assert!(profile.check_nesting().is_empty(), "{:?}", profile.check_nesting());
        let root = &profile.roots[0];
        let child_sum: Duration = root.children.iter().map(|c| c.wall).sum();
        assert!(root.wall + Duration::from_micros(500) >= child_sum);
    }

    #[test]
    fn check_nesting_flags_violations() {
        let bad = QueryProfile {
            roots: vec![ProfileNode {
                name: "root".into(),
                wall: Duration::from_millis(1),
                metrics: BTreeMap::new(),
                children: vec![ProfileNode {
                    name: "child".into(),
                    wall: Duration::from_millis(5),
                    metrics: BTreeMap::new(),
                    children: Vec::new(),
                }],
            }],
        };
        assert_eq!(bad.check_nesting().len(), 1);
    }

    #[test]
    fn filter_parsing_and_semantics() {
        assert_eq!(TraceFilter::parse(""), TraceFilter::All);
        assert_eq!(TraceFilter::parse("*"), TraceFilter::All);
        assert_eq!(TraceFilter::parse("all"), TraceFilter::All);
        assert_eq!(TraceFilter::parse("1"), TraceFilter::All);
        let f = TraceFilter::parse("plan, kv");
        assert!(f.accepts("plan"));
        assert!(f.accepts("plan.fetch"));
        assert!(f.accepts("kv.gets"));
        assert!(!f.accepts("query"));
        assert!(!f.accepts("query.scan"));
    }

    #[test]
    fn filtered_spans_are_transparent() {
        let p = Profiler::with_filter(TraceFilter::parse("query,plan"));
        {
            let root = p.span("query");
            // "scan" is filtered out; its child in an accepted category
            // must re-attach to `root`.
            let scan = root.child("scan.slice");
            scan.add("hdfs.bytes_read", 9); // dropped: span not recorded
            let inner = scan.child("plan.fetch");
            inner.add("kv.gets", 4);
        }
        let profile = p.take_profile();
        let root = &profile.roots[0];
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "plan.fetch");
        assert_eq!(profile.metric_total("hdfs.bytes_read"), 0);
        assert_eq!(profile.metric_total("kv.gets"), 4);
    }

    #[test]
    fn fork_is_independent() {
        let p = Profiler::enabled();
        let f = p.fork();
        {
            let _a = p.span("a");
            let _b = f.span("b");
        }
        assert_eq!(p.take_profile().roots[0].name, "a");
        assert_eq!(f.take_profile().roots[0].name, "b");
        assert!(!Profiler::disabled().fork().is_enabled());
    }

    #[test]
    fn graft_embeds_subtree() {
        let p = Profiler::enabled();
        {
            let root = p.span("query");
            let _plan = root.child("query.plan");
        }
        let mut profile = p.take_profile();
        let sub = Profiler::enabled();
        {
            let s = sub.span("plan.fetch");
            s.add("kv.gets", 2);
        }
        profile.graft("query.plan", sub.take_profile());
        let plan = profile.find("query.plan").unwrap();
        assert_eq!(plan.children[0].name, "plan.fetch");
        assert_eq!(profile.metric_total("kv.gets"), 2);
    }

    #[test]
    fn render_and_json() {
        let p = Profiler::enabled();
        {
            let root = p.span("query");
            root.add("kv.gets", 1);
            let _c = root.child("query.plan");
        }
        let profile = p.take_profile();
        let text = profile.render();
        assert!(text.contains("query"));
        assert!(text.contains("query.plan"));
        assert!(text.contains("kv.gets=1"));
        let json = profile.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"wall_us\":"));
        assert!(json.contains("\"children\":[{\"name\":\"query.plan\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn registry_counters_and_render() {
        let reg = MetricsRegistry::new();
        reg.add(names::KV_GETS, 3);
        reg.counter(names::KV_GETS).add(4);
        reg.add(names::CACHE_HEADER_HITS, 1);
        assert_eq!(reg.get(names::KV_GETS), 7);
        assert_eq!(reg.get("never.seen"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap["kv.gets"], 7);
        assert_eq!(snap["cache.header.hits"], 1);
        let table = reg.render();
        assert!(table.contains("kv.gets"));
        assert!(table.contains('7'));
    }

    #[test]
    fn unfinished_spans_are_closed_at_take() {
        let p = Profiler::enabled();
        let root = p.span("query");
        sleep(Duration::from_millis(1));
        // Take while `root` is still open.
        let profile = p.take_profile();
        assert_eq!(profile.roots.len(), 1);
        assert!(profile.roots[0].wall >= Duration::from_millis(1));
        drop(root); // must not panic on drained arena
    }
}

//! The DGFIndex query engine (paper §4.3, step 3 and result assembly).
//!
//! The engine is transparent to the caller, as in the paper ("Hive will
//! automatically use a DGFIndex when processing MDRQs"): it takes the
//! same [`Query`] as every other engine, plans the GFU decomposition,
//! scans only the boundary Slices with the skipping reader, merges the
//! inner region's pre-computed headers, and finishes the sink.

use std::sync::Arc;

use dgf_common::{Result, Stopwatch};
use dgf_hive::{execute_sink, TableRef};
use dgf_query::{Engine, EngineRun, Query, RunStats};

use crate::index::DgfIndex;

/// Query engine over a built [`DgfIndex`].
pub struct DgfEngine {
    index: Arc<DgfIndex>,
    use_headers: bool,
    slice_skipping: bool,
    right: Option<TableRef>,
}

impl DgfEngine {
    /// An engine using pre-computed headers where possible.
    pub fn new(index: Arc<DgfIndex>) -> Self {
        DgfEngine {
            index,
            use_headers: true,
            slice_skipping: true,
            right: None,
        }
    }

    /// Disable the pre-computation shortcut (Figure 17's
    /// "DGF-noprecompute"; also the ablation benchmark). A GROUP BY then
    /// reads every query-related Slice, as the paper's Figure 11 and
    /// Table 4 do.
    pub fn without_precompute(mut self) -> Self {
        self.use_headers = false;
        self
    }

    /// Ablation: read chosen splits whole instead of skipping to the
    /// query-related Slices (reduces DGFIndex to Compact-style
    /// split-granular reading over reorganized data).
    pub fn without_slice_skipping(mut self) -> Self {
        self.slice_skipping = false;
        self
    }

    /// Attach the dimension table used by join queries.
    pub fn with_right(mut self, right: TableRef) -> Self {
        self.right = Some(right);
        self
    }

    /// The wrapped index.
    pub fn index(&self) -> &Arc<DgfIndex> {
        &self.index
    }
}

impl Engine for DgfEngine {
    fn name(&self) -> String {
        match (self.use_headers, self.slice_skipping) {
            (true, true) => "DGFIndex".to_owned(),
            (false, true) => "DGFIndex-noprecompute".to_owned(),
            (true, false) => "DGFIndex-noskip".to_owned(),
            (false, false) => "DGFIndex-noprecompute-noskip".to_owned(),
        }
    }

    fn run(&self, query: &Query) -> Result<EngineRun> {
        // Without slice skipping, chosen splits are read whole — rows of
        // *inner* GFUs sharing a split with boundary Slices would be
        // double-counted if headers were also merged, so the header
        // shortcut is disabled together with skipping.
        let use_headers = self.use_headers && self.slice_skipping;
        // Per-run profile: fork the index's profiler so concurrent runs
        // don't interleave spans. Disabled profilers make all of this a
        // no-op.
        let prof = self.index.profiler().fork();
        let root = prof.span("query");
        let ctx = &self.index.ctx;
        // Snapshot scan accounting BEFORE planning: the planner's sidecar
        // consultation charges `scan.sidecar.*` counters (DESIGN.md §15)
        // that belong to this run's ledger. Data I/O still snapshots after
        // planning — sidecar reads are index I/O, not data I/O, and the
        // planner attributes them to its own `plan.sidecar` span.
        let scan_before = ctx.scan_stats.snapshot();
        let plan_span = root.child("query.plan");
        let mut plan = self.index.plan(query, use_headers)?;
        plan_span.finish();
        if !self.slice_skipping {
            plan.inputs = std::mem::take(&mut plan.chosen_splits)
                .into_iter()
                .map(dgf_hive::ScanInput::FullSplit)
                .collect();
        }
        let before = ctx.hdfs.stats().snapshot();
        let watch = Stopwatch::start();

        // Boundary region: scan the query-related Slices only. The full
        // predicate is re-applied row by row, so boundary over-coverage
        // can never contaminate the answer.
        let scan_span = root.child("query.scan");
        let mut sink = execute_sink(
            ctx,
            &self.index.data,
            query,
            self.right.as_deref(),
            plan.inputs,
        )?;
        // Inner region: merge the pre-computed headers (exact because
        // every inner cell lies fully inside the query region and, for a
        // grouped plan, inside one group).
        if let Some(states) = &plan.inner_states {
            sink.merge_agg_states(states)?;
        }
        // Fresh region: acknowledged-but-unflushed rows from the
        // streaming memtable. They live in no data file, so pushing them
        // here can never double-count a scanned Slice; the full predicate
        // re-applies row by row like any boundary read.
        let fresh_rows = std::mem::take(&mut plan.fresh_rows);
        if !fresh_rows.is_empty() {
            let bound = query.predicate().bind(&self.index.data.schema)?;
            for row in &fresh_rows {
                sink.push_if(row, &bound)?;
            }
        }
        let result = sink.finish();
        let scan_delta = ctx.scan_stats.snapshot().since(&scan_before);
        // The storage layer attributes its I/O to the scan stage.
        let delta = ctx.hdfs.stats().snapshot().since(&before);
        delta.attach_to_span(&scan_span);
        dgf_hive::attach_scan_to_span(&scan_span, &scan_delta);
        scan_span.finish();
        root.finish();
        let mut profile = prof.take_profile();
        profile.graft("query.plan", std::mem::take(&mut plan.profile));
        Ok(EngineRun {
            result,
            stats: RunStats {
                index_time: plan.index_time,
                data_time: watch.elapsed(),
                // GFU lookups play the role of index records here.
                index_records_read: plan.inner_gfus + plan.boundary_gfus,
                data_records_read: delta.records_read,
                data_bytes_read: delta.bytes_read,
                splits_total: plan.splits_total,
                splits_read: plan.splits_read,
                index_cache_hits: plan.cache_hits,
                index_cache_misses: plan.cache_misses,
                // Planning-time KV retries plus data-phase file retries.
                retries_absorbed: plan.retries_absorbed + delta.retries,
                profile,
                scan: scan_delta,
            },
        })
    }
}

//! Background maintenance: delta compaction, deferred file reclamation,
//! key-value log compaction, and online grid adaptation (DESIGN.md §16).
//!
//! Streaming ingest extends the grid one small delta file per flush, so a
//! long-running index accumulates slices scattered across many files:
//! boundary scans lose locality, the `(generation, gfu)` header cache
//! fills with dead epochs, and the append-only KV log never reclaims
//! overwritten values unless someone calls `flush()`. The [`Maintainer`]
//! runs all four counter-measures behind the same staged-commit protocol
//! the build and append paths use ([`crate::txn`]), so every
//! reorganization publishes through one `m:view` put — readers never
//! block, and answers stay bit-identical under any maintenance schedule.
//!
//! **Compaction** is pure data movement: the slices of every GFU touched
//! by the smallest delta files are rewritten contiguously into one fresh
//! file (per-GFU row order preserved), and the GFU value's header and
//! record count are copied **verbatim** — re-folding the aggregates
//! would change the float summation order and thus the low bits of
//! boundary sums, which the equivalence harness would catch. Replaced
//! files are not deleted at commit: they join the `m:gc` deferred list
//! and are reclaimed at the *start of the next run*, giving readers
//! pinned to the previous view one full round of grace.
//!
//! **Adaptation** consumes the planner's [`CellHeat`] boundary counters:
//! a grid whose cells are too coarse (records per cell above
//! [`MaintenanceConfig::split_records_per_cell`]) halves the interval of
//! the *hottest* boundary dimension; one too fine (below
//! [`MaintenanceConfig::merge_records_per_cell`]) doubles the coldest.
//! The rewrite re-cells every record under the new policy in a single
//! transaction whose manifest also *retires* the old-granularity keys
//! (see [`crate::txn::TxnManifest::deletes`]), and the new policy rides
//! the published [`ReadView`](crate::view::ReadView) so a pinned reader
//! can never pair one epoch's extents with another's cell geometry.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgf_common::obs::{names, SpanGuard};
use dgf_common::{counter_block, format_row, DgfError, Result};
use dgf_format::{coalesce_ranges, sidecar_path, ByteRange, FileFormat};
use dgf_hive::{open_input, ScanInput};

use crate::gfu::{GfuValue, GFU_PREFIX, META_GC_KEY};
use crate::index::DgfIndex;
use crate::policy::{DimPolicy, DimScale, SplittingPolicy};
use crate::txn::{Outcome, Txn};
use crate::write::{encode_gc_list, SliceWriter};

/// Planner-fed per-dimension boundary-heat counters.
///
/// Every time plan assembly classifies a span edge on dimension `d` as
/// *uncovered* (a boundary cell whose records must be scanned and
/// re-filtered), it calls [`record`](Self::record). The counters are the
/// maintenance daemon's signal for which dimension's granularity is
/// mispriced: the hottest dimension produces the most boundary scans and
/// benefits most from finer cells.
#[derive(Debug)]
pub struct CellHeat {
    dims: Vec<AtomicU64>,
}

impl CellHeat {
    /// Zeroed counters for an `arity`-dimensional grid.
    pub(crate) fn new(arity: usize) -> CellHeat {
        CellHeat {
            dims: (0..arity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Count one boundary-cell scan attributed to dimension `dim`.
    /// Out-of-range dimensions are ignored (a pinned view may carry a
    /// policy of different arity than the live grid mid-regrid).
    pub fn record(&self, dim: usize) {
        if let Some(c) = self.dims.get(dim) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current per-dimension counts, in policy order.
    pub fn snapshot(&self) -> Vec<u64> {
        self.dims.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Read and reset the counters (the maintainer consumes each epoch
    /// of heat exactly once).
    pub fn take(&self) -> Vec<u64> {
        self.dims.iter().map(|c| c.swap(0, Ordering::Relaxed)).collect()
    }
}

/// Tuning knobs for one [`Maintainer`].
pub struct MaintenanceConfig {
    /// Maximum number of live data files before compaction triggers.
    /// When the count exceeds the budget, the smallest files (and every
    /// GFU referencing them) are compacted so the post-commit count is
    /// back within it.
    pub delta_file_budget: usize,
    /// Called (when set) before compaction to drain any buffered ingest
    /// state into slices — returns the number of batches flushed. A hook
    /// rather than a direct dependency so `dgf-core` stays below
    /// `dgf-ingest` in the crate graph.
    #[allow(clippy::type_complexity)]
    pub flush_hook: Option<Box<dyn Fn() -> Result<u64> + Send + Sync>>,
    /// Whether grid adaptation (re-split/merge + full rewrite) may run.
    pub adapt: bool,
    /// Mean records per occupied cell above which the hottest boundary
    /// dimension's interval is halved.
    pub split_records_per_cell: u64,
    /// Mean records per occupied cell below which the coldest boundary
    /// dimension's interval is doubled. `0` disables merging.
    pub merge_records_per_cell: u64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            delta_file_budget: 8,
            flush_hook: None,
            adapt: false,
            split_records_per_cell: 4096,
            merge_records_per_cell: 0,
        }
    }
}

/// What one [`Maintainer::run_once`] pass did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Files (plus their sidecars) reclaimed from the deferred list.
    pub reclaimed_files: usize,
    /// Ingest batches drained by the flush hook.
    pub flushed_batches: u64,
    /// Delta files fed into this pass's compaction (0 = under budget).
    pub compacted_files: usize,
    /// GFUs whose slices were rewritten contiguously.
    pub compacted_gfus: usize,
    /// Length of the data file that rewrite wrote.
    pub compacted_bytes: u64,
    /// Bytes reclaimed by key-value store log compaction.
    pub kv_reclaimed_bytes: u64,
    /// Dimension whose interval the adaptation pass changed, with the
    /// new interval's description (`None` = grid left alone).
    pub adapted: Option<String>,
}

counter_block! {
    /// What the maintenance passes over one [`DgfIndex`] handle did, bumped
    /// from the values each [`MaintenanceReport`] is filled from and
    /// projected under the `maintain.*` names by [`DgfIndex::metrics`].
    pub struct MaintainStats, snapshot MaintainSnapshot {
        /// Passes run to completion.
        passes: names::MAINTAIN_PASSES,
        /// Deferred files (sidecars not counted) reclaimed.
        files_reclaimed: names::MAINTAIN_FILES_RECLAIMED,
        /// Data files retired by delta compaction.
        files_compacted: names::MAINTAIN_FILES_COMPACTED,
        /// GFUs whose slices compaction rewrote contiguously.
        gfus_rewritten: names::MAINTAIN_GFUS_REWRITTEN,
        /// Data-file bytes compaction wrote.
        bytes_rewritten: names::MAINTAIN_BYTES_REWRITTEN,
        /// Bytes reclaimed by key-value store log compaction.
        kv_bytes_reclaimed: names::MAINTAIN_KV_BYTES_RECLAIMED,
        /// Grid adaptations applied.
        regrids: names::MAINTAIN_REGRIDS,
    }
}

/// The background maintenance daemon (one pass at a time; the index is a
/// single-writer structure, so the caller must not run maintenance
/// concurrently with builds, appends, or ingest flushes).
pub struct Maintainer {
    index: Arc<DgfIndex>,
    config: MaintenanceConfig,
}

impl Maintainer {
    /// Wrap `index` with the given tuning.
    pub fn new(index: Arc<DgfIndex>, config: MaintenanceConfig) -> Maintainer {
        Maintainer { index, config }
    }

    /// The wrapped index.
    pub fn index(&self) -> &Arc<DgfIndex> {
        &self.index
    }

    /// One full maintenance pass: reclaim the previous round's retired
    /// files, drain ingest, compact deltas back within budget, compact
    /// the key-value log, and (when enabled) adapt the grid. Each stage
    /// that runs is a child of one `maintain` span on the index's
    /// profiler, and what it did is counted on the index's
    /// [`MaintainStats`].
    pub fn run_once(&self) -> Result<MaintenanceReport> {
        let span = self.index.profiler().span("maintain");
        let stats = &self.index.maintain_stats;
        let mut report = MaintenanceReport {
            reclaimed_files: self.stage(&span, "maintain.gc", || self.reclaim())?,
            ..Default::default()
        };
        stats.files_reclaimed.add(report.reclaimed_files as u64);
        if let Some(hook) = &self.config.flush_hook {
            report.flushed_batches = self.stage(&span, "maintain.flush", hook)?;
        }
        let (files, gfus, bytes) = self.stage(&span, "maintain.compact", || self.compact())?;
        report.compacted_files = files;
        report.compacted_gfus = gfus;
        report.compacted_bytes = bytes;
        stats.files_compacted.add(files as u64);
        stats.gfus_rewritten.add(gfus as u64);
        stats.bytes_rewritten.add(bytes);
        report.kv_reclaimed_bytes =
            self.stage(&span, "maintain.kvlog", || self.index.kv.maintain())?;
        stats.kv_bytes_reclaimed.add(report.kv_reclaimed_bytes);
        if self.config.adapt {
            report.adapted = self.stage(&span, "maintain.regrid", || self.adapt())?;
            stats.regrids.add(report.adapted.is_some() as u64);
        }
        stats.passes.inc();
        Ok(report)
    }

    /// Run one stage of the pass under a child span that carries the
    /// stage's `kv.*` and `hdfs.*` deltas.
    fn stage<T>(
        &self,
        pass: &SpanGuard,
        name: &str,
        work: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let span = pass.child(name);
        let (kv, hdfs) = (self.index.kv.stats(), self.index.ctx.hdfs.stats());
        let before = span.is_recording().then(|| (kv.snapshot(), hdfs.snapshot()));
        let out = work();
        if let Some((kv_before, hdfs_before)) = before {
            kv.snapshot().since(&kv_before).attach_to_span(&span);
            hdfs.snapshot().since(&hdfs_before).attach_to_span(&span);
        }
        out
    }

    /// Delete every file on the deferred-reclamation list (`m:gc`) along
    /// with its sidecar twin, then clear the list. The files were
    /// retired by a *previous* maintenance transaction, so any reader
    /// still pinned to the view that referenced them has had one full
    /// maintenance interval to finish. Idempotent under crashes: a file
    /// already gone is skipped, and the list is only cleared after every
    /// deletion succeeded.
    fn reclaim(&self) -> Result<usize> {
        let gc = self.index.gc_list()?;
        if gc.is_empty() {
            return Ok(0);
        }
        let hdfs = &self.index.ctx.hdfs;
        for path in &gc {
            if hdfs.file_exists(path) {
                hdfs.delete_file(path)?;
            }
            let sc = sidecar_path(path);
            if hdfs.file_exists(&sc) {
                hdfs.delete_file(&sc)?;
            }
        }
        self.index.crash_point("maint.gc-swept")?;
        self.index.kv_put(META_GC_KEY, &encode_gc_list(&[]))?;
        Ok(gc.len())
    }

    /// Delta compaction: when the live data-file count exceeds the
    /// budget, rewrite the slices of every GFU referencing the smallest
    /// files into one fresh contiguous file. Pure data movement — see
    /// the module docs for why headers are copied verbatim — published
    /// through the standard staged-commit transaction.
    fn compact(&self) -> Result<(usize, usize, u64)> {
        let index = &*self.index;
        let budget = self.config.delta_file_budget.max(1);
        // The idle pass costs no transaction. Everything the rewrite is
        // built from is read after `begin`, which first finishes whatever
        // an earlier failed writer left behind — a view still pending is
        // such a leftover, whatever its file count.
        let view = index.pin_view()?;
        if !view.pending && view.data_files.len() <= budget {
            return Ok((0, 0, 0));
        }
        let txn = Txn::begin(index, false)?;
        let files = &txn.view().data_files;
        if files.len() <= budget {
            return Ok((0, 0, 0));
        }
        // Pick the k smallest files so the post-commit count (n - k + 1,
        // or lower if other files are fully absorbed) is within budget.
        let k = files.len() - budget + 1;
        let mut by_size = files.clone();
        by_size.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let selected: HashSet<String> = by_size.iter().take(k).map(|(p, _)| p.clone()).collect();

        // Affected = every GFU with at least one slice in a selected
        // file. The KV prefix scan is key-ordered, so the rewrite lays
        // affected cells out in grid order.
        let mut affected: Vec<(Vec<u8>, GfuValue)> = Vec::new();
        let mut still_read: HashSet<String> = HashSet::new();
        for (k, v) in index.kv_scan_prefix(GFU_PREFIX)? {
            let value = GfuValue::decode(&v)?;
            if value.slices.iter().any(|s| selected.contains(&s.file)) {
                affected.push((k, value));
            } else {
                still_read.extend(value.slices.into_iter().map(|s| s.file));
            }
        }
        if affected.is_empty() {
            return Ok((0, 0, 0));
        }
        // A file is retired when every GFU referencing it is being
        // rewritten (its remaining bytes serve no live slice). Selected
        // files are always retired; others may be absorbed for free.
        let rewritten: HashSet<&String> = affected
            .iter()
            .flat_map(|(_, v)| v.slices.iter().map(|s| &s.file))
            .collect();
        let retired: Vec<String> = files
            .iter()
            .map(|(p, _)| p)
            .filter(|p| rewritten.contains(p) && !still_read.contains(*p))
            .cloned()
            .collect();

        // Rewrite ALL slices of each affected GFU, in stored slice order,
        // into one staged file: each GFU ends up with a single contiguous
        // slice holding exactly its old rows in their old order.
        let format = index.data.format;
        let name = format!("part-r-{:05}-00000", txn.gen());
        let path = format!("{}/{name}", txn.staging_dir());
        let final_path = format!("{}/{name}", index.data.location);
        let mut w = SliceWriter::create(&index.ctx.hdfs, &path, &index.data, format)?;
        for (key, value) in &affected {
            let start = w.offset();
            for slice in &value.slices {
                if slice.is_empty() {
                    continue;
                }
                let range = ByteRange::new(slice.start, slice.end);
                let input = match format {
                    FileFormat::Text => ScanInput::TextRanges {
                        path: slice.file.clone(),
                        ranges: vec![range],
                    },
                    FileFormat::RcFile => ScanInput::RcRanges {
                        path: slice.file.clone(),
                        ranges: vec![range],
                    },
                };
                let mut r = open_input(&index.ctx, &index.data, &input)?.into_rows();
                while let Some(row) = r.next_row()? {
                    let line = format_row(&row);
                    w.write(&line, row)?;
                }
            }
            let end = w.end_slice()?;
            index.sync_point("maint.stage-cell");
            // Header and record count copied verbatim: compaction moves
            // bytes, it never re-aggregates.
            let compacted = GfuValue {
                header: value.header.clone(),
                slices: vec![crate::gfu::SliceLoc::new(final_path.clone(), start, end)],
                record_count: value.record_count,
            };
            txn.stage(key, &compacted.encode())?;
        }
        let counts = (retired.len(), affected.len(), w.close()?);

        // Post-commit state: same extents, same watermark, same grid —
        // only the file list and the affected GFU values change.
        let extents = txn.view().extents.clone();
        txn.commit(Outcome {
            policy: index.policy(),
            extents,
            watermark: None,
            retire: retired,
            deletes: Vec::new(),
        })?;
        Ok(counts)
    }

    /// Decide and apply one grid adaptation, if warranted. Returns a
    /// human-readable description of the change, or `None`.
    fn adapt(&self) -> Result<Option<String>> {
        let index = &*self.index;
        let pairs = index.kv_scan_prefix(GFU_PREFIX)?;
        if pairs.is_empty() {
            return Ok(None);
        }
        let mut records: u64 = 0;
        for (_, v) in &pairs {
            records += GfuValue::decode(v)?.record_count;
        }
        let cells = pairs.len() as u64;
        let avg = records / cells.max(1);
        let heat = index.heat().take();
        let old = index.policy();
        let (dim, halve) = if avg > self.config.split_records_per_cell {
            // Hottest boundary dimension benefits most from finer cells.
            let dim = argmax(&heat);
            (dim, true)
        } else if self.config.merge_records_per_cell > 0
            && avg < self.config.merge_records_per_cell
            && cells > 1
        {
            let dim = argmin(&heat);
            (dim, false)
        } else {
            return Ok(None);
        };
        let Some(adapted) = adapt_dim(&old.dims()[dim], halve) else {
            return Ok(None);
        };
        let desc = format!(
            "{} {} → {}",
            adapted.name,
            scale_desc(&old.dims()[dim].scale),
            scale_desc(&adapted.scale)
        );
        let mut dims = old.dims().to_vec();
        dims[dim] = adapted;
        let policy = SplittingPolicy::new(dims)?;
        self.regrid_to(policy)?;
        Ok(Some(desc))
    }

    /// Rewrite the whole index under `policy` (interval-only adaptation:
    /// same dimensions, same types — only cell widths change). Exposed
    /// for tests and the CLI; [`run_once`](Self::run_once) reaches it
    /// through the heat-driven decision.
    pub fn regrid_to(&self, policy: SplittingPolicy) -> Result<()> {
        let index = &*self.index;
        if index.policy().dim_names() != policy.dim_names() {
            return Err(DgfError::Index(
                "grid adaptation may only change intervals, not dimensions".into(),
            ));
        }
        // Begin first: it finishes any transaction a failed writer left,
        // which may itself have been a regrid.
        let txn = Txn::begin(index, false)?;
        if *index.policy() == policy {
            return Ok(());
        }
        // An empty grid has no splits; the rewrite then commits the new
        // policy with nothing staged.
        let splits = self.live_slice_splits()?;
        index.reorganize(txn, splits, index.data.format, None, Some(Arc::new(policy)))?;
        Ok(())
    }

    /// The live byte ranges of every data file, as one `FileSplit` per
    /// coalesced slice run of the committed GFU values.
    ///
    /// Whole-file splits would be wrong here: a file retained through a
    /// compaction (because an untouched GFU still references part of it)
    /// may hold *dead* byte ranges whose rows were already rewritten
    /// into the compacted file, and re-reading them would double-count
    /// those rows in the regridded index. Slice boundaries are line- and
    /// group-aligned, so slice-exact splits read exactly the live rows
    /// under the readers' Hadoop boundary rules.
    fn live_slice_splits(&self) -> Result<Vec<dgf_storage::FileSplit>> {
        let mut per_file: HashMap<String, Vec<ByteRange>> = HashMap::new();
        for (_, bytes) in self.index.kv_scan_prefix(GFU_PREFIX)? {
            let value = GfuValue::decode(&bytes)?;
            for s in &value.slices {
                per_file
                    .entry(s.file.clone())
                    .or_default()
                    .push(ByteRange::new(s.start, s.end));
            }
        }
        let mut paths: Vec<String> = per_file.keys().cloned().collect();
        paths.sort();
        let mut out = Vec::new();
        for path in paths {
            let ranges = per_file.remove(&path).unwrap_or_default();
            for r in coalesce_ranges(ranges) {
                out.push(dgf_storage::FileSplit::new(&path, r.start, r.end - r.start));
            }
        }
        Ok(out)
    }
}

/// Halve (`true`) or double (`false`) a dimension's interval; `None`
/// when the interval cannot move further in that direction.
fn adapt_dim(d: &DimPolicy, halve: bool) -> Option<DimPolicy> {
    let mut out = d.clone();
    out.scale = match &d.scale {
        DimScale::Int { min, interval } => {
            let interval = if halve {
                if *interval <= 1 {
                    return None;
                }
                (*interval / 2).max(1)
            } else {
                interval.checked_mul(2)?
            };
            DimScale::Int {
                min: *min,
                interval,
            }
        }
        DimScale::Float { min, interval } => {
            let interval = if halve { interval / 2.0 } else { interval * 2.0 };
            if !interval.is_finite() || interval <= 0.0 {
                return None;
            }
            DimScale::Float {
                min: *min,
                interval,
            }
        }
    };
    Some(out)
}

fn scale_desc(s: &DimScale) -> String {
    match s {
        DimScale::Int { interval, .. } => format!("interval {interval}"),
        DimScale::Float { interval, .. } => format!("interval {interval}"),
    }
}

fn argmax(xs: &[u64]) -> usize {
    let mut best = 0;
    for (i, x) in xs.iter().enumerate() {
        if *x > xs[best] {
            best = i;
        }
    }
    best
}

fn argmin(xs: &[u64]) -> usize {
    let mut best = 0;
    for (i, x) in xs.iter().enumerate() {
        if *x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_records_and_resets() {
        let h = CellHeat::new(3);
        h.record(0);
        h.record(2);
        h.record(2);
        h.record(7); // out of range: ignored
        assert_eq!(h.snapshot(), vec![1, 0, 2]);
        assert_eq!(h.take(), vec![1, 0, 2]);
        assert_eq!(h.snapshot(), vec![0, 0, 0]);
    }

    #[test]
    fn adapt_dim_halves_and_doubles() {
        let d = DimPolicy::int("a", 0, 8);
        let halved = adapt_dim(&d, true).unwrap();
        assert_eq!(halved.scale, DimScale::Int { min: 0, interval: 4 });
        let doubled = adapt_dim(&d, false).unwrap();
        assert_eq!(doubled.scale, DimScale::Int { min: 0, interval: 16 });
        // A unit interval cannot get finer.
        assert!(adapt_dim(&DimPolicy::int("a", 0, 1), true).is_none());
        let f = DimPolicy::float("f", 0.0, 1.0);
        assert_eq!(
            adapt_dim(&f, true).unwrap().scale,
            DimScale::Float { min: 0.0, interval: 0.5 }
        );
    }

    #[test]
    fn argmax_argmin_prefer_first_on_ties() {
        assert_eq!(argmax(&[3, 5, 5]), 1);
        assert_eq!(argmin(&[2, 1, 1]), 1);
        assert_eq!(argmax(&[0]), 0);
    }
}

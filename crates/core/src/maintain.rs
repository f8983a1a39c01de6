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
//! **Adaptation** runs the splitting-policy advisor ([`crate::advisor`])
//! over the planner's own [`QueryHistory`](crate::advisor::QueryHistory):
//! the grid the index has and the best candidate of the advisor's search
//! are priced by the one cost function, and the index is re-gridded to
//! the candidate only when the saving predicted over the recorded
//! queries exceeds rewriting every row — so a stationary workload
//! reaches a grid it stays on, and a handle with no history moves
//! nothing.
//! The rewrite re-cells every record under the new policy in a single
//! transaction whose manifest also *retires* the old-granularity keys
//! (see [`crate::txn::TxnManifest::deletes`]), and the new policy rides
//! the published [`ReadView`](crate::view::ReadView) so a pinned reader
//! can never pair one epoch's extents with another's cell geometry.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use dgf_common::obs::{names, SpanGuard};
use dgf_common::{counter_block, DgfError, Result};
use dgf_format::{coalesce_ranges, sidecar_path, ByteRange, FileFormat};
use dgf_hive::{open_input, ScanInput};

use crate::gfu::{FileId, GfuValue, SliceLoc, GFU_PREFIX, META_GC_KEY};
use crate::index::DgfIndex;
use crate::advisor::{self, AdvisorConfig};
use crate::policy::SplittingPolicy;
use crate::txn::{Outcome, Txn};
use crate::write::{encode_gc_list, SliceWriter};

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
    /// Whether grid adaptation (advisor-chosen intervals + full rewrite)
    /// may run.
    pub adapt: bool,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            delta_file_budget: 8,
            flush_hook: None,
            adapt: false,
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
    /// The dimensions whose intervals the adaptation pass changed, old
    /// scale → new (`None` = grid left alone).
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
        /// Recorded queries the adaptation passes were advised on.
        history_len: names::MAINTAIN_HISTORY_LEN,
        /// Candidate policies those passes priced.
        candidates: names::MAINTAIN_CANDIDATES,
        /// Model cost per query of the grids the passes found, in
        /// thousandths of a row read.
        cost_current: names::MAINTAIN_COST_CURRENT,
        /// Model cost per query of the grids the passes left behind (the
        /// same, where a pass did not move), in thousandths of a row read.
        cost_chosen: names::MAINTAIN_COST_CHOSEN,
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
    /// stage's `kv.*` and `hdfs.*` deltas, and what the stage itself
    /// counted on [`MaintainStats`] (the adaptation's view of the advisor).
    fn stage<T>(
        &self,
        pass: &SpanGuard,
        name: &str,
        work: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let span = pass.child(name);
        let (kv, hdfs) = (self.index.kv.stats(), self.index.ctx.hdfs.stats());
        let own = &self.index.maintain_stats;
        let before = span
            .is_recording()
            .then(|| (kv.snapshot(), hdfs.snapshot(), own.snapshot()));
        let out = work();
        if let Some((kv_before, hdfs_before, own_before)) = before {
            kv.snapshot().since(&kv_before).attach_to_span(&span);
            hdfs.snapshot().since(&hdfs_before).attach_to_span(&span);
            own.snapshot().since(&own_before).attach_to_span(&span);
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
        by_size.sort_by_key(|(id, len)| (*len, *id));
        let selected: HashSet<FileId> = by_size.iter().take(k).map(|(id, _)| *id).collect();

        // Affected = every GFU with at least one slice in a selected
        // file. The KV prefix scan is key-ordered, so the rewrite lays
        // affected cells out in grid order.
        let mut affected: Vec<(Vec<u8>, GfuValue)> = Vec::new();
        let mut still_read: HashSet<FileId> = HashSet::new();
        for (k, v) in index.kv_scan_prefix(GFU_PREFIX)? {
            let value = GfuValue::decode(&v)?;
            if value.slices.iter().any(|s| selected.contains(&s.file)) {
                affected.push((k, value));
            } else {
                still_read.extend(value.slices.iter().map(|s| s.file));
            }
        }
        if affected.is_empty() {
            return Ok((0, 0, 0));
        }
        // A file is retired when every GFU referencing it is being
        // rewritten (its remaining bytes serve no live slice). Selected
        // files are always retired; others may be absorbed for free.
        let rewritten: HashSet<FileId> = affected
            .iter()
            .flat_map(|(_, v)| v.slices.iter().map(|s| s.file))
            .collect();
        let retired: Vec<FileId> = files
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| rewritten.contains(id) && !still_read.contains(id))
            .collect();

        // Rewrite ALL slices of each affected GFU, in stored slice order,
        // into one staged file: each GFU ends up with a single contiguous
        // slice holding exactly its old rows in their old order.
        let data_loc = &index.data.location;
        let paths: HashMap<FileId, String> =
            rewritten.iter().map(|id| (*id, id.path(data_loc))).collect();
        let file = FileId::new(txn.gen(), 0);
        let path = file.path(txn.staging_dir());
        let mut w = SliceWriter::create(&index.ctx.hdfs, &path, &index.data)?;
        for (key, value) in &affected {
            let start = w.offset();
            for slice in &value.slices {
                if slice.is_empty() {
                    continue;
                }
                let range = ByteRange::new(slice.start, slice.end);
                let path = paths[&slice.file].clone();
                let ranges = vec![range];
                let input = match index.data.format {
                    FileFormat::Text => ScanInput::TextRanges { path, ranges },
                    FileFormat::RcFile => ScanInput::RcRanges { path, ranges },
                };
                open_input(&index.ctx, &index.data, &input)?
                    .for_each_row(|_, row| w.write(row))?;
            }
            let end = w.end_slice()?;
            index.sync_point("maint.stage-cell");
            // Header and record count copied verbatim: compaction moves
            // bytes, it never re-aggregates.
            let compacted = GfuValue {
                header: value.header.clone(),
                slices: vec![SliceLoc::new(file, start, end)],
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
            files: vec![file],
            retire: retired,
            deletes: Vec::new(),
        })?;
        Ok(counts)
    }

    /// Ask the advisor whether the recorded queries would be served
    /// cheaper by another grid, and re-grid to it when the predicted
    /// saving repays the rewrite. What the advisor saw and priced is
    /// counted either way. Returns the change, or `None`.
    fn adapt(&self) -> Result<Option<String>> {
        let index = &*self.index;
        let history = index.history().snapshot();
        let view = index.pin_view()?;
        if history.is_empty() || view.extents.is_empty() {
            return Ok(None);
        }
        let mut rows_total: u64 = 0;
        for (_, v) in index.kv_scan_prefix(GFU_PREFIX)? {
            rows_total += GfuValue::decode(&v)?.record_count;
        }
        let old = SplittingPolicy::decode(&view.policy)?;
        let stats = advisor::grid_stats(&old, &view.extents.dims)?;
        let config = AdvisorConfig::default();
        let current = advisor::price(&old, &stats, &history, rows_total, &config)?;
        let best = advisor::search(&stats, &history, rows_total, &config)?;
        let moves = best.policy != old
            && best.repays_rewrite(&current, history.len(), rows_total, &config);
        let chosen = if moves { &best } else { &current };
        let counters = &index.maintain_stats;
        counters.history_len.add(history.len() as u64);
        counters.candidates.add(best.candidates);
        counters.cost_current.add((current.expected_cost * 1e3) as u64);
        counters.cost_chosen.add((chosen.expected_cost * 1e3) as u64);
        if !moves {
            return Ok(None);
        }
        let desc: Vec<String> = old
            .dims()
            .iter()
            .zip(best.policy.dims())
            .filter(|(was, now)| was != now)
            .map(|(was, now)| format!("{} {:?} → {:?}", was.name, was.scale, now.scale))
            .collect();
        self.regrid_to(best.policy)?;
        Ok(Some(desc.join(", ")))
    }

    /// Rewrite the whole index under `policy` (interval-only adaptation:
    /// same dimensions, same types — only cell widths change). Exposed
    /// for tests; [`run_once`](Self::run_once) reaches it through the
    /// advisor's recommendation.
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
        index.reorganize(txn, splits, Some(Arc::new(policy)))?;
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
        let mut per_file: BTreeMap<FileId, Vec<ByteRange>> = BTreeMap::new();
        for (_, bytes) in self.index.kv_scan_prefix(GFU_PREFIX)? {
            let value = GfuValue::decode(&bytes)?;
            for s in &value.slices {
                per_file
                    .entry(s.file)
                    .or_default()
                    .push(ByteRange::new(s.start, s.end));
            }
        }
        let mut out = Vec::new();
        for (id, ranges) in per_file {
            let path = id.path(&self.index.data.location);
            for r in coalesce_ranges(ranges) {
                out.push(dgf_storage::FileSplit::new(&path, r.start, r.end - r.start));
            }
        }
        Ok(out)
    }
}

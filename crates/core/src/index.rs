//! DGFIndex construction (paper §4.2, Algorithms 1 and 2) and incremental
//! extension.
//!
//! Construction is a MapReduce job that **reorganizes** the base table:
//! mappers standardize each record's indexed dimensions into a GFUKey and
//! emit `(GFUKey, line)`; each reducer writes the records of every key it
//! owns contiguously as a *Slice* of its output file, folds the
//! pre-computed aggregates into the GFU header, and puts the
//! `GFUKey → GFUValue` pair into the key-value store. Because the shuffle
//! groups and sorts by key, a Slice always holds exactly the records of
//! one GFU.
//!
//! The time dimension makes the index append-only: new meter data lands in
//! new time cells, so `append` runs the same job over only the new file
//! and merges the resulting GFU entries into the store — no rebuild, and
//! write throughput is unaffected (paper §1 contribution iii).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgf_common::fault::{FaultPlan, RetryPolicy};
use dgf_common::obs::{names, MetricsRegistry, Profiler};
use dgf_common::{format_row, parse_row, DgfError, Result, Row, Stopwatch, Value};
use dgf_format::{
    is_sidecar_path, sidecar_path, FileFormat, RcReader, SidecarBuilder, TextReader, TextWriter,
};
use dgf_hive::{BuildReport, HiveContext, TableRef};
use dgf_kvstore::KvStore;
use dgf_mapreduce::JobReport;
use dgf_query::{AggFunc, AggSet, AggState};
use dgf_storage::{FileSplit, HdfsRef};

use parking_lot::{Mutex, RwLock};

use crate::cache::{GfuHeaderCache, DEFAULT_HEADER_CACHE_CAPACITY};
use crate::fresh::FreshSource;
use crate::gfu::{
    Extents, GfuKey, GfuValue, GFU_PREFIX, META_AGGS_KEY, META_EXTENT_KEY, META_FILES_KEY,
    META_GC_KEY, META_INGEST_KEY, META_PLACEMENT_KEY, META_POLICY_KEY, META_PYRAMID_KEY,
    META_VIEW_KEY,
};
use crate::maintain::CellHeat;
use crate::policy::SplittingPolicy;
use crate::pyramid;
use crate::txn::{
    live_key, stage_key, stage_prefix, TxnManifest, TxnState, STAGE_PREFIX, TXN_MANIFEST_KEY,
};
use crate::view::{LiveParts, ReadView};

/// How GFU Slices are placed across reducer output files — the paper's §8
/// "optimal placement of Slices" future work.
///
/// The shuffle sorts each reducer's keys, so slices of *consecutive* keys
/// in the same reducer are physically adjacent. Placement chooses which
/// keys share a reducer:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicePlacement {
    /// Hash of the full GFUKey (the Hadoop default). Neighboring cells
    /// scatter across files; range queries touch many slices in many
    /// places.
    KeyHash,
    /// Hash of only the first `prefix_dims` coordinates: every cell
    /// sharing that prefix lands in one reducer, where the sort makes
    /// their slices contiguous. For a `(user, region, time)` grid with
    /// `prefix_dims = 2`, the whole time series of a user-cell × region is
    /// one contiguous byte run — a time-range query coalesces to a single
    /// sequential read per touched prefix.
    PrefixLocality {
        /// How many leading dimensions define the locality group.
        prefix_dims: usize,
    },
}

impl SlicePlacement {
    fn encode(&self) -> Vec<u8> {
        match self {
            SlicePlacement::KeyHash => vec![0, 0, 0, 0],
            SlicePlacement::PrefixLocality { prefix_dims } => {
                (*prefix_dims as u32).to_le_bytes().to_vec()
            }
        }
    }

    fn decode(bytes: &[u8]) -> SlicePlacement {
        let mut b = [0u8; 4];
        b[..bytes.len().min(4)].copy_from_slice(&bytes[..bytes.len().min(4)]);
        match u32::from_le_bytes(b) {
            0 => SlicePlacement::KeyHash,
            n => SlicePlacement::PrefixLocality {
                prefix_dims: n as usize,
            },
        }
    }
}

/// Construction/open options beyond the required arguments: slice
/// placement, the retry policy wrapped around every key-value and
/// storage round trip, and an optional fault plan whose crash points the
/// commit protocol consults (tests enumerate them to sweep every crash
/// site).
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Slice placement policy used by construction and appends.
    pub placement: SlicePlacement,
    /// Retry policy for transient key-value faults.
    pub retry: RetryPolicy,
    /// Fault schedule consulted at the commit protocol's crash points.
    pub fault: Option<Arc<FaultPlan>>,
    /// Span collector threaded through builds, opens, and query planning.
    /// The default honours the `DGF_TRACE` environment variable and is a
    /// no-op when it is unset; pass [`Profiler::enabled`] to collect a
    /// [`QueryProfile`](dgf_common::obs::QueryProfile) unconditionally.
    pub profiler: Profiler,
    /// Worker threads the prefix-scan planner may use to fetch key runs
    /// concurrently (the serving tier's scatter). `1` — the default —
    /// keeps the historical strictly sequential fetch; any value is
    /// answer-preserving because runs are always *absorbed* in odometer
    /// order regardless of fetch completion order (DESIGN.md §13).
    pub fetch_parallelism: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            placement: SlicePlacement::KeyHash,
            retry: RetryPolicy::standard(),
            fault: None,
            profiler: Profiler::from_env(),
            fetch_parallelism: 1,
        }
    }
}

/// Run `f` with the policy's retry loop, counting absorbed faults into
/// the store's own `retries_absorbed` stat.
fn kv_retry<T>(retry: RetryPolicy, kv: &dyn KvStore, f: impl FnMut() -> Result<T>) -> Result<T> {
    retry.run(&kv.stats().retries_absorbed, f)
}

/// A built DGFIndex: the reorganized data table plus the GFU store.
///
/// Per the paper, each table can have only one DGFIndex, because the index
/// *is* a physical reorganization of the table.
pub struct DgfIndex {
    /// The warehouse context.
    pub ctx: Arc<HiveContext>,
    /// The original table (source of schema and of ground-truth scans).
    pub base: TableRef,
    /// The reorganized, slice-aligned data table, in the base table's
    /// format (TextFile as in the paper, or RCFile with Slices aligned
    /// to whole row groups).
    pub data: TableRef,
    /// The grid policy. Behind a lock because online grid adaptation
    /// ([`crate::maintain`]) swaps it after a committed regrid; readers
    /// use the policy riding their pinned [`ReadView`] instead, so this
    /// is only the seed for writes.
    policy: RwLock<Arc<SplittingPolicy>>,
    /// Pre-computed aggregate list (may be empty).
    pub aggs: Vec<AggFunc>,
    /// The GFU key-value store (HBase in the paper).
    pub kv: Arc<dyn KvStore>,
    /// Slice placement policy used by construction and appends.
    pub placement: SlicePlacement,
    /// Retry policy wrapped around every key-value round trip.
    pub retry: RetryPolicy,
    fault: Option<Arc<FaultPlan>>,
    profiler: Profiler,
    generation: AtomicU64,
    header_cache: GfuHeaderCache,
    fresh_source: Mutex<Option<Arc<dyn FreshSource>>>,
    fetch_parallelism: usize,
    /// Pyramid height when this store maintains one (`m:pyramid`);
    /// `None` disables maintenance and sends every plan down the
    /// prefix-run scans.
    pyramid: Option<u8>,
    /// Planner-fed per-dimension boundary-heat counters consumed by the
    /// maintenance daemon's grid adaptation (see [`crate::maintain`]).
    heat: CellHeat,
}

impl DgfIndex {
    /// Build a DGFIndex over `base` (paper Listing 3: `CREATE INDEX …
    /// IDXPROPERTIES(policy, precompute)`).
    pub fn build(
        ctx: Arc<HiveContext>,
        base: TableRef,
        policy: SplittingPolicy,
        aggs: Vec<AggFunc>,
        kv: Arc<dyn KvStore>,
        index_name: &str,
    ) -> Result<(DgfIndex, BuildReport)> {
        Self::build_with_placement(
            ctx,
            base,
            policy,
            aggs,
            kv,
            index_name,
            SlicePlacement::KeyHash,
        )
    }

    /// [`build`](Self::build) with an explicit Slice-placement policy.
    pub fn build_with_placement(
        ctx: Arc<HiveContext>,
        base: TableRef,
        policy: SplittingPolicy,
        aggs: Vec<AggFunc>,
        kv: Arc<dyn KvStore>,
        index_name: &str,
        placement: SlicePlacement,
    ) -> Result<(DgfIndex, BuildReport)> {
        Self::build_with_options(
            ctx,
            base,
            policy,
            aggs,
            kv,
            index_name,
            IndexOptions {
                placement,
                ..IndexOptions::default()
            },
        )
    }

    /// [`build`](Self::build) with full [`IndexOptions`].
    pub fn build_with_options(
        ctx: Arc<HiveContext>,
        base: TableRef,
        policy: SplittingPolicy,
        aggs: Vec<AggFunc>,
        kv: Arc<dyn KvStore>,
        index_name: &str,
        options: IndexOptions,
    ) -> Result<(DgfIndex, BuildReport)> {
        let placement = options.placement;
        // Validate dimensions against the schema.
        for d in policy.dims() {
            let t = base.schema.type_of(&d.name)?;
            if t != d.vtype {
                return Err(DgfError::Index(format!(
                    "dimension {:?} is {t} in the table but {} in the policy",
                    d.name, d.vtype
                )));
            }
        }
        // Validate aggregates bind (and are additive by construction).
        AggSet::bind(&aggs, &base.schema)?;

        // The reorganized data keeps the base table's format — the paper
        // implements TextFile and notes other formats are a straightforward
        // extension; RCFile slices are aligned to whole row groups.
        // Inherit the base table's row-group size: slices (and their
        // sidecars) written on build, append, flush, and compaction keep
        // the pruning granularity the base table was tuned for.
        let data = ctx.create_table_grouped(
            &format!("{index_name}_data"),
            base.schema.clone(),
            base.format,
            &format!("/warehouse/{index_name}/data"),
            base.rows_per_group,
        )?;
        if let SlicePlacement::PrefixLocality { prefix_dims } = placement {
            if prefix_dims == 0 || prefix_dims >= policy.arity() {
                return Err(DgfError::Index(format!(
                    "prefix_dims must be in 1..{} for this grid",
                    policy.arity()
                )));
            }
        }
        // The pyramid only pays off when headers exist to summarize, and
        // very wide grids would fan out 2^d children per node.
        let pyramid = (!aggs.is_empty() && policy.arity() <= pyramid::MAX_PYRAMID_ARITY)
            .then_some(pyramid::DEFAULT_PYRAMID_LEVELS);
        let heat = CellHeat::new(policy.arity());
        let index = DgfIndex {
            ctx,
            base,
            data,
            policy: RwLock::new(Arc::new(policy)),
            aggs,
            kv,
            placement,
            retry: options.retry,
            fault: options.fault,
            profiler: options.profiler,
            generation: AtomicU64::new(0),
            header_cache: GfuHeaderCache::new(DEFAULT_HEADER_CACHE_CAPACITY),
            fresh_source: Mutex::new(None),
            fetch_parallelism: options.fetch_parallelism.max(1),
            pyramid,
            heat,
        };
        let watch = Stopwatch::start();
        let span = index.profiler.span("build");
        let kv_before = index.kv.stats().snapshot();
        let splits = index.ctx.table_splits(&index.base);
        // Declare the transaction before its first write so a crash at
        // any later point is recoverable.
        let manifest = TxnManifest::intent(0, index.staging_dir(0), None);
        index.kv_put(TXN_MANIFEST_KEY, &manifest.encode())?;
        index.crash_point("build.intent")?;
        let job = {
            let reorg = span.child("build.reorganize");
            let job = index.reorganize(splits, index.base.format, None, None)?;
            job.attach_to_span(&reorg);
            job
        };
        let report = BuildReport {
            build_time: watch.elapsed(),
            index_size_bytes: index.kv.logical_size_bytes(),
            // Count data keys by prefix: subtracting a fixed meta-key
            // count from `len()` miscounts whenever the meta-key set
            // grows (and underflows on a sparse store).
            index_entries: index.gfu_count()? as u64,
        };
        index.kv.stats().snapshot().since(&kv_before).attach_to_span(&span);
        span.finish();
        let _ = job;
        Ok((index, report))
    }

    /// Reattach to an index persisted in `kv` (e.g. a
    /// [`LogKvStore`](dgf_kvstore::LogKvStore) after a restart): the
    /// splitting policy and extents load from the store's metadata; the
    /// reorganized data table must still be registered under
    /// `<index_name>_data`. `aggs` must match the pre-computed list the
    /// index was built with (UDFs cannot be reconstructed from their
    /// names alone, so the caller supplies them; the stored keys are
    /// verified).
    pub fn open(
        ctx: Arc<HiveContext>,
        base: TableRef,
        kv: Arc<dyn KvStore>,
        index_name: &str,
        aggs: Vec<AggFunc>,
    ) -> Result<DgfIndex> {
        Self::open_with_options(ctx, base, kv, index_name, aggs, IndexOptions::default())
    }

    /// [`open`](Self::open) with full [`IndexOptions`]. Runs crash
    /// recovery first: an interrupted transaction found in the store is
    /// rolled back (pre-commit) or re-applied (post-commit) before any
    /// metadata is read. A store whose `m:view` is missing or lacks a
    /// part (written by a build older than the current format) is then
    /// upgraded once, so readers only ever meet one view shape.
    pub fn open_with_options(
        ctx: Arc<HiveContext>,
        base: TableRef,
        kv: Arc<dyn KvStore>,
        index_name: &str,
        aggs: Vec<AggFunc>,
        options: IndexOptions,
    ) -> Result<DgfIndex> {
        let span = options.profiler.span("open");
        let kv_before = kv.stats().snapshot();
        {
            let recover_span = span.child("open.recover");
            Self::recover(&ctx.hdfs, &kv, options.retry)?;
            kv.stats().snapshot().since(&kv_before).attach_to_span(&recover_span);
        }
        let meta_span = span.child("open.meta");
        let meta_before = kv.stats().snapshot();
        let policy_bytes = kv_retry(options.retry, kv.as_ref(), || kv.get(META_POLICY_KEY))?
            .ok_or_else(|| DgfError::Index("store holds no DGFIndex metadata".into()))?;
        let policy = SplittingPolicy::decode(&policy_bytes)?;
        let stored_keys = kv_retry(options.retry, kv.as_ref(), || kv.get(META_AGGS_KEY))?
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_default();
        let supplied_keys = aggs
            .iter()
            .map(|a| a.key())
            .collect::<Vec<_>>()
            .join("\n");
        if stored_keys != supplied_keys {
            return Err(DgfError::Index(format!(
                "pre-computed aggregates mismatch: stored {stored_keys:?}, supplied {supplied_keys:?}"
            )));
        }
        AggSet::bind(&aggs, &base.schema)?;
        let data = ctx.table(&format!("{index_name}_data"))?;
        // Resume the generation counter past any existing append files so
        // future appends never collide with persisted slice files.
        let max_gen = ctx
            .hdfs
            .list_files(&data.location)
            .iter()
            .filter_map(|(p, _)| {
                p.rsplit('/')
                    .next()?
                    .strip_prefix("part-r-")?
                    .split('-')
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0);
        let placement = kv_retry(options.retry, kv.as_ref(), || kv.get(META_PLACEMENT_KEY))?
            .map(|b| SlicePlacement::decode(&b))
            .unwrap_or(SlicePlacement::KeyHash);
        // The stored metadata decides: a pyramid-bearing store must keep
        // its nodes maintained on every append regardless of who opens it
        // (a stale node would silently under-count), and a store without
        // one can never grow it in place (its absent ancestors would read
        // as empty).
        let stored_pyramid = kv_retry(options.retry, kv.as_ref(), || kv.get(META_PYRAMID_KEY))?
            .as_deref()
            .map(pyramid::decode_meta)
            .transpose()?;
        let heat = CellHeat::new(policy.arity());
        let index = DgfIndex {
            ctx,
            base,
            data,
            policy: RwLock::new(Arc::new(policy)),
            aggs,
            kv,
            placement,
            retry: options.retry,
            fault: options.fault,
            profiler: options.profiler,
            generation: AtomicU64::new(max_gen),
            header_cache: GfuHeaderCache::new(DEFAULT_HEADER_CACHE_CAPACITY),
            fresh_source: Mutex::new(None),
            fetch_parallelism: options.fetch_parallelism.max(1),
            pyramid: stored_pyramid,
            heat,
        };
        index.upgrade_view()?;
        index.kv.stats().snapshot().since(&meta_before).attach_to_span(&meta_span);
        meta_span.finish();
        span.finish();
        Ok(index)
    }

    /// The one-time format upgrade behind the single [`ReadView`] shape.
    /// A store without `m:view` (built before views existed) gets one
    /// synthesized from its meta keys; a view stored without its file
    /// list or policy gets those from live state — exactly what readers
    /// of such stores used to fall back to on every plan. Published with
    /// the same single `m:view` put every commit uses, so a crash before
    /// the put just repeats the synthesis on the next open, and a store
    /// already in the current format costs no write at all.
    fn upgrade_view(&self) -> Result<()> {
        let live = || -> Result<LiveParts> {
            let files = match self.kv_get(META_FILES_KEY)? {
                Some(bytes) => le_u64(&bytes),
                // No count was ever recorded: assume in sync, as such
                // stores always were.
                None => self.ctx.hdfs.list_files(&self.base.location).len() as u64,
            };
            Ok(LiveParts {
                files,
                data_files: self.live_data_files()?,
                policy: self.policy().encode(),
            })
        };
        let (view, publish) = match self.kv_get(META_VIEW_KEY)? {
            Some(bytes) => ReadView::decode_or_complete(&bytes, live)?,
            None => {
                let LiveParts { files, data_files, policy } = live()?;
                let view = ReadView {
                    generation: self.generation(),
                    pending: false,
                    watermark: self.ingest_watermark()?,
                    files,
                    extents: self.extents()?,
                    data_files,
                    policy,
                };
                (view, true)
            }
        };
        if publish {
            self.kv_put(META_VIEW_KEY, &view.encode())?;
        }
        Ok(())
    }

    /// Repair an interrupted transaction, if the store holds one. Called
    /// by [`open`](Self::open); also usable directly after a simulated
    /// crash. Returns the state the transaction was found in, or `None`
    /// when the store was clean.
    ///
    /// * [`TxnState::Intent`] / [`TxnState::Prepared`] — the commit
    ///   point never passed: staged keys, the staging directory, and any
    ///   unacknowledged base-table delta file are deleted, restoring the
    ///   previous epoch exactly.
    /// * [`TxnState::Committed`] — the commit point passed: the apply
    ///   recipe recorded in the manifest is (re-)executed; every step is
    ///   idempotent, so partial prior applies are harmless.
    ///
    /// The manifest itself is deleted last in both directions, so a
    /// crash *during recovery* is recovered by the next recovery.
    pub fn recover(
        hdfs: &HdfsRef,
        kv: &Arc<dyn KvStore>,
        retry: RetryPolicy,
    ) -> Result<Option<TxnState>> {
        Self::recover_with_fault(hdfs, kv, retry, None)
    }

    /// [`recover`](Self::recover) that threads a fault plan into the
    /// re-apply path, so its crash and scheduling points fire during
    /// recovery too. The interleaving harness uses this to drive query
    /// threads through a recovery in progress.
    pub fn recover_with_fault(
        hdfs: &HdfsRef,
        kv: &Arc<dyn KvStore>,
        retry: RetryPolicy,
        fault: Option<&Arc<FaultPlan>>,
    ) -> Result<Option<TxnState>> {
        let Some(bytes) = kv_retry(retry, kv.as_ref(), || kv.get(TXN_MANIFEST_KEY))? else {
            // No manifest: any staged key is an orphan from a cleanup
            // that lost the race with a crash after the manifest delete —
            // unreachable by design, but garbage-collecting is cheap.
            let orphans = kv_retry(retry, kv.as_ref(), || kv.scan_prefix(STAGE_PREFIX))?;
            for (k, _) in orphans {
                kv_retry(retry, kv.as_ref(), || kv.delete(&k))?;
            }
            return Ok(None);
        };
        let manifest = TxnManifest::decode(&bytes)?;
        match manifest.state {
            TxnState::Committed => {
                Self::apply_committed(hdfs, kv.as_ref(), retry, &manifest, fault)?;
                Self::cleanup_txn(hdfs, kv.as_ref(), retry, &manifest)?;
            }
            TxnState::Intent | TxnState::Prepared => {
                Self::rollback_txn(hdfs, kv.as_ref(), retry, &manifest)?;
            }
        }
        Ok(Some(manifest.state))
    }

    /// Phase B of the commit protocol: make the committed transaction
    /// live. Every step is idempotent — renames skip when the
    /// destination exists, staged-key publishes skip keys already
    /// garbage-collected, metadata puts are plain overwrites of
    /// precomputed values.
    ///
    /// Ordering is load-bearing for live readers (DESIGN.md §11): the
    /// new pending [`ReadView`] is put *after* the renames (so its split
    /// list resolves) and *before* the first live GFU overwrite. A
    /// reader pinned to the old view that races the publishes will see
    /// the new view at validation time and retry; a reader pinned to the
    /// pending view reconstructs the complete new state by overlaying
    /// this transaction's staged keys.
    pub(crate) fn apply_committed(
        hdfs: &HdfsRef,
        kv: &dyn KvStore,
        retry: RetryPolicy,
        manifest: &TxnManifest,
        fault: Option<&Arc<FaultPlan>>,
    ) -> Result<()> {
        for (from, to) in &manifest.renames {
            if hdfs.file_exists(to) {
                continue;
            }
            if hdfs.file_exists(from) {
                kv_retry(retry, kv, || hdfs.rename_file(from, to))?;
            }
        }
        if let Some(plan) = fault {
            plan.crash_point("apply.renamed")?;
        }
        if !manifest.view.is_empty() {
            kv_retry(retry, kv, || kv.put(META_VIEW_KEY, &manifest.view))?;
        }
        if let Some(plan) = fault {
            plan.crash_point("apply.view")?;
        }
        for staged in &manifest.staged_keys {
            if let Some(plan) = fault {
                plan.sync_point("apply.publish-cell");
            }
            if let Some(v) = kv_retry(retry, kv, || kv.get(staged))? {
                kv_retry(retry, kv, || kv.put(live_key(staged), &v))?;
            }
        }
        if let Some(plan) = fault {
            plan.crash_point("apply.published")?;
        }
        for (k, v) in &manifest.meta_puts {
            kv_retry(retry, kv, || kv.put(k, v))?;
        }
        // Retire keys the transaction re-gridded away. Runs after the
        // staged publishes: a pending-view reader masks these keys with
        // the staged tombstone twins until they are gone, so at no point
        // can it see both grid epochs. Deleting an already-deleted key
        // is a no-op, keeping re-apply idempotent.
        for k in &manifest.deletes {
            kv_retry(retry, kv, || kv.delete(k).map(|_| ()))?;
        }
        if let Some(plan) = fault {
            if !manifest.deletes.is_empty() {
                plan.crash_point("apply.retired")?;
            }
        }
        Ok(())
    }

    /// Remove a finished (applied) transaction's staging state. The view
    /// is re-put with `pending` cleared only after the staged keys are
    /// gone (readers read staged-then-live, so a deleted staged key
    /// always falls back to the already-published live value); the
    /// manifest goes last: if a crash interrupts cleanup, recovery
    /// re-applies and re-cleans.
    pub(crate) fn cleanup_txn(
        hdfs: &HdfsRef,
        kv: &dyn KvStore,
        retry: RetryPolicy,
        manifest: &TxnManifest,
    ) -> Result<()> {
        for staged in &manifest.staged_keys {
            kv_retry(retry, kv, || kv.delete(staged))?;
        }
        if !manifest.view.is_empty() {
            let mut view = ReadView::decode(&manifest.view)?;
            view.pending = false;
            let enc = view.encode();
            kv_retry(retry, kv, || kv.put(META_VIEW_KEY, &enc))?;
        }
        hdfs.delete_tree(&manifest.staging_dir)?;
        kv_retry(retry, kv, || kv.delete(TXN_MANIFEST_KEY))?;
        kv_retry(retry, kv, || kv.flush())?;
        Ok(())
    }

    /// Undo a transaction that never reached its commit point. The
    /// staged-key sweep uses the prefix (not the manifest's list) because
    /// an Intent-state manifest predates the list.
    pub(crate) fn rollback_txn(
        hdfs: &HdfsRef,
        kv: &dyn KvStore,
        retry: RetryPolicy,
        manifest: &TxnManifest,
    ) -> Result<()> {
        let staged = kv_retry(retry, kv, || kv.scan_prefix(STAGE_PREFIX))?;
        for (k, _) in staged {
            kv_retry(retry, kv, || kv.delete(&k))?;
        }
        hdfs.delete_tree(&manifest.staging_dir)?;
        if let Some(delta) = &manifest.base_delta {
            if hdfs.file_exists(delta) {
                hdfs.delete_file(delta)?;
            }
        }
        kv_retry(retry, kv, || kv.delete(TXN_MANIFEST_KEY))?;
        kv_retry(retry, kv, || kv.flush())?;
        Ok(())
    }

    /// Index new records: they are appended to the base table as a fresh
    /// file and reorganized into new Slices; existing GFU entries extend
    /// rather than rebuild (the paper's time-extension load path).
    pub fn append(&self, rows: &[Row]) -> Result<BuildReport> {
        self.append_with_watermark(rows, None)
    }

    /// [`append`](Self::append) that additionally advances the persisted
    /// ingest watermark to `watermark` *atomically with the commit*: the
    /// watermark put rides the transaction manifest's precomputed meta
    /// puts, so after a crash either both the new Slices and the
    /// watermark are live or neither is. The streaming flusher uses this
    /// so WAL replay can tell flushed batches from unflushed ones.
    pub fn append_with_watermark(
        &self,
        rows: &[Row],
        watermark: Option<u64>,
    ) -> Result<BuildReport> {
        let span = self.profiler.span("append");
        let kv_before = self.kv.stats().snapshot();
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        // Declare the transaction — including the delta file about to be
        // written — BEFORE writing it: a crash between the base-table
        // write and the commit point must roll the unacknowledged delta
        // back, or the index would be permanently stale.
        let delta_name = format!("delta-{gen:05}");
        let delta_path = format!("{}/{delta_name}", self.base.location);
        let manifest = TxnManifest::intent(gen, self.staging_dir(gen), Some(delta_path));
        self.kv_put(TXN_MANIFEST_KEY, &manifest.encode())?;
        let attempt = (|| -> Result<BuildReport> {
            self.crash_point("append.intent")?;
            self.sync_point("append.intent");
            let path = self.ctx.append_file(&self.base, &delta_name, rows)?;
            self.crash_point("append.delta-written")?;
            self.sync_point("append.delta-written");
            let watch = Stopwatch::start();
            let len = self.ctx.hdfs.file_len(&path)?;
            let splits = dgf_storage::splits_for_file(&path, len, self.ctx.hdfs.block_size());
            let reorg_span = span.child("append.reorganize");
            let reorganized = self.reorganize(splits, self.base.format, watermark, None);
            // Retire the header-cache epoch only after the new GFU values
            // are in the store (or the write failed partway through): a
            // plan racing this append may have cached pre-append values
            // under `gen`, and this bump orphans them. Generation numbers
            // only need to be monotonic, not consecutive.
            self.generation.fetch_add(1, Ordering::AcqRel);
            if let Ok(job) = &reorganized {
                job.attach_to_span(&reorg_span);
            }
            reorg_span.finish();
            reorganized?;
            Ok(BuildReport {
                build_time: watch.elapsed(),
                index_size_bytes: self.kv.logical_size_bytes(),
                index_entries: self.gfu_count()? as u64,
            })
        })();
        self.kv.stats().snapshot().since(&kv_before).attach_to_span(&span);
        match attempt {
            Ok(report) => Ok(report),
            Err(e) => {
                // Repair in-process instead of leaving the Intent
                // manifest and orphaned delta for the next open: a
                // long-lived process would otherwise leak one delta per
                // failed append, and a concurrent opener could roll back
                // a transaction this index still thinks it owns.
                self.abort_append();
                Err(e)
            }
        }
    }

    /// Best-effort repair after a failed append, mirroring what
    /// [`recover`](Self::recover) would do at the next open: roll an
    /// uncommitted transaction back, roll a committed one forward. All
    /// repair errors are swallowed — if the store itself is down (e.g. a
    /// sticky injected crash) the manifest survives and open-time
    /// recovery remains the backstop, exactly as before.
    fn abort_append(&self) {
        // Raw read, no retry: when the store is unreachable, bail fast.
        let Ok(Some(bytes)) = self.kv.get(TXN_MANIFEST_KEY) else {
            return;
        };
        let Ok(manifest) = TxnManifest::decode(&bytes) else {
            return;
        };
        let _ = match manifest.state {
            TxnState::Intent | TxnState::Prepared => {
                Self::rollback_txn(&self.ctx.hdfs, self.kv.as_ref(), self.retry, &manifest)
            }
            TxnState::Committed => {
                Self::apply_committed(&self.ctx.hdfs, self.kv.as_ref(), self.retry, &manifest, None)
                    .and_then(|()| {
                        Self::cleanup_txn(&self.ctx.hdfs, self.kv.as_ref(), self.retry, &manifest)
                    })
            }
        };
    }

    /// The current append generation. Every [`append`](Self::append) bumps
    /// it; committed [`ReadView`]s carry the generation their transaction
    /// ran at. Acquire pairs with the Release bumps around commit, so a
    /// thread that observes a bumped generation also observes the KV
    /// state the bumping transaction published.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current grid policy. A cheap clone of a shared handle; hold
    /// it for the duration of one operation rather than re-reading, and
    /// prefer the policy riding a pinned [`ReadView`] for anything that
    /// must agree with that view's cell geometry (a committed regrid
    /// swaps this handle).
    pub fn policy(&self) -> Arc<SplittingPolicy> {
        self.policy.read().clone()
    }

    /// Swap the in-memory policy handle after a committed regrid.
    pub(crate) fn install_policy(&self, policy: Arc<SplittingPolicy>) {
        *self.policy.write() = policy;
    }

    /// Planner-fed boundary-heat counters (see [`crate::maintain`]).
    pub fn heat(&self) -> &CellHeat {
        &self.heat
    }

    /// Allocate the next transaction generation (pre-commit).
    pub(crate) fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Retire the header-cache epoch after a committed (or failed)
    /// maintenance transaction, mirroring the bump in
    /// [`append_with_watermark`](Self::append_with_watermark).
    pub(crate) fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The persisted deferred file-reclamation list (`m:gc`): data files
    /// retired by a maintenance transaction, awaiting one full round of
    /// grace before deletion. See [`crate::maintain`].
    pub fn gc_list(&self) -> Result<Vec<String>> {
        let Some(bytes) = self.kv_get(META_GC_KEY)? else {
            return Ok(Vec::new());
        };
        decode_gc_list(&bytes)
    }

    /// The live data files of the index — what a view published now
    /// lists: everything in the data directory except sidecars (index,
    /// not data) and files awaiting deferred reclamation (`m:gc`), which
    /// must never re-enter a view.
    pub(crate) fn live_data_files(&self) -> Result<Vec<(String, u64)>> {
        let gc: std::collections::HashSet<String> = self.gc_list()?.into_iter().collect();
        let mut files: Vec<(String, u64)> = self
            .ctx
            .hdfs
            .list_files(&self.data.location)
            .into_iter()
            .filter(|(p, _)| !is_sidecar_path(p) && !gc.contains(p))
            .collect();
        files.sort();
        files.dedup();
        Ok(files)
    }

    /// Persist the deferred-reclamation list (plain put: the maintenance
    /// daemon is the only writer and resolves the final value itself).
    pub(crate) fn put_gc_list(&self, paths: &[String]) -> Result<()> {
        self.kv_put(META_GC_KEY, &encode_gc_list(paths))
    }

    /// Staging directory of transaction `txn` — a *sibling* of the data
    /// directory, so half-written Slice files never appear in the data
    /// table's split enumeration.
    pub(crate) fn staging_dir(&self, txn: u64) -> String {
        format!("{}_staging/txn-{txn:05}", self.data.location)
    }

    /// Consult the fault plan's crash point `site` (no-op without a plan).
    pub(crate) fn crash_point(&self, site: &str) -> Result<()> {
        match &self.fault {
            Some(plan) => plan.crash_point(site),
            None => Ok(()),
        }
    }

    /// Consult the fault plan's scheduling point `site` (no-op without a
    /// plan): interleaving tests use these to widen race windows.
    pub(crate) fn sync_point(&self, site: &str) {
        if let Some(plan) = &self.fault {
            plan.sync_point(site);
        }
    }

    pub(crate) fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.get(key))
    }

    pub(crate) fn kv_scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.scan_range(start, end))
    }

    pub(crate) fn kv_scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.scan_prefix(prefix))
    }

    /// The fault plan threaded through the commit protocol, if any.
    pub(crate) fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    pub(crate) fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.put(key, value))
    }

    pub(crate) fn kv_delete(&self, key: &[u8]) -> Result<bool> {
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.delete(key))
    }

    /// The in-memory cache of decoded GFU values used by the prefix-scan
    /// planner (see [`crate::cache`]).
    pub fn header_cache(&self) -> &GfuHeaderCache {
        &self.header_cache
    }

    /// The span collector this index was opened or built with (see
    /// [`IndexOptions::profiler`]). Engines fork it per query so each
    /// run's profile is independent.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Worker threads the prefix-scan planner uses to fetch key runs
    /// (see [`IndexOptions::fetch_parallelism`]); `1` means sequential.
    pub fn fetch_parallelism(&self) -> usize {
        self.fetch_parallelism
    }

    /// Height of the maintained aggregate pyramid, or `None` when this
    /// store carries no pyramid (stores built before it existed, empty
    /// pre-compute lists, very wide grids). See [`crate::pyramid`].
    pub fn pyramid_levels(&self) -> Option<u8> {
        self.pyramid
    }

    /// Replace the index's span collector after the fact — e.g. to force
    /// collection for one profiled run regardless of `DGF_TRACE`, as the
    /// bench harness does when emitting `BENCH_*.json`.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Project this index's lifetime counters — key-value store traffic,
    /// header-cache hits and misses, storage-layer I/O — into one
    /// [`MetricsRegistry`] under the stable hierarchical names, so totals
    /// from the different stats blocks reconcile in a single dump.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        self.kv.stats().snapshot().record_into(&reg);
        let cache = self.header_cache.stats();
        reg.add(names::CACHE_HEADER_HITS, cache.hits);
        reg.add(names::CACHE_HEADER_MISSES, cache.misses);
        self.ctx
            .hdfs
            .record_io_into(&reg, &dgf_common::stats::IoSnapshot::default());
        reg
    }

    /// The shared reorganization job (Algorithms 1 + 2), run as a
    /// crash-atomic transaction (see [`crate::txn`]): reducers write
    /// Slices into a staging directory and merged GFU values under
    /// staged keys; one manifest put commits the new epoch, after which
    /// the idempotent apply phase publishes everything. The caller must
    /// already have written an Intent-state manifest. `ingest_watermark`,
    /// when set, becomes the persisted ingest watermark at commit.
    ///
    /// With a [`RegridSpec`], the job is a **full rewrite** instead of
    /// an extension: the splits cover the index's own live data files,
    /// every record is re-celled under the spec's *new* policy, staged
    /// values replace (never merge with) live ones, extents are rebuilt
    /// from scratch, identity-valued tombstones are staged over every
    /// old-granularity key so pending-view readers never see two grid
    /// epochs, and the manifest's `deletes` retire those keys at apply.
    pub(crate) fn reorganize(
        &self,
        splits: Vec<FileSplit>,
        format: FileFormat,
        ingest_watermark: Option<u64>,
        regrid: Option<&RegridSpec>,
    ) -> Result<JobReport> {
        let gen = self.generation.load(Ordering::Acquire);
        let policy = match regrid {
            Some(spec) => Arc::clone(&spec.policy),
            None => self.policy(),
        };
        if splits.is_empty() {
            // Nothing to index; still persist metadata so queries work,
            // then retire the (empty) transaction.
            self.persist_meta(&Extents::empty(policy.arity()), ingest_watermark)?;
            self.kv_delete(TXN_MANIFEST_KEY)?;
            return Ok(JobReport::default());
        }
        let dim_idx: Vec<usize> = policy
            .dims()
            .iter()
            .map(|d| self.base.schema.index_of(&d.name))
            .collect::<Result<_>>()?;
        let agg_set = AggSet::bind(&self.aggs, &self.base.schema)?;
        let num_reducers = self.ctx.engine.threads().min(splits.len()).max(1);
        let ctx = &self.ctx;
        let base = &self.base;
        let policy = policy.as_ref();
        let data_loc = self.data.location.clone();
        let staging_dir = self.staging_dir(gen);
        let kv = &self.kv;
        let retry = self.retry;
        let arity = policy.arity();
        let fault = self.fault.clone();
        let rewrite = regrid.is_some();

        // Slice placement: which encoded-key prefix defines the reducer.
        let prefix_len = match self.placement {
            SlicePlacement::KeyHash => None,
            SlicePlacement::PrefixLocality { prefix_dims } => {
                Some(GFU_PREFIX.len() + 8 * prefix_dims)
            }
        };
        let partitioner = prefix_len.map(|cut| {
            move |key: &Vec<u8>, n: usize| {
                (dgf_common::codec::fnv1a(&key[..cut.min(key.len())]) % n as u64) as usize
            }
        });

        // Map (Algorithm 1): standardize dims → GFUKey; emit (key, line).
        let job = self.ctx.engine.map_reduce_partitioned(
            splits,
            num_reducers,
            partitioner
                .as_ref()
                .map(|p| p as &(dyn Fn(&Vec<u8>, usize) -> usize + Sync)),
            &|_, split: FileSplit, e| {
                let mut emit_row = |row: Row| -> Result<()> {
                    let mut cells = Vec::with_capacity(dim_idx.len());
                    for (i, d) in dim_idx.iter().zip(policy.dims()) {
                        cells.push(d.cell_of(&row[*i])?);
                    }
                    e.emit(GfuKey::new(cells).encode(), format_row(&row));
                    Ok(())
                };
                match format {
                    FileFormat::Text => {
                        let mut r = TextReader::open(&ctx.hdfs, base.schema.clone(), &split)?;
                        while let Some((_, row)) = r.next_with_offset()? {
                            emit_row(row)?;
                        }
                    }
                    FileFormat::RcFile => {
                        let mut r = RcReader::open(&ctx.hdfs, base.schema.clone(), &split)?;
                        while let Some((_, row)) = r.next_with_offset()? {
                            emit_row(row)?;
                        }
                    }
                }
                Ok(())
            },
            None,
            // Reduce (Algorithm 2): write each GFU's records as one Slice
            // of a STAGED file, fold the header, and stage the merged
            // (key, value) pair. Nothing live changes until commit.
            &|tid, groups: Vec<(Vec<u8>, Vec<String>)>| {
                let path = format!("{staging_dir}/part-r-{gen:05}-{tid:05}");
                // Slice locations record the post-commit path: files are
                // renamed into the data directory at apply, keys publish
                // unmodified.
                let final_path = format!("{data_loc}/part-r-{gen:05}-{tid:05}");
                let mut w = SliceWriter::create(&ctx.hdfs, &path, base, format)?;
                let mut extents = Extents::empty(arity);
                let mut staged_keys: Vec<Vec<u8>> = Vec::new();
                for (key_bytes, lines) in groups {
                    let key = GfuKey::decode(&key_bytes, arity)?;
                    extents.observe(&key);
                    let start = w.offset();
                    let mut states = agg_set.new_states();
                    for line in &lines {
                        let row = parse_row(line, &base.schema)?;
                        agg_set.update(&mut states, &row, &base.schema)?;
                        w.write(line, row)?;
                    }
                    let end = w.end_slice()?;
                    let slice = crate::gfu::SliceLoc::new(final_path.clone(), start, end);
                    let header = AggSet::encode_states(&states);
                    let count = lines.len() as u64;
                    // The staged value is the FINAL post-commit value:
                    // the live value (untouched until commit) merged with
                    // this slice. The shuffle gives each key to exactly
                    // one reducer exactly once per job, so publishing it
                    // later is an idempotent put.
                    if let Some(plan) = &fault {
                        plan.sync_point("reorg.stage-cell");
                    }
                    // A regrid rewrite replaces the keyspace wholesale:
                    // new cell coordinates may collide with a live
                    // old-granularity key, and merging with it would
                    // double-count every record it ever held.
                    let old = if rewrite {
                        None
                    } else {
                        kv_retry(retry, kv.as_ref(), || kv.get(&key_bytes))?
                    };
                    let merged = merge_gfu(old.as_deref(), &header, &slice, count, &agg_set)?;
                    let skey = stage_key(gen, &key_bytes);
                    let enc = merged.encode();
                    kv_retry(retry, kv.as_ref(), || kv.put(&skey, &enc))?;
                    staged_keys.push(skey);
                }
                w.close()?;
                Ok((extents, staged_keys))
            },
        )?;

        // Prepare: complete the manifest with the full apply recipe —
        // renames, staged keys, and precomputed (merge-free) metadata.
        // A rewrite's extents are rebuilt from its own outputs alone: the
        // stored extents describe the old granularity.
        let mut extents = if rewrite {
            Extents::empty(arity)
        } else {
            match self.kv_get(META_EXTENT_KEY)? {
                Some(bytes) => Extents::decode(&bytes)?,
                None => Extents::empty(arity),
            }
        };
        let mut staged_keys: Vec<Vec<u8>> = Vec::new();
        for (e, keys) in &job.outputs {
            extents.merge(e);
            staged_keys.extend(keys.iter().cloned());
        }
        // Stage the pyramid delta in the SAME transaction: recompute
        // every node whose subtree holds a cell this job touched, from
        // the final post-commit child values. The staged nodes publish
        // through the same apply phase as the cells — visibility flips
        // with the one `m:view` put, so readers never see cells and
        // ancestors from different epochs.
        if let Some(levels) = self.pyramid {
            self.stage_pyramid_updates(gen, levels, &mut staged_keys, rewrite)?;
        }
        // A rewrite retires every old-granularity key its job did not
        // re-stage: an identity-valued tombstone is staged over each one
        // (so a pending-view reader's staged-over-live overlay masks the
        // old grid completely — new cell coordinates share the old key
        // space, so un-masked old keys would land inside the new view's
        // scan runs), and the manifest's `deletes` removes them at apply.
        let mut deletes: Vec<Vec<u8>> = Vec::new();
        if rewrite {
            use std::collections::HashSet;
            let staged_live: HashSet<Vec<u8>> = staged_keys
                .iter()
                .map(|s| live_key(s).to_vec())
                .collect();
            let tombstone = GfuValue {
                header: AggSet::encode_states(&agg_set.new_states()),
                slices: Vec::new(),
                record_count: 0,
            }
            .encode();
            let mut old_keys: Vec<Vec<u8>> = kv_retry(retry, kv.as_ref(), || {
                kv.scan_prefix(GFU_PREFIX)
            })?
            .into_iter()
            .map(|(k, _)| k)
            .collect();
            old_keys.extend(
                kv_retry(retry, kv.as_ref(), || {
                    kv.scan_prefix(pyramid::PYRAMID_PREFIX)
                })?
                .into_iter()
                .map(|(k, _)| k),
            );
            for k in old_keys {
                if staged_live.contains(&k) {
                    continue;
                }
                let skey = stage_key(gen, &k);
                kv_retry(retry, kv.as_ref(), || kv.put(&skey, &tombstone))?;
                staged_keys.push(skey);
                deletes.push(k);
            }
        }
        // The post-commit split list: every data file already live plus
        // this transaction's rename destinations (sized from the staged
        // files — slice files are immutable once renamed, so the pinned
        // lengths stay exact). Recorded in the view so a pinned reader
        // never mixes one epoch's headers with another's split list.
        // A rewrite's view lists only its own outputs: the old files are
        // retired wholesale. Either way, files already awaiting deferred
        // reclamation (`m:gc`) must never re-enter a view.
        let staged_files = self.ctx.hdfs.list_files(&staging_dir);
        let mut renames: Vec<(String, String)> = Vec::with_capacity(staged_files.len());
        // Sidecars ride the renames with their slice files but are never
        // data: keep them out of the split list (here and from prior gens).
        let mut data_files: Vec<(String, u64)> = if rewrite {
            Vec::new()
        } else {
            self.live_data_files()?
        };
        for (p, len) in staged_files {
            let name = p.rsplit('/').next().unwrap_or(&p).to_owned();
            let dest = format!("{data_loc}/{name}");
            if !is_sidecar_path(&dest) {
                data_files.push((dest.clone(), len));
            }
            renames.push((p, dest));
        }
        data_files.sort();
        data_files.dedup();
        self.crash_point("reorg.staged")?;
        let mut manifest = match self.kv_get(TXN_MANIFEST_KEY)? {
            Some(b) => TxnManifest::decode(&b)?,
            None => TxnManifest::intent(gen, staging_dir.clone(), None),
        };
        let files = self.ctx.hdfs.list_files(&self.base.location).len() as u64;
        let watermark = self.ingest_watermark()?.max(ingest_watermark.unwrap_or(0));
        manifest.state = TxnState::Prepared;
        manifest.renames = renames;
        manifest.staged_keys = staged_keys;
        manifest.deletes = deletes;
        manifest.meta_puts = self.meta_puts(policy, &extents, files, watermark);
        if let Some(spec) = regrid {
            // The replaced files join the deferred-reclamation list (one
            // maintenance round of grace for readers pinned to the old
            // view) rather than being deleted at apply.
            let mut retired = self.gc_list()?;
            retired.extend(spec.retire.iter().map(|(p, _)| p.clone()));
            retired.sort();
            retired.dedup();
            manifest
                .meta_puts
                .push((META_GC_KEY.to_vec(), encode_gc_list(&retired)));
        }
        manifest.view = ReadView {
            generation: gen,
            pending: true,
            watermark,
            files,
            extents: extents.clone(),
            data_files,
            policy: policy.encode(),
        }
        .encode();
        self.kv_put(TXN_MANIFEST_KEY, &manifest.encode())?;
        self.crash_point("reorg.prepared")?;

        // COMMIT POINT: this single put flips the epoch. Before it,
        // recovery rolls everything back; after it, recovery re-applies.
        manifest.state = TxnState::Committed;
        self.kv_put(TXN_MANIFEST_KEY, &manifest.encode())?;
        self.crash_point("reorg.committed")?;

        Self::apply_committed(
            &self.ctx.hdfs,
            self.kv.as_ref(),
            self.retry,
            &manifest,
            self.fault.as_ref(),
        )?;
        self.crash_point("reorg.applied")?;
        Self::cleanup_txn(&self.ctx.hdfs, self.kv.as_ref(), self.retry, &manifest)?;
        Ok(job.report)
    }

    /// Recompute and stage the pyramid nodes dirtied by transaction
    /// `gen`'s staged cells. Every dirty level-`k` parent is folded
    /// from its 2^d children in canonical odometer order
    /// ([`pyramid::fold_node`]): touched children come from this
    /// transaction's staged values (their *final* post-commit state),
    /// untouched siblings from the live store. The nodes are staged
    /// under the same `s:` prefix and appended to `staged_keys`, so
    /// the generic apply/rollback/recovery machinery publishes or
    /// discards them with the cells — no pyramid-specific crash
    /// handling exists or is needed.
    /// `rewrite` (regrid) folds strictly from this transaction's staged
    /// cells: the live store holds old-granularity values whose
    /// coordinates may collide with new ones, so falling back to it
    /// would fold stale children into the new pyramid.
    pub(crate) fn stage_pyramid_updates(
        &self,
        gen: u64,
        levels: u8,
        staged_keys: &mut Vec<Vec<u8>>,
        rewrite: bool,
    ) -> Result<()> {
        use std::collections::HashMap;
        let agg_set = AggSet::bind(&self.aggs, &self.base.schema)?;
        let arity = self.policy().arity();
        // Final post-commit values of everything staged so far — all
        // the `g:` cells this job wrote.
        let staged = kv_retry(self.retry, self.kv.as_ref(), || {
            self.kv.scan_prefix(&stage_prefix(gen))
        })?;
        let mut current: HashMap<Vec<u8>, GfuValue> = HashMap::new();
        let mut dirty: Vec<Vec<i64>> = Vec::new();
        for (skey, v) in &staged {
            let live = live_key(skey);
            if !live.starts_with(GFU_PREFIX) {
                continue;
            }
            let key = GfuKey::decode(live, arity)?;
            dirty.push(key.cells);
            current.insert(live.to_vec(), GfuValue::decode(v)?);
        }
        for level in 1..=levels {
            // Parent coords are not monotone in child order: sort+dedup.
            let mut parents: Vec<Vec<i64>> =
                dirty.iter().map(|c| pyramid::parent_coords(c)).collect();
            parents.sort();
            parents.dedup();
            // One scheduling point per LEVEL, not per parent: the
            // interleaving harness can still pause mid-pyramid-staging,
            // but the flush's in-progress window stays short enough for
            // the planner's bounded validation retries (readers spin
            // while a flush is mid-epoch, so every pause here extends
            // their worst case directly).
            self.sync_point("reorg.stage-pyramid");
            for parent in &parents {
                let child_value = |coords: &[i64]| -> Result<Option<(Vec<AggState>, u64)>> {
                    let ckey = pyramid::level_key(level - 1, coords);
                    let value = match current.get(&ckey) {
                        Some(v) => Some(v.clone()),
                        None if rewrite => None,
                        None => self
                            .kv_get(&ckey)?
                            .as_deref()
                            .map(GfuValue::decode)
                            .transpose()?,
                    };
                    match value {
                        None => Ok(None),
                        Some(v) => Ok(Some((agg_set.decode_states(&v.header)?, v.record_count))),
                    }
                };
                let folded = pyramid::fold_node(
                    &agg_set,
                    pyramid::child_coords(parent).iter().map(|c| child_value(c)),
                )?;
                // A dirty parent always has at least one present child
                // (the staged cell that dirtied it), but stay defensive.
                let Some((states, count)) = folded else { continue };
                let node = GfuValue {
                    header: AggSet::encode_states(&states),
                    slices: Vec::new(),
                    record_count: count,
                };
                let nkey = pyramid::pyramid_key(level, parent);
                let skey = stage_key(gen, &nkey);
                let enc = node.encode();
                kv_retry(self.retry, self.kv.as_ref(), || self.kv.put(&skey, &enc))?;
                staged_keys.push(skey);
                current.insert(nkey, node);
            }
            dirty = parents;
        }
        self.crash_point("reorg.pyramid-staged")?;
        Ok(())
    }

    /// The precomputed post-commit metadata puts. Plain overwrites (the
    /// extents are merged at prepare time, not at apply time, and the
    /// caller resolves the ingest watermark to its final monotone value)
    /// so re-applying after a crash never double-merges. The watermark
    /// never regresses: a flush carries the sequence of its own batches,
    /// a plain build/append re-persists the stored one.
    pub(crate) fn meta_puts(
        &self,
        policy: &SplittingPolicy,
        extents: &Extents,
        files: u64,
        watermark: u64,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let agg_keys: Vec<u8> = self
            .aggs
            .iter()
            .map(|a| a.key())
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes();
        let mut puts = vec![
            (META_POLICY_KEY.to_vec(), policy.encode()),
            (META_PLACEMENT_KEY.to_vec(), self.placement.encode()),
            (META_FILES_KEY.to_vec(), files.to_le_bytes().to_vec()),
            (META_AGGS_KEY.to_vec(), agg_keys),
            (META_EXTENT_KEY.to_vec(), extents.encode()),
            (META_INGEST_KEY.to_vec(), watermark.to_le_bytes().to_vec()),
        ];
        if let Some(levels) = self.pyramid {
            puts.push((META_PYRAMID_KEY.to_vec(), pyramid::encode_meta(levels)));
        }
        puts
    }

    /// The non-transactional metadata path, used only when a build or
    /// append indexed no records (empty split set): nothing data-visible
    /// changes, so plain puts suffice. A fresh non-pending view goes last
    /// so even this path bumps the pinned-reader generation.
    fn persist_meta(&self, new_extents: &Extents, ingest_watermark: Option<u64>) -> Result<()> {
        let policy = self.policy();
        let mut extents = match self.kv_get(META_EXTENT_KEY)? {
            Some(bytes) => {
                Extents::decode(&bytes).unwrap_or_else(|_| Extents::empty(policy.arity()))
            }
            None => Extents::empty(policy.arity()),
        };
        extents.merge(new_extents);
        let files = self.ctx.hdfs.list_files(&self.base.location).len() as u64;
        let watermark = self.ingest_watermark()?.max(ingest_watermark.unwrap_or(0));
        for (k, v) in self.meta_puts(&policy, &extents, files, watermark) {
            self.kv_put(&k, &v)?;
        }
        let view = ReadView {
            generation: self.generation.load(Ordering::Acquire),
            pending: false,
            watermark,
            files,
            extents,
            data_files: self.live_data_files()?,
            policy: policy.encode(),
        };
        self.kv_put(META_VIEW_KEY, &view.encode())?;
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.flush())?;
        Ok(())
    }

    /// The persisted ingest watermark: the highest streaming batch
    /// sequence whose rows are committed into Slices (0 before any
    /// streaming flush). See [`append_with_watermark`](Self::append_with_watermark).
    pub fn ingest_watermark(&self) -> Result<u64> {
        let Some(bytes) = self.kv_get(META_INGEST_KEY)? else {
            return Ok(0);
        };
        let mut b = [0u8; 8];
        b[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        Ok(u64::from_le_bytes(b))
    }

    /// Register a [`FreshSource`] (the streaming memtable): from now on
    /// plans merge its buffered rows with the persisted index, so queries
    /// observe every acknowledged write without waiting for a flush.
    pub fn set_fresh_source(&self, source: Arc<dyn FreshSource>) {
        *self.fresh_source.lock() = Some(source);
    }

    /// Detach the registered [`FreshSource`], if any.
    pub fn clear_fresh_source(&self) {
        *self.fresh_source.lock() = None;
    }

    /// The registered [`FreshSource`], if any.
    pub fn fresh_source(&self) -> Option<Arc<dyn FreshSource>> {
        self.fresh_source.lock().clone()
    }

    /// Pin the committed [`ReadView`] with a single KV read — the one
    /// atomic snapshot query planning works from. Every build publishes
    /// `m:view` and [`open`](Self::open) upgrades stores that predate
    /// it, so its absence here is corruption, not a format to serve.
    pub fn pin_view(&self) -> Result<ReadView> {
        let bytes = self
            .kv_get(META_VIEW_KEY)?
            .ok_or_else(|| DgfError::Corrupt("store holds no read view (m:view)".into()))?;
        ReadView::decode(&bytes)
    }

    /// Whether `view` is still the committed view. The `pending` flag may
    /// legitimately flip (cleanup clears it without changing state a
    /// reader can observe inconsistently), so only the generation counts.
    pub fn view_unchanged(&self, view: &ReadView) -> Result<bool> {
        Ok(self.pin_view()?.generation == view.generation)
    }

    /// A batched `multi_get` as seen from `view`: while the view's
    /// transaction is still publishing, one batch over the staged twins
    /// runs *first* and a second batch over the live keys fills the
    /// staged misses. Staged-before-live is what makes the pair safe: a
    /// staged miss means the key is either unchanged or already
    /// published, so the live read that follows is the new state either
    /// way.
    pub(crate) fn kv_multi_get_pinned(
        &self,
        view: &ReadView,
        keys: &[Vec<u8>],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        if !view.pending {
            return kv_retry(self.retry, self.kv.as_ref(), || self.kv.multi_get(keys));
        }
        let staged_keys: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| stage_key(view.generation, k))
            .collect();
        let mut out = kv_retry(self.retry, self.kv.as_ref(), || {
            self.kv.multi_get(&staged_keys)
        })?;
        let miss_idx: Vec<usize> = out
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.is_none().then_some(i))
            .collect();
        if !miss_idx.is_empty() {
            let miss_keys: Vec<Vec<u8>> = miss_idx.iter().map(|i| keys[*i].clone()).collect();
            let live = kv_retry(self.retry, self.kv.as_ref(), || {
                self.kv.multi_get(&miss_keys)
            })?;
            for (i, v) in miss_idx.into_iter().zip(live) {
                out[i] = v;
            }
        }
        Ok(out)
    }

    /// A range scan as seen from `view`: staged keys are scanned before
    /// the live range (same ordering argument as
    /// [`kv_multi_get_pinned`](Self::kv_multi_get_pinned)) and overlaid with staged
    /// precedence. The stage prefix preserves live-key order, so the
    /// overlay is a sorted two-list merge.
    pub(crate) fn kv_scan_range_pinned(
        &self,
        view: &ReadView,
        start: &[u8],
        end: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if !view.pending {
            return self.kv_scan_range(start, end);
        }
        let sp = stage_prefix(view.generation);
        let sstart = [sp.as_slice(), start].concat();
        let send = [sp.as_slice(), end].concat();
        let staged = self.kv_scan_range(&sstart, &send)?;
        let live = self.kv_scan_range(start, end)?;
        if staged.is_empty() {
            return Ok(live);
        }
        let mut out = Vec::with_capacity(live.len() + staged.len());
        let mut staged = staged
            .into_iter()
            .map(|(k, v)| (live_key(&k).to_vec(), v))
            .peekable();
        for (k, v) in live {
            while staged.peek().is_some_and(|(sk, _)| *sk < k) {
                out.push(staged.next().expect("peeked"));
            }
            if staged.peek().is_some_and(|(sk, _)| *sk == k) {
                out.push(staged.next().expect("peeked"));
            } else {
                out.push((k, v));
            }
        }
        out.extend(staged);
        Ok(out)
    }

    /// [`check_freshness`](Self::check_freshness) against a pinned view.
    /// Extra base-table files are tolerated when an in-flight transaction
    /// accounts for them (its delta is not acknowledged yet, so the
    /// pinned pre-commit answer is correct) or when the live file count
    /// already moved past the view (a commit landed; validation will see
    /// the new view and retry). Anything else is genuine staleness.
    pub(crate) fn check_freshness_pinned(&self, view: &ReadView) -> Result<()> {
        let indexed = view.files;
        let current = self.ctx.hdfs.list_files(&self.base.location).len() as u64;
        if current <= indexed {
            return Ok(());
        }
        if let Ok(Some(bytes)) = self.kv.get(TXN_MANIFEST_KEY) {
            if let Ok(manifest) = TxnManifest::decode(&bytes) {
                let base_loc = format!("{}/", self.base.location);
                if manifest
                    .base_delta
                    .as_deref()
                    .is_some_and(|d| d.starts_with(&base_loc))
                {
                    return Ok(());
                }
            }
        }
        let live_files = self.kv_get(META_FILES_KEY)?.as_deref().map(le_u64);
        if live_files != Some(indexed) {
            return Ok(());
        }
        Err(DgfError::Index(format!(
            "index is stale: base table {:?} has {current} files but only \
             {indexed} are indexed — load new data through DgfIndex::append",
            self.base.name
        )))
    }

    /// Staleness check: error if the base table holds files that were
    /// never indexed (e.g. loaded directly instead of via
    /// [`append`](Self::append)). A stale index would silently drop those
    /// records from every answer.
    pub fn check_freshness(&self) -> Result<()> {
        let Some(bytes) = self.kv_get(META_FILES_KEY)? else {
            return Ok(()); // pre-freshness index: assume in sync
        };
        let mut b = [0u8; 8];
        b[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        let indexed = u64::from_le_bytes(b);
        let current = self.ctx.hdfs.list_files(&self.base.location).len() as u64;
        if current > indexed {
            return Err(DgfError::Index(format!(
                "index is stale: base table {:?} has {current} files but only \
                 {indexed} are indexed — load new data through DgfIndex::append",
                self.base.name
            )));
        }
        Ok(())
    }

    /// The persisted per-dimension extents.
    pub fn extents(&self) -> Result<Extents> {
        match self.kv_get(META_EXTENT_KEY)? {
            Some(bytes) => Extents::decode(&bytes),
            None => Ok(Extents::empty(self.policy().arity())),
        }
    }

    /// Canonical keys of the pre-computed aggregates.
    pub fn agg_keys(&self) -> Vec<String> {
        self.aggs.iter().map(|a| a.key()).collect()
    }

    /// Number of GFU entries currently stored, counted explicitly by
    /// prefix: deriving it from `len()` minus a fixed meta-key count
    /// breaks whenever the meta-key set changes, and underflows on a
    /// store that holds only some of the meta keys.
    pub fn gfu_count(&self) -> Result<usize> {
        let pairs = kv_retry(self.retry, self.kv.as_ref(), || {
            self.kv.scan_prefix(GFU_PREFIX)
        })?;
        Ok(pairs.len())
    }
}

/// Little-endian `u64` from a (possibly short) stored value.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
    u64::from_le_bytes(b)
}

/// Instructions turning [`DgfIndex::reorganize`] into a full grid
/// rewrite: re-cell every record under `policy` and, at apply, move the
/// `retire` files onto the deferred-reclamation list (`m:gc`).
pub(crate) struct RegridSpec {
    /// The adapted policy the rewrite cells records under.
    pub policy: Arc<SplittingPolicy>,
    /// Data files `(path, len)` superseded by the rewrite. They are not
    /// deleted at apply — a pinned reader may still hold the old view —
    /// but queued on `m:gc` for the next maintenance run.
    pub retire: Vec<(String, u64)>,
}

/// Encode the `m:gc` deferred-reclamation list (count + paths).
pub(crate) fn encode_gc_list(paths: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    dgf_common::codec::put_u32(&mut buf, paths.len() as u32);
    for p in paths {
        dgf_common::codec::put_str(&mut buf, p);
    }
    buf
}

/// Decode the `m:gc` deferred-reclamation list.
pub(crate) fn decode_gc_list(bytes: &[u8]) -> Result<Vec<String>> {
    let mut d = dgf_common::codec::Decoder::new(bytes);
    let n = d.u32()? as usize;
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        paths.push(d.str()?.to_owned());
    }
    Ok(paths)
}

/// Format-dispatched writer of slice-aligned reorganized data.
///
/// The RCFile variant additionally streams every row through a
/// [`SidecarBuilder`] and, at close, writes the zone-map + hierarchical
/// bitmap sidecar beside the data file (`<path>.scx`, DESIGN.md §15).
/// Written into the staging directory, the sidecar rides the same
/// staged-commit renames as its slice file, so it is never visible
/// without the data it describes.
pub(crate) enum SliceWriter {
    Text(TextWriter),
    Rc {
        writer: Box<dgf_format::RcWriter>,
        hdfs: dgf_storage::HdfsRef,
        path: String,
        sidecar: SidecarBuilder,
    },
}

impl SliceWriter {
    pub(crate) fn create(
        hdfs: &dgf_storage::HdfsRef,
        path: &str,
        base: &TableRef,
        format: FileFormat,
    ) -> Result<SliceWriter> {
        Ok(match format {
            FileFormat::Text => SliceWriter::Text(TextWriter::create(hdfs, path)?),
            FileFormat::RcFile => SliceWriter::Rc {
                writer: Box::new(dgf_format::RcWriter::create(
                    hdfs,
                    path,
                    base.schema.clone(),
                    base.rows_per_group,
                )?),
                hdfs: hdfs.clone(),
                path: path.to_owned(),
                sidecar: SidecarBuilder::new(
                    base.schema.fields().iter().map(|f| f.name.clone()).collect(),
                ),
            },
        })
    }

    /// Offset where the next slice will begin.
    pub(crate) fn offset(&self) -> u64 {
        match self {
            SliceWriter::Text(w) => w.offset(),
            SliceWriter::Rc { writer, .. } => writer.group_offset(),
        }
    }

    /// Append one record (`line` is its text form, `row` its parsed form).
    pub(crate) fn write(&mut self, line: &str, row: Row) -> Result<()> {
        match self {
            SliceWriter::Text(w) => {
                w.write_line(line)?;
            }
            SliceWriter::Rc {
                writer, sidecar, ..
            } => {
                // `write_row` returns the row's group start; if the group
                // auto-flushed on this row, `group_offset()` has moved past
                // it and the group (start..end) is sealed for the sidecar.
                let start = writer.write_row(&row)?;
                sidecar.observe(&row);
                let after = writer.group_offset();
                if after != start {
                    sidecar.finish_group(start, after - start);
                }
            }
        }
        Ok(())
    }

    /// Close the current slice at a record/group boundary; returns its
    /// exclusive end offset.
    pub(crate) fn end_slice(&mut self) -> Result<u64> {
        match self {
            SliceWriter::Text(w) => Ok(w.offset()),
            SliceWriter::Rc {
                writer, sidecar, ..
            } => {
                let start = writer.group_offset();
                writer.finish_group()?;
                let end = writer.group_offset();
                if end != start {
                    sidecar.finish_group(start, end - start);
                }
                Ok(end)
            }
        }
    }

    pub(crate) fn close(self) -> Result<u64> {
        match self {
            SliceWriter::Text(w) => w.close(),
            SliceWriter::Rc {
                mut writer,
                hdfs,
                path,
                mut sidecar,
            } => {
                // Seal any group still open (the reducer normally ends every
                // slice first, making this a no-op) so the builder and the
                // file agree on group boundaries before the footer is written.
                let start = writer.group_offset();
                writer.finish_group()?;
                let end = writer.group_offset();
                if end != start {
                    sidecar.finish_group(start, end - start);
                }
                let data_len = writer.close()?;
                let bytes = sidecar.finish(data_len).encode();
                let mut w = hdfs.create(&sidecar_path(&path))?;
                use std::io::Write as _;
                w.write_all(&bytes)?;
                w.close()?;
                Ok(data_len)
            }
        }
    }
}

/// Merge a freshly built slice into an existing GFU value (or create one).
pub(crate) fn merge_gfu(
    old: Option<&[u8]>,
    header: &[u8],
    slice: &crate::gfu::SliceLoc,
    count: u64,
    agg_set: &AggSet,
) -> Result<GfuValue> {
    match old {
        None => Ok(GfuValue {
            header: header.to_vec(),
            slices: vec![slice.clone()],
            record_count: count,
        }),
        Some(bytes) => {
            let mut v = GfuValue::decode(bytes)?;
            if !agg_set.is_empty() {
                let mut states = agg_set.decode_states(&v.header)?;
                let new_states = agg_set.decode_states(header)?;
                agg_set.merge(&mut states, &new_states)?;
                v.header = AggSet::encode_states(&states);
            }
            v.slices.push(slice.clone());
            v.record_count += count;
            Ok(v)
        }
    }
}

/// Convenience: the canonical meter-data pre-compute list from the paper's
/// real-world experiments (`sum(powerConsumed)` plus count).
pub fn default_precompute(power_col: &str) -> Vec<AggFunc> {
    vec![AggFunc::Sum(power_col.to_owned()), AggFunc::Count]
}

/// Scan all GFU entries (diagnostics, tests, size accounting).
pub fn all_gfus(kv: &dyn KvStore, arity: usize) -> Result<Vec<(GfuKey, GfuValue)>> {
    let pairs = kv.scan_prefix(crate::gfu::GFU_PREFIX)?;
    let mut out = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        out.push((GfuKey::decode(&k, arity)?, GfuValue::decode(&v)?));
    }
    Ok(out)
}

/// Helper used by tests and benches: the example grid of the paper's
/// Figure 5 (dimension A: min 1 interval 3; dimension B: min 11
/// interval 2).
pub fn paper_figure5_policy() -> SplittingPolicy {
    SplittingPolicy::new(vec![
        crate::policy::DimPolicy::int("A", 1, 3),
        crate::policy::DimPolicy::int("B", 11, 2),
    ])
    .expect("static policy")
}

/// The paper's Figure 5 example rows `(A, B, C)`.
pub fn paper_figure5_rows() -> Vec<Row> {
    [
        (1, 14, 0.1),
        (5, 18, 0.5),
        (7, 12, 1.2),
        (2, 11, 0.5),
        (9, 14, 0.8),
        (11, 16, 1.3),
        (3, 18, 0.9),
        (12, 12, 0.3),
        (8, 13, 0.2),
    ]
    .into_iter()
    .map(|(a, b, c)| vec![Value::Int(a), Value::Int(b), Value::Float(c)])
    .collect()
}

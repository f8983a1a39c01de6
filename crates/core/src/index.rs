//! The DGFIndex handle: construction (paper Listing 3), reopening, and
//! the pinned reads query planning works from.
//!
//! A DGFIndex is the reorganized, slice-aligned copy of its base table
//! plus the `GFUKey → GFUValue` pairs in the key-value store. This
//! module owns the handle and its read side; everything that changes an
//! index — the build job, appends, the maintenance rewrites — lives in
//! [`crate::write`] and [`crate::maintain`] and commits through
//! [`crate::txn`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dgf_common::fault::{FaultPlan, RetryPolicy};
use dgf_common::obs::{MetricsRegistry, Profiler};
use dgf_common::{DgfError, Result, Row, Stopwatch, Value};
use dgf_hive::{BuildReport, HiveContext, TableRef};
use dgf_kvstore::KvStore;
use dgf_query::{AggFunc, AggSet};

use parking_lot::{Mutex, RwLock};

use crate::cache::{GfuHeaderCache, DEFAULT_HEADER_CACHE_CAPACITY};
use crate::fresh::FreshSource;
use crate::gfu::{Extents, GfuKey, GfuValue, GFU_PREFIX, META_GC_KEY, META_VIEW_KEY};
use crate::advisor::QueryHistory;
use crate::maintain::MaintainStats;
use crate::policy::SplittingPolicy;
use crate::pyramid;
use crate::txn::{self, stage_key, Txn, TxnManifest, TxnStats, TXN_MANIFEST_KEY};
use crate::view::ReadView;
use crate::write::decode_gc_list;

/// Construction/open options beyond the required arguments: the retry
/// policy wrapped around every key-value and storage round trip, and an
/// optional fault plan whose crash points the commit protocol consults
/// (tests enumerate them to sweep every crash site).
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Retry policy for transient key-value faults.
    pub retry: RetryPolicy,
    /// Fault schedule consulted at the commit protocol's crash points.
    pub fault: Option<Arc<FaultPlan>>,
    /// Span collector threaded through builds, opens, and query planning.
    /// The default honours the `DGF_TRACE` environment variable and is a
    /// no-op when it is unset; pass [`Profiler::enabled`] to collect a
    /// [`QueryProfile`](dgf_common::obs::QueryProfile) unconditionally.
    pub profiler: Profiler,
    /// Ignored. Every plan reads its keys with one batched `multi_get`,
    /// which a sharded store fans out per shard itself, so there is no
    /// second fetch path for a worker count to choose. The field is kept
    /// only so callers that still set it compile; ROADMAP item 16
    /// deletes it.
    pub fetch_parallelism: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            retry: RetryPolicy::standard(),
            fault: None,
            profiler: Profiler::from_env(),
            fetch_parallelism: 1,
        }
    }
}

/// Run `f` with the policy's retry loop, counting absorbed faults into
/// the store's own `retries_absorbed` stat.
pub(crate) fn kv_retry<T>(
    retry: RetryPolicy,
    kv: &dyn KvStore,
    f: impl FnMut() -> Result<T>,
) -> Result<T> {
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
    /// Retry policy wrapped around every key-value round trip.
    pub retry: RetryPolicy,
    fault: Option<Arc<FaultPlan>>,
    profiler: Profiler,
    /// Transaction-id allocator: [`Txn`] takes the next value at begin
    /// and bumps it again when it ends.
    pub(crate) generation: AtomicU64,
    header_cache: GfuHeaderCache,
    fresh_source: Mutex<Option<Arc<dyn FreshSource>>>,
    /// Pyramid height when this store maintains one
    /// ([`ReadView::pyramid`]); `None` disables maintenance and gives
    /// every plan the flat shape.
    pyramid: Option<u8>,
    /// The grid-dimension ranges of the plans this handle validated
    /// most recently: what the maintenance daemon's grid adaptation is
    /// advised on (see [`crate::maintain`]).
    history: QueryHistory,
    /// Set while a [`Txn`] is open on this handle (the single-writer
    /// rule, enforced).
    pub(crate) writing: AtomicBool,
    /// Transaction counters, projected by [`metrics`](Self::metrics).
    pub(crate) txn_stats: TxnStats,
    pub(crate) maintain_stats: MaintainStats,
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
        let options = IndexOptions::default();
        Self::build_with_options(ctx, base, policy, aggs, kv, index_name, options)
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
        let genesis = Self::genesis_view(&policy, &aggs);
        let index = Self::attach(ctx, base, data, aggs, kv, options, &genesis)?;
        let watch = Stopwatch::start();
        let span = index.profiler.span("build");
        let kv_before = index.kv.stats().snapshot();
        let splits = index.ctx.table_splits(&index.base);
        {
            let reorg = span.child("build.reorganize");
            let txn = Txn::begin(&index, false)?;
            let job = index.reorganize(txn, splits, None)?;
            job.attach_to_span(&reorg);
        }
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

    /// [`open`](Self::open) with full [`IndexOptions`]: recover, pin the
    /// view, check the aggregates, construct. An interrupted transaction
    /// found in the store is rolled back (pre-commit) or re-applied
    /// (post-commit) first; the committed [`ReadView`] then supplies the
    /// policy, the pyramid height and the generation to resume from. A
    /// store with no `m:view` is not an index; one whose `m:view` does not
    /// decode is `Corrupt`. Neither is written to.
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
        let found = {
            let recover_span = span.child("open.recover");
            let found = txn::recover(&ctx.hdfs, &kv, options.retry, None)?;
            kv.stats().snapshot().since(&kv_before).attach_to_span(&recover_span);
            found
        };
        let meta_span = span.child("open.meta");
        let meta_before = kv.stats().snapshot();
        let data = ctx.table(&format!("{index_name}_data"))?;
        let stored = kv_retry(options.retry, kv.as_ref(), || kv.get(META_VIEW_KEY))?;
        let stored = stored
            .ok_or_else(|| DgfError::Index("store holds no DGFIndex metadata".into()))?;
        let view = ReadView::decode(&stored).map_err(|e| {
            DgfError::Corrupt(format!("unreadable read view (m:view): {e}; rebuild the index"))
        })?;
        let supplied_keys: Vec<String> = aggs.iter().map(|a| a.key()).collect();
        if view.agg_keys != supplied_keys {
            return Err(DgfError::Index(format!(
                "pre-computed aggregates mismatch: stored {:?}, supplied {supplied_keys:?}",
                view.agg_keys
            )));
        }
        AggSet::bind(&aggs, &base.schema)?;
        let index = Self::attach(ctx, base, data, aggs, kv, options, &view)?;
        index.txn_stats.count_recovery(found);
        index.kv.stats().snapshot().since(&meta_before).attach_to_span(&meta_span);
        meta_span.finish();
        span.finish();
        Ok(index)
    }

    /// The view a build starts from: nothing indexed yet, and the two
    /// facts fixed at build — the aggregate keys and the pyramid height —
    /// which every later commit carries forward.
    pub(crate) fn genesis_view(policy: &SplittingPolicy, aggs: &[AggFunc]) -> ReadView {
        // The pyramid only pays off when headers exist to summarize, and
        // very wide grids would fan out 2^d children per node.
        let pyramid = !aggs.is_empty() && policy.arity() <= pyramid::MAX_PYRAMID_ARITY;
        ReadView {
            generation: 0,
            pending: false,
            watermark: 0,
            files: 0,
            extents: Extents::empty(policy.arity()),
            data_files: Vec::new(),
            policy: policy.encode(),
            agg_keys: aggs.iter().map(|a| a.key()).collect(),
            pyramid: if pyramid { pyramid::DEFAULT_PYRAMID_LEVELS } else { 0 },
        }
    }

    /// A handle on the store `view` describes: the view supplies the
    /// policy, the generation to resume from (every transaction id so far
    /// is at most the committed view's, so no new Slice file collides
    /// with a persisted one) and the pyramid height (the stored height
    /// decides: a pyramid-bearing store must keep its nodes maintained on
    /// every append regardless of who opens it).
    fn attach(
        ctx: Arc<HiveContext>,
        base: TableRef,
        data: TableRef,
        aggs: Vec<AggFunc>,
        kv: Arc<dyn KvStore>,
        options: IndexOptions,
        view: &ReadView,
    ) -> Result<DgfIndex> {
        let policy = SplittingPolicy::decode(&view.policy)?;
        Ok(DgfIndex {
            ctx,
            base,
            data,
            history: QueryHistory::new(),
            policy: RwLock::new(Arc::new(policy)),
            aggs,
            kv,
            retry: options.retry,
            fault: options.fault,
            profiler: options.profiler,
            generation: AtomicU64::new(view.generation),
            header_cache: GfuHeaderCache::new(DEFAULT_HEADER_CACHE_CAPACITY),
            fresh_source: Mutex::new(None),
            pyramid: (view.pyramid > 0).then_some(view.pyramid),
            writing: AtomicBool::new(false),
            txn_stats: TxnStats::default(),
            maintain_stats: MaintainStats::default(),
        })
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

    /// The planner-recorded query history (see [`crate::maintain`]).
    pub fn history(&self) -> &QueryHistory {
        &self.history
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

    /// Consult the fault plan's crash point `site` (no-op without a plan).
    /// Writers layered on the index — the streaming ingestor — consult
    /// the same plan, so one plan numbers every crash point of a run.
    pub fn crash_point(&self, site: &str) -> Result<()> {
        match &self.fault {
            Some(plan) => plan.crash_point(site),
            None => Ok(()),
        }
    }

    /// Consult the fault plan's scheduling point `site` (no-op without a
    /// plan): interleaving tests use these to widen race windows.
    pub fn sync_point(&self, site: &str) {
        if let Some(plan) = &self.fault {
            plan.sync_point(site);
        }
    }

    pub(crate) fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        kv_retry(self.retry, self.kv.as_ref(), || self.kv.get(key))
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

    /// The in-memory cache of decoded GFU values and pyramid nodes every
    /// plan probes (see [`crate::cache`]).
    pub fn header_cache(&self) -> &GfuHeaderCache {
        &self.header_cache
    }

    /// The span collector this index was opened or built with (see
    /// [`IndexOptions::profiler`]). Engines fork it per query so each
    /// run's profile is independent.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Height of the maintained aggregate pyramid, or `None` when this
    /// store carries no pyramid (stores built before it existed, empty
    /// pre-compute lists, very wide grids). See [`crate::pyramid`].
    pub fn pyramid_levels(&self) -> Option<u8> {
        self.pyramid
    }

    /// Replace the index's span collector after the fact — e.g. to force
    /// collection for one profiled run regardless of `DGF_TRACE`, as a
    /// test asserting on the span tree does.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Project this index's lifetime counters — key-value store traffic,
    /// header-cache hits and misses, storage-layer I/O, write
    /// transactions, maintenance — into one [`MetricsRegistry`] under the
    /// stable hierarchical names, so totals from the different stats
    /// blocks reconcile in a single dump.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        self.kv.stats().record_into(&reg);
        self.header_cache.stats().record_into(&reg);
        self.ctx.hdfs.stats().record_into(&reg);
        self.txn_stats.record_into(&reg);
        self.maintain_stats.record_into(&reg);
        reg
    }

    /// The persisted ingest watermark: the highest streaming batch
    /// sequence whose rows are committed into Slices (0 before any
    /// streaming flush). See [`append_cells`](Self::append_cells).
    pub fn ingest_watermark(&self) -> Result<u64> {
        Ok(self.pin_view()?.watermark)
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
    /// `m:view` and [`open`](Self::open) rejects a store without a
    /// readable one, so anything else here is corruption, not a format
    /// to serve.
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

    /// Staleness check against a pinned view: error if the base table
    /// holds files that were never indexed (e.g. loaded directly instead
    /// of via [`append`](Self::append)) — a stale index would silently
    /// drop those records from every answer. Extra files are tolerated
    /// when an in-flight transaction accounts for them (its delta is not
    /// acknowledged yet, so the pinned pre-commit answer is correct) or
    /// when a re-pin shows the store already moved past the view (a
    /// commit landed; validation will see the new view and retry).
    /// Anything else is genuine staleness.
    pub(crate) fn check_freshness_pinned(&self, view: &ReadView) -> Result<()> {
        let indexed = view.files;
        let current = self.ctx.hdfs.list_files(&self.base.location).len() as u64;
        if current <= indexed {
            return Ok(());
        }
        // Retried and propagated: a fault swallowed here would fall
        // through and report an in-flight append as a stale index.
        if let Some(bytes) = self.kv_get(TXN_MANIFEST_KEY)? {
            let base_loc = format!("{}/", self.base.location);
            let delta = TxnManifest::decode(&bytes)?.base_delta;
            if delta.is_some_and(|d| d.starts_with(&base_loc)) {
                return Ok(());
            }
        }
        if !self.view_unchanged(view)? {
            return Ok(());
        }
        Err(DgfError::Index(format!(
            "index is stale: base table {:?} has {current} files but only \
             {indexed} are indexed — load new data through DgfIndex::append",
            self.base.name
        )))
    }

    /// The committed per-dimension extents.
    pub fn extents(&self) -> Result<Extents> {
        Ok(self.pin_view()?.extents)
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

//! DGFIndex query planning (paper §4.3, Algorithms 3 and 4).
//!
//! Step 1 decomposes the query region into **inner GFUs** (every cell
//! fully inside the range on all dimensions) and **boundary GFUs**. When
//! every query aggregate is pre-computed and every predicate column is a
//! grid dimension, inner GFUs are answered from their headers with
//! key-value lookups only: folded into one state list for a plain
//! aggregation (the paper), and — beyond the paper — into one per group
//! for a GROUP BY whose key is a grid dimension with one value per cell
//! (see [`DgfPlan::inner_states`]). Otherwise they join the boundary
//! set. Step 2 filters the reorganized table's
//! splits to those overlapping a query-related Slice, and prepares the
//! per-split byte-range lists that the skipping record reader (step 3)
//! consumes. A Slice straddling a split boundary is clipped into both
//! splits and processed by two mappers, exactly as in the paper.
//!
//! ## Fetch strategies
//!
//! GFU keys are order-preserving: the encoded key of a cell sorts
//! exactly like its coordinate vector compared lexicographically, most
//! significant dimension first. The query hyper-rectangle therefore maps
//! to a small number of **contiguous key runs** — one per combination of
//! the leading "prefix" dimensions, each covering every trailing
//! coordinate in one stretch of the keyspace. [`PlanStrategy::PrefixScan`]
//! exploits this: it issues a single `scan_range` per run instead of one
//! round trip per cell. The default, [`PlanStrategy::Pyramid`], answers
//! the fully-inner box from pre-computed `p:` nodes instead and takes
//! the run scans only where no node can answer. Both consult the index's
//! epoch-tagged [`GfuHeaderCache`](crate::cache::GfuHeaderCache), so a
//! repeated query touches the store not at all, and both fold the inner
//! region through one canonical merge tree, so their plans agree in
//! every float bit.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use dgf_common::obs::{names, QueryProfile};
use dgf_common::{DgfError, Result, Row, Stopwatch};
use dgf_format::{coalesce_ranges, ByteRange, SliceSidecar};
use dgf_hive::ScanInput;
use dgf_query::{AggFunc, AggPartials, AggSet, AggState, Query};

use crate::cache::CachedGfu;
use crate::gfu::{FileId, GfuKey, GfuValue, GFU_PREFIX};
use crate::index::DgfIndex;
use crate::policy::{DimPolicy, DimScale, DimSpan, SplittingPolicy};
use crate::view::ReadView;

/// How the planner fetches GFU values from the key-value store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanStrategy {
    /// One `scan_range` per contiguous key run, with results classified
    /// inner/boundary on the fly, backed by the epoch-tagged header
    /// cache. A fully cached run costs zero key-value operations. The
    /// path every header-less or grouped plan takes, and the flat
    /// reference the bit-identity suites compare the default against.
    PrefixScan,
    /// Decompose the fully-inner region into maximal canonical pyramid
    /// nodes (see [`crate::pyramid`]) and read one pre-computed `p:`
    /// header per node, descending to `g:` leaf headers only at the
    /// fringe; boundary cells ride one batched `multi_get`. On a store
    /// without a pyramid (or when headers are unusable, when the plan
    /// groups, or when the query has no fully-inner cell) this degrades
    /// to [`PrefixScan`](Self::PrefixScan) wholesale. Answers are
    /// bit-identical to the flat fetch because both fold the inner
    /// region through the same canonical merge tree.
    #[default]
    Pyramid,
}

/// The plan for one DGFIndex query. The default reads nothing.
#[derive(Default)]
pub struct DgfPlan {
    /// Scan inputs covering the boundary region (or the whole query
    /// region when headers are not usable), clipped per split.
    pub inputs: Vec<ScanInput>,
    /// The chosen splits themselves (one per entry of `inputs`), for the
    /// slice-skipping-off ablation which reads them whole.
    pub chosen_splits: Vec<dgf_storage::FileSplit>,
    /// The inner region's answer, merged from its pre-computed headers
    /// when they are usable: one state list for a plain aggregation, one
    /// per group for a GROUP BY whose key is a grid dimension cut into
    /// one-value cells (integral, interval 1, in the pinned view's
    /// policy), where each covered cell's header is a partial of the
    /// group its key coordinate names. A cell holding no record opens no
    /// group.
    pub inner_states: Option<AggPartials>,
    /// Number of headers merged for the inner region: leaf cells under
    /// [`PlanStrategy::PrefixScan`], canonical nodes (a leaf cell is a
    /// level-0 node) where the pyramid answered. `inner_records` is the
    /// strategy-independent measure.
    pub inner_gfus: u64,
    /// Number of GFUs whose Slices must be read.
    pub boundary_gfus: u64,
    /// Records sitting in the inner region (answered without reading).
    pub inner_records: u64,
    /// Pyramid nodes (level ≥ 1) merged in place of leaf headers; zero
    /// wherever the plan degraded to prefix-run scans.
    pub pyramid_nodes: u64,
    /// Leaf cells those pyramid nodes summarized — the header reads the
    /// decomposition avoided.
    pub pyramid_cells: u64,
    /// All splits of the reorganized table.
    pub splits_total: u64,
    /// Splits with at least one query-related Slice.
    pub splits_read: u64,
    /// Header-cache hits while planning.
    pub cache_hits: u64,
    /// Header-cache misses while planning.
    pub cache_misses: u64,
    /// Transient key-value faults absorbed by the planner's retry loops
    /// while building this plan. Zero on a healthy store; chaos tests
    /// assert it is positive exactly when faults were scheduled.
    pub retries_absorbed: u64,
    /// Buffered (acknowledged-but-unflushed) GFU cells the plan merged
    /// from a registered [`FreshSource`](crate::fresh::FreshSource).
    pub fresh_gfus: u64,
    /// Buffered records those cells hold.
    pub fresh_records: u64,
    /// Buffered rows the engine must push through the sink (boundary
    /// fresh cells, and all fresh cells when headers are unusable). The
    /// full predicate is re-applied row by row, exactly like boundary
    /// Slice rows.
    pub fresh_rows: Vec<Row>,
    /// Planning time, including key-value store traffic.
    pub index_time: Duration,
    /// Stage tree collected while building this plan, when the index was
    /// opened with an enabled [`Profiler`](dgf_common::obs::Profiler)
    /// (root span `plan`, with `plan.meta` / `plan.fetch` /
    /// `plan.splits` children carrying `kv.*` and `cache.header.*`
    /// metrics). Empty — at zero cost — otherwise.
    pub profile: QueryProfile,
}

/// Accumulates the per-cell work of a plan: header merging for covered
/// cells, slice collection for boundary cells, and the cache tallies.
///
/// A plain aggregation's covered persisted cells are not merged on
/// arrival: their picked states are **buffered** and
/// [`Collector::finalize_inner`] folds them through the canonical merge
/// tree of [`crate::pyramid`]. That makes both strategies' inner
/// aggregate bit-identical — the flat fetch re-plays client-side exactly
/// the fold whose pre-computed results the [`PlanStrategy::Pyramid`]
/// path reads from `p:` nodes (which merge via
/// [`Collector::merge_covered`] and leave the buffer empty). A grouped
/// plan merges each covered cell into its group as it is absorbed, in
/// key order: it always takes the run scans, so that order is the same
/// under either strategy.
struct Collector {
    header_merge: Option<HeaderMerge>,
    /// Grid arity, for decoding buffered cell coordinates from keys.
    arity: usize,
    /// Picked (query-order) states of covered persisted cells, keyed by
    /// coordinates, awaiting the canonical fold.
    inner_buffer: BTreeMap<Vec<i64>, Vec<AggState>>,
    inner_gfus: u64,
    inner_records: u64,
    boundary_gfus: u64,
    /// Most records any one boundary cell holds: above the data table's
    /// rows per group, a boundary slice spans several row groups and a
    /// sidecar has something to tell apart inside it.
    boundary_cell_records: u64,
    /// Pyramid nodes (level ≥ 1) merged in place of leaf headers.
    pyramid_nodes: u64,
    /// Leaf cells those nodes summarized.
    pyramid_cells: u64,
    /// Boundary Slice byte ranges by data file, in absorption order.
    per_file: HashMap<FileId, Vec<ByteRange>>,
    cache_hits: u64,
    cache_misses: u64,
    /// Header-cache fills this fetch wants to make, deferred until the
    /// pinned view validates: a fetch that raced a commit may have read
    /// torn values, and publishing them under the pinned generation
    /// would poison other readers still planning against that view.
    pending_fills: Vec<(Vec<u8>, CachedGfu)>,
    /// Reused buffers: a stored header's decoded states (index order),
    /// and a covered cell's states picked into query order.
    decoded: Vec<AggState>,
    picked: Vec<AggState>,
}

struct HeaderMerge {
    index_set: AggSet,
    query_set: AggSet,
    positions: Vec<usize>,
    acc: Accumulator,
}

/// Where covered cells' header states are merged.
enum Accumulator {
    /// A plain aggregation: one state list.
    Scalar(Vec<AggState>),
    /// GROUP BY grid dimension `dim`, whose cells hold one value each:
    /// one state list per key cell, named by `key.cell_low` at the end.
    Groups {
        dim: usize,
        key: DimPolicy,
        groups: BTreeMap<i64, Vec<AggState>>,
    },
}

impl HeaderMerge {
    /// Merge one covered cell's picked states: into the one accumulator,
    /// or into the group of the cell's key coordinate. `cell` is read
    /// only to place a group (a pyramid node, which only a plain
    /// aggregation reads, passes its node coordinates). A cell holding
    /// no record opens no group: a scan would not see one either.
    fn merge_cell(&mut self, cell: &[i64], record_count: u64, picked: &[AggState]) -> Result<()> {
        match &mut self.acc {
            Accumulator::Scalar(acc) => self.query_set.merge(acc, picked),
            Accumulator::Groups { dim, groups, .. } => {
                if record_count == 0 {
                    return Ok(());
                }
                match groups.entry(cell[*dim]) {
                    Entry::Occupied(mut e) => self.query_set.merge(e.get_mut(), picked),
                    Entry::Vacant(e) => {
                        e.insert(picked.to_vec());
                        Ok(())
                    }
                }
            }
        }
    }

    /// Pick index-order `states` into query order, into `out`.
    fn pick_into(&self, states: &[AggState], out: &mut Vec<AggState>) {
        out.clear();
        out.extend(self.positions.iter().map(|p| states[*p].clone()));
    }

    fn into_partials(self) -> AggPartials {
        match self.acc {
            Accumulator::Scalar(acc) => AggPartials::Scalar(acc),
            Accumulator::Groups { key, groups, .. } => AggPartials::Groups(
                groups
                    .into_iter()
                    .map(|(cell, states)| (key.cell_low(cell), states))
                    .collect(),
            ),
        }
    }
}

/// One key run's fetch result, decoupled from collector absorption so
/// the serving tier can fetch runs concurrently and still absorb them
/// sequentially in odometer order.
struct RunFetch {
    /// Expected cells' keys in key order, end to end: every key of a run
    /// is `stride` bytes long.
    keys: Vec<u8>,
    stride: usize,
    /// Per expected cell: whether the query covers it.
    covered: Vec<bool>,
    /// Per expected cell: its header-cache probe.
    probes: Vec<Option<CachedGfu>>,
    /// Scan results when an authoritative `scan_range` ran; `None` when
    /// every cache probe hit and the run cost zero key-value operations.
    pairs: Option<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Cache probes that hit.
    hits: u64,
    /// Cache probes that missed.
    misses: u64,
}

impl RunFetch {
    /// The expected cells in key order: `(key, covered, probe)`.
    fn cells(&self) -> impl Iterator<Item = (&[u8], bool, &Option<CachedGfu>)> {
        self.keys
            .chunks_exact(self.stride)
            .zip(&self.covered)
            .zip(&self.probes)
            .map(|((key, covered), probe)| (key, *covered, probe))
    }
}

/// The headers' merge; covered cells are absorbed only with one.
fn headers(header_merge: &mut Option<HeaderMerge>) -> Result<&mut HeaderMerge> {
    header_merge
        .as_mut()
        .ok_or_else(|| DgfError::Index("covered cell absorbed without usable headers".into()))
}

impl Collector {
    /// Count one covered cell of `records` records.
    fn count_covered(&mut self, records: u64) {
        self.inner_gfus += 1;
        self.inner_records += records;
    }

    /// Whether covered cells merge per group.
    fn grouped(&self) -> bool {
        matches!(
            self.header_merge,
            Some(HeaderMerge {
                acc: Accumulator::Groups { .. },
                ..
            })
        )
    }

    /// Absorb one persisted cell fetched under `key`: covered cells
    /// buffer their picked states for the canonical fold (or merge into
    /// their group), boundary cells contribute their Slice byte ranges.
    fn absorb(&mut self, covered: bool, key: &[u8], value: &GfuValue) -> Result<()> {
        if covered {
            let coords = GfuKey::decode(key, self.arity)?.cells;
            if self.grouped() {
                return self.merge_header(&coords, value);
            }
            let hm = headers(&mut self.header_merge)?;
            hm.index_set.decode_states_into(&value.header, &mut self.decoded)?;
            let mut picked = Vec::new();
            hm.pick_into(&self.decoded, &mut picked);
            self.count_covered(value.record_count);
            self.inner_buffer.insert(coords, picked);
        } else {
            self.boundary_gfus += 1;
            self.boundary_cell_records = self.boundary_cell_records.max(value.record_count);
            for s in &value.slices {
                if !s.is_empty() {
                    self.per_file
                        .entry(s.file)
                        .or_default()
                        .push(ByteRange::new(s.start, s.end));
                }
            }
        }
        Ok(())
    }

    /// Merge the header `states` of a covered cell of `records` records
    /// at `cell` straight into the accumulator, bypassing the buffer:
    /// pyramid nodes (whose stored states *are* canonical subtree folds),
    /// fresh memtable cells (which sit outside the persisted tree and
    /// merge after [`finalize_inner`](Self::finalize_inner), in both
    /// strategies alike) and the cells of a grouped plan.
    fn merge_covered(&mut self, cell: &[i64], states: &[AggState], records: u64) -> Result<()> {
        let hm = headers(&mut self.header_merge)?;
        hm.pick_into(states, &mut self.picked);
        hm.merge_cell(cell, records, &self.picked)?;
        self.count_covered(records);
        Ok(())
    }

    /// [`merge_covered`](Self::merge_covered) for a stored GFU value or
    /// pyramid node, decoding its header into the reused buffer.
    fn merge_header(&mut self, cell: &[i64], value: &GfuValue) -> Result<()> {
        let mut decoded = std::mem::take(&mut self.decoded);
        headers(&mut self.header_merge)?
            .index_set
            .decode_states_into(&value.header, &mut decoded)?;
        let merged = self.merge_covered(cell, &decoded, value.record_count);
        self.decoded = decoded;
        merged
    }

    /// Fold the buffered covered cells through the canonical merge tree
    /// and merge the resulting node states into the accumulator in
    /// canonical item order — the exact sequence the Pyramid strategy
    /// gets by reading pre-computed `p:` nodes. No-op when nothing was
    /// buffered (Pyramid's direct path, non-header and grouped plans,
    /// empty inner regions).
    fn finalize_inner(&mut self, spans: &[DimSpan], top: u8) -> Result<()> {
        if self.inner_buffer.is_empty() {
            return Ok(());
        }
        let Some(HeaderMerge {
            query_set,
            acc: Accumulator::Scalar(acc),
            ..
        }) = &mut self.header_merge
        else {
            return Err(DgfError::Index(
                "covered cells buffered without a plain aggregation's headers".into(),
            ));
        };
        let inner = inner_box(spans).ok_or_else(|| {
            DgfError::Index("covered cells buffered for an empty inner box".into())
        })?;
        let buffer = std::mem::take(&mut self.inner_buffer);
        let levels = crate::pyramid::fold_levels(buffer, top, query_set)?;
        let mut nodes = Vec::new();
        crate::pyramid::decompose_each(&inner, top, |level, coords| {
            nodes.extend(levels[level as usize].get(coords));
        });
        for states in nodes {
            query_set.merge(acc, states)?;
        }
        Ok(())
    }
}

/// Call `f` with every coordinate vector of an inclusive box, in
/// odometer (= key) order. An empty box (inverted on any dimension)
/// visits nothing.
fn for_each_cell(bounds: &[(i64, i64)], mut f: impl FnMut(&[i64])) {
    if bounds.iter().any(|(lo, hi)| lo > hi) {
        return;
    }
    let mut coord: Vec<i64> = bounds.iter().map(|(lo, _)| *lo).collect();
    loop {
        f(&coord);
        let mut advanced = false;
        for d in (0..bounds.len()).rev() {
            if coord[d] < bounds[d].1 {
                coord[d] += 1;
                for (c, (lo, _)) in coord[d + 1..].iter_mut().zip(&bounds[d + 1..]) {
                    *c = *lo;
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            return;
        }
    }
}

/// The inclusive cell box a span list covers.
fn span_box(spans: &[DimSpan]) -> Vec<(i64, i64)> {
    spans.iter().map(|s| (s.lo, s.hi)).collect()
}

/// The fully-inner cell box of a span list: each side's uncovered rim
/// is one cell wide. `None` when a rim arithmetic would overflow `i64`
/// (no cell can be covered on that dimension then).
fn inner_box(spans: &[DimSpan]) -> Option<Vec<(i64, i64)>> {
    spans
        .iter()
        .map(|s| {
            let lo = if s.lo_covered { Some(s.lo) } else { s.lo.checked_add(1) };
            let hi = if s.hi_covered { Some(s.hi) } else { s.hi.checked_sub(1) };
            Some((lo?, hi?))
        })
        .collect()
}

impl DgfIndex {
    /// Plan a query (Algorithm 3 + Algorithm 4) with the default
    /// [`PlanStrategy`]. `use_headers` disables the pre-computation
    /// shortcut for ablations (Figure 17's "DGF-noprecompute").
    pub fn plan(&self, query: &Query, use_headers: bool) -> Result<DgfPlan> {
        self.plan_with_strategy(query, use_headers, PlanStrategy::default())
    }

    /// Plan a query with an explicit fetch strategy. Both strategies
    /// produce plans equal in every input, split and float bit; they
    /// differ in the key-value traffic needed to build them and in how
    /// many headers (`inner_gfus`) stand for the same inner records.
    pub fn plan_with_strategy(
        &self,
        query: &Query,
        use_headers: bool,
        strategy: PlanStrategy,
    ) -> Result<DgfPlan> {
        let watch = Stopwatch::start();
        // An independent arena per plan: the subtree is frozen into
        // `DgfPlan::profile` and engines graft it into their own query
        // profile. Forking a disabled profiler stays disabled (no-op).
        let prof = self.profiler().fork();
        let span = prof.span("plan");
        let retries_before = self.kv.stats().retries_absorbed.get();
        let predicate = query.predicate();
        // Snapshot the streaming memtable (if one is registered) alongside
        // the pinned view: buffered cells may lie beyond what any flush
        // has recorded, and the spans must admit them or fresh rows would
        // silently fall out of the query. The snapshot shares the
        // memtable's cells, so taking it copies no row.
        let fresh_src = self.fresh_source();
        // The live policy decides whether the predicate is grid-only
        // (dimension names are invariant under online adaptation —
        // `regrid_to` rejects anything else); each attempt's *cell
        // geometry*, a GROUP BY key's interval included, comes from the
        // policy its pinned view carries, so a plan racing a regrid never
        // mixes one epoch's intervals with another's keys.
        let live_policy = self.policy();
        let arity = live_policy.arity();

        // The one place a plan is sealed: the empty plans the loop below
        // returns early and the full plan share their tail.
        let seal = |span: dgf_common::obs::SpanGuard, body: DgfPlan| {
            span.finish();
            DgfPlan {
                retries_absorbed: self
                    .kv
                    .stats()
                    .retries_absorbed
                    .get()
                    .saturating_sub(retries_before),
                index_time: watch.elapsed(),
                profile: prof.take_profile(),
                ..body
            }
        };
        // Headers answer the inner region only when (a) every predicate
        // column is an indexed dimension (otherwise inner rows still need
        // row-level filtering), (b) every query aggregate is pre-computed,
        // and (c) the query is a plain aggregation, or a GROUP BY whose
        // key the pinned view cuts into one-value cells (checked per
        // attempt, below).
        let grid_only = predicate
            .columns()
            .all(|c| live_policy.dims().iter().any(|d| d.name == c));
        let (query_aggs, group_key) = match query {
            Query::Aggregate { aggs, .. } => (Some(aggs), None),
            Query::GroupBy { key, aggs, .. } => (Some(aggs), Some(key.as_str())),
            Query::Join { .. } | Query::Select { .. } => (None, None),
        };
        let header_positions = query_aggs
            .filter(|_| use_headers && grid_only)
            .and_then(|aggs| self.header_positions(aggs));

        // One attempt's header merge, or `None` where headers cannot
        // answer. A GROUP BY key must be an integral dimension of interval
        // 1 in *this view's* policy: then cell `c` holds exactly the value
        // `cell_low(c)`, and its header is that group's partial. A regrid
        // may widen the interval, and a handle's live policy can lag the
        // committed view, so only the pinned geometry can say.
        let make_header_merge = |view_policy: &SplittingPolicy| -> Result<Option<HeaderMerge>> {
            let (Some(aggs), Some(positions)) = (query_aggs, &header_positions) else {
                return Ok(None);
            };
            let query_set = AggSet::bind(aggs, &self.base.schema)?;
            let acc = match group_key {
                None => Accumulator::Scalar(query_set.new_states()),
                Some(name) => {
                    let unit = view_policy.dims().iter().enumerate().find(|(_, d)| {
                        d.name == name && matches!(d.scale, DimScale::Int { interval: 1, .. })
                    });
                    let Some((dim, key)) = unit else {
                        return Ok(None);
                    };
                    Accumulator::Groups {
                        dim,
                        key: key.clone(),
                        groups: BTreeMap::new(),
                    }
                }
            };
            Ok(Some(HeaderMerge {
                index_set: AggSet::bind(&self.aggs, &self.base.schema)?,
                query_set,
                positions: positions.clone(),
                acc,
            }))
        };

        // Optimistic snapshot loop. Each attempt pins one committed
        // ReadView with a single KV read, fetches against it, and
        // validates afterwards that the view is still the committed one.
        // A mismatch discards the attempt — including its header-cache
        // fills — and re-pins, so the plan that escapes the loop is built
        // entirely from one committed view: never a blend (DESIGN.md §11).
        let mut attempts = 0u32;
        let (view, mut collector, fresh_gfus, fresh_records, fresh_rows) = loop {
            let meta_span = span.child("plan.meta");
            let meta_before = meta_span.is_recording().then(|| self.kv.stats().snapshot());
            self.sync_point("plan.pin");
            let view = self.pin_view()?;
            self.check_freshness_pinned(&view)?;
            // The memtable snapshot cuts at the pinned view's watermark:
            // a slot the view's flush already indexed is left out, and a
            // slot whose flush has not committed in this view is still
            // returned (`FreshSource`'s contract), so each row is counted
            // once. A set routed under another policy (a regrid since it
            // was buffered) is re-grouped under this one.
            let view_policy = Arc::new(SplittingPolicy::decode(&view.policy)?);
            let fresh = fresh_src.as_ref().map_or_else(Vec::new, |s| s.fresh_cells(view.watermark));
            let fresh: Vec<_> = fresh.iter().map(|s| s.regroup(&view_policy)).collect::<Result<_>>()?;
            let mut extents = view.extents.clone();
            for key in fresh.iter().flat_map(|set| set.cells.keys()) {
                extents.observe(key);
            }
            if let Some(before) = &meta_before {
                self.kv.stats().snapshot().since(before).attach_to_span(&meta_span);
            }
            meta_span.finish();

            // A view with empty extents (or an empty per-dimension span)
            // is already a consistent answer: the view itself is atomic,
            // so no validation is needed for a meta-only empty plan.
            if extents.is_empty() {
                return Ok(seal(span, DgfPlan::default()));
            }
            // Per-dimension cell spans; a missing dimension in the
            // predicate falls back to the view's extents
            // (partially-specified queries, paper §5.3.4). Recomputed per
            // attempt because a re-pinned view may carry wider extents.
            let mut spans: Vec<DimSpan> = Vec::with_capacity(arity);
            for (dim, extent) in view_policy.dims().iter().zip(&extents.dims) {
                let dim_span = dim.cell_span(predicate.range_of(&dim.name), *extent)?;
                if dim_span.is_empty() {
                    return Ok(seal(span, DgfPlan::default()));
                }
                spans.push(dim_span);
            }

            let fetch_span = span.child("plan.fetch");
            let fetch_before = fetch_span.is_recording().then(|| self.kv.stats().snapshot());
            let header_merge = make_header_merge(&view_policy)?;
            let headers_usable = header_merge.is_some();
            let mut collector = Collector {
                header_merge,
                arity,
                inner_buffer: BTreeMap::new(),
                inner_gfus: 0,
                inner_records: 0,
                boundary_gfus: 0,
                boundary_cell_records: 0,
                pyramid_nodes: 0,
                pyramid_cells: 0,
                per_file: HashMap::new(),
                cache_hits: 0,
                cache_misses: 0,
                pending_fills: Vec::new(),
                decoded: Vec::new(),
                picked: Vec::new(),
            };
            self.sync_point("plan.fetch");
            match strategy {
                PlanStrategy::PrefixScan => self.fetch_prefix_scans(
                    &view,
                    &spans,
                    &extents.dims,
                    headers_usable,
                    &mut collector,
                )?,
                PlanStrategy::Pyramid => {
                    // A dedicated child span: pyramid node/cell tallies
                    // live here (and only here — the `kv.*` deltas stay
                    // on `plan.fetch`, so profile invariants still hold).
                    let pyramid_span = fetch_span.child("plan.pyramid");
                    let r = self.fetch_pyramid(
                        &view,
                        &spans,
                        &extents.dims,
                        headers_usable,
                        &mut collector,
                    );
                    if pyramid_span.is_recording() {
                        for (name, v) in [
                            (names::PLAN_PYRAMID_NODES, collector.pyramid_nodes),
                            (names::PLAN_PYRAMID_CELLS, collector.pyramid_cells),
                        ] {
                            if v > 0 {
                                pyramid_span.add(name, v);
                            }
                        }
                    }
                    pyramid_span.finish();
                    r?
                }
            }
            // Fold the buffered covered cells through the canonical merge
            // tree. The Pyramid direct path buffered nothing (its node
            // states *are* that fold, read pre-computed), so this is a
            // no-op there; prefix-run scans replay the fold here, which
            // is what makes the two strategies bit-identical.
            collector.finalize_inner(
                &spans,
                self.pyramid_levels()
                    .unwrap_or(crate::pyramid::DEFAULT_PYRAMID_LEVELS),
            )?;

            // Merge the memtable snapshot: a fully covered fresh cell
            // contributes its partial aggregate states through the same
            // header path as a persisted GFU (into its group, for a
            // grouped plan); anything else contributes raw rows for the
            // engine to re-filter and push.
            let mut fresh_gfus = 0u64;
            let mut fresh_records = 0u64;
            let mut fresh_rows: Vec<Row> = Vec::new();
            for (key, cell) in fresh.iter().flat_map(|set| &set.cells) {
                let in_span = spans
                    .iter()
                    .zip(&key.cells)
                    .all(|(s, c)| *c >= s.lo && *c <= s.hi);
                if !in_span {
                    continue;
                }
                let records = cell.rows.len() as u64;
                fresh_gfus += 1;
                fresh_records += records;
                let covered = headers_usable
                    && spans.iter().zip(&key.cells).all(|(s, c)| s.covered(*c));
                if covered {
                    collector.merge_covered(&key.cells, &cell.states, records)?;
                } else {
                    fresh_rows.extend(cell.rows.iter().cloned());
                }
            }

            // Validate: the pinned view must still be committed. A flush
            // is a commit like any other, so a flush that published
            // between the pin and here moved the view as well.
            let view_ok = self.view_unchanged(&view)?;
            if let Some(before) = &fetch_before {
                self.kv.stats().snapshot().since(before).attach_to_span(&fetch_span);
                for (name, v) in [
                    (names::CACHE_HEADER_HITS, collector.cache_hits),
                    (names::CACHE_HEADER_MISSES, collector.cache_misses),
                    (names::PLAN_INNER_GFUS, collector.inner_gfus),
                    (names::PLAN_BOUNDARY_GFUS, collector.boundary_gfus),
                    (names::PLAN_INNER_RECORDS, collector.inner_records),
                    (names::PLAN_FRESH_GFUS, fresh_gfus),
                    (names::PLAN_FRESH_RECORDS, fresh_records),
                ] {
                    if v > 0 {
                        fetch_span.add(name, v);
                    }
                }
            }
            fetch_span.finish();
            if view_ok {
                break (view, collector, fresh_gfus, fresh_records, fresh_rows);
            }
            attempts += 1;
            // A failed validation means a commit landed, and the next pin
            // sees it at once (through the staged overlay while its view
            // is still pending), so there is nothing to wait for. The
            // bound only guards against writers committing faster than a
            // plan can finish, forever.
            if attempts > 32 {
                return Err(DgfError::Transient(
                    "concurrent index commits kept racing query planning".into(),
                ));
            }
        };
        // The attempt survived validation: its header-cache fills are
        // known-consistent for the pinned generation and safe to publish.
        // The validated view is the committed one, so every generation
        // below it is permanently unreachable — retire those entries now
        // instead of waiting for LRU pressure to find them.
        let cache = self.header_cache();
        cache.retire_below(view.generation);
        for (key, value) in collector.pending_fills.drain(..) {
            cache.insert(view.generation, key, value);
        }
        // The query history, once per plan and only from the attempt that
        // validated (a raced attempt describes a discarded view): what
        // this plan asked of each grid dimension is what the maintenance
        // daemon's grid adaptation is advised on.
        self.history().record(predicate, &live_policy);

        let inner_states = collector.header_merge.map(HeaderMerge::into_partials);

        // Algorithm 4: keep splits overlapping a Slice; clip the Slices of
        // each chosen split to its byte range so each mapper reads only
        // its part (a Slice across two splits is served by two mappers).
        let splits_span = span.child("plan.splits");
        // Enumerate splits from the pinned view's file list, not a live
        // directory listing: a racing apply renames new slice files into
        // the data directory, and a live listing could pair them with
        // this view's headers (or miss files a newer header refers to).
        // Slice files are immutable once renamed, so the pinned list is
        // always readable. A file no boundary Slice names is only
        // counted; the others get their path, once, and their splits.
        let block = self.ctx.hdfs.block_size();
        let mut splits_total = 0u64;
        let mut inputs = Vec::new();
        let mut chosen_splits = Vec::new();
        for (id, len) in &view.data_files {
            let Some(ranges) = collector.per_file.remove(id) else {
                splits_total += len.div_ceil(block);
                continue;
            };
            let path = id.path(&self.data.location);
            for split in dgf_storage::splits_for_file(&path, *len, block) {
                splits_total += 1;
                let split_range = ByteRange::new(split.start, split.end());
                let mine: Vec<ByteRange> = ranges
                    .iter()
                    .filter_map(|r| r.intersect(&split_range))
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                let ranges = coalesce_ranges(mine);
                inputs.push(match self.data.format {
                    dgf_format::FileFormat::Text => ScanInput::TextRanges {
                        path: split.path.clone(),
                        ranges,
                    },
                    dgf_format::FileFormat::RcFile => ScanInput::RcRanges {
                        path: split.path.clone(),
                        ranges,
                    },
                });
                chosen_splits.push(split);
            }
        }
        // The attempt validated, so every value it read belongs to the
        // pinned view: a boundary Slice in a file the view does not list
        // would silently drop its rows from the answer.
        if let Some(id) = collector.per_file.keys().min() {
            return Err(DgfError::Corrupt(format!(
                "a boundary slice names data file {} outside view generation {}",
                id.path(&self.data.location),
                view.generation
            )));
        }
        let splits_read = inputs.len() as u64;
        if splits_span.is_recording() {
            splits_span.add(names::PLAN_SPLITS_TOTAL, splits_total);
            splits_span.add(names::PLAN_SPLITS_READ, splits_read);
        }
        splits_span.finish();
        // Sub-slice pruning (DESIGN.md §15): consult each boundary
        // slice's sidecar to drop row groups no matching row can live in
        // and to attach residual row bitmaps. Strictly an accelerator —
        // a missing/stale/corrupt sidecar leaves the input unpruned — and
        // only consulted when it can prune: the predicate names a column
        // the grid does not cut on, or it names grid columns and some
        // boundary cell holds more rows than one group. Every slice ends
        // on a group boundary, so below that each slice of each cell is
        // one group, which the grid already cut out.
        let multi_group = !predicate.is_trivial()
            && collector.boundary_cell_records > self.data.rows_per_group as u64;
        if self.data.format == dgf_format::FileFormat::RcFile
            && self.ctx.scan_options().sidecar
            && (!grid_only || multi_group)
        {
            self.prune_inputs_with_sidecars(&mut inputs, predicate, &span)?;
        }
        Ok(seal(
            span,
            DgfPlan {
                inputs,
                chosen_splits,
                inner_states,
                inner_gfus: collector.inner_gfus,
                boundary_gfus: collector.boundary_gfus,
                inner_records: collector.inner_records,
                pyramid_nodes: collector.pyramid_nodes,
                pyramid_cells: collector.pyramid_cells,
                splits_total,
                splits_read,
                cache_hits: collector.cache_hits,
                cache_misses: collector.cache_misses,
                fresh_gfus,
                fresh_records,
                fresh_rows,
                ..DgfPlan::default()
            },
        ))
    }

    /// Rewrite `RcRanges` inputs as `RcPruned` wherever a slice's sidecar
    /// proves row groups (or rows) cannot match `predicate`. Each distinct
    /// file's sidecar is loaded and verified once; every degradation
    /// (missing file, stale `data_len`, failed checksum) is counted on
    /// [`ScanStats`](dgf_common::ScanStats) and leaves that input as-is.
    fn prune_inputs_with_sidecars(
        &self,
        inputs: &mut [ScanInput],
        predicate: &dgf_query::Predicate,
        span: &dgf_common::obs::SpanGuard,
    ) -> Result<()> {
        let sidecar_span = span.child("plan.sidecar");
        let before = sidecar_span.is_recording().then(|| {
            (
                self.ctx.hdfs.stats().snapshot(),
                self.ctx.scan_stats.snapshot(),
            )
        });
        let stats = &self.ctx.scan_stats;
        let mut cache: HashMap<String, Option<SliceSidecar>> = HashMap::new();
        for input in inputs.iter_mut() {
            let ScanInput::RcRanges { path, ranges } = input else {
                continue;
            };
            let sidecar = cache.entry(path.clone()).or_insert_with(|| {
                let scx = dgf_format::sidecar_path(path);
                if !self.ctx.hdfs.file_exists(&scx) {
                    stats.sidecar_misses.inc();
                    return None;
                }
                let Ok(bytes) = self.ctx.hdfs.read_file(&scx) else {
                    stats.sidecar_misses.inc();
                    return None;
                };
                stats.sidecar_bytes.add(bytes.len() as u64);
                let Ok(sc) = SliceSidecar::decode(&bytes) else {
                    stats.sidecar_corrupt.inc();
                    return None;
                };
                // Stale: the slice file changed size since the sidecar
                // was written (should be impossible for immutable slice
                // files, but degrade rather than trust).
                if self.ctx.hdfs.file_len(path).ok() != Some(sc.data_len) {
                    stats.sidecar_corrupt.inc();
                    return None;
                }
                stats.sidecar_hits.inc();
                Some(sc)
            });
            let Some(sidecar) = sidecar else { continue };
            let outcome = crate::sidecar::prune(sidecar, ranges, predicate)?;
            stats.sidecar_groups_pruned.add(outcome.groups_pruned);
            stats.sidecar_bytes_skipped.add(outcome.bytes_skipped);
            if outcome.restricted {
                *input = ScanInput::RcPruned {
                    path: std::mem::take(path),
                    ranges: std::mem::take(ranges),
                    row_filter: outcome.row_filter,
                };
            }
        }
        if let Some((io_before, scan_before)) = &before {
            let hdfs = self.ctx.hdfs.stats().snapshot().since(io_before);
            hdfs.attach_to_span(&sidecar_span);
            // Planning charges only the `scan.sidecar.*` counters.
            let scan = self.ctx.scan_stats.snapshot().since(scan_before);
            scan.attach_to_span(&sidecar_span);
        }
        sidecar_span.finish();
        Ok(())
    }

    /// Batched fetch: decompose the hyper-rectangle into contiguous key
    /// runs and serve each run from the header cache or one `scan_range`.
    ///
    /// Dimensions whose span covers the full stored extent admit *every*
    /// stored coordinate, so a trailing block of full-extent dimensions
    /// can be folded into a run without pulling in any extraneous keys.
    /// `scan_from` is the most significant dimension inside the run: the
    /// run's keys share the encoded coordinates of every dimension before
    /// it ("the prefix") and sweep all span combinations from it onward.
    fn fetch_prefix_scans(
        &self,
        view: &ReadView,
        spans: &[DimSpan],
        extents: &[(i64, i64)],
        headers_usable: bool,
        collector: &mut Collector,
    ) -> Result<()> {
        let arity = spans.len();

        // The longest suffix of dimensions whose span is the full extent.
        let mut suffix_full_start = arity;
        while suffix_full_start > 0 {
            let d = suffix_full_start - 1;
            if spans[d].lo == extents[d].0 && spans[d].hi == extents[d].1 {
                suffix_full_start -= 1;
            } else {
                break;
            }
        }
        // The dimension the scan sweeps first. It may have a partial
        // span: being the most significant swept dimension, its bounds
        // clip the run exactly. Everything after it is full-extent.
        let scan_from = suffix_full_start.saturating_sub(1);

        // Every setting of the prefix dimensions is one run.
        let mut prefixes: Vec<Vec<i64>> = Vec::new();
        for_each_cell(&span_box(&spans[..scan_from]), |p| prefixes.push(p.to_vec()));

        let workers = self.fetch_parallelism().min(prefixes.len());
        if workers <= 1 {
            // The historical strictly sequential path: fetch then absorb
            // one run at a time, in odometer order.
            for p in &prefixes {
                let fetched = self.fetch_run(view, p, spans, scan_from, headers_usable)?;
                self.absorb_run(collector, fetched)?;
            }
            return Ok(());
        }

        // The serving tier's scatter: runs are *fetched* concurrently on
        // a worker pool (round-robin assignment, so the schedule is a
        // pure function of the run list), then *absorbed* strictly in
        // odometer order on this thread. The Collector's fold sequence —
        // and with it every Neumaier compensation step — is therefore
        // byte-identical to the sequential path, whatever order the
        // fetches complete in. Sync points let the interleaving harness
        // pause the coordinator mid-scatter by seed.
        self.sync_point("serve.scatter");
        let fetches: Result<Vec<RunFetch>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let prefixes = &prefixes;
                    scope.spawn(move || {
                        let mut out: Vec<(usize, Result<RunFetch>)> = Vec::new();
                        let mut i = w;
                        while i < prefixes.len() {
                            self.sync_point("serve.fetch");
                            out.push((
                                i,
                                self.fetch_run(view, &prefixes[i], spans, scan_from, headers_usable),
                            ));
                            i += workers;
                        }
                        out
                    })
                })
                .collect();
            // Join every worker before looking at any result, so a
            // panicked one surfaces as an error here, not as a second
            // panic when the scope closes over an unjoined handle.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let mut slots: Vec<Option<Result<RunFetch>>> =
                prefixes.iter().map(|_| None).collect();
            for worker in joined {
                let fetched = worker
                    .map_err(|_| DgfError::Index("run-fetch worker panicked".into()))?;
                for (i, r) in fetched {
                    slots[i] = Some(r);
                }
            }
            // Run order, so the first failing run's error is the one
            // reported whatever order the fetches completed in.
            slots
                .into_iter()
                .map(|s| {
                    s.unwrap_or_else(|| {
                        Err(DgfError::Index("run left unassigned by the scatter".into()))
                    })
                })
                .collect()
        });
        self.sync_point("serve.merge");
        for fetched in fetches? {
            self.absorb_run(collector, fetched)?;
        }
        Ok(())
    }

    /// Fetch one key run without touching the collector: probe the header
    /// cache for every expected cell; if all probes hit (negative entries
    /// included) the run costs zero key-value operations, otherwise one
    /// `scan_range` re-reads the whole run. Read-only against the pinned
    /// view, so runs may be fetched concurrently; all merging happens in
    /// [`absorb_run`](Self::absorb_run), on one thread, in run order.
    fn fetch_run(
        &self,
        view: &ReadView,
        prefix: &[i64],
        spans: &[DimSpan],
        scan_from: usize,
        headers_usable: bool,
    ) -> Result<RunFetch> {
        let arity = spans.len();
        let generation = view.generation;
        let cache = self.header_cache();
        let prefix_covered =
            headers_usable && spans[..scan_from].iter().zip(prefix).all(|(s, c)| s.covered(*c));

        // Encode the shared key prefix once; cells only differ past it.
        let mut key_prefix = Vec::with_capacity(GFU_PREFIX.len() + 8 * arity);
        key_prefix.extend_from_slice(GFU_PREFIX);
        for c in prefix {
            dgf_common::codec::encode_key_i64(&mut key_prefix, *c);
        }

        // Expected cells of the run, in key (= odometer) order, their
        // fixed-length keys end to end in one buffer.
        let stride = key_prefix.len() + 8 * (arity - scan_from);
        let mut keys: Vec<u8> = Vec::new();
        let mut covered: Vec<bool> = Vec::new();
        for_each_cell(&span_box(&spans[scan_from..]), |suffix| {
            covered.push(
                prefix_covered
                    && spans[scan_from..]
                        .iter()
                        .zip(suffix)
                        .all(|(s, c)| s.covered(*c)),
            );
            keys.extend_from_slice(&key_prefix);
            for c in suffix {
                dgf_common::codec::encode_key_i64(&mut keys, *c);
            }
        });
        debug_assert_eq!(keys.len(), stride * covered.len());
        let probes = cache.get_many(generation, keys.chunks_exact(stride));
        let hits = probes.iter().filter(|p| p.is_some()).count() as u64;
        let misses = probes.len() as u64 - hits;
        let mut fetched = RunFetch {
            keys,
            stride,
            covered,
            probes,
            pairs: None,
            hits,
            misses,
        };
        if misses == 0 {
            return Ok(fetched);
        }

        // Authoritative scan of the whole run. Under the pinned grid the
        // run's keys are exactly the expected cells intersected with the
        // store: the prefix pins the leading coordinates, dimension
        // `scan_from` is clipped by the scan bounds, and every later
        // dimension is full-extent. Only another grid's keys (a pending
        // regrid's retired ones) can fall outside the cell set, and
        // `absorb_run` skips them.
        let (Some(start), Some(last)) = (
            fetched.keys.chunks_exact(stride).next(),
            fetched.keys.chunks_exact(stride).next_back(),
        ) else {
            return Err(DgfError::Index("prefix-scan run with no cells".into()));
        };
        // Keys are fixed-length, so appending a byte makes the half-open
        // scan include the run's maximum key.
        let mut end = last.to_vec();
        end.push(0x00);
        fetched.pairs = Some(self.kv_scan_range_pinned(view, start, &end)?);
        Ok(fetched)
    }

    /// Merge one fetched run into the collector, in the caller's run
    /// order. A fully cached run absorbs its probe hits; a scanned run
    /// merge-walks the expected cells (sorted) against the scan results
    /// (sorted): found cells are absorbed and queued for caching,
    /// expected-but-absent cells queue a negative entry, and a scanned
    /// key no cell expects is skipped. Such keys are legitimate: while a
    /// regrid's view is pending, the old grid's retired keys (masked by
    /// staged tombstones) still sit inside the new grid's runs (DESIGN.md
    /// §11). Fills are deferred to the planning loop so a fetch that
    /// fails view validation never publishes possibly-torn values.
    fn absorb_run(&self, collector: &mut Collector, mut fetched: RunFetch) -> Result<()> {
        collector.cache_hits += fetched.hits;
        collector.cache_misses += fetched.misses;
        let Some(pairs) = fetched.pairs.take() else {
            for (key, covered, probe) in fetched.cells() {
                if let Some(Some(value)) = probe {
                    collector.absorb(covered, key, value)?;
                }
            }
            return Ok(());
        };
        let mut pairs = pairs.into_iter().peekable();
        for (key, covered, _) in fetched.cells() {
            while pairs.next_if(|(k, _)| k.as_slice() < key).is_some() {}
            match pairs.next_if(|(k, _)| k == key) {
                Some((key, bytes)) => {
                    let value = Arc::new(GfuValue::decode(&bytes)?);
                    collector.absorb(covered, &key, &value)?;
                    collector.pending_fills.push((key, Some(value)));
                }
                None => collector.pending_fills.push((key.to_vec(), None)),
            }
        }
        Ok(())
    }

    /// Pyramid fetch: decompose the fully-inner box into maximal
    /// canonical pyramid nodes and read one pre-computed header per
    /// node; the uncovered rim and the pyramid items ride a single
    /// batched `multi_get`. Falls back wholesale to
    /// [`fetch_prefix_scans`](Self::fetch_prefix_scans) when the store
    /// carries no pyramid, headers are unusable, the query has no
    /// fully-inner cell — a partial pyramid would complicate the
    /// canonical-fold argument for no read savings — or the plan is
    /// grouped: a group is a one-cell-wide slab of the key dimension, and
    /// no pyramid node above level 0 fits in one. The choice is made
    /// from what the store and the query show, never by the caller.
    fn fetch_pyramid(
        &self,
        view: &ReadView,
        spans: &[DimSpan],
        extents: &[(i64, i64)],
        headers_usable: bool,
        collector: &mut Collector,
    ) -> Result<()> {
        let top = match self.pyramid_levels() {
            Some(t) if headers_usable && !collector.grouped() => t,
            _ => {
                return self.fetch_prefix_scans(view, spans, extents, headers_usable, collector)
            }
        };
        let inner = match inner_box(spans) {
            Some(b) if b.iter().all(|(lo, hi)| lo <= hi) => b,
            _ => {
                return self.fetch_prefix_scans(view, spans, extents, headers_usable, collector)
            }
        };

        // Boundary cells: peel the uncovered rim into at most 2·arity
        // disjoint slabs, keyed by the first dimension that escapes the
        // inner box — dimensions before it stay inside the inner range,
        // the escaping dimension is pinned at an uncovered rim cell,
        // and dimensions after it sweep their full span. A single-cell
        // span that is uncovered on both sides pins the same cell
        // twice, hence the `contains` dedup. Every key, the boundary's
        // and then the items', is encoded end to end into one buffer.
        let arity = spans.len();
        let mut key_bytes: Vec<u8> = Vec::new();
        let mut key_ends: Vec<usize> = Vec::new();
        for d in 0..arity {
            let s = &spans[d];
            let mut pins: Vec<i64> = Vec::new();
            if !s.lo_covered {
                pins.push(s.lo);
            }
            if !s.hi_covered && !pins.contains(&s.hi) {
                pins.push(s.hi);
            }
            for pin in pins {
                let slab: Vec<(i64, i64)> = (0..arity)
                    .map(|j| match j.cmp(&d) {
                        std::cmp::Ordering::Less => inner[j],
                        std::cmp::Ordering::Equal => (pin, pin),
                        std::cmp::Ordering::Greater => (spans[j].lo, spans[j].hi),
                    })
                    .collect();
                for_each_cell(&slab, |cell| {
                    crate::pyramid::push_level_key(&mut key_bytes, 0, cell);
                    key_ends.push(key_bytes.len());
                });
            }
        }
        let boundary_len = key_ends.len();
        // Items in decomposition (DFS) order, with their levels and
        // coordinates (`arity` a node) beside their keys.
        let mut item_levels: Vec<u8> = Vec::new();
        let mut item_coords: Vec<i64> = Vec::new();
        crate::pyramid::decompose_each(&inner, top, |level, coords| {
            crate::pyramid::push_level_key(&mut key_bytes, level, coords);
            key_ends.push(key_bytes.len());
            item_levels.push(level);
            item_coords.extend_from_slice(coords);
        });
        let mut keys: Vec<&[u8]> = Vec::with_capacity(key_ends.len());
        let mut start = 0;
        for end in &key_ends {
            keys.push(&key_bytes[start..*end]);
            start = *end;
        }
        // Encoded-key order is lexicographic coordinate order, so the
        // boundary absorbs in the same sequence a scan would deliver.
        keys[..boundary_len].sort_unstable();

        // Probe the epoch-tagged header cache (shared with the run scans;
        // `p:` node values cache under the same generation tag), then
        // fetch every miss in one batched, snapshot-atomic multi_get.
        let generation = view.generation;
        let mut resolved = self
            .header_cache()
            .get_many(generation, keys.iter().copied());
        let miss_idx: Vec<usize> = (0..keys.len()).filter(|i| resolved[*i].is_none()).collect();
        collector.cache_misses += miss_idx.len() as u64;
        collector.cache_hits += (keys.len() - miss_idx.len()) as u64;
        if !miss_idx.is_empty() {
            let miss_keys: Vec<Vec<u8>> = miss_idx.iter().map(|i| keys[*i].to_vec()).collect();
            let fetched = self.kv_multi_get_pinned(view, &miss_keys)?;
            for ((i, key), got) in miss_idx.into_iter().zip(miss_keys).zip(fetched) {
                let value = match got {
                    Some(bytes) => Some(Arc::new(GfuValue::decode(&bytes)?)),
                    None => None,
                };
                // Fills (positive and negative) stay deferred until the
                // pinned view validates, as in the run scans.
                collector.pending_fills.push((key, value.clone()));
                resolved[i] = Some(value);
            }
        }

        let (boundary_res, item_res) = resolved.split_at(boundary_len);
        for (value, key) in boundary_res.iter().zip(&keys) {
            if let Some(Some(v)) = value {
                collector.absorb(false, key, v)?;
            }
        }
        // Items merge in decomposition (DFS) order — the exact sequence
        // `finalize_inner` replays for the run scans. An absent
        // node means no data anywhere under it (the maintenance
        // invariant), so skipping it is the empty merge.
        let item_cells = item_coords.chunks_exact(arity);
        for ((value, level), coords) in item_res.iter().zip(&item_levels).zip(item_cells) {
            if let Some(Some(v)) = value {
                collector.merge_header(coords, v)?;
                if *level >= 1 {
                    collector.pyramid_nodes += 1;
                    let cells = crate::pyramid::cell_count(*level, arity);
                    collector.pyramid_cells = collector
                        .pyramid_cells
                        .saturating_add(u64::try_from(cells).unwrap_or(u64::MAX));
                }
            }
        }
        Ok(())
    }

    /// For each query aggregate, its position in the index's pre-computed
    /// list — `None` if any aggregate is missing (headers unusable).
    fn header_positions(&self, aggs: &[AggFunc]) -> Option<Vec<usize>> {
        let index_keys = self.agg_keys();
        aggs.iter()
            .map(|a| index_keys.iter().position(|k| *k == a.key()))
            .collect()
    }
}

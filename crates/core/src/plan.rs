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
//! ## One shape, one read
//!
//! Each attempt first lists every key it reads, with the role each key
//! plays: its *shape*, a pure function of the pinned grid's spans,
//! whether headers can answer, whether the plan groups and the height
//! of the store's pyramid. The **flat** shape is every cell of the
//! query's span box in key order (GFU keys sort exactly like their
//! coordinate vectors, so that is odometer order). The **pyramid** shape
//! is the uncovered rim's cells plus one `p:` node per maximal canonical
//! block of the fully-inner box (see [`crate::pyramid`]); it is taken
//! wherever a node can answer: the store keeps a pyramid, headers are
//! usable, the plan does not group and the query has a fully-inner cell.
//! One executor reads either shape: one probe of the index's
//! epoch-tagged [`GfuHeaderCache`](crate::cache::GfuHeaderCache) over
//! every key, then one batched `multi_get` for the misses, so a repeated
//! query reads no GFU from the store. Header states merge in any order
//! to the same bits (their sums are exact), so the two shapes agree in
//! every float bit however their headers are grouped.
//!
//! ## One view read when warm
//!
//! A plan pins the committed [`ReadView`] with one `m:view` get, fetches
//! against it and re-reads the view to validate that no commit landed
//! in between (`DESIGN.md` §11). An attempt whose every probe hit the
//! cache — negative entries included, so it issued no `multi_get` —
//! skips that second read: the cache holds a
//! generation's values only once an attempt validated them against that
//! generation's view, so nothing it used can be torn. A registered
//! [`FreshSource`](crate::fresh::FreshSource) keeps the re-read, which is
//! how a plan notices a flush that took rows out of its memtable
//! snapshot. A warm repeated plan therefore costs one key-value read.

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
use crate::gfu::{FileId, GfuValue};
use crate::index::DgfIndex;
use crate::policy::{DimPolicy, DimScale, DimSpan, SplittingPolicy};
use crate::view::ReadView;

/// How the planner fetches GFU values from the key-value store. One
/// strategy is left: every plan reads its shape (module docs), and what
/// the store and the query show chooses between the pyramid and the flat
/// shape, never the caller. The type and
/// [`plan_with_strategy`](DgfIndex::plan_with_strategy) stay as thin
/// wrappers over [`plan`](DgfIndex::plan) until their last callers name
/// `plan` instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Decompose the fully-inner region into maximal canonical pyramid
    /// nodes (see [`crate::pyramid`]) and read one pre-computed `p:`
    /// header per node, descending to `g:` leaf headers only at the
    /// fringe, beside the uncovered rim's cells. On a store without a
    /// pyramid (or when headers are unusable, when the plan groups, or
    /// when the query has no fully-inner cell) the plan reads the flat
    /// shape instead: every cell of the span box. Either shape is read
    /// with one cache probe and at most one batched `multi_get`, and
    /// answers are bit-identical: a node's states are the exact merge of
    /// its cells'.
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
    /// the flat shape, canonical nodes (a leaf cell is a level-0 node)
    /// where the pyramid answered. `inner_records` is the
    /// shape-independent measure.
    pub inner_gfus: u64,
    /// Number of GFUs whose Slices must be read.
    pub boundary_gfus: u64,
    /// Records sitting in the inner region (answered without reading).
    pub inner_records: u64,
    /// Pyramid nodes (level ≥ 1) merged in place of leaf headers; zero
    /// wherever the plan read the flat shape.
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

/// Accumulates the per-key work of a plan: header merging for covered
/// cells and pyramid nodes, slice collection for boundary cells, and the
/// cache tallies. Covered cells, pyramid nodes and memtable cells merge
/// as they arrive, in whatever order the read meets them: header states
/// merge in any order to the same bits.
struct Collector {
    header_merge: Option<HeaderMerge>,
    /// Grid arity, for the leaf cells a pyramid node summarizes.
    arity: usize,
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
    /// Whether the read went to the store after the pin: the shape's
    /// `multi_get`, taken on any cache miss. Such values may come from a
    /// commit that landed after the pin, so only an attempt that read
    /// nothing may skip re-reading the view.
    read_store: bool,
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

/// The headers' merge; covered cells are absorbed only with one.
fn headers(header_merge: &mut Option<HeaderMerge>) -> Result<&mut HeaderMerge> {
    header_merge
        .as_mut()
        .ok_or_else(|| DgfError::Index("covered cell absorbed without usable headers".into()))
}

impl Collector {
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

    /// Absorb the stored value of one key of a shape: a covered cell
    /// merges its header (into its group, for a grouped plan) and so
    /// does a pyramid node, standing for every cell under it; a boundary
    /// cell contributes its Slice byte ranges.
    fn absorb(&mut self, role: Role, coords: &[i64], value: &GfuValue) -> Result<()> {
        match role {
            Role::Covered => self.merge_header(coords, value),
            Role::Node(level) => {
                self.merge_header(coords, value)?;
                self.pyramid_nodes += 1;
                let cells = crate::pyramid::cell_count(level, self.arity);
                self.pyramid_cells = self
                    .pyramid_cells
                    .saturating_add(u64::try_from(cells).unwrap_or(u64::MAX));
                Ok(())
            }
            Role::Boundary => {
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
                Ok(())
            }
        }
    }

    /// Merge the header `states` of a covered cell (or pyramid node, or
    /// fresh memtable cell) of `records` records at `cell` into the
    /// accumulator.
    fn merge_covered(&mut self, cell: &[i64], states: &[AggState], records: u64) -> Result<()> {
        let hm = headers(&mut self.header_merge)?;
        hm.pick_into(states, &mut self.picked);
        hm.merge_cell(cell, records, &self.picked)?;
        self.inner_gfus += 1;
        self.inner_records += records;
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

/// What one key of a [`PlanShape`] stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A cell whose Slices are read: the query cuts it, or headers
    /// cannot answer.
    Boundary,
    /// A cell the query covers: its header is merged.
    Covered,
    /// A pyramid node at this level (≥ 1): its header is merged in
    /// place of the headers of every cell under it.
    Node(u8),
}

/// Every key one plan attempt reads, end to end, with each key's role
/// and coordinates. A pure function of the pinned grid's spans, whether
/// headers answer, whether the plan groups and the pyramid's height:
/// built with no I/O, read by [`DgfIndex::read_shape`].
pub(crate) struct PlanShape {
    arity: usize,
    /// The encoded keys, end to end: key `i` ends at `ends[i]`.
    bytes: Vec<u8>,
    ends: Vec<usize>,
    roles: Vec<Role>,
    /// Key `i`'s coordinates, `arity` a key: a cell's, or a node's at
    /// its level.
    coords: Vec<i64>,
}

impl PlanShape {
    /// The shape of one attempt over `spans`. The pyramid shape wherever
    /// a node can answer: the store keeps a pyramid `pyramid` levels
    /// high, headers are usable, the plan does not group (a group is a
    /// one-cell-wide slab of its key dimension, and no node above level
    /// 0 fits in one) and the query has a fully-inner cell. The flat
    /// shape otherwise.
    fn new(spans: &[DimSpan], headers_usable: bool, grouped: bool, pyramid: Option<u8>) -> Self {
        let inner = inner_box(spans).filter(|b| b.iter().all(|(lo, hi)| lo <= hi));
        match (pyramid, inner) {
            (Some(top), Some(inner)) if headers_usable && !grouped => {
                Self::pyramid(spans, &inner, top)
            }
            _ => Self::flat(spans, headers_usable),
        }
    }

    fn empty(arity: usize) -> Self {
        PlanShape {
            arity,
            bytes: Vec::new(),
            ends: Vec::new(),
            roles: Vec::new(),
            coords: Vec::new(),
        }
    }

    fn push(&mut self, role: Role, coords: &[i64]) {
        let level = match role {
            Role::Node(level) => level,
            Role::Boundary | Role::Covered => 0,
        };
        crate::pyramid::push_level_key(&mut self.bytes, level, coords);
        self.ends.push(self.bytes.len());
        self.roles.push(role);
        self.coords.extend_from_slice(coords);
    }

    /// Every cell of the span box in key (odometer) order, covered where
    /// headers can answer and every dimension covers it.
    fn flat(spans: &[DimSpan], headers_usable: bool) -> Self {
        let mut shape = Self::empty(spans.len());
        for_each_cell(&span_box(spans), |cell| {
            let covered = headers_usable && spans.iter().zip(cell).all(|(s, c)| s.covered(*c));
            shape.push(if covered { Role::Covered } else { Role::Boundary }, cell);
        });
        shape
    }

    /// The uncovered rim's cells in key order, then the fully-inner box
    /// `inner` decomposed into maximal canonical nodes of a pyramid `top`
    /// levels high, in decomposition (depth-first) order; a level-0 item
    /// is a covered cell.
    ///
    /// The rim peels into at most 2·arity disjoint slabs, keyed by the
    /// first dimension that escapes the inner box: dimensions before it
    /// stay inside the inner range, the escaping dimension is pinned at
    /// an uncovered rim cell, and dimensions after it sweep their full
    /// span. A single-cell span uncovered on both sides pins the same
    /// cell twice, hence the `contains` dedup.
    fn pyramid(spans: &[DimSpan], inner: &[(i64, i64)], top: u8) -> Self {
        let arity = spans.len();
        let mut rim: Vec<i64> = Vec::new();
        for (d, s) in spans.iter().enumerate() {
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
                for_each_cell(&slab, |cell| rim.extend_from_slice(cell));
            }
        }
        let cell = |i: usize| &rim[i * arity..(i + 1) * arity];
        let mut order: Vec<usize> = (0..rim.len() / arity).collect();
        order.sort_unstable_by(|a, b| cell(*a).cmp(cell(*b)));
        let mut shape = Self::empty(arity);
        for i in order {
            shape.push(Role::Boundary, cell(i));
        }
        crate::pyramid::decompose_each(inner, top, |level, coords| {
            let role = if level == 0 { Role::Covered } else { Role::Node(level) };
            shape.push(role, coords);
        });
        shape
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    fn coords(&self, i: usize) -> &[i64] {
        &self.coords[i * self.arity..(i + 1) * self.arity]
    }
}

impl DgfIndex {
    /// [`plan`](Self::plan): the one [`PlanStrategy`] is the default.
    pub fn plan_with_strategy(
        &self,
        query: &Query,
        use_headers: bool,
        strategy: PlanStrategy,
    ) -> Result<DgfPlan> {
        match strategy {
            PlanStrategy::Pyramid => self.plan(query, use_headers),
        }
    }

    /// Plan a query (Algorithm 3 + Algorithm 4): pin the committed view,
    /// read the attempt's shape (module docs) against it, validate, and
    /// choose the splits. `use_headers` disables the pre-computation
    /// shortcut for ablations (Figure 17's "DGF-noprecompute").
    pub fn plan(&self, query: &Query, use_headers: bool) -> Result<DgfPlan> {
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
        // validates afterwards that the view is still the committed one
        // (unless the attempt read nothing but its pinned generation's
        // cache entries, see below).
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
                inner_gfus: 0,
                inner_records: 0,
                boundary_gfus: 0,
                boundary_cell_records: 0,
                pyramid_nodes: 0,
                pyramid_cells: 0,
                per_file: HashMap::new(),
                cache_hits: 0,
                cache_misses: 0,
                read_store: false,
                pending_fills: Vec::new(),
                decoded: Vec::new(),
                picked: Vec::new(),
            };
            let shape = PlanShape::new(
                &spans,
                headers_usable,
                collector.grouped(),
                self.pyramid_levels(),
            );
            self.sync_point("plan.fetch");
            // A dedicated child span: pyramid node/cell tallies live here
            // (and only here — the `kv.*` deltas stay on `plan.fetch`, so
            // profile invariants still hold).
            let pyramid_span = fetch_span.child("plan.pyramid");
            let read = self.read_shape(&view, &shape, &mut collector);
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
            read?;
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
            // between the pin and here moved the view as well. An attempt
            // that read nothing from the store after its pin used only
            // cache entries validated against this very view, and skips
            // the re-read; a memtable snapshot keeps it (module docs).
            let view_ok = if collector.read_store || fresh_src.is_some() {
                self.view_unchanged(&view)?
            } else {
                true
            };
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
        // The attempt was accepted: its header-cache fills (an all-hit
        // attempt has none) were validated and are safe to publish under
        // the pinned generation. That view was committed when pinned, so
        // every generation below it is permanently unreachable — retire
        // those entries now instead of waiting for LRU pressure to find
        // them.
        let cache = self.header_cache();
        cache.retire_below(view.generation);
        for (key, value) in collector.pending_fills.drain(..) {
            cache.insert(view.generation, key, value);
        }
        // The query history, once per plan and only from the accepted
        // attempt (a raced attempt describes a discarded view): what
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
        // The attempt was accepted, so every value it used belongs to the
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

    /// Read a plan shape against `view` into `collector`: one probe of
    /// the header cache over every key (`p:` nodes cache under the same
    /// generation tag as cells), then one batched, snapshot-atomic
    /// `multi_get` for the misses, none when every probe hit (negative
    /// entries included). The misses' values queue as cache fills,
    /// positive and negative, which the planning loop publishes only once
    /// the pinned view validates: a read that raced a commit may have
    /// seen torn values, and publishing them under the pinned generation
    /// would poison other readers still planning against that view. An
    /// absent key contributes nothing: an absent cell holds no record,
    /// and an absent node has no data under it (the maintenance
    /// invariant).
    fn read_shape(&self, view: &ReadView, shape: &PlanShape, collector: &mut Collector) -> Result<()> {
        let mut resolved = self
            .header_cache()
            .get_many(view.generation, (0..shape.len()).map(|i| shape.key(i)));
        let misses: Vec<usize> = (0..resolved.len()).filter(|i| resolved[*i].is_none()).collect();
        collector.cache_misses += misses.len() as u64;
        collector.cache_hits += (resolved.len() - misses.len()) as u64;
        if !misses.is_empty() {
            collector.read_store = true;
            let miss_keys: Vec<Vec<u8>> = misses.iter().map(|i| shape.key(*i).to_vec()).collect();
            let fetched = self.kv_multi_get_pinned(view, &miss_keys)?;
            for ((i, key), got) in misses.into_iter().zip(miss_keys).zip(fetched) {
                let value = match got {
                    Some(bytes) => Some(Arc::new(GfuValue::decode(&bytes)?)),
                    None => None,
                };
                collector.pending_fills.push((key, value.clone()));
                resolved[i] = Some(value);
            }
        }
        for (i, value) in resolved.iter().enumerate() {
            if let Some(Some(value)) = value {
                collector.absorb(shape.roles[i], shape.coords(i), value)?;
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

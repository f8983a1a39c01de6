//! Splitting-policy advisor — the paper's future work (§8): "an algorithm
//! to find the best splitting policy for DGFIndex based on the
//! distribution of the meter data and the query history".
//!
//! The advisor takes each dimension's domain ([`DimStats`], from a data
//! sample or from the extents of a built grid) and grid-searches
//! candidate interval sizes (log-spaced per dimension) against a cost
//! model evaluated over the query history:
//!
//! * **index cost** — every cell overlapping a query region costs one
//!   key-value lookup; more, smaller cells mean more lookups (the paper's
//!   Figures 12–13 trend);
//! * **boundary cost** — rows in partially-covered edge cells must be
//!   read from disk; fewer, larger cells mean fatter boundaries (the
//!   paper's Table 3/4 trend);
//! * **maintenance cost** — a regularizer proportional to total cell
//!   count (index size, Table 2).
//!
//! The optimum trades these exactly the way the paper's Large/Medium/
//! Small comparison does; the advisor automates the choice. The one
//! cost function prices every candidate of the search and, through
//! [`price`], the grid an index already has, so whoever asks — a person
//! (`dgf advise`) or the maintenance daemon over the planner's own
//! [`QueryHistory`] ([`crate::maintain`]) — compares policies in one unit.

use std::collections::VecDeque;
use std::ops::Bound;

use dgf_common::{DgfError, Result, Row, Schema, Value, ValueType};
use dgf_query::{Predicate, Query};
use parking_lot::Mutex;

use crate::policy::{DimPolicy, DimScale, SplittingPolicy};

/// One dimension's domain as the cost model sees it.
#[derive(Debug, Clone)]
pub struct DimStats {
    /// Column name.
    pub name: String,
    /// Column type (Int, Date, or Float).
    pub vtype: ValueType,
    /// Lower edge of the domain: the minimum value (as f64).
    pub min: f64,
    /// Upper edge of the domain (as f64): the maximum value, plus one on
    /// an integer or date column, whose values each take a unit of width.
    pub max: f64,
    /// Distinct-value estimate: no grid has more cells than this along
    /// the dimension.
    pub distinct: u64,
}

impl DimStats {
    /// Domain width.
    pub fn width(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }
}

/// Collect [`DimStats`] for `dims` over a sample of rows.
pub fn collect_stats(sample: &[Row], schema: &Schema, dims: &[String]) -> Result<Vec<DimStats>> {
    let mut out = Vec::with_capacity(dims.len());
    for d in dims {
        let idx = schema.index_of(d)?;
        let vtype = schema.field(idx).vtype;
        if vtype == ValueType::Str {
            return Err(DgfError::Index(format!(
                "dimension {d:?} is a string column; the grid needs numeric or date dimensions"
            )));
        }
        let mut values: Vec<f64> = Vec::with_capacity(sample.len());
        for r in sample.iter().filter(|r| !r[idx].is_null()) {
            values.push(r[idx].as_f64()?);
        }
        values.sort_by(f64::total_cmp);
        values.dedup();
        let (Some(min), Some(max)) = (values.first(), values.last()) else {
            return Err(DgfError::Index(format!("no non-null samples for {d:?}")));
        };
        out.push(DimStats {
            name: d.clone(),
            vtype,
            min: *min,
            max: if vtype == ValueType::Float { *max } else { max + 1.0 },
            distinct: values.len() as u64,
        });
    }
    Ok(out)
}

/// [`DimStats`] of a built grid: each dimension runs edge to edge over
/// the cells its `extents` cover, so pricing `policy` itself counts
/// exactly those cells.
pub fn grid_stats(policy: &SplittingPolicy, extents: &[(i64, i64)]) -> Result<Vec<DimStats>> {
    policy
        .dims()
        .iter()
        .zip(extents)
        .map(|(d, (lo, hi))| {
            let min = d.cell_low(*lo).as_f64()?;
            let max = d.cell_high(*hi).as_f64()?;
            Ok(DimStats {
                name: d.name.clone(),
                vtype: d.vtype,
                min,
                max,
                distinct: match d.scale {
                    DimScale::Int { .. } => (max - min) as u64,
                    DimScale::Float { .. } => u64::MAX,
                },
            })
        })
        .collect()
}

/// Cost-model weights.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Cost of one GFU key-value lookup, relative to reading one row.
    pub lookup_cost: f64,
    /// Cost of reading one boundary row (the unit).
    pub row_cost: f64,
    /// Cost per existing GFU entry (index size / maintenance pressure).
    pub cell_cost: f64,
    /// Candidate interval counts tried per dimension.
    pub candidate_counts: Vec<u64>,
    /// Total-cell budget: candidates whose grid exceeds this are skipped.
    pub max_cells: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            lookup_cost: 4.0,
            row_cost: 1.0,
            cell_cost: 0.002,
            candidate_counts: vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
            max_cells: 5_000_000,
        }
    }
}

/// One query of a history as the cost model sees it: per grid dimension,
/// the value interval its predicate admits (`±∞` on a side left open).
pub type QueryRanges = Vec<(f64, f64)>;

/// The [`QueryRanges`] of `predicate` over the named dimensions.
pub fn ranges_of<'a>(predicate: &Predicate, dims: impl Iterator<Item = &'a str>) -> QueryRanges {
    let side = |bound: &Bound<Value>, open: f64| match bound {
        Bound::Unbounded => open,
        Bound::Included(v) | Bound::Excluded(v) => v.as_f64().unwrap_or(open),
    };
    dims.map(|name| match predicate.range_of(name) {
        Some(r) => (side(&r.low, f64::NEG_INFINITY), side(&r.high, f64::INFINITY)),
        None => (f64::NEG_INFINITY, f64::INFINITY),
    })
    .collect()
}

/// Entries a [`QueryHistory`] keeps.
pub const HISTORY_CAPACITY: usize = 256;

/// The grid-dimension ranges of the last [`HISTORY_CAPACITY`] plans an
/// index validated: the "query history" the maintenance daemon's grid
/// adaptation is advised on. Recency is the ring dropping its oldest
/// entry, and a handle that has planned nothing has no history — which
/// moves no grid.
#[derive(Debug)]
pub struct QueryHistory {
    ring: Mutex<VecDeque<QueryRanges>>,
}

impl QueryHistory {
    pub(crate) fn new() -> QueryHistory {
        QueryHistory {
            ring: Mutex::new(VecDeque::with_capacity(HISTORY_CAPACITY)),
        }
    }

    /// Remember one query over `policy`'s dimensions. The planner calls
    /// this once per validated plan; the entry is built outside the lock.
    pub fn record(&self, predicate: &Predicate, policy: &SplittingPolicy) {
        let entry = ranges_of(predicate, policy.dims().iter().map(|d| d.name.as_str()));
        let mut ring = self.ring.lock();
        if ring.len() == HISTORY_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The remembered queries, oldest first.
    pub fn snapshot(&self) -> Vec<QueryRanges> {
        self.ring.lock().iter().cloned().collect()
    }
}

/// A policy and what the model expects of it.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The policy priced.
    pub policy: SplittingPolicy,
    /// Cells it cuts each dimension's domain into.
    pub counts: Vec<u64>,
    /// Expected cost per query under the model, in units of reading one
    /// row (lower is better).
    pub expected_cost: f64,
    /// Expected number of populated cells.
    pub expected_cells: f64,
    /// Candidate policies the search priced within the cell budget (1
    /// for a policy priced on its own).
    pub candidates: u64,
}

impl Recommendation {
    /// Whether moving to this policy from the grid priced as `current`
    /// repays re-celling the table: the saving the model predicts over
    /// the `history_len` queries both were priced on must exceed reading
    /// every one of the `rows_total` rows once. A history too short to
    /// pay for the rewrite, or a saving too small, leaves the grid alone.
    pub fn repays_rewrite(
        &self,
        current: &Recommendation,
        history_len: usize,
        rows_total: u64,
        config: &AdvisorConfig,
    ) -> bool {
        (current.expected_cost - self.expected_cost) * history_len as f64
            > config.row_cost * rows_total as f64
    }
}

/// Recommend a splitting policy for `dims` given a data sample and a
/// query history.
pub fn recommend_policy(
    sample: &[Row],
    schema: &Schema,
    dims: &[String],
    history: &[Query],
    rows_total: u64,
    config: &AdvisorConfig,
) -> Result<Recommendation> {
    let stats = collect_stats(sample, schema, dims)?;
    let history: Vec<QueryRanges> = history
        .iter()
        .map(|q| ranges_of(q.predicate(), dims.iter().map(String::as_str)))
        .collect();
    search(&stats, &history, rows_total, config)
}

/// The cheapest candidate policy over `stats` for `history` (one entry
/// per query, ranges in `stats` order).
pub fn search(
    stats: &[DimStats],
    history: &[QueryRanges],
    rows_total: u64,
    config: &AdvisorConfig,
) -> Result<Recommendation> {
    let fractions = covered_fractions(stats, history)?;
    // Grid-search candidate counts per dimension (the search space is
    // |candidates|^dims; dims is 2–4 in practice), in odometer order: the
    // last dimension turns fastest and the first of equals wins.
    let base = config.candidate_counts.len();
    let mut best: Option<Recommendation> = None;
    let mut candidates = 0u64;
    for code in 0..base.pow(stats.len() as u32) {
        let dims = stats.iter().enumerate().map(|(d, s)| {
            let digit = code / base.pow((stats.len() - 1 - d) as u32) % base;
            split_evenly(s, config.candidate_counts[digit])
        });
        let policy = SplittingPolicy::new(dims.collect())?;
        let rec = evaluate(policy, stats, &fractions, rows_total, config);
        if rec.counts.iter().map(|c| *c as f64).product::<f64>() > config.max_cells as f64 {
            continue;
        }
        candidates += 1;
        if best.as_ref().is_none_or(|b| rec.expected_cost < b.expected_cost) {
            best = Some(rec);
        }
    }
    let best = best.ok_or_else(|| {
        DgfError::Index("no candidate policy fits within the cell budget".into())
    })?;
    Ok(Recommendation { candidates, ..best })
}

/// What the model expects of `policy` — typically the grid an index
/// already has — over the same `stats` and `history` a [`search`] takes.
pub fn price(
    policy: &SplittingPolicy,
    stats: &[DimStats],
    history: &[QueryRanges],
    rows_total: u64,
    config: &AdvisorConfig,
) -> Result<Recommendation> {
    let fractions = covered_fractions(stats, history)?;
    Ok(evaluate(policy.clone(), stats, &fractions, rows_total, config))
}

/// Per query and dimension: the fraction of the domain the range covers
/// (1.0 where the dimension is unconstrained) and how many of its two
/// ends fall inside the domain. An end left open, or beyond the data,
/// cuts no cell — the planner counts such a side as covered
/// ([`DimPolicy::cell_span`]) — so only the ends inside make an edge cell.
fn covered_fractions(stats: &[DimStats], history: &[QueryRanges]) -> Result<Vec<Vec<(f64, f64)>>> {
    if history.is_empty() {
        return Err(DgfError::Index("query history is empty".into()));
    }
    Ok(history
        .iter()
        .map(|ranges| {
            ranges
                .iter()
                .zip(stats)
                .map(|((lo, hi), s)| {
                    if *lo == f64::NEG_INFINITY && *hi == f64::INFINITY {
                        return (1.0, 0.0);
                    }
                    let width = s.width().max(f64::MIN_POSITIVE);
                    let frac = ((hi.min(s.max) - lo.max(s.min)) / width).clamp(0.0, 1.0);
                    let edges = (*lo > s.min) as u8 + (*hi < s.max) as u8;
                    (frac, f64::from(edges))
                })
                .collect()
        })
        .collect())
}

/// The dimension policy cutting `s`'s domain into (about) `n` equal cells.
fn split_evenly(s: &DimStats, n: u64) -> DimPolicy {
    // No grid has more cells along a dimension than distinct values.
    let interval = s.width() / n.min(s.distinct).max(1) as f64;
    let whole = (interval.ceil() as i64).max(1);
    match s.vtype {
        ValueType::Float => DimPolicy::float(&s.name, s.min, interval.max(f64::MIN_POSITIVE)),
        ValueType::Date => DimPolicy::date(&s.name, s.min as i64, whole),
        _ => DimPolicy::int(&s.name, s.min as i64, whole),
    }
}

fn evaluate(
    policy: SplittingPolicy,
    stats: &[DimStats],
    fractions: &[Vec<(f64, f64)>],
    rows_total: u64,
    config: &AdvisorConfig,
) -> Recommendation {
    // Cells per dimension: domain width ÷ interval, at least one and at
    // most one per distinct value. The shave keeps a float interval the
    // search derived as width ÷ n from dividing back to n + 1.
    let counts: Vec<u64> = policy
        .dims()
        .iter()
        .zip(stats)
        .map(|(d, s)| {
            let interval = match d.scale {
                DimScale::Int { interval, .. } => interval as f64,
                DimScale::Float { interval, .. } => interval,
            };
            let cells = (s.width() / interval * (1.0 - 1e-12)).ceil() as u64;
            cells.clamp(1, s.distinct.max(1))
        })
        .collect();
    let total_cells: f64 = counts.iter().map(|c| *c as f64).product();
    // Populated cells cannot exceed total rows.
    let expected_cells = total_cells.min(rows_total as f64);

    let mut cost = 0.0;
    for query in fractions {
        // Cells overlapping the query region.
        let mut region_cells = 1.0;
        // Cells of the region lying fully inside it (inner).
        let mut inner_cells = 1.0;
        for ((frac, edges), n) in query.iter().zip(&counts) {
            let spanned = frac * *n as f64;
            region_cells *= (spanned.ceil() + 1.0).min(*n as f64);
            // Of the cells the range spans, the edge cells are boundary.
            inner_cells *= (spanned - edges).max(0.0);
        }
        // Boundary cells are read whole, at the table's mean density.
        let boundary_rows = rows_total as f64 * (region_cells - inner_cells) / total_cells;
        cost += config.lookup_cost * region_cells + config.row_cost * boundary_rows;
    }
    cost /= fractions.len() as f64;
    cost += config.cell_cost * expected_cells;

    Recommendation {
        policy,
        counts,
        expected_cost: cost,
        expected_cells,
        candidates: 1,
    }
}

/// Convenience: derive the history from plain predicates.
pub fn history_from_predicates(preds: &[Predicate]) -> Vec<Query> {
    preds
        .iter()
        .map(|p| Query::Aggregate {
            aggs: vec![dgf_query::AggFunc::Count],
            predicate: p.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::Value;
    use dgf_query::ColumnRange;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("ts", ValueType::Date),
            ("power", ValueType::Float),
        ])
    }

    fn sample(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 1000),
                    Value::Date(15706 + i % 30),
                    Value::Float((i % 97) as f64 / 3.0),
                ]
            })
            .collect()
    }

    fn narrow_history() -> Vec<Query> {
        // Queries covering ~2% of users and ~10% of days.
        history_from_predicates(&[
            Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(100), Value::Int(120)))
                .and("ts", ColumnRange::half_open(Value::Date(15710), Value::Date(15713))),
            Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(500), Value::Int(520)))
                .and("ts", ColumnRange::half_open(Value::Date(15706), Value::Date(15709))),
        ])
    }

    /// A history as the search takes it, over `user_id` and `ts`.
    fn ranges(history: &[Query]) -> Vec<QueryRanges> {
        let dims = || ["user_id", "ts"].into_iter();
        history.iter().map(|q| ranges_of(q.predicate(), dims())).collect()
    }

    fn wide_history() -> Vec<Query> {
        history_from_predicates(&[Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(0), Value::Int(900)))
            .and("ts", ColumnRange::half_open(Value::Date(15706), Value::Date(15734)))])
    }

    #[test]
    fn stats_reflect_the_sample() {
        let s = sample(3000);
        let stats = collect_stats(&s, &schema(), &["user_id".into(), "ts".into()]).unwrap();
        assert_eq!(stats[0].min, 0.0);
        assert_eq!(stats[0].max, 1000.0);
        assert_eq!(stats[0].distinct, 1000);
        assert_eq!(stats[1].distinct, 30);
    }

    #[test]
    fn string_dimension_rejected() {
        let s = Schema::from_pairs(&[("name", ValueType::Str)]);
        let rows = vec![vec![Value::Str("x".into())]];
        assert!(collect_stats(&rows, &s, &["name".into()]).is_err());
    }

    #[test]
    fn recommends_valid_policy() {
        let s = sample(3000);
        let rec = recommend_policy(
            &s,
            &schema(),
            &["user_id".into(), "ts".into()],
            &narrow_history(),
            1_000_000,
            &AdvisorConfig::default(),
        )
        .unwrap();
        assert_eq!(rec.policy.arity(), 2);
        assert_eq!(rec.policy.dims()[0].name, "user_id");
        // Counts never exceed distinct values.
        assert!(rec.counts[1] <= 1000);
        assert!(rec.expected_cost.is_finite());
    }

    #[test]
    fn narrow_queries_prefer_finer_grids_than_wide_queries() {
        let s = sample(3000);
        let cfg = AdvisorConfig::default();
        let dims = vec!["user_id".to_owned(), "ts".to_owned()];
        let narrow = recommend_policy(&s, &schema(), &dims, &narrow_history(), 1_000_000, &cfg)
            .unwrap();
        let wide =
            recommend_policy(&s, &schema(), &dims, &wide_history(), 1_000_000, &cfg).unwrap();
        // Selective queries want fine cells (less boundary over-read);
        // full sweeps want coarse cells (fewer lookups).
        let narrow_cells: u64 = narrow.counts.iter().product();
        let wide_cells: u64 = wide.counts.iter().product();
        assert!(
            narrow_cells > wide_cells,
            "narrow {narrow_cells} vs wide {wide_cells}"
        );
    }

    #[test]
    fn cell_budget_is_respected() {
        let s = sample(3000);
        let cfg = AdvisorConfig {
            max_cells: 50,
            ..AdvisorConfig::default()
        };
        let rec = recommend_policy(
            &s,
            &schema(),
            &["user_id".into(), "ts".into()],
            &narrow_history(),
            1_000_000,
            &cfg,
        )
        .unwrap();
        let cells: u64 = rec
            .counts
            .iter()
            .zip(&["user_id", "ts"])
            .map(|(c, _)| *c)
            .product();
        assert!(cells <= 50, "{cells}");
    }

    /// The search and [`price`] are one function: asked about the policy
    /// the search chose, `price` names the search's own cost — also where
    /// integer intervals do not divide the domain into the count asked for
    /// (29 days in 20 → 2-day cells → 15) and over a built grid's stats.
    #[test]
    fn pricing_the_recommended_policy_returns_its_own_expected_cost() {
        let cfg = AdvisorConfig::default();
        let dims = ["user_id".to_owned(), "ts".to_owned()];
        let sampled = collect_stats(&sample(3000), &schema(), &dims).unwrap();
        let built = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 128),
            DimPolicy::date("ts", 15706, 4),
        ])
        .unwrap();
        let grid = grid_stats(&built, &[(0, 7), (0, 7)]).unwrap();
        assert_eq!((grid[0].min, grid[0].max, grid[0].distinct), (0.0, 1024.0, 1024));
        assert_eq!((grid[1].min, grid[1].max, grid[1].distinct), (15706.0, 15738.0, 32));
        // Priced over its own stats a grid has exactly the cells it has.
        let one = ranges(&narrow_history()[..1]);
        assert_eq!(price(&built, &grid, &one, 1_000_000, &cfg).unwrap().counts, vec![8, 8]);

        for stats in [&sampled, &grid] {
            for history in [ranges(&narrow_history()), ranges(&wide_history())] {
                for max_cells in [5_000_000, 300] {
                    let cfg = AdvisorConfig { max_cells, ..cfg.clone() };
                    let rec = search(stats, &history, 1_000_000, &cfg).unwrap();
                    let priced = price(&rec.policy, stats, &history, 1_000_000, &cfg).unwrap();
                    assert_eq!(priced.expected_cost.to_bits(), rec.expected_cost.to_bits());
                    assert_eq!(priced.counts, rec.counts);
                    assert!(rec.candidates > 1 && rec.candidates <= 100, "{}", rec.candidates);
                    assert!(!rec.repays_rewrite(&priced, history.len(), 1_000_000, &cfg));
                }
            }
        }
    }

    /// A saving repays a rewrite only over enough queries: the same two
    /// prices move the grid on a long history and leave it on a short one.
    #[test]
    fn a_rewrite_must_be_repaid_by_the_history_it_was_priced_on() {
        let cfg = AdvisorConfig::default();
        let dims = ["user_id".to_owned(), "ts".to_owned()];
        let stats = collect_stats(&sample(3000), &schema(), &dims).unwrap();
        let history = ranges(&narrow_history());
        let coarse = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 500),
            DimPolicy::date("ts", 15706, 15),
        ])
        .unwrap();
        let rows = 1_000_000;
        let current = price(&coarse, &stats, &history, rows, &cfg).unwrap();
        let best = search(&stats, &history, rows, &cfg).unwrap();
        let saving = current.expected_cost - best.expected_cost;
        assert!(saving > 0.0);
        let repaid_after = (rows as f64 / saving).ceil() as usize;
        assert!(!best.repays_rewrite(&current, repaid_after - 1, rows, &cfg));
        assert!(best.repays_rewrite(&current, repaid_after + 1, rows, &cfg));
    }

    #[test]
    fn history_keeps_the_most_recent_queries() {
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 10),
            DimPolicy::date("ts", 15706, 1),
        ])
        .unwrap();
        let history = QueryHistory::new();
        assert!(history.snapshot().is_empty());
        for i in 0..HISTORY_CAPACITY as i64 + 3 {
            let p = Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(i), Value::Int(i + 5)))
                .and("power", ColumnRange::eq(Value::Float(1.0)));
            history.record(&p, &policy);
        }
        let kept = history.snapshot();
        assert_eq!(kept.len(), HISTORY_CAPACITY);
        // Oldest first, the first three fallen off; a dimension the
        // predicate leaves alone is open on both sides, and a column the
        // grid does not cut on is not history.
        assert_eq!(kept[0], vec![(3.0, 8.0), (f64::NEG_INFINITY, f64::INFINITY)]);
        assert_eq!(kept[HISTORY_CAPACITY - 1][0], (258.0, 263.0));
    }

    #[test]
    fn empty_history_is_an_error() {
        let s = sample(100);
        assert!(recommend_policy(
            &s,
            &schema(),
            &["user_id".into()],
            &[],
            1000,
            &AdvisorConfig::default()
        )
        .is_err());
    }

    #[test]
    fn recommended_policy_builds_a_working_index() {
        use dgf_format::FileFormat;
        use dgf_hive::{HiveContext, ScanEngine};
        use dgf_kvstore::MemKvStore;
        use dgf_mapreduce::MrEngine;
        use dgf_query::Engine;
        use dgf_storage::SimHdfs;
        use std::sync::Arc;

        let rows = sample(2000);
        let tmp = dgf_common::TempDir::new("advisor").unwrap();
        let hdfs = SimHdfs::open(tmp.path()).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let table = ctx
            .create_table("t", Arc::new(schema()), FileFormat::Text)
            .unwrap();
        ctx.load_rows(&table, &rows, 2).unwrap();

        let rec = recommend_policy(
            &rows,
            &schema(),
            &["user_id".into(), "ts".into()],
            &narrow_history(),
            rows.len() as u64,
            &AdvisorConfig::default(),
        )
        .unwrap();
        let (idx, _) = crate::DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&table),
            rec.policy,
            vec![dgf_query::AggFunc::Count],
            Arc::new(MemKvStore::new()),
            "dgf_advised",
        )
        .unwrap();
        let q = &narrow_history()[0];
        let truth = ScanEngine::new(Arc::clone(&ctx), table).run(q).unwrap();
        let got = crate::DgfEngine::new(Arc::new(idx)).run(q).unwrap();
        assert_eq!(got.result, truth.result);
    }
}

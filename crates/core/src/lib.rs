//! # dgf-core
//!
//! **DGFIndex** — the paper's primary contribution: a distributed grid
//! file index for multidimensional range queries over Hive-style tables.
//!
//! * [`policy`] — the splitting policy: per-dimension `min`/`interval`
//!   standardization into grid cells.
//! * [`gfu`] — grid file units: order-preserving keys, headers of
//!   pre-computed additive aggregates, Slice locations.
//! * [`index`] — the index handle: build, open, and the pinned reads
//!   planning works from.
//! * [`mod@write`] — the write side: the MapReduce job that reorganizes the
//!   table into per-GFU Slices, and incremental, rebuild-free appends.
//! * [`fresh`] — [`GfuCells`], the rows of each GFU with their folding
//!   header from ack (or reducer) to Slice, and the [`FreshSource`]
//!   through which plans see unflushed cells.
//! * [`txn`] — the one crash-atomic commit path every writer (build,
//!   append, flush, compaction, regrid) publishes through, and recovery.
//! * [`plan`] — query planning: inner/boundary region decomposition,
//!   header-based answering of the inner region, split filtering, and
//!   per-split Slice range lists. Each attempt lists its keys — pyramid
//!   nodes for the inner region where the store carries them, every cell
//!   of the query's box otherwise — and reads them with one cache probe
//!   and at most one batched `multi_get` (see [`plan::PlanStrategy`]).
//! * [`cache`] — the epoch-tagged GFU header cache that lets repeated
//!   queries plan without touching the key-value store.
//! * [`pyramid`] — the hierarchical aggregate pyramid: coarser-level
//!   headers above the grid so a fully-inner region is answered from
//!   O(polylog) canonical nodes instead of per-cell header reads
//!   (see [`plan::PlanStrategy::Pyramid`]).
//! * [`sidecar`] — sub-slice pruning from per-slice sidecar indexes
//!   (zone maps + hierarchical bitmaps), feeding row-group admission
//!   sets and residual row bitmaps into the boundary scan.
//! * [`engine`] — the [`DgfEngine`] implementing the common
//!   [`dgf_query::Engine`] interface.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use dgf_core::{DgfIndex, DgfEngine, SplittingPolicy, DimPolicy};
//! # use dgf_kvstore::MemKvStore;
//! # use dgf_query::{AggFunc, Engine, Query, Predicate, ColumnRange};
//! # use dgf_common::Value;
//! # fn demo(ctx: Arc<dgf_hive::HiveContext>, meter: dgf_hive::TableRef) -> dgf_common::Result<()> {
//! let policy = SplittingPolicy::new(vec![
//!     DimPolicy::int("user_id", 0, 1000),
//!     DimPolicy::int("region_id", 0, 1),
//!     DimPolicy::date("ts", 15706, 1),
//! ])?;
//! let (index, report) = DgfIndex::build(
//!     ctx,
//!     meter,
//!     policy,
//!     vec![AggFunc::Sum("power_consumed".into())],
//!     Arc::new(MemKvStore::new()),
//!     "dgf_meter",
//! )?;
//! println!("built {} GFUs in {:?}", report.index_entries, report.build_time);
//! let run = DgfEngine::new(Arc::new(index)).run(&Query::Aggregate {
//!     aggs: vec![AggFunc::Sum("power_consumed".into())],
//!     predicate: Predicate::all()
//!         .and("user_id", ColumnRange::half_open(Value::Int(100), Value::Int(5000)))
//!         .and("ts", ColumnRange::half_open(Value::Date(15706), Value::Date(15736))),
//! })?;
//! println!("answer: {}", run.result);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod cache;
pub mod engine;
pub mod fresh;
pub mod gfu;
pub mod index;
pub mod maintain;
pub mod plan;
pub mod policy;
pub mod pyramid;
pub mod sidecar;
pub mod txn;
pub mod view;
pub mod write;

pub use advisor::{
    collect_stats, recommend_policy, AdvisorConfig, DimStats, QueryHistory, QueryRanges,
    Recommendation,
};
pub use cache::{CacheCounters, CacheStats, GfuHeaderCache, DEFAULT_HEADER_CACHE_CAPACITY};
pub use engine::DgfEngine;
pub use fresh::{FreshSource, GfuCell, GfuCells};
pub use gfu::{Extents, FileId, GfuKey, GfuValue, SliceLoc};
pub use index::{all_gfus, default_precompute, DgfIndex, IndexOptions};
pub use maintain::{
    MaintainSnapshot, MaintainStats, MaintenanceConfig, MaintenanceReport, Maintainer,
};
pub use plan::{DgfPlan, PlanStrategy};
pub use pyramid::{NodeRef, DEFAULT_PYRAMID_LEVELS, PYRAMID_PREFIX};
pub use sidecar::PruneOutcome;
pub use txn::{TxnManifest, TxnSnapshot, TxnState, TxnStats};
pub use view::ReadView;
pub use policy::{DimPolicy, DimScale, DimSpan, SplittingPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_format::FileFormat;
    use dgf_hive::{HiveContext, ScanEngine, TableRef};
    use dgf_kvstore::{KvStore, MemKvStore};
    use dgf_mapreduce::MrEngine;
    use dgf_query::{AggFunc, ColumnRange, Engine, Predicate, Query};
    use dgf_storage::{HdfsConfig, SimHdfs};
    use std::sync::Arc;

    fn setup(block: u64) -> (TempDir, Arc<HiveContext>) {
        let t = TempDir::new("dgfcore").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: block,
                replication: 1,
            },
        )
        .unwrap();
        (t, HiveContext::new(h, MrEngine::new(4)))
    }

    fn figure5_table(ctx: &Arc<HiveContext>) -> TableRef {
        let schema = Arc::new(Schema::from_pairs(&[
            ("A", ValueType::Int),
            ("B", ValueType::Int),
            ("C", ValueType::Float),
        ]));
        let tab = ctx.create_table("fig5", schema, FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &index::paper_figure5_rows(), 1).unwrap();
        tab
    }

    /// A handle over a copy of `idx`'s store without its pyramid (every
    /// `p:` key dropped, the view's height zeroed), opened as `name`:
    /// every plan it makes reads the flat shape, the reference the
    /// pyramid's answers must equal. The integration suites' twin is
    /// `tests/common::strip_pyramid`.
    pub(super) fn stripped(idx: &DgfIndex, name: &str) -> DgfIndex {
        let kv = MemKvStore::new();
        for (key, value) in idx.kv.scan_prefix(b"").unwrap() {
            if !key.starts_with(PYRAMID_PREFIX) {
                kv.put(&key, &value).unwrap();
            }
        }
        let mut view = ReadView::decode(&kv.get(gfu::META_VIEW_KEY).unwrap().unwrap()).unwrap();
        view.pyramid = 0;
        kv.put(gfu::META_VIEW_KEY, &view.encode()).unwrap();
        let (ctx, base) = (Arc::clone(&idx.ctx), Arc::clone(&idx.base));
        DgfIndex::open(ctx, base, Arc::new(kv), name, idx.aggs.clone()).unwrap()
    }

    fn build_figure5(ctx: &Arc<HiveContext>) -> Arc<DgfIndex> {
        let tab = figure5_table(ctx);
        let (idx, report) = DgfIndex::build(
            Arc::clone(ctx),
            tab,
            index::paper_figure5_policy(),
            vec![AggFunc::Sum("C".into())],
            Arc::new(MemKvStore::new()),
            "dgf_fig5",
        )
        .unwrap();
        // Figure 6: 9 records land in exactly 8 GFUs (7_13 holds two).
        assert_eq!(report.index_entries, 8);
        Arc::new(idx)
    }

    #[test]
    fn figure6_construction_matches_paper() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let gfus = all_gfus(idx.kv.as_ref(), 2).unwrap();
        assert_eq!(gfus.len(), 8);
        // Cell (2,1) = paper key "7_13": records (7,12,1.2)? No — B=12 is
        // cell (12-11)/2 = 0 → key 7_11. Key 7_13 holds (9,14,0.8) and
        // (8,13,0.2): cells A=(9-1)/3=2,(8-1)/3=2; B=(14-11)/2=1,(13-11)/2=1.
        let (_, v) = gfus
            .iter()
            .find(|(k, _)| k.cells == vec![2, 1])
            .expect("GFU 7_13 exists");
        assert_eq!(v.record_count, 2);
        assert_eq!(v.slices.len(), 1);
        // Pre-computed sum(C) = 0.8 + 0.2 = 1.0 (paper Figure 6).
        let set = dgf_query::AggSet::bind(
            &[AggFunc::Sum("C".into())],
            &idx.base.schema,
        )
        .unwrap();
        let states = set.decode_states(&v.header).unwrap();
        assert_eq!(set.finalize(&states)[0], Value::Float(1.0));
    }

    #[test]
    fn listing2_query_matches_paper_semantics() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        // Listing 2: SELECT SUM(C) WHERE A in [5,12) AND B in [12,16).
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
                .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
        };
        // Matching rows: (5,18)? no B. (7,12,1.2) ✓, (9,14,0.8) ✓,
        // (11,16)? B=16 excluded. (8,13,0.2) ✓ → 2.2.
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        assert_eq!(run.result, dgf_query::QueryResult::Scalars(vec![Value::Float(2.2)]));
        // The inner region (paper: I = {7<=A<10, 13<=B<15}) is answered
        // from the header: GFU (2,1) is inner.
        let plan = idx.plan(&q, true).unwrap();
        assert_eq!(plan.inner_gfus, 1);
        assert_eq!(plan.inner_records, 2);
    }

    #[test]
    fn no_precompute_reads_all_query_gfus() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
                .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
        };
        let with = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        let without = DgfEngine::new(Arc::clone(&idx))
            .without_precompute()
            .run(&q)
            .unwrap();
        assert_eq!(with.result, without.result);
        assert!(without.stats.data_records_read > with.stats.data_records_read);
    }

    #[test]
    fn unsupported_aggregate_falls_back_to_slices() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        // avg(C) is not pre-computed: headers unusable, result still right.
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Avg("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
                .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
        };
        let plan = idx.plan(&q, true).unwrap();
        assert_eq!(plan.inner_gfus, 0);
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        let expected = (1.2 + 0.8 + 0.2) / 3.0;
        assert_eq!(
            run.result,
            dgf_query::QueryResult::Scalars(vec![Value::Float(expected)])
        );
    }

    #[test]
    fn predicate_on_unindexed_column_disables_headers_but_stays_exact() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
                .and("C", ColumnRange::open(Value::Float(0.5), Value::Float(10.0))),
        };
        let plan = idx.plan(&q, true).unwrap();
        assert_eq!(plan.inner_gfus, 0, "C is not an index dimension");
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        // A in [5,12): rows (5,18,.5)x (7,12,1.2)✓ (9,14,.8)✓ (11,16,1.3)✓ (8,13,.2)x
        assert_eq!(
            run.result,
            dgf_query::QueryResult::Scalars(vec![Value::Float(3.3)])
        );
    }

    #[test]
    fn partial_query_uses_extents() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        // Constrain only B: A falls back to stored extents.
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("B", ColumnRange::half_open(Value::Int(11), Value::Int(13))),
        };
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        // B in [11,13): rows (7,12,1.2),(2,11,0.5),(12,12,0.3),(8,13)? B=13 no.
        assert_eq!(
            run.result,
            dgf_query::QueryResult::Scalars(vec![Value::Float(2.0)])
        );
        // B-range sits on cell edges: everything is inner.
        let plan = idx.plan(&q, true).unwrap();
        assert!(plan.inner_gfus > 0);
        assert_eq!(plan.boundary_gfus, 0);
    }

    #[test]
    fn append_extends_index_without_rebuild() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let before_entries = idx.gfu_count().unwrap();
        // New records: one lands in the existing GFU (2,1), one in a new
        // cell far away.
        idx.append(&[
            vec![Value::Int(9), Value::Int(13), Value::Float(0.5)],
            vec![Value::Int(100), Value::Int(30), Value::Float(9.9)],
        ])
        .unwrap();
        assert_eq!(idx.gfu_count().unwrap(), before_entries + 1);
        // The merged GFU now answers with the updated header.
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(7), Value::Int(10)))
                .and("B", ColumnRange::half_open(Value::Int(13), Value::Int(15))),
        };
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        // Rows in that region: (9,14,0.8),(8,13,0.2),(9,13,0.5) = 1.5.
        assert_eq!(
            run.result,
            dgf_query::QueryResult::Scalars(vec![Value::Float(1.5)])
        );
        // Fully header-answered (region sits on cell edges).
        let plan = idx.plan(&q, true).unwrap();
        assert_eq!(plan.boundary_gfus, 0);
        // And the far-away record is reachable too.
        let q2 = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::eq(Value::Int(100))),
        };
        let run2 = DgfEngine::new(Arc::clone(&idx)).run(&q2).unwrap();
        assert_eq!(
            run2.result,
            dgf_query::QueryResult::Scalars(vec![Value::Float(9.9)])
        );
    }

    #[test]
    fn group_by_and_join_match_scan() {
        let (_t, ctx) = setup(512);
        // A larger random-ish table across several splits.
        let schema = Arc::new(Schema::from_pairs(&[
            ("user", ValueType::Int),
            ("region", ValueType::Int),
            ("day", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let tab = ctx.create_table("meter", schema, FileFormat::Text).unwrap();
        let rows: Vec<Vec<Value>> = (0..800)
            .map(|i| {
                vec![
                    Value::Int(i % 97),
                    Value::Int(i % 5),
                    Value::Int(i % 11),
                    Value::Float(((i * 7) % 100) as f64 / 4.0),
                ]
            })
            .collect();
        ctx.load_rows(&tab, &rows, 3).unwrap();
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user", 0, 10),
            DimPolicy::int("region", 0, 1),
            DimPolicy::int("day", 0, 1),
        ])
        .unwrap();
        let (idx, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            policy,
            default_precompute("power"),
            Arc::new(MemKvStore::new()),
            "dgf_meter",
        )
        .unwrap();
        let idx = Arc::new(idx);

        let users_schema = Arc::new(Schema::from_pairs(&[
            ("user", ValueType::Int),
            ("name", ValueType::Str),
        ]));
        let users = ctx
            .create_table("users", users_schema, FileFormat::Text)
            .unwrap();
        let user_rows: Vec<Vec<Value>> = (0..97)
            .map(|i| vec![Value::Int(i), Value::Str(format!("u{i}"))])
            .collect();
        ctx.load_rows(&users, &user_rows, 1).unwrap();

        let pred = Predicate::all()
            .and("user", ColumnRange::half_open(Value::Int(13), Value::Int(57)))
            .and("day", ColumnRange::half_open(Value::Int(2), Value::Int(8)));
        let queries = vec![
            Query::GroupBy {
                key: "day".into(),
                aggs: vec![AggFunc::Sum("power".into()), AggFunc::Count],
                predicate: pred.clone(),
            },
            Query::Join {
                left_key: "user".into(),
                right_key: "user".into(),
                left_project: vec!["power".into()],
                right_project: vec!["name".into()],
                predicate: pred.clone(),
            },
            Query::Select {
                project: vec!["user".into(), "power".into()],
                predicate: pred,
            },
        ];
        for q in &queries {
            let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
                .with_right(Arc::clone(&users))
                .run(q)
                .unwrap();
            let dgf = DgfEngine::new(Arc::clone(&idx))
                .with_right(Arc::clone(&users))
                .run(q)
                .unwrap();
            assert_eq!(
                dgf.result.clone().normalized(),
                scan.result.clone().normalized(),
                "mismatch on {q:?}"
            );
            assert!(dgf.stats.data_records_read <= scan.stats.data_records_read);
        }
    }

    /// GROUP BY from headers needs a one-value-cell integral key, grid-only
    /// predicates, pre-computed aggregates and headers on. Every other
    /// GROUP BY plans as the header-less scan does — same inputs, no
    /// header answer — and all of them answer as the scan does.
    #[test]
    fn group_by_outside_the_header_rule_plans_the_full_scan() {
        let (_t, ctx) = setup(1 << 20);
        let schema = Arc::new(Schema::from_pairs(&[
            ("user", ValueType::Int),
            ("day", ValueType::Int),
            ("temp", ValueType::Float),
            ("power", ValueType::Float),
        ]));
        let tab = ctx
            .create_table("groups", schema, FileFormat::Text)
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..900i64)
            .map(|i| {
                vec![
                    Value::Int(i % 15),
                    Value::Int(i % 12),
                    Value::Float((i % 7) as f64 + 0.5),
                    Value::Float(((i * 13) % 40) as f64 / 8.0),
                ]
            })
            .collect();
        ctx.load_rows(&tab, &rows, 2).unwrap();
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user", 0, 1),
            DimPolicy::int("day", 0, 2),
            DimPolicy::float("temp", 0.0, 1.0),
        ])
        .unwrap();
        let (idx, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            policy,
            vec![AggFunc::Sum("power".into()), AggFunc::Count],
            Arc::new(MemKvStore::new()),
            "dgf_groups",
        )
        .unwrap();
        let idx = Arc::new(idx);
        let grid = Predicate::all()
            .and(
                "user",
                ColumnRange::half_open(Value::Int(2), Value::Int(11)),
            )
            .and("day", ColumnRange::half_open(Value::Int(1), Value::Int(9)));
        let pre = vec![AggFunc::Sum("power".into()), AggFunc::Count];
        let group_by = |key: &str, aggs: &[AggFunc], predicate: &Predicate| Query::GroupBy {
            key: key.into(),
            aggs: aggs.to_vec(),
            predicate: predicate.clone(),
        };
        let answered = group_by("user", &pre, &grid);
        let non_grid = grid.clone().and(
            "power",
            ColumnRange::half_open(Value::Float(1.0), Value::Float(4.0)),
        );
        let degraded = [
            group_by("power", &pre, &grid),
            group_by("day", &pre, &grid),
            group_by("temp", &pre, &grid),
            group_by("user", &pre, &non_grid),
            group_by("user", &[AggFunc::Max("power".into())], &grid),
        ];
        let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab));
        let agrees = |q: &Query, engine: DgfEngine| {
            let got = engine.run(q).unwrap().result;
            let truth = scan.run(q).unwrap().result;
            assert_eq!(got, truth, "{q:?}: {got:?} vs {truth:?}");
        };

        let plan = idx.plan(&answered, true).unwrap();
        let header_less = idx.plan(&answered, false).unwrap();
        assert!(plan.inner_records > 0);
        assert!(matches!(
            plan.inner_states,
            Some(dgf_query::AggPartials::Groups(_))
        ));
        assert!(plan.boundary_gfus < header_less.boundary_gfus);
        assert_eq!(header_less.inner_records, 0);
        assert!(header_less.inner_states.is_none());
        agrees(&answered, DgfEngine::new(Arc::clone(&idx)));
        agrees(
            &answered,
            DgfEngine::new(Arc::clone(&idx)).without_precompute(),
        );

        for q in &degraded {
            let plan = idx.plan(q, true).unwrap();
            let header_less = idx.plan(q, false).unwrap();
            assert_eq!(plan.inner_records, 0, "{q:?}");
            assert!(plan.inner_states.is_none(), "{q:?}");
            assert_eq!(plan.inputs, header_less.inputs, "{q:?}");
            assert_eq!(plan.boundary_gfus, header_less.boundary_gfus, "{q:?}");
            agrees(q, DgfEngine::new(Arc::clone(&idx)));
        }
    }

    #[test]
    fn empty_table_and_empty_region() {
        let (_t, ctx) = setup(1 << 20);
        let schema = Arc::new(Schema::from_pairs(&[
            ("A", ValueType::Int),
            ("C", ValueType::Float),
        ]));
        let tab = ctx.create_table("empty", schema, FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &[], 1).unwrap();
        let (idx, report) = DgfIndex::build(
            Arc::clone(&ctx),
            tab,
            SplittingPolicy::new(vec![DimPolicy::int("A", 0, 10)]).unwrap(),
            vec![AggFunc::Count],
            Arc::new(MemKvStore::new()),
            "dgf_empty",
        )
        .unwrap();
        assert_eq!(report.index_entries, 0);
        let idx = Arc::new(idx);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and("A", ColumnRange::eq(Value::Int(5))),
        };
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(0));
        // Region entirely outside the data extents.
        let (idx2, _) = {
            let schema = Arc::new(Schema::from_pairs(&[
                ("A", ValueType::Int),
                ("C", ValueType::Float),
            ]));
            let tab = ctx.create_table("one", schema, FileFormat::Text).unwrap();
            ctx.load_rows(&tab, &[vec![Value::Int(1), Value::Float(1.0)]], 1)
                .unwrap();
            DgfIndex::build(
                Arc::clone(&ctx),
                tab,
                SplittingPolicy::new(vec![DimPolicy::int("A", 0, 10)]).unwrap(),
                vec![AggFunc::Count],
                Arc::new(MemKvStore::new()),
                "dgf_one",
            )
            .unwrap()
        };
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(500), Value::Int(600))),
        };
        let run = DgfEngine::new(Arc::new(idx2)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(0));
    }

    /// A 600-row table in three files, with small row groups if it is an
    /// RCFile (many groups per slice candidate).
    fn meter_table(ctx: &Arc<HiveContext>, format: FileFormat) -> TableRef {
        let schema = Arc::new(Schema::from_pairs(&[
            ("user", ValueType::Int),
            ("day", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let mut desc = (*ctx
            .create_table(&format!("meter_{format}"), schema, format)
            .unwrap())
        .clone();
        desc.rows_per_group = 16;
        let tab = Arc::new(desc);
        let rows: Vec<Vec<Value>> = (0..600)
            .map(|i| {
                vec![
                    Value::Int(i % 40),
                    Value::Int(i % 15),
                    Value::Float((i % 13) as f64),
                ]
            })
            .collect();
        ctx.load_rows(&tab, &rows, 3).unwrap();
        tab
    }

    fn build_meter(
        ctx: &Arc<HiveContext>,
        tab: &TableRef,
        name: &str,
    ) -> (DgfIndex, dgf_hive::BuildReport) {
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user", 0, 8),
            DimPolicy::int("day", 0, 3),
        ])
        .unwrap();
        DgfIndex::build_with_options(
            Arc::clone(ctx),
            Arc::clone(tab),
            policy,
            vec![AggFunc::Sum("power".into()), AggFunc::Count],
            Arc::new(MemKvStore::new()),
            name,
            IndexOptions {
                profiler: dgf_common::obs::Profiler::enabled(),
                ..IndexOptions::default()
            },
        )
        .unwrap()
    }

    /// The build job's shuffle counts: each map task folds its split into
    /// cells and emits one part per cell it touched, so the shuffle moves
    /// one pair per distinct (split, GFU) of the base rows, and each
    /// reducer group is one GFU.
    fn assert_build_shuffles_cells(ctx: &Arc<HiveContext>, tab: &TableRef, idx: &DgfIndex) {
        use dgf_common::obs::names;
        use dgf_hive::{open_input, ScanInput};
        let profile = idx.profiler().take_profile();
        let reorg = profile.find("build.reorganize").expect("the build's job span");
        let count = |name: &str| reorg.metrics.get(name).copied().unwrap_or(0) as usize;
        let router = GfuCells::new(idx.policy(), &tab.schema, &[]).unwrap();
        let (mut rows, mut parts) = (0, std::collections::BTreeSet::new());
        for (s, split) in ctx.table_splits(tab).into_iter().enumerate() {
            let input = ScanInput::FullSplit(split);
            open_input(ctx, tab, &input)
                .unwrap()
                .for_each_row(|_, row| {
                    rows += 1;
                    parts.insert((s, router.route(row)?));
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(rows, 600);
        assert!(parts.len() < rows, "{} parts", parts.len());
        assert_eq!(count(names::MR_MAP_OUTPUTS), parts.len());
        assert_eq!(count(names::MR_SHUFFLED_PAIRS), parts.len());
        assert_eq!(count(names::MR_REDUCE_GROUPS), idx.gfu_count().unwrap());
        // Cells merged from more than one map task are among those the
        // digests below pin.
        assert!(count(names::MR_SHUFFLED_PAIRS) > count(names::MR_REDUCE_GROUPS));
    }

    /// Every file of `idx`'s data directory, Slices and sidecars, by name.
    fn files_of(ctx: &HiveContext, idx: &DgfIndex) -> std::collections::BTreeMap<String, Vec<u8>> {
        ctx.hdfs
            .list_files(&idx.data.location)
            .into_iter()
            .map(|(path, _)| {
                let name = path.rsplit('/').next().unwrap().to_owned();
                (name, ctx.hdfs.read_file(&path).unwrap())
            })
            .collect()
    }

    /// FNV-1a over the sorted `(file name, bytes)` pairs of `idx`'s data
    /// directory: one number that moves when any written byte does.
    fn data_digest(ctx: &HiveContext, idx: &DgfIndex) -> u64 {
        let mut buf = Vec::new();
        for (name, bytes) in files_of(ctx, idx) {
            dgf_common::codec::put_str(&mut buf, &name);
            dgf_common::codec::put_bytes(&mut buf, &bytes);
        }
        dgf_common::codec::fnv1a(&buf)
    }

    /// Two four-worker builds of one table write the same bytes. Row
    /// order inside a Slice — and with it zone maps and `.scx` bytes —
    /// used to follow map-task completion order.
    ///
    /// Then every writer's output is pinned to the byte: `store_bytes` is
    /// the built store's logical size, and `pins` are the data
    /// directory's digests after the build, after two appends, after a
    /// compaction pass and after a regrid.
    fn writes_are_pinned(format: FileFormat, store_bytes: u64, pins: [u64; 4]) {
        let (_t, ctx) = setup(2048);
        let tab = meter_table(&ctx, format);
        let (a, _) = build_meter(&ctx, &tab, "dgf_det_a");
        let (b, _) = build_meter(&ctx, &tab, "dgf_det_b");
        assert_build_shuffles_cells(&ctx, &tab, &a);
        assert_eq!(a.kv.logical_size_bytes(), b.kv.logical_size_bytes());
        let files = files_of(&ctx, &a);
        let sidecars = files.keys().filter(|name| dgf_format::is_sidecar_path(name));
        assert_eq!(sidecars.count() > 0, format == FileFormat::RcFile);
        assert!(
            files.len() >= 2 + 2 * (format == FileFormat::RcFile) as usize,
            "one reducer: nothing to reorder"
        );
        assert_eq!(files, files_of(&ctx, &b));
        // The whole store — `g:` cells, `p:` nodes, `m:view` — to the
        // byte.
        let store = a.kv.logical_size_bytes();
        let mut digests = vec![data_digest(&ctx, &a)];

        // Build, append, append: three commits through the one `Txn`.
        for day in [3, 4] {
            a.append(&[vec![Value::Int(1), Value::Int(day), Value::Float(1.0)]])
                .unwrap();
        }
        digests.push(data_digest(&ctx, &a));
        let metrics = a.metrics().snapshot();
        assert_eq!(metrics["txn.commits"], 3);
        assert_eq!(metrics["txn.rollbacks"], 0);
        assert_eq!(metrics["txn.recovered"], 0);
        assert!(metrics["txn.staged_keys"] > 0);
        assert!(metrics["txn.files_published"] as usize >= files.len());

        let a = Arc::new(a);
        let maintainer = Maintainer::new(
            Arc::clone(&a),
            MaintenanceConfig {
                delta_file_budget: 2,
                ..MaintenanceConfig::default()
            },
        );
        assert!(maintainer.run_once().unwrap().compacted_files > 0);
        digests.push(data_digest(&ctx, &a));
        maintainer
            .regrid_to(
                SplittingPolicy::new(vec![
                    DimPolicy::int("user", 0, 5),
                    DimPolicy::int("day", 0, 4),
                ])
                .unwrap(),
            )
            .unwrap();
        digests.push(data_digest(&ctx, &a));
        assert_eq!((store, digests), (store_bytes, pins.to_vec()));
    }

    #[test]
    fn builds_are_byte_identical_and_every_writer_is_counted() {
        writes_are_pinned(
            FileFormat::RcFile,
            2_581,
            [
                8_506_367_492_564_015_294,
                8_863_724_149_479_901_911,
                8_815_740_857_369_428_824,
                17_829_914_286_566_876_175,
            ],
        );
    }

    #[test]
    fn text_builds_are_byte_identical_and_every_writer_is_counted() {
        writes_are_pinned(
            FileFormat::Text,
            2_578,
            [
                7_311_012_536_217_960_609,
                11_428_468_640_174_342_048,
                2_594_019_535_298_558_316,
                14_088_876_377_531_060_797,
            ],
        );
    }

    /// The reorganized data table holds exactly the base table's rows, a
    /// string column's `""`, NULL and other values alike, after a build
    /// and after an append, and is read as a table like any other: its
    /// `.scx` sidecars are not splits. A row the base table cannot hold
    /// is a schema error before anything is written. (The streamed half
    /// is `fresh_and_flushed_rows_answer_as_the_base_table_does` in
    /// `tests/ingest.rs`.)
    #[test]
    fn reorganized_data_holds_exactly_the_base_rows() {
        use dgf_common::DgfError;
        for format in [FileFormat::RcFile, FileFormat::Text] {
            let (_t, ctx) = setup(1024);
            let schema = Arc::new(Schema::from_pairs(&[
                ("user", ValueType::Int),
                ("tag", ValueType::Str),
                ("power", ValueType::Float),
            ]));
            let tab = ctx.create_table("tagged", schema, format).unwrap();
            let tags = [Value::Str(String::new()), Value::Null, Value::Str("on".into())];
            let rows: Vec<Vec<Value>> = (0..300i64)
                .map(|i| {
                    vec![
                        Value::Int(i % 23),
                        tags[i as usize % 3].clone(),
                        Value::Float(i as f64 / 4.0),
                    ]
                })
                .collect();
            ctx.load_rows(&tab, &rows[..240], 2).unwrap();
            let (idx, _) = DgfIndex::build(
                Arc::clone(&ctx),
                Arc::clone(&tab),
                SplittingPolicy::new(vec![DimPolicy::int("user", 0, 4)]).unwrap(),
                vec![AggFunc::Count],
                Arc::new(MemKvStore::new()),
                "dgf_tagged",
            )
            .unwrap();
            let idx = Arc::new(idx);
            let sorted = |table: &TableRef| {
                let mut rows = ctx.read_all(table).unwrap();
                rows.sort();
                rows
            };
            let count = Query::Aggregate {
                aggs: vec![AggFunc::Count],
                predicate: Predicate::all(),
            };
            let by_tag = Query::GroupBy {
                key: "tag".into(),
                aggs: vec![AggFunc::Count, AggFunc::Min("tag".into())],
                predicate: Predicate::all(),
            };
            let agree = || {
                assert_eq!(sorted(&idx.data), sorted(&tab), "{format}");
                for q in [&count, &by_tag] {
                    let scan = |table: &TableRef| {
                        ScanEngine::new(Arc::clone(&ctx), Arc::clone(table))
                            .run(q)
                            .unwrap()
                            .result
                            .normalized()
                    };
                    assert_eq!(scan(&idx.data), scan(&tab), "{format}: {q:?}");
                    let dgf = DgfEngine::new(Arc::clone(&idx)).run(q).unwrap().result;
                    assert_eq!(dgf.normalized(), scan(&tab), "{format}: {q:?}");
                }
            };
            agree();
            idx.append(&rows[240..]).unwrap();
            agree();

            let files = ctx.hdfs.list_files(&tab.location).len();
            let short = vec![Value::Int(1), Value::Null];
            let mistyped = vec![Value::Str("1".into()), Value::Null, Value::Float(0.0)];
            for bad in [short, mistyped] {
                let err = idx.append(&[rows[0].clone(), bad]).unwrap_err();
                assert!(matches!(err, DgfError::Schema(_)), "{format}: {err}");
            }
            assert_eq!(ctx.hdfs.list_files(&tab.location).len(), files, "{format}");
            agree();
        }
    }

    #[test]
    fn rcfile_base_table_gets_rcfile_slices() {
        // The paper: "it is easy to extend DGFIndex to support other file
        // formats" — an RCFile base table yields RCFile reorganized data
        // with group-aligned Slices, and the skipping read path holds.
        let (_t, ctx) = setup(2048);
        let tab = meter_table(&ctx, FileFormat::RcFile);
        let (idx, report) = build_meter(&ctx, &tab, "dgf_rc");
        assert_eq!(idx.data.format, FileFormat::RcFile);
        assert!(report.index_entries > 0);
        let idx = Arc::new(idx);

        // Slices are group-aligned: every slice boundary is a group offset
        // of the data file the view lists under the slice's file id.
        let gfus = all_gfus(idx.kv.as_ref(), 2).unwrap();
        for (id, _) in idx.pin_view().unwrap().data_files {
            let path = id.path(&idx.data.location);
            let footer = dgf_format::read_footer(&ctx.hdfs, &path).unwrap();
            let offsets = footer.group_offsets();
            for (_, v) in &gfus {
                for s in v.slices.iter().filter(|s| s.file == id) {
                    assert!(
                        offsets.contains(&s.start),
                        "slice start {} is not a group offset in {path}",
                        s.start
                    );
                }
            }
        }

        // Queries agree with a scan, across shapes, and read less.
        let queries = vec![
            Query::Aggregate {
                aggs: vec![AggFunc::Sum("power".into()), AggFunc::Count],
                predicate: Predicate::all()
                    .and("user", ColumnRange::half_open(Value::Int(5), Value::Int(21)))
                    .and("day", ColumnRange::half_open(Value::Int(3), Value::Int(11))),
            },
            Query::GroupBy {
                key: "day".into(),
                aggs: vec![AggFunc::Count],
                predicate: Predicate::all()
                    .and("user", ColumnRange::half_open(Value::Int(0), Value::Int(16))),
            },
            Query::Select {
                project: vec!["user".into(), "power".into()],
                predicate: Predicate::all().and("day", ColumnRange::eq(Value::Int(7))),
            },
        ];
        for q in &queries {
            let truth = dgf_hive::ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
                .run(q)
                .unwrap();
            let got = DgfEngine::new(Arc::clone(&idx)).run(q).unwrap();
            assert_eq!(
                got.result.clone().normalized(),
                truth.result.clone().normalized(),
                "mismatch on {q:?}"
            );
            assert!(got.stats.data_records_read <= truth.stats.data_records_read);
        }

        // Incremental append works on the RC path too.
        idx.append(&[vec![Value::Int(3), Value::Int(3), Value::Float(99.0)]])
            .unwrap();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Max("power".into())],
            predicate: Predicate::all().and("user", ColumnRange::eq(Value::Int(3))),
        };
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Float(99.0));
    }

    #[test]
    fn stale_index_is_detected() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        // Fresh: works.
        assert!(DgfEngine::new(Arc::clone(&idx)).run(&q).is_ok());
        // Load data behind the index's back: queries must fail loudly
        // instead of silently dropping the new records.
        ctx.append_file(
            &idx.base,
            "rogue-load",
            &[vec![Value::Int(1), Value::Int(11), Value::Float(1.0)]],
        )
        .unwrap();
        let err = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        // Indexing the (already loaded) rows via append is not the fix —
        // append adds its own file. Rebuild-from-scratch or append-only
        // discipline; here we verify append keeps working and clears the
        // staleness only when the counts line up again.
        // (A fresh index over the same base sees everything.)
        let (idx2, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&idx.base),
            crate::index::paper_figure5_policy(),
            vec![AggFunc::Sum("C".into())],
            Arc::new(MemKvStore::new()),
            "dgf_fig5_rebuilt",
        )
        .unwrap();
        let run = DgfEngine::new(Arc::new(idx2)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(10));
    }

    #[test]
    fn repeated_plan_is_served_from_header_cache() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
                .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
        };
        let before_first = idx.kv.stats().snapshot();
        let first = idx.plan(&q, true).unwrap();
        let first_delta = idx.kv.stats().snapshot().since(&before_first);
        // Cold cache: every key misses, and the misses are actually fetched.
        assert_eq!(first.cache_hits, 0);
        assert!(first.cache_misses > 0);
        assert!(first_delta.multi_gets + first_delta.scans > 0);

        let before_second = idx.kv.stats().snapshot();
        let second = idx.plan(&q, true).unwrap();
        let second_delta = idx.kv.stats().snapshot().since(&before_second);
        // Warm cache: the whole cell region (present cells and negative
        // entries alike) is answered from memory. The only store traffic
        // left is the view pin: an attempt that read nothing else after
        // it has nothing a re-read of the view could invalidate.
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.cache_hits, first.cache_hits + first.cache_misses);
        assert_eq!(second_delta.scans, 0);
        assert_eq!(second_delta.multi_gets, 0);
        assert_eq!(second_delta.gets, 1);
        // And the plan is the very same.
        assert_eq!(first.inputs, second.inputs);
        assert_eq!(first.inner_states, second.inner_states);
        assert_eq!(first.inner_gfus, second.inner_gfus);
        assert_eq!(first.boundary_gfus, second.boundary_gfus);
        assert_eq!(first.inner_records, second.inner_records);
        // Engine-level stats surface the cache counters.
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        assert!(run.stats.index_cache_hits > 0);
        assert_eq!(run.stats.index_cache_misses, 0);
    }

    /// A cold flat plan — a GROUP BY on a one-value-cell key, whose span
    /// box is five prefix runs of four cells — pins and validates the
    /// view and reads every cell it could not find in the cache with one
    /// `multi_get` and no `scan_range`. The batch asks for exactly the
    /// plan's cache misses, and the bytes it reads are the present
    /// cells' values (beside the two views').
    #[test]
    fn a_cold_flat_plan_reads_its_misses_with_one_multi_get() {
        let (_t, ctx) = setup(1 << 20);
        let schema = Arc::new(Schema::from_pairs(&[
            ("user", ValueType::Int),
            ("day", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let tab = ctx.create_table("flat", schema, FileFormat::Text).unwrap();
        // 8 users × 6 days, every third cell empty.
        let rows: Vec<Vec<Value>> = (0..8i64)
            .flat_map(|u| (0..6i64).map(move |d| (u, d)))
            .filter(|(u, d)| (u + d) % 3 != 0)
            .map(|(u, d)| vec![Value::Int(u), Value::Int(d), Value::Float((u * 6 + d) as f64 / 4.0)])
            .collect();
        ctx.load_rows(&tab, &rows, 2).unwrap();
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user", 0, 1),
            DimPolicy::int("day", 0, 1),
        ])
        .unwrap();
        let aggs = vec![AggFunc::Sum("power".into()), AggFunc::Count];
        let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        let (ctx2, tab2) = (Arc::clone(&ctx), Arc::clone(&tab));
        DgfIndex::build(ctx2, tab2, policy, aggs.clone(), Arc::clone(&kv), "dgf_flat").unwrap();
        let cold = DgfIndex::open(ctx, tab, Arc::clone(&kv), "dgf_flat", aggs.clone()).unwrap();
        let q = Query::GroupBy {
            key: "user".into(),
            aggs,
            predicate: Predicate::all()
                .and("user", ColumnRange::half_open(Value::Int(1), Value::Int(6)))
                .and("day", ColumnRange::half_open(Value::Int(1), Value::Int(5))),
        };
        let before = kv.stats().snapshot();
        let plan = cold.plan(&q, true).unwrap();
        let delta = kv.stats().snapshot().since(&before);
        assert!(matches!(plan.inner_states, Some(dgf_query::AggPartials::Groups(_))));
        assert_eq!(plan.pyramid_nodes, 0);
        assert_eq!((plan.cache_hits, plan.cache_misses), (0, 5 * 4));
        assert_eq!((delta.gets, delta.scans, delta.multi_gets), (2, 0, 1));
        assert_eq!(delta.multi_get_keys, plan.cache_misses);
        let present: Vec<u64> = (1..6i64)
            .flat_map(|u| (1..5i64).map(move |d| GfuKey::new(vec![u, d]).encode()))
            .filter_map(|key| kv.get(&key).unwrap())
            .map(|value| value.len() as u64)
            .collect();
        assert_eq!(plan.inner_gfus, present.len() as u64);
        assert!(plan.inner_gfus < 5 * 4, "no cell of the box is empty");
        let view = kv.get(gfu::META_VIEW_KEY).unwrap().unwrap().len() as u64;
        assert_eq!(delta.bytes_read, 2 * view + present.iter().sum::<u64>());
    }

    /// One miss is enough to read the store after the pin, and what the
    /// store returned may belong to a commit that landed since: such a
    /// plan re-reads the view, however many of its probes hit.
    #[test]
    fn a_plan_with_one_miss_rereads_the_view() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let cells = |b_hi: i64| Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(7), Value::Int(10)))
                .and("B", ColumnRange::half_open(Value::Int(13), Value::Int(b_hi))),
        };
        // Cell (2, 1), then the same cell and (2, 2) beside it.
        idx.plan(&cells(15), true).unwrap();
        let before = idx.kv.stats().snapshot();
        let plan = idx.plan(&cells(17), true).unwrap();
        let delta = idx.kv.stats().snapshot().since(&before);
        assert_eq!((plan.cache_hits, plan.cache_misses), (1, 1));
        assert_eq!(delta.multi_gets + delta.scans, 1);
        assert_eq!(delta.gets, 2, "pin and validate");
        // Its fill validated, so the repeat is warm and pins only.
        let before = idx.kv.stats().snapshot();
        assert_eq!(idx.plan(&cells(17), true).unwrap().cache_misses, 0);
        assert_eq!(idx.kv.stats().snapshot().since(&before).gets, 1);
    }

    #[test]
    fn append_invalidates_header_cache() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(7), Value::Int(10)))
                .and("B", ColumnRange::half_open(Value::Int(13), Value::Int(15))),
        };
        // Warm the cache, then change the indexed data.
        let warm = idx.plan(&q, true).unwrap();
        assert_eq!(idx.plan(&q, true).unwrap().cache_misses, 0);
        let gen_before = idx.generation();
        idx.append(&[vec![Value::Int(9), Value::Int(13), Value::Float(0.5)]])
            .unwrap();
        assert!(idx.generation() > gen_before);

        // The post-append plan must not serve any pre-append entry: the
        // epoch rolled, so every probe misses.
        let fresh = idx.plan(&q, true).unwrap();
        assert_eq!(fresh.cache_hits, 0);
        assert!(fresh.cache_misses > 0);
        assert_eq!(fresh.inner_records, warm.inner_records + 1);

        // And it matches the flat reference planned through a handle
        // over a stripped copy (so a cold cache of its own) field for
        // field: nothing stale leaked into the answer.
        let baseline = stripped(&idx, "dgf_fig5").plan(&q, true).unwrap();
        assert_eq!(baseline.cache_hits, 0);
        assert_eq!(fresh.inputs, baseline.inputs);
        assert_eq!(fresh.inner_states, baseline.inner_states);
        assert_eq!(fresh.boundary_gfus, baseline.boundary_gfus);
        assert_eq!(fresh.inner_records, baseline.inner_records);

        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        // Rows now in the region: (9,14,0.8),(8,13,0.2),(9,13,0.5).
        assert_eq!(
            run.result,
            dgf_query::QueryResult::Scalars(vec![Value::Float(1.5)])
        );
    }

    /// An infinity in an inner cell's header and another in a boundary
    /// Slice: the SUM is that infinity, from the pyramid's shape and from
    /// the flat one, and NaN only once the other sign joins.
    #[test]
    fn infinities_in_headers_and_slices_sum_to_infinity() {
        let (_t, ctx) = setup(1 << 20);
        let idx = build_figure5(&ctx);
        let inf = f64::INFINITY;
        // (8,14) lands in inner cell (2,1) of Listing 2's region, (7,12)
        // in boundary cell (2,0).
        idx.append(&[
            vec![Value::Int(8), Value::Int(14), Value::Float(inf)],
            vec![Value::Int(7), Value::Int(12), Value::Float(inf)],
        ])
        .unwrap();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("C".into())],
            predicate: Predicate::all()
                .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
                .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
        };
        let flat = stripped(&idx, "dgf_fig5");
        for (shape, index) in [("pyramid", &*idx), ("flat", &flat)] {
            let plan = index.plan(&q, true).unwrap();
            assert!(plan.inner_records > 0 && plan.boundary_gfus > 0);
            let Some(dgf_query::AggPartials::Scalar(inner)) = &plan.inner_states else {
                panic!("{shape}: no inner header states");
            };
            let set = dgf_query::AggSet::bind(&[AggFunc::Sum("C".into())], &idx.base.schema).unwrap();
            assert_eq!(set.finalize(inner), [Value::Float(inf)], "{shape}");
        }
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        assert_eq!(run.result, dgf_query::QueryResult::Scalars(vec![Value::Float(inf)]));
        // A boundary −∞ alone would answer −∞; beside +∞ it is NaN.
        idx.append(&[vec![Value::Int(11), Value::Int(15), Value::Float(-inf)]])
            .unwrap();
        let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
        let sum = run.result.into_scalars()[0].as_f64().unwrap();
        assert!(sum.is_nan(), "{sum}");
    }

    #[test]
    fn type_mismatch_rejected_at_build() {
        let (_t, ctx) = setup(1 << 20);
        let schema = Arc::new(Schema::from_pairs(&[("A", ValueType::Float)]));
        let tab = ctx.create_table("t", schema, FileFormat::Text).unwrap();
        let res = DgfIndex::build(
            Arc::clone(&ctx),
            tab,
            SplittingPolicy::new(vec![DimPolicy::int("A", 0, 1)]).unwrap(),
            vec![],
            Arc::new(MemKvStore::new()),
            "dgf_bad",
        );
        assert!(res.is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dgf_common::{FaultConfig, FaultPlan, RetryPolicy, Schema, TempDir, Value, ValueType};
    use dgf_format::FileFormat;
    use dgf_hive::HiveContext;
    use dgf_kvstore::{ChaosKv, KvStore, MemKvStore};
    use dgf_mapreduce::MrEngine;
    use dgf_query::{AggFunc, ColumnRange, Engine, Predicate, Query};
    use dgf_storage::{HdfsConfig, SimHdfs};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For an arbitrary 2-D grid, arbitrary data, and an arbitrary
        /// query rectangle, the engine's count/sum equal a brute-force
        /// fold, and the plan's inner-region record count never exceeds
        /// the number of matching records.
        #[test]
        fn random_grid_random_query_matches_brute_force(
            ia in 1i64..7,
            ib in 1i64..7,
            min_a in -5i64..5,
            rows in prop::collection::vec((0i64..40, 0i64..20, 0u32..1000), 1..120),
            qa in (0i64..40, 1i64..20),
            qb in (0i64..20, 1i64..10),
        ) {
            let t = TempDir::new("core-prop").unwrap();
            let h = SimHdfs::new(t.path(), HdfsConfig { block_size: 512, replication: 1 })
                .unwrap();
            let ctx = HiveContext::new(h, MrEngine::new(2));
            let schema = Arc::new(Schema::from_pairs(&[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("v", ValueType::Float),
            ]));
            let table = ctx.create_table("t", schema, FileFormat::Text).unwrap();
            let data: Vec<Vec<Value>> = rows
                .iter()
                .map(|(a, b, v)| {
                    vec![Value::Int(*a), Value::Int(*b), Value::Float(*v as f64 / 8.0)]
                })
                .collect();
            ctx.load_rows(&table, &data, 2).unwrap();

            let policy = SplittingPolicy::new(vec![
                DimPolicy::int("a", min_a, ia),
                DimPolicy::int("b", 0, ib),
            ])
            .unwrap();
            let (idx, _) = DgfIndex::build(
                Arc::clone(&ctx),
                table,
                policy,
                vec![AggFunc::Count, AggFunc::Sum("v".into())],
                Arc::new(MemKvStore::new()),
                "dgf_prop",
            )
            .unwrap();
            let idx = Arc::new(idx);

            let (a_lo, a_w) = qa;
            let (b_lo, b_w) = qb;
            let pred = Predicate::all()
                .and("a", ColumnRange::half_open(Value::Int(a_lo), Value::Int(a_lo + a_w)))
                .and("b", ColumnRange::half_open(Value::Int(b_lo), Value::Int(b_lo + b_w)));
            let q = Query::Aggregate {
                aggs: vec![AggFunc::Count, AggFunc::Sum("v".into())],
                predicate: pred,
            };

            // Brute force.
            let matching: Vec<&(i64, i64, u32)> = rows
                .iter()
                .filter(|(a, b, _)| {
                    *a >= a_lo && *a < a_lo + a_w && *b >= b_lo && *b < b_lo + b_w
                })
                .collect();
            let expect_count = matching.len() as i64;
            let expect_sum: f64 = matching.iter().map(|(_, _, v)| *v as f64 / 8.0).sum();

            let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
            let vals = run.result.into_scalars();
            prop_assert_eq!(vals[0].clone(), Value::Int(expect_count));
            let got_sum = match &vals[1] {
                Value::Float(x) => *x,
                Value::Null => 0.0,
                other => return Err(TestCaseError::Fail(format!("{other:?}").into())),
            };
            prop_assert_eq!(got_sum, expect_sum);

            // Plan invariants: inner records are matching records the
            // engine never reads; boundary reading covers the rest.
            let plan = idx.plan(&q, true).unwrap();
            prop_assert!(plan.inner_records <= expect_count as u64);
            prop_assert!(
                run.stats.data_records_read + plan.inner_records >= expect_count as u64
            );
        }

        /// The pyramid is a pure fetch optimization: for an arbitrary
        /// grid, arbitrary data, and an arbitrary query shape (full or
        /// partially specified rectangle, aggregation or select, headers
        /// on or off), the default plan is identical — inputs, merged
        /// header states, and every shape-independent counter — to the
        /// flat plan of the same store without its pyramid, cold and
        /// warm.
        #[test]
        fn default_plans_equal_the_flat_reference(
            ia in 1i64..7,
            ib in 1i64..7,
            min_a in -5i64..5,
            rows in prop::collection::vec((0i64..40, 0i64..20, 0u32..1000), 1..100),
            qa in (0i64..40, 1i64..20),
            qb in (0i64..20, 1i64..10),
            constrain_a in any::<bool>(),
            constrain_b in any::<bool>(),
            aggregate in any::<bool>(),
            use_headers in any::<bool>(),
        ) {
            let t = TempDir::new("core-prop-eq").unwrap();
            let h = SimHdfs::new(t.path(), HdfsConfig { block_size: 512, replication: 1 })
                .unwrap();
            let ctx = HiveContext::new(h, MrEngine::new(2));
            let schema = Arc::new(Schema::from_pairs(&[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("v", ValueType::Float),
            ]));
            let table = ctx.create_table("t", schema, FileFormat::Text).unwrap();
            let data: Vec<Vec<Value>> = rows
                .iter()
                .map(|(a, b, v)| {
                    vec![Value::Int(*a), Value::Int(*b), Value::Float(*v as f64 / 8.0)]
                })
                .collect();
            ctx.load_rows(&table, &data, 2).unwrap();

            let policy = SplittingPolicy::new(vec![
                DimPolicy::int("a", min_a, ia),
                DimPolicy::int("b", 0, ib),
            ])
            .unwrap();
            let (idx, _) = DgfIndex::build(
                Arc::clone(&ctx),
                table,
                policy,
                vec![AggFunc::Count, AggFunc::Sum("v".into())],
                Arc::new(MemKvStore::new()),
                "dgf_prop_eq",
            )
            .unwrap();
            let idx = Arc::new(idx);

            // Partially specified rectangles exercise the full-extent
            // run folding; select queries exercise the headers-off path.
            let (a_lo, a_w) = qa;
            let (b_lo, b_w) = qb;
            let mut pred = Predicate::all();
            if constrain_a {
                pred = pred.and(
                    "a",
                    ColumnRange::half_open(Value::Int(a_lo), Value::Int(a_lo + a_w)),
                );
            }
            if constrain_b {
                pred = pred.and(
                    "b",
                    ColumnRange::half_open(Value::Int(b_lo), Value::Int(b_lo + b_w)),
                );
            }
            let q = if aggregate {
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("v".into())],
                    predicate: pred,
                }
            } else {
                Query::Select {
                    project: vec!["a".into(), "v".into()],
                    predicate: pred,
                }
            };

            // Cold run, then warm run served from the header cache.
            let cold = idx.plan(&q, use_headers).unwrap();
            prop_assert_eq!(cold.cache_hits, 0);
            let warm = idx.plan(&q, use_headers).unwrap();
            prop_assert_eq!(warm.cache_misses, 0);
            prop_assert_eq!(warm.cache_hits, cold.cache_misses);
            prop_assert_eq!(cold.inner_gfus, warm.inner_gfus);

            // The reference is a stripped copy's plan; it counts cells
            // where the default may count nodes, so `inner_gfus` is the
            // one field not compared.
            let base = super::tests::stripped(&idx, "dgf_prop_eq").plan(&q, use_headers).unwrap();
            for plan in [&cold, &warm] {
                prop_assert_eq!(&base.inputs, &plan.inputs);
                prop_assert_eq!(&base.chosen_splits, &plan.chosen_splits);
                prop_assert_eq!(&base.inner_states, &plan.inner_states);
                prop_assert_eq!(base.boundary_gfus, plan.boundary_gfus);
                prop_assert_eq!(base.inner_records, plan.inner_records);
                prop_assert_eq!(base.splits_total, plan.splits_total);
                prop_assert_eq!(base.splits_read, plan.splits_read);
            }
        }

        /// Transient faults are invisible above the retry layer: an
        /// index built and queried through a chaos key-value store and a
        /// fault-injecting file system (generous retry budget) plans and
        /// answers identically to a fault-free twin over the same data —
        /// and the accounting closes exactly: every injected fault shows
        /// up as one absorbed retry, in the kv or file-system counters.
        #[test]
        fn transient_faults_leave_plans_and_answers_identical(
            ia in 1i64..7,
            ib in 1i64..7,
            min_a in -5i64..5,
            rows in prop::collection::vec((0i64..40, 0i64..20, 0u32..1000), 1..80),
            qa in (0i64..40, 1i64..20),
            qb in (0i64..20, 1i64..10),
            seed in 1u64..1_000_000,
        ) {
            let data: Vec<Vec<Value>> = rows
                .iter()
                .map(|(a, b, v)| {
                    vec![Value::Int(*a), Value::Int(*b), Value::Float(*v as f64 / 8.0)]
                })
                .collect();
            let policy = || {
                SplittingPolicy::new(vec![
                    DimPolicy::int("a", min_a, ia),
                    DimPolicy::int("b", 0, ib),
                ])
                .unwrap()
            };
            let build_world = |plan: Option<&Arc<FaultPlan>>| {
                let t = TempDir::new("core-prop-fault").unwrap();
                let h =
                    SimHdfs::new(t.path(), HdfsConfig { block_size: 512, replication: 1 })
                        .unwrap();
                let ctx = HiveContext::new(h, MrEngine::new(2));
                let schema = Arc::new(Schema::from_pairs(&[
                    ("a", ValueType::Int),
                    ("b", ValueType::Int),
                    ("v", ValueType::Float),
                ]));
                let table = ctx.create_table("t", schema, FileFormat::Text).unwrap();
                ctx.load_rows(&table, &data, 2).unwrap();
                let inner: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
                let (kv, options): (Arc<dyn KvStore>, IndexOptions) = match plan {
                    Some(p) => {
                        ctx.hdfs.enable_faults(Arc::clone(p), RetryPolicy::fast(64));
                        (
                            Arc::new(ChaosKv::new(Arc::clone(&inner), Arc::clone(p))),
                            IndexOptions {
                                retry: RetryPolicy::fast(64),
                                ..IndexOptions::default()
                            },
                        )
                    }
                    None => (inner, IndexOptions::default()),
                };
                let (idx, _) = DgfIndex::build_with_options(
                    Arc::clone(&ctx),
                    table,
                    policy(),
                    vec![AggFunc::Count, AggFunc::Sum("v".into())],
                    kv,
                    "dgf_prop_fault",
                    options,
                )
                .unwrap();
                (t, ctx, Arc::new(idx))
            };

            let (_t1, clean_ctx, clean) = build_world(None);
            let plan = Arc::new(FaultPlan::new(FaultConfig::transient(seed, 0.4)));
            let (_t2, noisy_ctx, noisy) = build_world(Some(&plan));

            let (a_lo, a_w) = qa;
            let (b_lo, b_w) = qb;
            let q = Query::Aggregate {
                aggs: vec![AggFunc::Count, AggFunc::Sum("v".into())],
                predicate: Predicate::all()
                    .and("a", ColumnRange::half_open(Value::Int(a_lo), Value::Int(a_lo + a_w)))
                    .and("b", ColumnRange::half_open(Value::Int(b_lo), Value::Int(b_lo + b_w))),
            };

            // Plans are identical field by field (cold, so both hit the
            // store — the chaos one through its retry loops).
            let base = clean.plan(&q, true).unwrap();
            let chaos = noisy.plan(&q, true).unwrap();
            prop_assert_eq!(&base.inputs, &chaos.inputs);
            prop_assert_eq!(&base.chosen_splits, &chaos.chosen_splits);
            prop_assert_eq!(&base.inner_states, &chaos.inner_states);
            prop_assert_eq!(base.inner_gfus, chaos.inner_gfus);
            prop_assert_eq!(base.boundary_gfus, chaos.boundary_gfus);
            prop_assert_eq!(base.inner_records, chaos.inner_records);
            prop_assert_eq!(base.splits_total, chaos.splits_total);
            prop_assert_eq!(base.splits_read, chaos.splits_read);
            prop_assert_eq!(base.retries_absorbed, 0);

            // Answers are identical too.
            let clean_run = DgfEngine::new(Arc::clone(&clean)).run(&q).unwrap();
            let noisy_run = DgfEngine::new(Arc::clone(&noisy)).run(&q).unwrap();
            prop_assert_eq!(noisy_run.result, clean_run.result);
            prop_assert_eq!(clean_run.stats.retries_absorbed, 0);
            prop_assert_eq!(clean_run.stats.splits_read, noisy_run.stats.splits_read);
            prop_assert_eq!(
                clean_run.stats.data_records_read,
                noisy_run.stats.data_records_read
            );

            // The noise was real, and every injected fault was absorbed
            // by exactly one counted retry somewhere in the stack.
            let injected = plan.faults_injected();
            prop_assert!(injected > 0, "schedule produced no faults");
            let absorbed = noisy.kv.stats().retries_absorbed.get()
                + noisy_ctx.hdfs.stats().retries.get();
            prop_assert_eq!(absorbed, injected);
            let clean_absorbed = clean.kv.stats().retries_absorbed.get()
                + clean_ctx.hdfs.stats().retries.get();
            prop_assert_eq!(clean_absorbed, 0);
        }
    }
}

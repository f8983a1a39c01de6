//! Cross-engine agreement: every engine in the workspace must return the
//! same answer as a full table scan for every query shape at every
//! selectivity — the property that makes the benchmark comparisons
//! measurements of cost rather than correctness drift.

use std::sync::Arc;

use dgfindex::common::codec;
use dgfindex::hadoopdb::{HadoopDb, HadoopDbConfig, HadoopDbEngine};
use dgfindex::hive::BuildReport;
use dgfindex::prelude::*;
use dgfindex::workload::{
    aggregation_query, generate_meter_data, generate_user_info, group_by_query, join_query,
    meter_schema, partial_query, user_info_schema, MeterConfig, Selectivity,
};

struct World {
    _tmp: TempDir,
    cfg: MeterConfig,
    ctx: Arc<HiveContext>,
    meter_text: TableRef,
    meter_rc: TableRef,
    users: TableRef,
    dgf: Arc<DgfIndex>,
    compact: Arc<CompactIndex>,
    compact_report: BuildReport,
    bitmap: Arc<BitmapIndex>,
    bitmap_report: BuildReport,
    hadoopdb: Arc<HadoopDb>,
}

fn build_world() -> World {
    let cfg = MeterConfig {
        users: 500,
        regions: 11,
        days: 20,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let user_rows = generate_user_info(&cfg);

    let tmp = TempDir::new("agree").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path().join("hdfs"),
        HdfsConfig {
            block_size: 128 * 1024,
            replication: 1,
        },
    )
    .unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(4));
    let meter_text = ctx
        .create_table("meter_text", meter_schema(), FileFormat::Text)
        .unwrap();
    ctx.load_rows(&meter_text, &rows, 3).unwrap();
    let meter_rc = ctx
        .create_table("meter_rc", meter_schema(), FileFormat::RcFile)
        .unwrap();
    ctx.load_rows(&meter_rc, &rows, 3).unwrap();
    let users = ctx
        .create_table("user_info", user_info_schema(), FileFormat::Text)
        .unwrap();
    ctx.load_rows(&users, &user_rows, 1).unwrap();

    let policy = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 25),
        DimPolicy::int("region_id", 0, 1),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])
    .unwrap();
    let (dgf, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&meter_text),
        policy,
        vec![AggFunc::Sum("power_consumed".into())],
        Arc::new(MemKvStore::new()),
        "dgf_meter",
    )
    .unwrap();

    let (compact, compact_report) = CompactIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&meter_rc),
        vec!["region_id".into(), "ts".into()],
        "compact2",
    )
    .unwrap();
    let (bitmap, bitmap_report) = BitmapIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&meter_rc),
        vec!["region_id".into(), "ts".into()],
        "bitmap2",
    )
    .unwrap();
    let mut hdb = HadoopDb::load(
        tmp.path().join("hdb"),
        (*meter_schema()).clone(),
        &rows,
        "user_id",
        &["region_id", "ts"],
        HadoopDbConfig {
            nodes: 3,
            chunks_per_node: 3,
            node_parallelism: 2,
            per_chunk_overhead: std::time::Duration::ZERO,
        },
    )
    .unwrap();
    hdb.replicate_right((*user_info_schema()).clone(), user_rows);

    World {
        _tmp: tmp,
        cfg,
        ctx,
        meter_text,
        meter_rc,
        users,
        dgf: Arc::new(dgf),
        compact: Arc::new(compact),
        compact_report,
        bitmap: Arc::new(bitmap),
        bitmap_report,
        hadoopdb: Arc::new(hdb),
    }
}

fn check_all(w: &World, query: &Query, label: &str) {
    let truth = ScanEngine::new(Arc::clone(&w.ctx), Arc::clone(&w.meter_text))
        .with_right(Arc::clone(&w.users))
        .run(query)
        .unwrap()
        .result
        .normalized();
    let engines: Vec<(String, Box<dyn Engine>)> = vec![
        (
            "scan-rc".into(),
            Box::new(
                ScanEngine::new(Arc::clone(&w.ctx), Arc::clone(&w.meter_rc))
                    .with_right(Arc::clone(&w.users)),
            ),
        ),
        (
            "dgf".into(),
            Box::new(DgfEngine::new(Arc::clone(&w.dgf)).with_right(Arc::clone(&w.users))),
        ),
        (
            "dgf-noprecompute".into(),
            Box::new(
                DgfEngine::new(Arc::clone(&w.dgf))
                    .without_precompute()
                    .with_right(Arc::clone(&w.users)),
            ),
        ),
        (
            "dgf-noskip".into(),
            Box::new(
                DgfEngine::new(Arc::clone(&w.dgf))
                    .without_slice_skipping()
                    .with_right(Arc::clone(&w.users)),
            ),
        ),
        (
            "compact".into(),
            Box::new(CompactEngine::new(Arc::clone(&w.compact)).with_right(Arc::clone(&w.users))),
        ),
        (
            "bitmap".into(),
            Box::new(BitmapEngine::new(Arc::clone(&w.bitmap)).with_right(Arc::clone(&w.users))),
        ),
        (
            "hadoopdb".into(),
            Box::new(HadoopDbEngine::new(Arc::clone(&w.hadoopdb))),
        ),
    ];
    for (name, engine) in engines {
        let got = engine.run(query).unwrap().result.normalized();
        assert_eq!(got, truth, "{label}: engine {name} disagrees with scan");
    }
}

/// FNV-1a over the `(path, bytes)` pairs of every file of `table`, in
/// path order: one number that moves when any written byte does.
fn table_digest(w: &World, table: &TableRef) -> u64 {
    let mut buf = Vec::new();
    for (path, _) in w.ctx.hdfs.list_files(&table.location) {
        codec::put_str(&mut buf, &path);
        codec::put_bytes(&mut buf, &w.ctx.hdfs.read_file(&path).unwrap());
    }
    codec::fnv1a(&buf)
}

/// The Hive baselines to the byte and the record. Each index table's
/// `BuildReport` entries and bytes and the digest of its files; then
/// `scan-rc`, `compact` and `bitmap`, run in this order at each of the
/// paper's aggregation selectivities, with their
/// `(data_records_read, data_bytes_read, index_records_read, splits_read,
/// splits_total)`.
#[test]
fn baseline_index_tables_and_costs_are_pinned() {
    let w = build_world();
    let (aggregate, aggregate_report) = AggregateIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&w.meter_rc),
        vec!["region_id".into(), "ts".into()],
        "aggregate2",
    )
    .unwrap();
    let built: Vec<(u64, u64, u64)> = [
        (&w.compact_report, w.compact.index_table()),
        (&w.bitmap_report, w.bitmap.index_table()),
        (&aggregate_report, aggregate.index_table()),
    ]
    .into_iter()
    .map(|(r, table)| (r.index_entries, r.index_size_bytes, table_digest(&w, table)))
    .collect();
    assert_eq!(
        built,
        [
            (242, 11_154, 17_197_765_161_965_772_194),
            (242, 127_556, 14_370_976_973_536_353_442),
            (242, 11_880, 3_667_775_989_127_765_256),
        ]
    );

    let engines: [Box<dyn Engine>; 3] = [
        Box::new(ScanEngine::new(Arc::clone(&w.ctx), Arc::clone(&w.meter_rc))),
        Box::new(CompactEngine::new(Arc::clone(&w.compact))),
        Box::new(BitmapEngine::new(Arc::clone(&w.bitmap))),
    ];
    let mut costs = Vec::new();
    for sel in Selectivity::paper_settings() {
        let q = aggregation_query(&w.cfg, sel);
        for engine in &engines {
            let s = engine.run(&q).unwrap().stats;
            costs.push((
                s.data_records_read,
                s.data_bytes_read,
                s.index_records_read,
                s.splits_read,
                s.splits_total,
            ));
        }
    }
    let (scan, one, two) = ((10_000, 1_510_240, 0, 12, 12), 503_514, 1_007_028);
    assert_eq!(
        costs,
        [
            scan,
            (3_334, one, 242, 1, 12),
            (500, one, 242, 1, 12),
            scan,
            (3_334, one, 242, 1, 12),
            (2_500, one, 242, 1, 12),
            scan,
            (6_668, two, 242, 2, 12),
            (3_500, two, 242, 2, 12),
        ]
    );
}

#[test]
fn aggregation_queries_agree_at_all_selectivities() {
    let w = build_world();
    for sel in Selectivity::paper_settings() {
        let q = aggregation_query(&w.cfg, sel);
        check_all(&w, &q, &format!("aggregation {}", sel.label()));
    }
}

/// GROUP BY `ts` (one-day cells) answers each day's inner cells from
/// headers and still agrees with the scan; GROUP BY `user_id` (25 users
/// a cell, so a cell spans 25 groups) reads no header and agrees too.
#[test]
fn group_by_queries_agree_at_all_selectivities() {
    let w = build_world();
    for sel in Selectivity::paper_settings() {
        let q = group_by_query(&w.cfg, sel);
        check_all(&w, &q, &format!("group-by {}", sel.label()));
        let plan = w.dgf.plan(&q, true).unwrap();
        if sel != Selectivity::Point {
            assert!(
                plan.inner_records > 0,
                "group-by {}: no header answered",
                sel.label()
            );
        }
        let Query::GroupBy {
            aggs, predicate, ..
        } = q
        else {
            unreachable!("group_by_query builds a GROUP BY")
        };
        let by_user = Query::GroupBy {
            key: "user_id".into(),
            aggs,
            predicate,
        };
        check_all(&w, &by_user, &format!("group-by user_id {}", sel.label()));
        assert_eq!(w.dgf.plan(&by_user, true).unwrap().inner_records, 0);
    }
}

#[test]
fn join_queries_agree_at_all_selectivities() {
    let w = build_world();
    for sel in Selectivity::paper_settings() {
        let q = join_query(&w.cfg, sel);
        check_all(&w, &q, &format!("join {}", sel.label()));
    }
}

#[test]
fn partial_and_edge_queries_agree() {
    let w = build_world();
    check_all(&w, &partial_query(&w.cfg), "partial");
    // Predicate with a non-indexed column mixed in.
    let q = Query::Aggregate {
        aggs: vec![AggFunc::Count, AggFunc::Min("power_consumed".into())],
        predicate: Predicate::all()
            .and("ts", ColumnRange::eq(Value::Date(w.cfg.start_day + 3)))
            .and(
                "power_consumed",
                ColumnRange::open(Value::Float(5.0), Value::Float(20.0)),
            ),
    };
    check_all(&w, &q, "mixed indexed/unindexed");
    // Empty result.
    let q = Query::Aggregate {
        aggs: vec![AggFunc::Count],
        predicate: Predicate::all().and("user_id", ColumnRange::eq(Value::Int(10_000_000))),
    };
    check_all(&w, &q, "empty");
    // Select shape.
    let q = Query::Select {
        project: vec!["user_id".into(), "power_consumed".into()],
        predicate: Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(7), Value::Int(9)))
            .and("ts", ColumnRange::eq(Value::Date(w.cfg.start_day))),
    };
    // HadoopDB/bitmap handle Select too; use the full checker.
    check_all(&w, &q, "select");
}

#[test]
fn random_mdrq_queries_agree() {
    let w = build_world();
    // A deterministic sweep of range shapes: aligned, misaligned, thin,
    // wide, single-cell, cross-extent.
    let cases = [
        (0i64, 500i64, 0i64, 20i64),
        (13, 14, 0, 20),
        (0, 500, 7, 8),
        (33, 467, 3, 17),
        (25, 50, 0, 1),
        (475, 500, 19, 20),
        (-100, 1000, -5, 50),
        (250, 251, 10, 11),
    ];
    for (u0, u1, d0, d1) in cases {
        let q = Query::Aggregate {
            aggs: vec![
                AggFunc::Count,
                AggFunc::Sum("power_consumed".into()),
                AggFunc::Max("power_consumed".into()),
            ],
            predicate: Predicate::all()
                .and(
                    "user_id",
                    ColumnRange::half_open(Value::Int(u0), Value::Int(u1)),
                )
                .and(
                    "ts",
                    ColumnRange::half_open(
                        Value::Date(w.cfg.start_day + d0),
                        Value::Date(w.cfg.start_day + d1),
                    ),
                ),
        };
        check_all(&w, &q, &format!("sweep u[{u0},{u1}) d[{d0},{d1})"));
    }
}

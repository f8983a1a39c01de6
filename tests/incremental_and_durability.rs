//! Incremental append equivalence and index durability.
//!
//! * Appending data in batches must leave the index equivalent to one
//!   built from scratch over all the data (and to a scan) — the paper's
//!   rebuild-free load path.
//! * A DGFIndex whose GFU store is the persistent `LogKvStore` must
//!   survive a process restart and a torn log tail.

use std::sync::Arc;

use dgfindex::core::all_gfus;
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, meter_schema, MeterConfig};
use proptest::prelude::*;

fn world(kv: Arc<dyn KvStore>, name: &str, tmp: &TempDir) -> (Arc<HiveContext>, TableRef) {
    let hdfs = SimHdfs::open(tmp.path().join(name)).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(2));
    let table = ctx
        .create_table("meter", meter_schema(), FileFormat::Text)
        .unwrap();
    drop(kv);
    (ctx, table)
}

fn policy(cfg: &MeterConfig) -> SplittingPolicy {
    SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 20),
        DimPolicy::int("region_id", 0, 1),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])
    .unwrap()
}

#[test]
fn appends_equal_bulk_build_and_scan() {
    let cfg = MeterConfig {
        users: 120,
        days: 12,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let tmp = TempDir::new("append-eq").unwrap();

    // Incremental: first 4 days bulk, the rest appended in 2-day batches.
    let (ctx_a, table_a) = world(Arc::new(MemKvStore::new()), "a", &tmp);
    ctx_a.load_rows(&table_a, &rows[..4 * per_day], 2).unwrap();
    let (inc, _) = DgfIndex::build(
        Arc::clone(&ctx_a),
        table_a,
        policy(&cfg),
        vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count],
        Arc::new(MemKvStore::new()),
        "dgf_inc",
    )
    .unwrap();
    let inc = Arc::new(inc);
    for batch in rows[4 * per_day..].chunks(2 * per_day) {
        inc.append(batch).unwrap();
    }

    // Bulk: all 12 days at once.
    let (ctx_b, table_b) = world(Arc::new(MemKvStore::new()), "b", &tmp);
    ctx_b.load_rows(&table_b, &rows, 2).unwrap();
    let (bulk, _) = DgfIndex::build(
        Arc::clone(&ctx_b),
        Arc::clone(&table_b),
        policy(&cfg),
        vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count],
        Arc::new(MemKvStore::new()),
        "dgf_bulk",
    )
    .unwrap();
    let bulk = Arc::new(bulk);

    // Same cells, same per-cell record counts.
    let mut inc_cells: Vec<(GfuKey, u64)> = all_gfus(inc.kv.as_ref(), 3)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.record_count))
        .collect();
    let mut bulk_cells: Vec<(GfuKey, u64)> = all_gfus(bulk.kv.as_ref(), 3)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.record_count))
        .collect();
    inc_cells.sort();
    bulk_cells.sort();
    assert_eq!(inc_cells, bulk_cells);

    // Same answers as a scan, for aligned and misaligned regions.
    let queries = [
        Query::Aggregate {
            aggs: vec![AggFunc::Count, AggFunc::Sum("power_consumed".into())],
            predicate: Predicate::all(),
        },
        Query::Aggregate {
            aggs: vec![AggFunc::Count, AggFunc::Sum("power_consumed".into())],
            predicate: Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(33), Value::Int(77)))
                .and(
                    "ts",
                    ColumnRange::half_open(
                        Value::Date(cfg.start_day + 3),
                        Value::Date(cfg.start_day + 9),
                    ),
                ),
        },
    ];
    for q in &queries {
        let truth = ScanEngine::new(Arc::clone(&ctx_b), Arc::clone(&table_b))
            .run(q)
            .unwrap()
            .result;
        let a = DgfEngine::new(Arc::clone(&inc)).run(q).unwrap().result;
        let b = DgfEngine::new(Arc::clone(&bulk)).run(q).unwrap().result;
        assert!(a.approx_eq(&truth, 1e-6), "incremental vs scan");
        assert!(b.approx_eq(&truth, 1e-6), "bulk vs scan");
    }
}

#[test]
fn dgf_index_survives_kv_restart() {
    let cfg = MeterConfig {
        users: 80,
        days: 6,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let tmp = TempDir::new("durable").unwrap();
    let kv_path = tmp.path().join("gfu.log");

    let hdfs = SimHdfs::open(tmp.path().join("hdfs")).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(2));
    let table = ctx
        .create_table("meter", meter_schema(), FileFormat::Text)
        .unwrap();
    ctx.load_rows(&table, &rows, 2).unwrap();

    let q = Query::Aggregate {
        aggs: vec![AggFunc::Sum("power_consumed".into())],
        predicate: Predicate::all().and(
            "ts",
            ColumnRange::half_open(
                Value::Date(cfg.start_day + 1),
                Value::Date(cfg.start_day + 4),
            ),
        ),
    };

    let expected = {
        let kv: Arc<dyn KvStore> = Arc::new(LogKvStore::open(&kv_path).unwrap());
        let (index, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&table),
            policy(&cfg),
            vec![AggFunc::Sum("power_consumed".into())],
            kv,
            "dgf_durable",
        )
        .unwrap();
        DgfEngine::new(Arc::new(index)).run(&q).unwrap().result
    };

    // "Restart": reopen the log store and reattach without rebuilding.
    let kv: Arc<dyn KvStore> = Arc::new(LogKvStore::open(&kv_path).unwrap());
    let index = DgfIndex::open(
        Arc::clone(&ctx),
        Arc::clone(&table),
        kv,
        "dgf_durable",
        vec![AggFunc::Sum("power_consumed".into())],
    )
    .unwrap();
    assert_eq!(*index.policy(), policy(&cfg));
    let index = Arc::new(index);
    let got = DgfEngine::new(Arc::clone(&index)).run(&q).unwrap().result;
    assert!(got.approx_eq(&expected, 1e-9));

    // Appends keep working after the restart (generation resumes).
    let extra: Vec<Row> = generate_meter_data(&MeterConfig {
        users: 80,
        days: 1,
        start_day: cfg.start_day + 6,
        seed: 99,
        ..cfg.clone()
    });
    index.append(&extra).unwrap();
    let all = Query::Aggregate {
        aggs: vec![AggFunc::Count],
        predicate: Predicate::all(),
    };
    let run = DgfEngine::new(Arc::clone(&index)).run(&all).unwrap();
    assert_eq!(
        run.result.into_scalars()[0],
        Value::Int((rows.len() + extra.len()) as i64)
    );

    // Mismatched aggregates are rejected at open.
    let kv2: Arc<dyn KvStore> = Arc::new(LogKvStore::open(&kv_path).unwrap());
    assert!(DgfIndex::open(ctx, table, kv2, "dgf_durable", vec![AggFunc::Count]).is_err());
}

#[test]
fn kv_restart_preserves_all_gfus() {
    let cfg = MeterConfig {
        users: 80,
        days: 6,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let tmp = TempDir::new("durable2").unwrap();
    let kv_path = tmp.path().join("gfu.log");

    let hdfs = SimHdfs::open(tmp.path().join("hdfs")).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(2));
    let table = ctx
        .create_table("meter", meter_schema(), FileFormat::Text)
        .unwrap();
    ctx.load_rows(&table, &rows, 2).unwrap();

    let before = {
        let kv: Arc<dyn KvStore> = Arc::new(LogKvStore::open(&kv_path).unwrap());
        let (index, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&table),
            policy(&cfg),
            vec![AggFunc::Sum("power_consumed".into())],
            kv,
            "dgf_durable",
        )
        .unwrap();
        index.kv.flush().unwrap();
        let mut g = all_gfus(index.kv.as_ref(), 3).unwrap();
        g.sort_by(|a, b| a.0.cmp(&b.0));
        g
    };
    // Reopen: identical contents.
    let kv = LogKvStore::open(&kv_path).unwrap();
    let mut after = all_gfus(&kv, 3).unwrap();
    after.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(before, after);
    assert!(!before.is_empty());
    // Policy and extents metadata are intact too.
    assert!(kv.get(dgfindex::core::gfu::META_POLICY_KEY).unwrap().is_some());
    assert!(kv.get(dgfindex::core::gfu::META_EXTENT_KEY).unwrap().is_some());
}

/// One on-disk format: a store whose `m:view` is missing (built before
/// views existed) or lacks its file list and policy (published before
/// those rode the view) is upgraded once, at open, to exactly the view
/// its last commit would publish today; a store already in the current
/// format is not written to; anything else that fails to decode is a
/// clean `Corrupt`.
#[test]
fn stores_without_a_current_view_are_upgraded_once_at_open() {
    use dgfindex::common::codec;
    use dgfindex::common::DgfError;
    use dgfindex::core::gfu::META_VIEW_KEY;
    use dgfindex::core::ReadView;

    let cfg = MeterConfig {
        users: 60,
        days: 6,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let tmp = TempDir::new("view-upgrade").unwrap();
    let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    let (ctx, table) = world(Arc::clone(&kv), "w", &tmp);
    ctx.load_rows(&table, &rows[..4 * per_day], 2).unwrap();
    let aggs = || vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count];
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy(&cfg),
        aggs(),
        Arc::clone(&kv),
        "dgf_upgrade",
    )
    .unwrap();
    index.append(&rows[4 * per_day..]).unwrap();

    let queries = [
        Query::Aggregate {
            aggs: aggs(),
            predicate: Predicate::all(),
        },
        Query::Aggregate {
            aggs: aggs(),
            predicate: Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(7), Value::Int(51)))
                .and(
                    "ts",
                    ColumnRange::half_open(
                        Value::Date(cfg.start_day + 1),
                        Value::Date(cfg.start_day + 5),
                    ),
                ),
        },
    ];
    let answers = |index: DgfIndex| -> Vec<QueryResult> {
        let engine = DgfEngine::new(Arc::new(index));
        queries.iter().map(|q| engine.run(q).unwrap().result).collect()
    };
    let before = answers(index);
    let published = ReadView::decode(&kv.get(META_VIEW_KEY).unwrap().unwrap()).unwrap();
    assert!(published.data_files.len() > 1, "append added no data file");

    let reopen = || DgfIndex::open(Arc::clone(&ctx), Arc::clone(&table), Arc::clone(&kv), "dgf_upgrade", aggs());
    let stored = || ReadView::decode(&kv.get(META_VIEW_KEY).unwrap().unwrap()).unwrap();
    let puts = || kv.stats().puts.get();

    // The layout builds published before the file list and the policy
    // rode the view: both presence flags clear, no policy tail.
    let mut partial = Vec::new();
    codec::put_u64(&mut partial, published.generation);
    codec::put_u32(&mut partial, 0);
    codec::put_u64(&mut partial, published.watermark);
    codec::put_u32(&mut partial, 1);
    codec::put_u64(&mut partial, published.files);
    codec::put_bytes(&mut partial, &published.extents.encode());
    codec::put_u32(&mut partial, 0);

    for old_state in [None, Some(partial)] {
        match &old_state {
            None => assert!(kv.delete(META_VIEW_KEY).unwrap()),
            Some(bytes) => kv.put(META_VIEW_KEY, bytes).unwrap(),
        }
        let upgraded = reopen().unwrap();
        assert_eq!(stored(), published, "upgrade from {old_state:?}");
        assert_eq!(answers(upgraded), before);
        // Already current: the next open writes nothing.
        let puts_before = puts();
        assert_eq!(answers(reopen().unwrap()), before);
        assert_eq!(puts(), puts_before, "a current store was written at open");
    }

    kv.put(META_VIEW_KEY, b"not a view").unwrap();
    assert!(matches!(reopen(), Err(DgfError::Corrupt(_))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random append batch splits always equal the bulk build.
    #[test]
    fn random_append_batches_equal_bulk(splits in prop::collection::vec(1usize..5, 1..4)) {
        let cfg = MeterConfig { users: 40, days: 8, ..MeterConfig::default() };
        let rows = generate_meter_data(&cfg);
        let tmp = TempDir::new("append-prop").unwrap();

        let hdfs = SimHdfs::open(tmp.path().join("h")).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let table = ctx.create_table("meter", meter_schema(), FileFormat::Text).unwrap();
        // Initial slice: one day.
        let per_day = rows.len() / cfg.days as usize;
        ctx.load_rows(&table, &rows[..per_day], 1).unwrap();
        let (index, _) = DgfIndex::build(
            Arc::clone(&ctx),
            table,
            policy(&cfg),
            vec![AggFunc::Count],
            Arc::new(MemKvStore::new()),
            "dgf_prop",
        ).unwrap();
        let index = Arc::new(index);

        // Append the rest in batches whose sizes follow `splits` (cycled).
        let rest = &rows[per_day..];
        let mut at = 0;
        let mut si = 0;
        while at < rest.len() {
            let n = (splits[si % splits.len()] * per_day).min(rest.len() - at);
            index.append(&rest[at..at + n]).unwrap();
            at += n;
            si += 1;
        }

        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let run = DgfEngine::new(Arc::clone(&index)).run(&q).unwrap();
        prop_assert_eq!(run.result.into_scalars()[0].clone(), Value::Int(rows.len() as i64));
    }
}

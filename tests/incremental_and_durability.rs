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
    let stored = kv.get(dgfindex::core::gfu::META_VIEW_KEY).unwrap().unwrap();
    let view = dgfindex::core::ReadView::decode(&stored).unwrap();
    assert_eq!(SplittingPolicy::decode(&view.policy).unwrap(), policy(&cfg));
    assert!(!view.extents.is_empty());
}

/// One on-disk format. Every layout a build ever wrote — no `m:view`
/// (before views existed), the view whose file list and policy sat
/// behind presence flags, and that view complete with the seven side
/// keys every commit used to re-put beside it — is upgraded once, at
/// open, to exactly the view its last commit would publish today, and
/// the side keys are deleted; a store already in the current format is
/// not written to; anything that fails to decode is a clean `Corrupt`.
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
    index.append_with_watermark(&rows[4 * per_day..], Some(7)).unwrap();

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
    assert_eq!(published.watermark, 7);
    assert!(published.pyramid > 0 && !published.agg_keys.is_empty());

    let reopen = || DgfIndex::open(Arc::clone(&ctx), Arc::clone(&table), Arc::clone(&kv), "dgf_upgrade", aggs());
    let stored = || ReadView::decode(&kv.get(META_VIEW_KEY).unwrap().unwrap()).unwrap();
    let writes = || (kv.stats().puts.get(), kv.len());
    let meta_keys = || -> Vec<Vec<u8>> {
        kv.scan_prefix(b"m:").unwrap().into_iter().map(|(k, _)| k).collect()
    };

    // The seven keys every commit used to put beside the view.
    let side_keys: [(&[u8], Vec<u8>); 7] = [
        (b"m:policy", published.policy.clone()),
        (b"m:extent", published.extents.encode()),
        (b"m:aggs", published.agg_keys.join("\n").into_bytes()),
        (b"m:placement", 0u32.to_le_bytes().to_vec()),
        (b"m:files", published.files.to_le_bytes().to_vec()),
        (b"m:ingest", published.watermark.to_le_bytes().to_vec()),
        (b"m:pyramid", vec![published.pyramid]),
    ];
    // The view as builds published it while its file count, file list
    // and policy each sat behind a presence flag: without the last two
    // (before they rode the view), or complete.
    let flagged = |complete: bool| {
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, published.generation);
        codec::put_u32(&mut buf, 0);
        codec::put_u64(&mut buf, published.watermark);
        codec::put_u32(&mut buf, 1);
        codec::put_u64(&mut buf, published.files);
        codec::put_bytes(&mut buf, &published.extents.encode());
        codec::put_u32(&mut buf, complete as u32);
        if complete {
            codec::put_u32(&mut buf, published.data_files.len() as u32);
            for (path, len) in &published.data_files {
                codec::put_str(&mut buf, path);
                codec::put_u64(&mut buf, *len);
            }
            codec::put_u32(&mut buf, 1);
            codec::put_bytes(&mut buf, &published.policy);
        }
        buf
    };
    let lay_out = |old_view: &Option<Vec<u8>>| {
        for (key, value) in &side_keys {
            kv.put(key, value).unwrap();
        }
        match old_view {
            None => drop(kv.delete(META_VIEW_KEY).unwrap()),
            Some(bytes) => kv.put(META_VIEW_KEY, bytes).unwrap(),
        }
    };

    let layouts = [
        ("no view", None),
        ("flagged view", Some(flagged(false))),
        ("seven-key layout", Some(flagged(true))),
    ];
    for (layout, old_view) in &layouts {
        lay_out(old_view);
        let upgraded = reopen().unwrap();
        assert_eq!(stored(), published, "upgrade from {layout}");
        assert_eq!(meta_keys(), [META_VIEW_KEY.to_vec()], "{layout}: old keys left behind");
        assert_eq!(answers(upgraded), before, "{layout}");
        // Already current: the next open writes nothing.
        let writes_before = writes();
        assert_eq!(answers(reopen().unwrap()), before);
        assert_eq!(writes(), writes_before, "{layout}: a current store was written at open");
    }

    for (key, value) in &side_keys[..2] {
        lay_out(&None);
        kv.put(key, &value[..value.len() - 1]).unwrap();
        let opened = reopen();
        assert!(matches!(opened, Err(DgfError::Corrupt(_))), "truncated {}", String::from_utf8_lossy(key));
    }
    kv.put(META_VIEW_KEY, b"not a view").unwrap();
    assert!(matches!(reopen(), Err(DgfError::Corrupt(_))));
}

/// A `MemKvStore` that records the key of every put and get, and can
/// fail the next get of one key once with a transient error.
#[derive(Default)]
struct Recorder {
    inner: MemKvStore,
    puts: std::sync::Mutex<Vec<Vec<u8>>>,
    gets: std::sync::Mutex<Vec<Vec<u8>>>,
    fail_get_once: std::sync::Mutex<Option<Vec<u8>>>,
}

impl Recorder {
    /// The keys put and got since the last call.
    fn take(&self) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        (std::mem::take(&mut self.puts.lock().unwrap()), std::mem::take(&mut self.gets.lock().unwrap()))
    }
}

impl KvStore for Recorder {
    fn put(&self, key: &[u8], value: &[u8]) -> dgfindex::common::Result<()> {
        self.puts.lock().unwrap().push(key.to_vec());
        self.inner.put(key, value)
    }
    fn get(&self, key: &[u8]) -> dgfindex::common::Result<Option<Vec<u8>>> {
        self.gets.lock().unwrap().push(key.to_vec());
        let mut fail = self.fail_get_once.lock().unwrap();
        if fail.as_deref() == Some(key) {
            *fail = None;
            return Err(dgfindex::common::DgfError::Transient("one dropped round trip".into()));
        }
        self.inner.get(key)
    }
    fn multi_get(&self, keys: &[Vec<u8>]) -> dgfindex::common::Result<Vec<Option<Vec<u8>>>> {
        self.gets.lock().unwrap().extend(keys.iter().cloned());
        self.inner.multi_get(keys)
    }
    fn delete(&self, key: &[u8]) -> dgfindex::common::Result<bool> {
        self.inner.delete(key)
    }
    fn scan_range(&self, start: &[u8], end: &[u8]) -> dgfindex::common::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan_range(start, end)
    }
    fn update(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>,
    ) -> dgfindex::common::Result<()> {
        self.inner.update(key, f)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn logical_size_bytes(&self) -> u64 {
        self.inner.logical_size_bytes()
    }
    fn flush(&self) -> dgfindex::common::Result<()> {
        self.inner.flush()
    }
    fn stats(&self) -> &dgfindex::kvstore::KvStats {
        self.inner.stats()
    }
}

/// The store's metadata is one record, pinned by counts: through build,
/// append, ingest flush, compaction and regrid the only `m:` keys are
/// `m:view` and `m:gc`; a commit that stages K keys costs exactly
/// 2K + 5 puts (3 manifest, K staged, K published, 2 view; one more for
/// `m:gc` when it retires files) and reads no `m:` key but those two;
/// `open` costs 2 gets; one plan costs 2 `m:view` gets. A side key put
/// back beside the view fails here.
#[test]
fn the_stores_metadata_is_one_record() {
    use dgfindex::core::{Maintainer, MaintenanceConfig};
    use dgfindex::ingest::{IngestConfig, StreamIngestor};

    let cfg = MeterConfig {
        users: 40,
        days: 6,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let day = |d: usize| &rows[d * per_day..(d + 1) * per_day];
    let tmp = TempDir::new("one-record").unwrap();
    let kv = Arc::new(Recorder::default());
    let (ctx, table) = world(Arc::new(MemKvStore::new()), "w", &tmp);
    let aggs = || vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count];
    let is_meta = |k: &Vec<u8>| k.starts_with(b"m:");
    // What one commit cost, from the keys it touched.
    let assert_commit = |what: &str, retires: bool| {
        let (puts, gets) = kv.take();
        let staged = puts.iter().filter(|k| k.starts_with(b"s:")).count();
        let view_puts = puts.iter().filter(|k| k.as_slice() == b"m:view").count();
        let other_meta: Vec<_> = puts.iter().filter(|k| is_meta(k) && k.as_slice() != b"m:view").collect();
        assert!(staged > 0, "{what} staged nothing");
        assert_eq!(view_puts, 2, "{what}");
        assert_eq!(other_meta, vec![b"m:gc"; retires as usize], "{what}");
        assert_eq!(puts.len(), 2 * staged + 5 + retires as usize, "{what}: puts");
        for key in gets.iter().filter(|k| is_meta(k)) {
            assert!(key.as_slice() == b"m:view" || key.as_slice() == b"m:gc", "{what} read {:?}", String::from_utf8_lossy(key));
        }
    };

    ctx.load_rows(&table, &rows[..3 * per_day], 2).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy(&cfg),
        aggs(),
        Arc::clone(&kv) as Arc<dyn KvStore>,
        "dgf_one",
    )
    .unwrap();
    assert_commit("build", false);
    let index = Arc::new(index);
    index.append(day(3)).unwrap();
    assert_commit("append", false);

    let ingest_config = IngestConfig {
        flush_rows: u64::MAX,
        auto_flush_interval: None,
        ..IngestConfig::default()
    };
    let ingestor = StreamIngestor::open(Arc::clone(&index), tmp.path().join("wal"), ingest_config).unwrap();
    ingestor.ingest(day(4)).unwrap();
    kv.take();
    assert_eq!(ingestor.flush().unwrap(), per_day as u64);
    assert_commit("ingest flush", false);
    drop(ingestor);

    let maintainer = Maintainer::new(
        Arc::clone(&index),
        MaintenanceConfig {
            delta_file_budget: 2,
            ..MaintenanceConfig::default()
        },
    );
    kv.take();
    assert!(maintainer.run_once().unwrap().compacted_files > 0);
    assert_commit("compaction", true);
    let mut dims = policy(&cfg).dims().to_vec();
    dims[0] = DimPolicy::int("user_id", 0, 10);
    maintainer.regrid_to(SplittingPolicy::new(dims).unwrap()).unwrap();
    assert_commit("regrid", true);
    index.append(day(5)).unwrap();
    assert_commit("append after regrid", false);

    let meta: Vec<Vec<u8>> = kv.scan_prefix(b"m:").unwrap().into_iter().map(|(k, _)| k).collect();
    assert_eq!(meta, [b"m:gc".to_vec(), b"m:view".to_vec()]);

    let count_all = Query::Aggregate {
        aggs: vec![AggFunc::Count],
        predicate: Predicate::all(),
    };
    index.plan(&count_all, true).unwrap();
    let (puts, gets) = kv.take();
    assert!(puts.is_empty(), "a plan wrote");
    let meta_gets: Vec<_> = gets.iter().filter(|k| is_meta(k)).collect();
    assert_eq!(meta_gets, [b"m:view", b"m:view"], "one plan");

    let reopened = DgfIndex::open(ctx, table, Arc::clone(&kv) as Arc<dyn KvStore>, "dgf_one", aggs()).unwrap();
    let (puts, gets) = kv.take();
    assert!(puts.is_empty(), "a current store was written at open");
    assert_eq!(gets, [b"t:manifest".to_vec(), b"m:view".to_vec()], "open");
    let run = DgfEngine::new(Arc::new(reopened)).run(&count_all).unwrap();
    assert_eq!(run.result.into_scalars()[0], Value::Int(rows.len() as i64));
}

/// Regression: while an append's delta file is in flight the base table
/// holds one file more than the pinned view indexed, and only the
/// manifest says why. The freshness check read that manifest with a
/// bare, unretried `get` whose error it swallowed, so one transient
/// fault turned the in-flight append into a hard "index is stale".
#[test]
fn a_transient_fault_during_an_in_flight_append_is_not_a_stale_index() {
    use dgfindex::common::DgfError;
    use dgfindex::core::txn::{TxnManifest, TXN_MANIFEST_KEY};

    let cfg = MeterConfig {
        users: 20,
        days: 2,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let tmp = TempDir::new("inflight-fault").unwrap();
    let kv = Arc::new(Recorder::default());
    let (ctx, table) = world(Arc::new(MemKvStore::new()), "w", &tmp);
    ctx.load_rows(&table, &rows, 1).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy(&cfg),
        vec![AggFunc::Count],
        Arc::clone(&kv) as Arc<dyn KvStore>,
        "dgf_inflight",
    )
    .unwrap();

    // An append caught between writing its delta and committing: the
    // Intent names the delta, the file exists, nothing else happened.
    let delta = ctx.append_file(&table, "delta-00099", &rows[..5]).unwrap();
    let staging = format!("{}_staging/txn-00099", index.data.location);
    let intent = TxnManifest::intent(99, staging, Some(delta));
    kv.put(TXN_MANIFEST_KEY, &intent.encode()).unwrap();

    let count_all = Query::Aggregate {
        aggs: vec![AggFunc::Count],
        predicate: Predicate::all(),
    };
    *kv.fail_get_once.lock().unwrap() = Some(TXN_MANIFEST_KEY.to_vec());
    match index.plan(&count_all, true) {
        Ok(_) | Err(DgfError::Transient(_)) => {}
        Err(e) => panic!("a dropped round trip surfaced as: {e}"),
    }
    assert!(kv.fail_get_once.lock().unwrap().is_none(), "the fault never fired");
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

//! Incremental append equivalence and index durability.
//!
//! * Appending data in batches must leave the index equivalent to one
//!   built from scratch over all the data (and to a scan) — the paper's
//!   rebuild-free load path.
//! * A DGFIndex whose GFU store is the persistent `LogKvStore` must
//!   survive a process restart and a torn log tail.

mod common;

use std::sync::{Arc, Mutex};

use common::{hooked, stream, KvOp};
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
        assert_eq!(a, truth, "incremental vs scan");
        assert_eq!(b, truth, "bulk vs scan");
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
    assert_eq!(got, expected);

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

/// One on-disk format: `open` reads `m:view` in its one layout or
/// refuses, and writes nothing either way. The seven side keys without a
/// view are not an index; the layout that kept the file count behind a
/// presence flag, the one that stored a Slice-placement code, and plain
/// garbage are `Corrupt`.
#[test]
fn a_store_without_a_readable_view_is_refused_not_upgraded() {
    use dgfindex::common::DgfError;
    use dgfindex::core::gfu::META_VIEW_KEY;

    let cfg = MeterConfig { users: 20, days: 2, ..MeterConfig::default() };
    let tmp = TempDir::new("view-refused").unwrap();
    let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    let (ctx, table) = world(Arc::clone(&kv), "w", &tmp);
    ctx.load_rows(&table, &generate_meter_data(&cfg), 1).unwrap();
    let aggs = || vec![AggFunc::Count];
    DgfIndex::build(Arc::clone(&ctx), Arc::clone(&table), policy(&cfg), aggs(), Arc::clone(&kv), "dgf_refused")
        .unwrap();
    let current = kv.get(META_VIEW_KEY).unwrap().unwrap();
    // After generation (8), pending (4) and watermark (8) came a u32
    // presence flag where the file count's u64 now sits.
    let flagged = [&current[..20], &1u32.to_le_bytes()[..], &current[20..]].concat();
    // A u32 placement code (0 for the key hash) came before the last
    // byte, the pyramid height.
    let (head, pyramid) = current.split_at(current.len() - 1);
    let placed = [head, &0u32.to_le_bytes()[..], pyramid].concat();

    let refused = |what: &str| {
        let before = (kv.stats().puts.get(), kv.scan_prefix(b"").unwrap());
        let err = DgfIndex::open(Arc::clone(&ctx), Arc::clone(&table), Arc::clone(&kv), "dgf_refused", aggs())
            .err()
            .unwrap_or_else(|| panic!("{what}: opened"));
        assert_eq!((kv.stats().puts.get(), kv.scan_prefix(b"").unwrap()), before, "{what}: written at open");
        err
    };
    for side_key in ["m:policy", "m:extent", "m:aggs", "m:placement", "m:files", "m:ingest", "m:pyramid"] {
        kv.put(side_key.as_bytes(), &current).unwrap();
    }
    kv.delete(META_VIEW_KEY).unwrap();
    assert!(matches!(refused("side keys, no view"), DgfError::Index(m) if m.contains("no DGFIndex metadata")));
    kv.put(META_VIEW_KEY, &flagged).unwrap();
    assert!(matches!(refused("presence-flag layout"), DgfError::Corrupt(m) if m.contains("rebuild the index")));
    kv.put(META_VIEW_KEY, &placed).unwrap();
    assert!(matches!(refused("placement-code layout"), DgfError::Corrupt(m) if m.contains("rebuild the index")));
    kv.put(META_VIEW_KEY, b"not a view").unwrap();
    assert!(matches!(refused("garbage"), DgfError::Corrupt(_)));
}

/// What a [`Recorder`] saw: the key of every put, get and delete, and
/// the value of every `t:manifest` put.
#[derive(Default)]
struct Ops {
    puts: Vec<Vec<u8>>,
    gets: Vec<Vec<u8>>,
    deletes: Vec<Vec<u8>>,
    manifests: Vec<Vec<u8>>,
}

/// Records the [`Ops`] of a `MemKvStore`, and can fail the next get of
/// one key once with a transient error.
#[derive(Default)]
struct Recorder {
    ops: Mutex<Ops>,
    fail_get_once: Mutex<Option<Vec<u8>>>,
}

impl Recorder {
    /// A recorder, and the store it records.
    fn store() -> (Arc<Recorder>, Arc<dyn KvStore>) {
        let recorder = Arc::new(Recorder::default());
        let seen = Arc::clone(&recorder);
        (recorder, hooked(Arc::new(MemKvStore::new()), move |op| seen.see(op)))
    }

    fn see(&self, op: KvOp<'_>) -> dgfindex::common::Result<()> {
        let mut ops = self.ops.lock().unwrap();
        match op {
            KvOp::Put(key, value) => {
                ops.puts.push(key.to_vec());
                if key == b"t:manifest" {
                    ops.manifests.push(value.to_vec());
                }
            }
            KvOp::Get(key) => {
                ops.gets.push(key.to_vec());
                let mut fail = self.fail_get_once.lock().unwrap();
                if fail.as_deref() == Some(key) {
                    *fail = None;
                    return Err(dgfindex::common::DgfError::Transient("one dropped round trip".into()));
                }
            }
            KvOp::MultiGet(keys) => ops.gets.extend(keys.iter().cloned()),
            KvOp::Delete(key) => ops.deletes.push(key.to_vec()),
            KvOp::ScanRange(..) => {}
        }
        Ok(())
    }

    /// The operations since the last call.
    fn take(&self) -> Ops {
        std::mem::take(&mut self.ops.lock().unwrap())
    }
}

/// The store's metadata is one record and the commit recipe has no list
/// of staged keys, pinned by counts: through build, append, ingest
/// flush, compaction and regrid the only `m:` keys are `m:view` and
/// `m:gc`; a commit that stages K keys costs exactly 2K + 4 puts
/// (2 manifest, K staged, K published, 2 view; one more for `m:gc` when
/// it retires files), K `s:` deletes and no get of an `s:` key, reads no
/// `m:` key but those two, and its Committed manifest is no longer than
/// its files, view, gc list and retired keys make it, whatever K is;
/// `open` costs 2 gets; a cold plan costs 2 `m:view` gets and its warm
/// repeat 1. A side key put
/// back beside the view, or a key list put back in the manifest, fails
/// here.
#[test]
fn the_stores_metadata_is_one_record() {
    use dgfindex::core::txn::{TxnManifest, TxnState};
    use dgfindex::core::{Maintainer, MaintenanceConfig};

    let cfg = MeterConfig {
        users: 40,
        days: 6,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let day = |d: usize| &rows[d * per_day..(d + 1) * per_day];
    let tmp = TempDir::new("one-record").unwrap();
    let (rec, kv) = Recorder::store();
    let (ctx, table) = world(Arc::new(MemKvStore::new()), "w", &tmp);
    let aggs = || vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count];
    let is_meta = |k: &Vec<u8>| k.starts_with(b"m:");
    // What one commit cost, from the keys it touched.
    let assert_commit = |what: &str, retires: bool| {
        let Ops { puts, gets, deletes, manifests } = rec.take();
        let is_staged = |k: &&Vec<u8>| k.starts_with(b"s:");
        let staged = puts.iter().filter(is_staged).count();
        let view_puts = puts.iter().filter(|k| k.as_slice() == b"m:view").count();
        let other_meta: Vec<_> = puts.iter().filter(|k| is_meta(k) && k.as_slice() != b"m:view").collect();
        assert!(staged > 0, "{what} staged nothing");
        assert_eq!(view_puts, 2, "{what}");
        assert_eq!(other_meta, vec![b"m:gc"; retires as usize], "{what}");
        assert_eq!(puts.len(), 2 * staged + 4 + retires as usize, "{what}: puts");
        assert_eq!(gets.iter().filter(is_staged).count(), 0, "{what}: gets of staged keys");
        assert_eq!(deletes.iter().filter(is_staged).count(), staged, "{what}: staged keys deleted");
        for key in gets.iter().filter(|k| is_meta(k)) {
            assert!(key.as_slice() == b"m:view" || key.as_slice() == b"m:gc", "{what} read {:?}", String::from_utf8_lossy(key));
        }
        // Intent, then the recipe: every part of it is a file, the view,
        // the gc list or a retired key — nothing grows with K.
        let [intent, committed] = manifests.as_slice() else {
            panic!("{what}: {} manifest puts", manifests.len());
        };
        assert_eq!(TxnManifest::decode(intent).unwrap().state, TxnState::Intent, "{what}");
        let m = TxnManifest::decode(committed).unwrap();
        assert_eq!(m.state, TxnState::Committed, "{what}");
        assert_eq!(m.gc.is_empty(), !retires, "{what}");
        let paths = m.staging_dir.len() + m.base_delta.map_or(0, |d| d.len());
        let renames: usize = m.renames.iter().map(|(from, to)| 8 + from.len() + to.len()).sum();
        let retired: usize = m.deletes.iter().map(|k| 4 + k.len()).sum();
        let bound = 64 + paths + renames + m.view.len() + m.gc.len() + retired;
        assert!(committed.len() <= bound, "{what}: manifest is {} B, bound {bound}", committed.len());
    };

    ctx.load_rows(&table, &rows[..3 * per_day], 2).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy(&cfg),
        aggs(),
        Arc::clone(&kv),
        "dgf_one",
    )
    .unwrap();
    assert_commit("build", false);
    let index = Arc::new(index);
    index.append(day(3)).unwrap();
    assert_commit("append", false);

    let ingestor = stream(&index, tmp.path(), u64::MAX);
    ingestor.ingest(day(4)).unwrap();
    rec.take();
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
    rec.take();
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
    let Ops { puts, gets, .. } = rec.take();
    assert!(puts.is_empty(), "a plan wrote");
    let meta_gets: Vec<_> = gets.iter().filter(|k| is_meta(k)).collect();
    assert_eq!(meta_gets, [b"m:view", b"m:view"], "one plan");

    let reopened = DgfIndex::open(ctx, table, Arc::clone(&kv), "dgf_one", aggs()).unwrap();
    let Ops { puts, gets, .. } = rec.take();
    assert!(puts.is_empty(), "a current store was written at open");
    assert_eq!(gets, [b"t:manifest".to_vec(), b"m:view".to_vec()], "open");
    let reopened = Arc::new(reopened);
    let run = DgfEngine::new(Arc::clone(&reopened)).run(&count_all).unwrap();
    assert_eq!(run.result.into_scalars()[0], Value::Int(rows.len() as i64));
    let meta_gets: Vec<_> = rec.take().gets.into_iter().filter(is_meta).collect();
    assert_eq!(meta_gets, [b"m:view", b"m:view"], "a cold plan pins and validates");
    // The repeat hits the header cache for every key: its one read is
    // the pin.
    reopened.plan(&count_all, true).unwrap();
    assert_eq!(rec.take().gets, [b"m:view"], "a warm plan");
}

/// A memtable snapshot is cut after the pin, and a flush that commits
/// between the two takes its rows out of memory: only a re-read of the
/// view shows the plan missed them. So with an ingestor attached, a
/// plan whose every probe hits the header cache still reads `m:view`
/// twice.
#[test]
fn a_warm_plan_with_an_ingestor_attached_still_validates() {
    let cfg = MeterConfig {
        users: 20,
        days: 3,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let tmp = TempDir::new("warm-ingest").unwrap();
    let (rec, kv) = Recorder::store();
    let (ctx, table) = world(Arc::new(MemKvStore::new()), "w", &tmp);
    ctx.load_rows(&table, &rows[..2 * per_day], 1).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy(&cfg),
        vec![AggFunc::Count],
        kv,
        "dgf_warm",
    )
    .unwrap();
    let index = Arc::new(index);
    let ingestor = stream(&index, tmp.path(), u64::MAX);
    ingestor.ingest(&rows[2 * per_day..]).unwrap();
    let count_all = Query::Aggregate {
        aggs: vec![AggFunc::Count],
        predicate: Predicate::all(),
    };
    let engine = DgfEngine::new(Arc::clone(&index));
    engine.run(&count_all).unwrap();
    rec.take();
    let run = engine.run(&count_all).unwrap();
    assert_eq!(run.result.into_scalars()[0], Value::Int(rows.len() as i64));
    assert_eq!(run.stats.index_cache_misses, 0, "the repeat is warm");
    assert_eq!(rec.take().gets, [b"m:view", b"m:view"], "pin and validate");
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
    let (rec, kv) = Recorder::store();
    let (ctx, table) = world(Arc::new(MemKvStore::new()), "w", &tmp);
    ctx.load_rows(&table, &rows, 1).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy(&cfg),
        vec![AggFunc::Count],
        Arc::clone(&kv),
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
    *rec.fail_get_once.lock().unwrap() = Some(TXN_MANIFEST_KEY.to_vec());
    match index.plan(&count_all, true) {
        Ok(_) | Err(DgfError::Transient(_)) => {}
        Err(e) => panic!("a dropped round trip surfaced as: {e}"),
    }
    assert!(rec.fail_get_once.lock().unwrap().is_none(), "the fault never fired");
}

/// The stage prefix is the list. A Committed transaction whose apply
/// finished and whose cleanup was cut off after deleting only some of
/// its staged keys is finished by recovery from what the prefix still
/// holds: the store ends exactly as the uninterrupted commit left it —
/// same pairs, no `s:` key, no manifest. And a manifest in a state this
/// build does not write is `Corrupt`, not a transaction to guess at.
#[test]
fn recovery_finishes_a_commit_from_the_stage_prefix() {
    use dgfindex::common::DgfError;
    use dgfindex::core::gfu::META_VIEW_KEY;
    use dgfindex::core::txn::{live_key, TxnManifest, TXN_MANIFEST_KEY};

    let cfg = MeterConfig { users: 40, days: 3, ..MeterConfig::default() };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let tmp = TempDir::new("stage-prefix").unwrap();
    let (rec, kv) = Recorder::store();
    let (ctx, table) = world(Arc::new(MemKvStore::new()), "w", &tmp);
    let aggs = || vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count];
    ctx.load_rows(&table, &rows[..2 * per_day], 2).unwrap();
    let dyn_kv = || Arc::clone(&kv);
    let (index, _) =
        DgfIndex::build(Arc::clone(&ctx), Arc::clone(&table), policy(&cfg), aggs(), dyn_kv(), "dgf_prefix").unwrap();
    rec.take();
    index.append(&rows[2 * per_day..]).unwrap();
    drop(index);
    let Ops { puts, mut manifests, .. } = rec.take();
    let committed = manifests.pop().unwrap();
    let finished = kv.scan_prefix(b"").unwrap();

    // Back to the middle of cleanup: the manifest and the pending view
    // in place, every other staged key (value as published) not yet gone.
    let staged: Vec<&Vec<u8>> = puts.iter().filter(|k| k.starts_with(b"s:")).collect();
    assert!(staged.len() > 3);
    for skey in staged.iter().step_by(2) {
        kv.put(skey, &kv.get(live_key(skey)).unwrap().unwrap()).unwrap();
    }
    kv.put(META_VIEW_KEY, &TxnManifest::decode(&committed).unwrap().view).unwrap();
    kv.put(TXN_MANIFEST_KEY, &committed).unwrap();
    let reopen = || DgfIndex::open(Arc::clone(&ctx), Arc::clone(&table), dyn_kv(), "dgf_prefix", aggs());
    let recovered = reopen().unwrap();
    assert_eq!(recovered.metrics().snapshot()["txn.recovered"], 1);
    assert_eq!(kv.scan_prefix(b"").unwrap(), finished);

    let mut unknown_state = committed;
    unknown_state[..4].copy_from_slice(&1u32.to_le_bytes());
    kv.put(TXN_MANIFEST_KEY, &unknown_state).unwrap();
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

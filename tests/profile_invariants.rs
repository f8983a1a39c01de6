//! Invariants of the observability layer (DESIGN.md §8): span trees nest,
//! profile metric totals reconcile with the legacy per-subsystem stats
//! blocks, chaos-mode retries surface in profiles, and collection is
//! inert when tracing is off.

use std::sync::Arc;

use dgfindex::common::obs::{names, Profiler};
use dgfindex::prelude::*;

/// A small warehouse with a DGFIndex whose profiler is supplied by the
/// caller: enabled for the reconciliation tests, disabled for the
/// zero-collection test, chaos-wrapped for the retry test.
struct World {
    _tmp: TempDir,
    ctx: Arc<HiveContext>,
    idx: Arc<DgfIndex>,
    fault: Option<Arc<FaultPlan>>,
}

fn build_world(profiler: Profiler, fault: Option<Arc<FaultPlan>>) -> World {
    let tmp = TempDir::new("profile-inv").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path().join("hdfs"),
        HdfsConfig {
            block_size: 64 * 1024,
            replication: 1,
        },
    )
    .unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(3));
    let schema = Arc::new(Schema::from_pairs(&[
        ("user_id", ValueType::Int),
        ("day", ValueType::Int),
        ("power", ValueType::Float),
    ]));
    let table = ctx.create_table("meter", schema, FileFormat::Text).unwrap();
    let rows: Vec<Row> = (0..4_000)
        .map(|i| {
            let i = i as i64;
            vec![
                Value::Int((i * 7) % 120),
                Value::Int((i * 13) % 30),
                Value::Float((i % 97) as f64 / 3.0),
            ]
        })
        .collect();
    ctx.load_rows(&table, &rows, 3).unwrap();

    let inner: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    let (kv, retry): (Arc<dyn KvStore>, RetryPolicy) = match &fault {
        Some(p) => {
            ctx.hdfs.enable_faults(Arc::clone(p), RetryPolicy::fast(64));
            (
                Arc::new(ChaosKv::new(Arc::clone(&inner), Arc::clone(p))),
                RetryPolicy::fast(64),
            )
        }
        None => (inner, RetryPolicy::default()),
    };
    let policy = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 8),
        DimPolicy::int("day", 0, 4),
    ])
    .unwrap();
    let (idx, _) = DgfIndex::build_with_options(
        Arc::clone(&ctx),
        table,
        policy,
        vec![AggFunc::Count, AggFunc::Sum("power".into())],
        kv,
        "dgf_profile",
        IndexOptions {
            retry,
            profiler,
            ..IndexOptions::default()
        },
    )
    .unwrap();
    World {
        _tmp: tmp,
        ctx,
        idx: Arc::new(idx),
        fault,
    }
}

/// A boundary-heavy MDRQ: both ranges are misaligned with the 8×4 grid,
/// so the plan has inner GFUs answered from headers *and* boundary
/// Slices that reach the storage layer.
fn boundary_heavy_query() -> Query {
    Query::Aggregate {
        aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
        predicate: Predicate::all()
            .and(
                "user_id",
                ColumnRange::half_open(Value::Int(3), Value::Int(101)),
            )
            .and("day", ColumnRange::half_open(Value::Int(1), Value::Int(27))),
    }
}

#[test]
fn span_trees_nest_and_cover_the_query_lifecycle() {
    let w = build_world(Profiler::enabled(), None);
    let run = DgfEngine::new(Arc::clone(&w.idx))
        .run(&boundary_heavy_query())
        .unwrap();
    let profile = &run.stats.profile;
    assert!(!profile.is_empty(), "enabled profiler collected nothing");
    let violations = profile.check_nesting();
    assert!(violations.is_empty(), "nesting violations: {violations:?}");
    // The lifecycle stages are all present, in their places.
    let root = profile.find("query").expect("query root span");
    assert!(root.find("query.plan").is_some());
    assert!(root.find("plan.meta").is_some());
    assert!(root.find("plan.fetch").is_some());
    assert!(root.find("plan.splits").is_some());
    assert!(root.find("query.scan").is_some());
}

#[test]
fn profile_totals_reconcile_with_legacy_stats_blocks() {
    let w = build_world(Profiler::enabled(), None);
    let q = boundary_heavy_query();
    let kv_before = w.idx.kv.stats().snapshot();
    let io_before = w.ctx.hdfs.stats().snapshot();
    let run = DgfEngine::new(Arc::clone(&w.idx)).run(&q).unwrap();
    let kv_delta = w.idx.kv.stats().snapshot().since(&kv_before);
    let io_delta = w.ctx.hdfs.stats().snapshot().since(&io_before);
    let profile = &run.stats.profile;

    // Every key-value operation of the run is attributed to exactly one
    // planning stage, so profile totals equal the legacy KvStats delta.
    assert!(kv_delta.read_ops() > 0);
    assert_eq!(profile.metric_total(names::KV_GETS), kv_delta.gets);
    assert_eq!(profile.metric_total(names::KV_SCANS), kv_delta.scans);
    assert_eq!(
        profile.metric_total(names::KV_MULTI_GETS),
        kv_delta.multi_gets
    );
    assert_eq!(
        profile.metric_total(names::KV_BYTES_READ),
        kv_delta.bytes_read
    );
    // Storage I/O is attributed once, to the scan stage, and matches
    // both the legacy IoStats delta and the RunStats counters.
    assert!(io_delta.bytes_read > 0, "boundary scan read no data");
    assert_eq!(
        profile.metric_total(names::HDFS_BYTES_READ),
        io_delta.bytes_read
    );
    assert_eq!(
        profile.metric_total(names::HDFS_RECORDS_READ),
        io_delta.records_read
    );
    assert_eq!(profile.metric_total(names::HDFS_BYTES_READ), run.stats.data_bytes_read);
    assert_eq!(
        profile.metric_total(names::HDFS_RECORDS_READ),
        run.stats.data_records_read
    );

    // The registry projections agree with the structs they summarize.
    let reg = dgfindex::common::MetricsRegistry::new();
    kv_delta.record_into(&reg);
    assert_eq!(reg.get(names::KV_GETS), kv_delta.gets);
    assert_eq!(reg.get(names::KV_BYTES_READ), kv_delta.bytes_read);
    let reg = dgfindex::common::MetricsRegistry::new();
    run.stats.record_into(&reg);
    assert_eq!(reg.get(names::HDFS_BYTES_READ), run.stats.data_bytes_read);
    assert_eq!(reg.get(names::PLAN_SPLITS_READ), run.stats.splits_read);
    // And the index-lifetime registry equals the lifetime snapshots.
    let reg = w.idx.metrics();
    assert_eq!(reg.get(names::KV_GETS), w.idx.kv.stats().snapshot().gets);
    assert_eq!(
        reg.get(names::HDFS_BYTES_READ),
        w.ctx.hdfs.stats().snapshot().bytes_read
    );
}

#[test]
fn columnar_scan_counters_reconcile_with_batches() {
    // An RCFile table drives the columnar path (DESIGN.md §12): the
    // scan.decode/scan.kernel spans must appear under query.scan and
    // their metrics must reconcile with group geometry, the records-read
    // I/O counter and the query's own answer.
    let tmp = TempDir::new("profile-col").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path(),
        HdfsConfig {
            block_size: 64 * 1024,
            replication: 1,
        },
    )
    .unwrap();
    let ctx = HiveContext::new(hdfs.clone(), MrEngine::new(3));
    let schema = Arc::new(Schema::from_pairs(&[
        ("user_id", ValueType::Int),
        ("day", ValueType::Int),
        ("power", ValueType::Float),
    ]));
    let created = ctx
        .create_table("meter_rc", schema, FileFormat::RcFile)
        .unwrap();
    let mut desc = (*created).clone();
    desc.rows_per_group = 256;
    let rows: Vec<Row> = (0..4_000)
        .map(|i| {
            let i = i as i64;
            vec![
                Value::Int((i * 7) % 120),
                Value::Int((i * 13) % 30),
                Value::Float((i % 97) as f64 / 3.0),
            ]
        })
        .collect();
    ctx.load_rows(&desc, &rows, 3).unwrap();
    let table: TableRef = Arc::new(desc);

    // Ground truth for the batch count: the groups actually written.
    let total_groups: u64 = hdfs
        .list_files(&table.location)
        .iter()
        .map(|(path, _)| {
            let footer = dgfindex::format::read_footer(&hdfs, path).unwrap();
            footer.group_offsets().len() as u64
        })
        .sum();
    assert!(total_groups > 3);

    let io_before = hdfs.stats().snapshot();
    let run = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&table))
        .with_profiler(Profiler::enabled())
        .run(&boundary_heavy_query())
        .unwrap();
    let io_delta = hdfs.stats().snapshot().since(&io_before);
    let profile = &run.stats.profile;
    assert!(profile.check_nesting().is_empty());

    // The kernel spans hang off the scan stage.
    let scan_span = profile.find("query.scan").expect("query.scan span");
    assert!(scan_span.find("scan.decode").is_some());
    assert!(scan_span.find("scan.kernel").is_some());

    // Batches ≡ row groups; decoded rows ≡ records read (full scan, no
    // row filter); selected rows ≡ the COUNT(*) the query returned; the
    // whole run stayed on the columnar path.
    let scan = &run.stats.scan;
    assert_eq!(scan.batches, total_groups);
    assert_eq!(profile.metric_total(names::SCAN_BATCHES), scan.batches);
    assert_eq!(scan.rows_decoded, io_delta.records_read);
    assert_eq!(scan.rows_decoded, run.stats.data_records_read);
    assert_eq!(
        profile.metric_total(names::SCAN_ROWS_DECODED),
        scan.rows_decoded
    );
    let count = run.result.clone().into_scalars()[0].as_i64().unwrap() as u64;
    assert_eq!(scan.rows_selected, count);
    assert_eq!(
        profile.metric_total(names::SCAN_ROWS_SELECTED),
        scan.rows_selected
    );
    assert_eq!(scan.rowwise_rows, 0);

    // The RunStats registry projection carries the scan counters too.
    let reg = dgfindex::common::MetricsRegistry::new();
    run.stats.record_into(&reg);
    assert_eq!(reg.get(names::SCAN_BATCHES), scan.batches);
    assert_eq!(reg.get(names::SCAN_ROWS_SELECTED), scan.rows_selected);

    // A text copy of the same table is read row by row: every record
    // lands in rowwise_rows, no batch is decoded, and the answer is the
    // same.
    let text = ctx
        .create_table("meter_txt", Arc::clone(&table.schema), FileFormat::Text)
        .unwrap();
    ctx.load_rows(&text, &rows, 3).unwrap();
    let before = ctx.scan_stats.snapshot();
    let rerun = ScanEngine::new(Arc::clone(&ctx), text)
        .run(&boundary_heavy_query())
        .unwrap();
    let delta = ctx.scan_stats.snapshot().since(&before);
    assert_eq!(delta.batches, 0);
    assert_eq!(delta.rowwise_rows, rows.len() as u64);
    assert_eq!(rerun.result, run.result, "formats disagree");

    // Every engine that reads splits of the RCFile table keeps the same
    // ledger: its `scan` is the context's delta across the run.
    let dims = vec!["user_id".to_owned(), "day".to_owned()];
    let (compact, _) =
        CompactIndex::build(Arc::clone(&ctx), Arc::clone(&table), dims.clone(), "meter_compact")
            .unwrap();
    let (bitmap, _) =
        BitmapIndex::build(Arc::clone(&ctx), Arc::clone(&table), dims, "meter_bitmap").unwrap();
    let (schema, format) = (Arc::clone(&table.schema), FileFormat::RcFile);
    let parts =
        PartitionedTable::create(Arc::clone(&ctx), "meter_day", schema, format, "day", &rows, 1)
            .unwrap();
    let engines: [Box<dyn Engine>; 3] = [
        Box::new(CompactEngine::new(Arc::new(compact))),
        Box::new(BitmapEngine::new(Arc::new(bitmap))),
        Box::new(PartitionEngine::new(Arc::new(parts))),
    ];
    for engine in engines {
        let before = ctx.scan_stats.snapshot();
        let run = engine.run(&boundary_heavy_query()).unwrap();
        let delta = ctx.scan_stats.snapshot().since(&before);
        assert_eq!(run.stats.scan, delta, "{}", engine.name());
        assert!(delta.batches > 0, "{}", engine.name());
    }
}

/// What reading one plan must cost the storage layer, worked out from
/// the plan's inputs and the footers of the files they name. `files` and
/// `footer_bytes` count the cold files only: those whose footer the
/// context has not read yet.
#[derive(Debug, Default, PartialEq)]
struct SliceReadCost {
    files: u64,
    inputs: u64,
    groups: u64,
    runs: u64,
    frame_bytes: u64,
    footer_bytes: u64,
    /// Runs per input, in plan order.
    runs_per_input: Vec<u64>,
}

/// [`SliceReadCost`] of `inputs` on a context that holds the footers of
/// the files in `warm`; the plan's files are warm afterwards.
fn slice_read_cost(
    hdfs: &Arc<SimHdfs>,
    inputs: &[dgfindex::hive::ScanInput],
    warm: &mut std::collections::BTreeSet<String>,
) -> SliceReadCost {
    use dgfindex::hive::ScanInput;
    let mut cost = SliceReadCost::default();
    let mut footers = std::collections::BTreeMap::new();
    for input in inputs {
        let (ranges, filter) = match input {
            ScanInput::RcRanges { ranges, .. } => (ranges, None),
            ScanInput::RcPruned { ranges, row_filter, .. } => (ranges, Some(row_filter)),
            other => panic!("a DGF plan over an RCFile index made {other:?}"),
        };
        let footer = footers.entry(input.path().to_owned()).or_insert_with(|| {
            let footer = dgfindex::format::read_footer(hdfs, input.path()).unwrap();
            if warm.insert(input.path().to_owned()) {
                let file_len = hdfs.file_len(input.path()).unwrap();
                // The 12-byte tail, then the directory with the tail again.
                cost.footer_bytes += 12 + (file_len - footer.frames_end());
                cost.files += 1;
            }
            footer
        });
        let offsets = footer.group_offsets();
        let kept: Vec<usize> = (0..offsets.len())
            .filter(|i| ranges.iter().any(|r| r.start <= offsets[*i] && offsets[*i] < r.end))
            .filter(|i| filter.is_none_or(|f| f.contains_key(&offsets[*i])))
            .collect();
        let runs = kept
            .iter()
            .enumerate()
            .filter(|(n, i)| *n == 0 || kept[n - 1] + 1 != **i)
            .count() as u64;
        cost.inputs += 1;
        cost.groups += kept.len() as u64;
        cost.runs += runs;
        cost.runs_per_input.push(runs);
        for i in kept {
            let end = offsets.get(i + 1).copied().unwrap_or(footer.frames_end());
            cost.frame_bytes += end - offsets[i];
        }
    }
    cost
}

/// Meter-shaped data over an RCFile DGF index: a user lives in one
/// region and reports twice a day. Powers are multiples of 1/4, so a
/// sum is exact in any row order and the reorganized table must give
/// the base table's bits. The grid cuts 10 users, 1 region and 1 day.
struct Series {
    _tmp: TempDir,
    hdfs: Arc<SimHdfs>,
    ctx: Arc<HiveContext>,
    table: TableRef,
    idx: Arc<DgfIndex>,
}

const SERIES_USERS: i64 = 60;

fn series() -> Series {
    series_as(FileFormat::RcFile)
}

/// [`series`] stored as `format`.
fn series_as(format: FileFormat) -> Series {
    let schema = Arc::new(Schema::from_pairs(&[
        ("user_id", ValueType::Int),
        ("region", ValueType::Int),
        ("day", ValueType::Int),
        ("power", ValueType::Float),
    ]));
    let rows: Vec<Row> = (0..SERIES_USERS)
        .flat_map(|user| (0..30i64).flat_map(move |day| (0..2i64).map(move |k| (user, day, k))))
        .map(|(user, day, k)| {
            vec![
                Value::Int(user),
                Value::Int(user % 4),
                Value::Int(day),
                Value::Float(((user * 31 + day * 7 + k) % 97) as f64 * 0.25),
            ]
        })
        .collect();
    let tmp = TempDir::new("profile-runs").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path(),
        HdfsConfig {
            block_size: 64 * 1024,
            replication: 1,
        },
    )
    .unwrap();
    let ctx = HiveContext::new(hdfs.clone(), MrEngine::new(3));
    let table = ctx
        .create_table("meter_rc", schema, format)
        .unwrap();
    ctx.load_rows(&table, &rows, 3).unwrap();
    let policy = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 10),
        DimPolicy::int("region", 0, 1),
        DimPolicy::int("day", 0, 1),
    ])
    .unwrap();
    let (idx, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&table),
        policy,
        vec![AggFunc::Count, AggFunc::Sum("power".into())],
        Arc::new(MemKvStore::new()),
        "dgf_runs",
    )
    .unwrap();
    Series {
        _tmp: tmp,
        hdfs,
        ctx,
        table,
        idx: Arc::new(idx),
    }
}

#[test]
fn slice_reads_cost_one_open_per_input_and_one_seek_per_run() {
    let user_rows: Vec<Row> = (0..SERIES_USERS)
        .map(|u| vec![Value::Int(u), Value::Str(format!("user-{u}"))])
        .collect();
    // One (user cell, region) prefix over ten days: ten GFUs that are
    // neighbours in key order. Grouped on a column the grid does not cut
    // on, so the headers cannot answer and every Slice is read.
    let one_prefix = Predicate::all()
        .and("user_id", ColumnRange::half_open(Value::Int(10), Value::Int(20)))
        .and("region", ColumnRange::eq(Value::Int(2)))
        .and("day", ColumnRange::half_open(Value::Int(5), Value::Int(15)));
    let group_by = Query::GroupBy {
        key: "power".into(),
        aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
        predicate: one_prefix,
    };
    let join = Query::Join {
        left_key: "user_id".into(),
        right_key: "user_id".into(),
        left_project: vec!["day".into(), "power".into()],
        right_project: vec!["name".into()],
        predicate: Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(10), Value::Int(30)))
            .and("day", ColumnRange::half_open(Value::Int(5), Value::Int(15))),
    };

    let Series {
        _tmp,
        hdfs,
        ctx,
        table,
        idx,
    } = series();
    let users = ctx
        .create_table(
            "users",
            Arc::new(Schema::from_pairs(&[
                ("user_id", ValueType::Int),
                ("name", ValueType::Str),
            ])),
            FileFormat::Text,
        )
        .unwrap();
    ctx.load_rows(&users, &user_rows, 1).unwrap();

    // What the JOIN pays for its dimension table, on its own.
    let before = hdfs.stats().snapshot();
    assert_eq!(ctx.read_all(&users).unwrap().len(), user_rows.len());
    let dim = hdfs.stats().snapshot().since(&before);
    assert!(dim.opens > 0 && dim.bytes_read > 0);

    // The join runs twice on one context: the first pays one read of
    // the dimension table, the second reuses its build side and pays
    // for its Slices alone. A file's footer is read by the first scan
    // that opens it (cold: opens = files + inputs, seeks = 2 × files +
    // runs, bytes = frames + footers); every later scan of it reads
    // frames alone (warm: opens = inputs, seeks = runs, bytes = frames).
    let mut warm = std::collections::BTreeSet::new();
    let sequence = [(&group_by, 0), (&join, 1), (&join, 0)];
    for (n, (query, dim_reads)) in sequence.into_iter().enumerate() {
        let plan = idx.plan(query, true).unwrap();
        let want = slice_read_cost(&hdfs, &plan.inputs, &mut warm);
        assert!(want.groups >= 10 && want.inputs > 0, "{want:?}");
        match n {
            0 => assert!(want.files > 0 && want.footer_bytes > 0, "the first scan is cold"),
            2 => assert_eq!((want.files, want.footer_bytes), (0, 0), "a repeated scan is warm"),
            _ => {}
        }

        let io_before = hdfs.stats().snapshot();
        let scan_before = ctx.scan_stats.snapshot();
        let sink = dgfindex::hive::execute_sink(
            &ctx,
            &idx.data,
            query,
            Some(&*users),
            plan.inputs.clone(),
        )
        .unwrap();
        let io = hdfs.stats().snapshot().since(&io_before);
        let scan = ctx.scan_stats.snapshot().since(&scan_before);
        let label = format!("{want:?}");
        assert_eq!(io.opens - dim_reads * dim.opens, want.files + want.inputs, "{label}");
        assert_eq!(io.seeks - dim_reads * dim.seeks, 2 * want.files + want.runs, "{label}");
        assert_eq!(
            io.bytes_read - dim_reads * dim.bytes_read,
            want.frame_bytes + want.footer_bytes,
            "{label}"
        );
        assert_eq!(scan.batches, want.groups, "{label}");
        assert_eq!(scan.rowwise_rows, 0);
        assert_eq!(
            (scan.footer_reads, scan.footer_reuses),
            (want.files, want.inputs - want.files),
            "{label}"
        );
        let joins = u64::from(std::ptr::eq(query, &join));
        assert_eq!(
            (scan.join_builds, scan.join_build_reuses),
            (dim_reads, joins - dim_reads),
            "{label}"
        );

        // The same bits as a scan of the base table, from the sink
        // and from the engine.
        let oracle = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&table))
            .with_right(Arc::clone(&users))
            .run(query)
            .unwrap()
            .result
            .normalized();
        let served = DgfEngine::new(Arc::clone(&idx))
            .with_right(Arc::clone(&users))
            .run(query)
            .unwrap();
        for got in [sink.finish().normalized(), served.result.normalized()] {
            assert_eq!(got, oracle, "{label}");
            if let (QueryResult::Groups(g), QueryResult::Groups(o)) = (&got, &oracle) {
                assert!(g.len() > 1);
                for ((_, a), (_, b)) in g.iter().zip(o) {
                    for (a, b) in a.iter().zip(b) {
                        if let (Value::Float(a), Value::Float(b)) = (a, b) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{label}");
                        }
                    }
                }
            }
        }
        if std::ptr::eq(query, &group_by) {
            // The one-prefix series under the key-hash shuffle: one run
            // in each of three inputs.
            assert_eq!(want.runs_per_input, [1, 1, 1], "{label}");
        }
    }

    // A join whose predicate misses every Slice reads nothing: no
    // slice, no footer and no dimension table.
    let miss = Query::Join {
        left_key: "user_id".into(),
        right_key: "user_id".into(),
        left_project: vec!["power".into()],
        right_project: vec!["name".into()],
        predicate: Predicate::all().and(
            "user_id",
            ColumnRange::half_open(Value::Int(1_000), Value::Int(1_010)),
        ),
    };
    let before = hdfs.stats().snapshot();
    let run = DgfEngine::new(Arc::clone(&idx))
        .with_right(Arc::clone(&users))
        .run(&miss)
        .unwrap();
    let io = hdfs.stats().snapshot().since(&before);
    assert_eq!(run.result, QueryResult::Rows(vec![]));
    assert_eq!((io.bytes_read, io.opens, io.seeks), (0, 0, 0));

    // A GROUP BY over every region of two user cells, on a text index:
    // its one reader per input opens the file once and seeks once per
    // range that does not start the file (to the byte before it, for the
    // line-boundary rule).
    let two_cells = Query::GroupBy {
        key: "power".into(),
        aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
        predicate: Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(10), Value::Int(30)))
            .and("day", ColumnRange::half_open(Value::Int(5), Value::Int(15))),
    };
    let Series { _tmp, hdfs, ctx, table, idx } = series_as(FileFormat::Text);
    let plan = idx.plan(&two_cells, true).unwrap();
    let mut ranges = 0;
    let mut past_zero = 0;
    for input in &plan.inputs {
        let dgfindex::hive::ScanInput::TextRanges { ranges: r, .. } = input else {
            panic!("a DGF plan over a text index made {input:?}");
        };
        ranges += r.len() as u64;
        past_zero += r.iter().filter(|r| r.start > 0).count() as u64;
    }
    assert!(ranges > plan.inputs.len() as u64, "one range an input");
    let before = hdfs.stats().snapshot();
    let sink = dgfindex::hive::execute_sink(&ctx, &idx.data, &two_cells, None, plan.inputs.clone())
        .unwrap();
    let io = hdfs.stats().snapshot().since(&before);
    assert_eq!((io.opens, io.seeks), (plan.inputs.len() as u64, past_zero));
    let oracle = ScanEngine::new(Arc::clone(&ctx), table).run(&two_cells).unwrap().result;
    assert_eq!(sink.finish().normalized(), oracle.normalized());
}

/// GROUP BY a one-value-cell dimension reads what the plain aggregate
/// over the same box reads: its inner cells are answered from headers,
/// one partial per day, so the two plans name the same boundary cells,
/// the same inputs and the same inner records, and their scans read the
/// same bytes. The groups are the scan's.
#[test]
fn group_by_a_unit_dimension_reads_what_the_plain_aggregate_reads() {
    let Series {
        _tmp,
        hdfs,
        ctx,
        table,
        idx,
    } = series();
    // Misaligned on users (boundary user cells 0 and 3), aligned on days:
    // eighteen days of inner cells, every region.
    let predicate = Predicate::all()
        .and(
            "user_id",
            ColumnRange::half_open(Value::Int(5), Value::Int(37)),
        )
        .and("day", ColumnRange::half_open(Value::Int(3), Value::Int(21)));
    let aggs = vec![AggFunc::Count, AggFunc::Sum("power".into())];
    let group_by = Query::GroupBy {
        key: "day".into(),
        aggs: aggs.clone(),
        predicate: predicate.clone(),
    };
    let plain = Query::Aggregate { aggs, predicate };

    let grouped = idx.plan(&group_by, true).unwrap();
    let flat = idx.plan(&plain, true).unwrap();
    assert!(grouped.inner_records > 0 && grouped.boundary_gfus > 0);
    assert_eq!(grouped.boundary_gfus, flat.boundary_gfus);
    assert_eq!(grouped.inner_records, flat.inner_records);
    assert_eq!(grouped.inputs, flat.inputs);
    assert_eq!(grouped.pyramid_nodes, 0);
    let Some(dgfindex::query::AggPartials::Groups(days)) = &grouped.inner_states else {
        panic!("GROUP BY day planned without group partials");
    };
    assert_eq!(days.len(), 18);

    let bytes_read = |q: &Query| {
        let before = hdfs.stats().snapshot();
        let run = DgfEngine::new(Arc::clone(&idx)).run(q).unwrap();
        let io = hdfs.stats().snapshot().since(&before);
        assert_eq!(io.bytes_read, run.stats.data_bytes_read);
        (io.bytes_read, run.result)
    };
    // An unmeasured run reads the footers of the files both plans open,
    // so the two measured runs are warm and read their frames alone.
    bytes_read(&plain);
    let (grouped_bytes, groups) = bytes_read(&group_by);
    let (flat_bytes, _) = bytes_read(&plain);
    assert!(grouped_bytes > 0);
    assert_eq!(grouped_bytes, flat_bytes);

    let truth = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&table))
        .run(&group_by)
        .unwrap()
        .result;
    assert_eq!(truth.clone().into_groups().len(), 18);
    assert_eq!(groups, truth, "{groups:?} vs {truth:?}");
}

#[test]
fn sidecar_reads_reconcile_with_io_and_the_ledger() {
    // Sidecar consultation (DESIGN.md §15) is planner-side index I/O:
    // it must show up in the IoStats delta and the profile's
    // `plan.sidecar` span, stay out of `data_bytes_read`, and the
    // bytes-skipped ledger must account exactly for the slice bytes the
    // unpruned plan would have read.
    let tmp = TempDir::new("profile-scx").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path(),
        HdfsConfig {
            block_size: 64 * 1024,
            replication: 1,
        },
    )
    .unwrap();
    let ctx = HiveContext::new(hdfs.clone(), MrEngine::new(3));
    let schema = Arc::new(Schema::from_pairs(&[
        ("user_id", ValueType::Int),
        ("day", ValueType::Int),
        ("seq", ValueType::Int),
        ("power", ValueType::Float),
    ]));
    let created = ctx
        .create_table("meter_rc", schema, FileFormat::RcFile)
        .unwrap();
    let mut desc = (*created).clone();
    desc.rows_per_group = 64;
    let rows: Vec<Row> = (0..4_000)
        .map(|i| {
            let i = i as i64;
            vec![
                Value::Int((i * 7) % 120),
                Value::Int((i * 13) % 30),
                Value::Int(i),
                Value::Float((i % 97) as f64 / 3.0),
            ]
        })
        .collect();
    ctx.load_rows(&desc, &rows, 3).unwrap();
    let table: TableRef = Arc::new(desc);
    let policy = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 8),
        DimPolicy::int("day", 0, 4),
    ])
    .unwrap();
    let (idx, _) = DgfIndex::build_with_options(
        Arc::clone(&ctx),
        table,
        policy,
        vec![AggFunc::Count, AggFunc::Sum("power".into())],
        Arc::new(MemKvStore::new()),
        "dgf_scx_profile",
        IndexOptions {
            profiler: Profiler::enabled(),
            ..IndexOptions::default()
        },
    )
    .unwrap();
    let idx = Arc::new(idx);

    // `seq` is clustered and not a grid dimension: only the sidecar's
    // zone maps can narrow it, so pruning provably engages.
    let q = Query::Aggregate {
        aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
        predicate: Predicate::all().and(
            "seq",
            ColumnRange::half_open(Value::Int(500), Value::Int(900)),
        ),
    };
    // An unmeasured run reads the footers of every file the pruned and
    // the unpruned run open: both measured runs are warm.
    DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
    let io_before = hdfs.stats().snapshot();
    let run = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
    let io_delta = hdfs.stats().snapshot().since(&io_before);
    let scan = &run.stats.scan;
    assert!(scan.sidecar_hits > 0, "no sidecar was consulted");
    assert!(scan.sidecar_bytes > 0, "sidecar reads charged no bytes");
    assert!(scan.sidecar_groups_pruned > 0, "clustered range pruned nothing");
    assert_eq!(scan.sidecar_misses + scan.sidecar_corrupt, 0);

    // Every byte of the run is accounted for exactly once: data bytes
    // to the scan, sidecar bytes to the planner.
    assert_eq!(
        io_delta.bytes_read,
        run.stats.data_bytes_read + scan.sidecar_bytes
    );
    // The profile agrees: the sidecar span exists under planning, holds
    // the sidecar counters, and HDFS totals cover both I/O kinds.
    let profile = &run.stats.profile;
    assert!(profile.check_nesting().is_empty());
    let plan_span = profile.find("query.plan").expect("query.plan span");
    assert!(plan_span.find("plan.sidecar").is_some());
    assert_eq!(
        profile.metric_total(names::HDFS_BYTES_READ),
        io_delta.bytes_read
    );
    assert_eq!(
        profile.metric_total(names::SCAN_SIDECAR_BYTES),
        scan.sidecar_bytes
    );
    assert_eq!(
        profile.metric_total(names::SCAN_SIDECAR_GROUPS_PRUNED),
        scan.sidecar_groups_pruned
    );

    // The registry projection (the `dgf profile` table) carries the
    // sidecar counters.
    let reg = dgfindex::common::MetricsRegistry::new();
    run.stats.record_into(&reg);
    assert_eq!(reg.get(names::SCAN_SIDECAR_HITS), scan.sidecar_hits);
    assert_eq!(reg.get(names::SCAN_SIDECAR_BYTES), scan.sidecar_bytes);
    assert_eq!(
        reg.get(names::SCAN_SIDECAR_BYTES_SKIPPED),
        scan.sidecar_bytes_skipped
    );

    // Ledger reconciliation: the pruned run's data bytes plus the bytes
    // it skipped equal the unpruned run's data bytes exactly — skipping
    // is the only difference between the two plans.
    ctx.set_scan_options(ScanOptions { sidecar: false });
    let unpruned = DgfEngine::new(Arc::clone(&idx)).run(&q).unwrap();
    assert_eq!(unpruned.result, run.result, "pruning changed the answer");
    assert_eq!(unpruned.stats.scan.sidecar_bytes, 0);
    assert_eq!(
        run.stats.data_bytes_read + scan.sidecar_bytes_skipped,
        unpruned.stats.data_bytes_read,
        "bytes-skipped ledger does not reconcile with the unpruned scan"
    );
}

#[test]
fn chaos_retries_surface_in_the_profile() {
    let plan = Arc::new(FaultPlan::new(FaultConfig::transient(4242, 0.4)));
    let w = build_world(Profiler::enabled(), Some(Arc::clone(&plan)));
    let fault = w.fault.as_ref().unwrap();
    let injected_before = fault.faults_injected();
    let run = DgfEngine::new(Arc::clone(&w.idx))
        .run(&boundary_heavy_query())
        .unwrap();
    let injected = fault.faults_injected() - injected_before;
    assert!(injected > 0, "chaos schedule produced no faults");
    // Every fault injected during the query was absorbed by a counted
    // retry, and every one of those retries is visible in the profile:
    // kv retries on the planning stages, file retries on the scan stage.
    let absorbed = run.stats.profile.metric_total(names::KV_RETRIES_ABSORBED)
        + run.stats.profile.metric_total(names::HDFS_RETRIES);
    assert_eq!(absorbed, injected);
    assert_eq!(absorbed, run.stats.retries_absorbed);

    // The split-reading baselines over the same faulted table report
    // every file retry their run absorbed, planning included.
    let table = w.ctx.table("meter").unwrap();
    let (compact, _) = CompactIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&table),
        vec!["user_id".into(), "day".into()],
        "meter_compact",
    )
    .unwrap();
    let rows = w.ctx.read_all(&table).unwrap();
    let (schema, format) = (Arc::clone(&table.schema), FileFormat::Text);
    let parts =
        PartitionedTable::create(Arc::clone(&w.ctx), "meter_day", schema, format, "day", &rows, 1)
            .unwrap();
    let scan = ScanEngine::new(Arc::clone(&w.ctx), table).with_profiler(Profiler::enabled());
    let engines: [Box<dyn Engine>; 3] = [
        Box::new(scan),
        Box::new(CompactEngine::new(Arc::new(compact))),
        Box::new(PartitionEngine::new(Arc::new(parts))),
    ];
    for engine in engines {
        let before = w.ctx.hdfs.stats().snapshot();
        let run = engine.run(&boundary_heavy_query()).unwrap();
        let retries = w.ctx.hdfs.stats().snapshot().since(&before).retries;
        assert_eq!(run.stats.retries_absorbed, retries, "{}", engine.name());
        assert!(retries > 0, "{}", engine.name());
        // A profiled run books every one of them (the index engines'
        // planning half is pinned in `dgf-hive`'s Compact tests).
        if !run.stats.profile.is_empty() {
            assert_eq!(run.stats.profile.metric_total(names::HDFS_RETRIES), retries);
        }
    }
}

#[test]
fn disabled_profiler_collects_nothing() {
    let w = build_world(Profiler::disabled(), None);
    let run = DgfEngine::new(Arc::clone(&w.idx))
        .run(&boundary_heavy_query())
        .unwrap();
    assert!(run.stats.profile.is_empty());
    // Planning alone is just as inert.
    let plan = w.idx.plan(&boundary_heavy_query(), true).unwrap();
    assert!(plan.profile.is_empty());
}

/// Every registry name beside the string an operator and the end-to-end
/// benchmark read. A renamed or dropped name fails here, not in a
/// dashboard.
const GOLDEN_NAMES: &[(&str, &str)] = &[
    (names::KV_GETS, "kv.gets"),
    (names::KV_PUTS, "kv.puts"),
    (names::KV_SCANS, "kv.scans"),
    (names::KV_MULTI_GETS, "kv.multi_gets"),
    (names::KV_MULTI_GET_KEYS, "kv.multi_get_keys"),
    (names::KV_BYTES_READ, "kv.bytes_read"),
    (names::KV_BYTES_WRITTEN, "kv.bytes_written"),
    (names::KV_RETRIES_ABSORBED, "kv.retries_absorbed"),
    (names::KV_COMPACTIONS, "kv.compactions"),
    (names::HDFS_BYTES_READ, "hdfs.bytes_read"),
    (names::HDFS_BYTES_WRITTEN, "hdfs.bytes_written"),
    (names::HDFS_RECORDS_READ, "hdfs.records_read"),
    (names::HDFS_RECORDS_WRITTEN, "hdfs.records_written"),
    (names::HDFS_SEEKS, "hdfs.seeks"),
    (names::HDFS_OPENS, "hdfs.opens"),
    (names::HDFS_RETRIES, "hdfs.retries"),
    (names::CACHE_HEADER_HITS, "cache.header.hits"),
    (names::CACHE_HEADER_MISSES, "cache.header.misses"),
    (names::CACHE_HEADER_EVICTIONS, "cache.header.evictions"),
    (names::MR_MAP_INPUTS, "mr.map_inputs"),
    (names::MR_MAP_OUTPUTS, "mr.map_outputs"),
    (names::MR_SHUFFLED_PAIRS, "mr.shuffled_pairs"),
    (names::MR_REDUCE_GROUPS, "mr.reduce_groups"),
    (names::MR_MAP_TIME_US, "mr.map_time_us"),
    (names::MR_REDUCE_TIME_US, "mr.reduce_time_us"),
    (names::PLAN_INNER_GFUS, "plan.inner_gfus"),
    (names::PLAN_BOUNDARY_GFUS, "plan.boundary_gfus"),
    (names::PLAN_INNER_RECORDS, "plan.inner_records"),
    (names::PLAN_SPLITS_TOTAL, "plan.splits_total"),
    (names::PLAN_SPLITS_READ, "plan.splits_read"),
    (names::PLAN_FRESH_GFUS, "plan.fresh_gfus"),
    (names::PLAN_FRESH_RECORDS, "plan.fresh_records"),
    (names::PLAN_PYRAMID_NODES, "plan.pyramid.nodes"),
    (names::PLAN_PYRAMID_CELLS, "plan.pyramid.cells"),
    (names::INGEST_BATCHES, "ingest.batches"),
    (names::INGEST_ROWS, "ingest.rows"),
    (names::INGEST_WAL_BYTES, "ingest.wal_bytes"),
    (names::INGEST_WAL_SYNCS, "ingest.wal_syncs"),
    (names::INGEST_REJECTIONS, "ingest.rejections"),
    (names::INGEST_FLUSHES, "ingest.flushes"),
    (names::INGEST_FLUSHED_ROWS, "ingest.flushed_rows"),
    (names::INGEST_FLUSH_FAILURES, "ingest.flush_failures"),
    (names::INGEST_REPLAYED_BATCHES, "ingest.replayed_batches"),
    (names::INGEST_REPLAYED_ROWS, "ingest.replayed_rows"),
    (names::SCAN_BATCHES, "scan.batches"),
    (names::SCAN_ROWS_DECODED, "scan.rows_decoded"),
    (names::SCAN_ROWS_SELECTED, "scan.rows_selected"),
    (names::SCAN_DECODE_US, "scan.decode_us"),
    (names::SCAN_KERNEL_US, "scan.kernel_us"),
    (names::SCAN_ROWWISE_ROWS, "scan.rowwise_rows"),
    (names::SCAN_JOIN_BUILDS, "scan.join_builds"),
    (names::SCAN_JOIN_BUILD_REUSES, "scan.join_build_reuses"),
    (names::SCAN_FOOTER_READS, "scan.footer_reads"),
    (names::SCAN_FOOTER_REUSES, "scan.footer_reuses"),
    (names::SCAN_SIDECAR_HITS, "scan.sidecar.hits"),
    (names::SCAN_SIDECAR_MISSES, "scan.sidecar.misses"),
    (names::SCAN_SIDECAR_CORRUPT, "scan.sidecar.corrupt"),
    (names::SCAN_SIDECAR_BYTES, "scan.sidecar.bytes"),
    (names::SCAN_SIDECAR_GROUPS_PRUNED, "scan.sidecar.groups_pruned"),
    (names::SCAN_SIDECAR_BYTES_SKIPPED, "scan.sidecar.bytes_skipped"),
    (names::HADOOPDB_PAGES_READ, "hadoopdb.pages_read"),
    (names::HADOOPDB_ROWS_READ, "hadoopdb.rows_read"),
    (names::HADOOPDB_BYTES_READ, "hadoopdb.bytes_read"),
    (names::SERVE_ADMITTED, "serve.admitted"),
    (names::SERVE_REJECTED, "serve.rejected"),
    (names::SERVE_COMPLETED, "serve.completed"),
    (names::SERVE_FAILED, "serve.failed"),
    (names::SERVE_QUEUE_WAIT_US, "serve.queue_wait_us"),
    (names::SERVE_SCATTERS, "serve.scatters"),
    (names::SERVE_SHARD_SUBOPS, "serve.shard_subops"),
    (names::SERVE_MAINTENANCE_RUNS, "serve.maintenance_runs"),
    (names::TXN_COMMITS, "txn.commits"),
    (names::TXN_ROLLBACKS, "txn.rollbacks"),
    (names::TXN_RECOVERED, "txn.recovered"),
    (names::TXN_STAGED_KEYS, "txn.staged_keys"),
    (names::TXN_FILES_PUBLISHED, "txn.files_published"),
    (names::TXN_FILES_RETIRED, "txn.files_retired"),
    (names::MAINTAIN_PASSES, "maintain.passes"),
    (names::MAINTAIN_FILES_RECLAIMED, "maintain.files_reclaimed"),
    (names::MAINTAIN_FILES_COMPACTED, "maintain.files_compacted"),
    (names::MAINTAIN_GFUS_REWRITTEN, "maintain.gfus_rewritten"),
    (names::MAINTAIN_BYTES_REWRITTEN, "maintain.bytes_rewritten"),
    (names::MAINTAIN_KV_BYTES_RECLAIMED, "maintain.kv_bytes_reclaimed"),
    (names::MAINTAIN_REGRIDS, "maintain.regrids"),
    (names::MAINTAIN_HISTORY_LEN, "maintain.history_len"),
    (names::MAINTAIN_CANDIDATES, "maintain.candidates"),
    (names::MAINTAIN_COST_CURRENT, "maintain.cost_current"),
    (names::MAINTAIN_COST_CHOSEN, "maintain.cost_chosen"),
];

#[test]
fn registry_names_are_a_contract() {
    assert_eq!(GOLDEN_NAMES.len(), 88);
    let mut seen = std::collections::BTreeSet::new();
    for (constant, golden) in GOLDEN_NAMES {
        assert_eq!(constant, golden, "a registry name moved");
        assert!(seen.insert(*golden), "`{golden}` is listed twice");
    }
    // What an index exports is on the list, family by family.
    let w = build_world(Profiler::disabled(), None);
    let exported = w.idx.metrics().snapshot();
    for name in exported.keys() {
        assert!(seen.contains(name.as_str()), "`{name}` is not on the golden list");
    }
    for family in ["kv.", "cache.header.", "hdfs.", "txn.", "maintain."] {
        let golden = seen.iter().filter(|n| n.starts_with(family)).count();
        let got = exported.keys().filter(|n| n.starts_with(family)).count();
        assert_eq!(got, golden, "`{family}*` names exported by DgfIndex::metrics()");
    }
    // The warehouse, the frontend and the ingestor project their own
    // blocks; an index that also did would double them.
    for family in ["scan.", "serve.", "ingest."] {
        assert!(!exported.keys().any(|n| n.starts_with(family)), "`{family}*`");
    }
}

/// The laws of the counter ledger, written once against what every
/// `counter_block!` declaration generates and run for every declared
/// block: `$names` collects who owns each registry name.
macro_rules! ledger_laws {
    ($names:ident: $($Block:ty),+ $(,)?) => {$({
        use dgfindex::common::MetricsRegistry;
        use std::collections::BTreeMap;
        let label = stringify!($Block);
        let projected = |project: &dyn Fn(&MetricsRegistry)| {
            let reg = MetricsRegistry::new();
            project(&reg);
            reg.snapshot()
        };

        // A fresh block registers every declared name, zeros included,
        // all of them on the golden list and none owned by another block.
        let block = <$Block>::default();
        let zeros = projected(&|reg| block.record_into(reg));
        assert!(!zeros.is_empty() && zeros.values().all(|v| *v == 0), "{label}");
        for (name, _) in block.counters() {
            assert!(zeros.contains_key(name), "{label} does not register `{name}`");
            assert!(GOLDEN_NAMES.iter().any(|(_, g)| *g == name), "{label}: `{name}`");
            let owner = *$names.entry(name).or_insert(label);
            assert_eq!(owner, label, "`{name}` is declared by two blocks");
        }
        assert_eq!(zeros.len(), {
            let mut names: Vec<_> = block.counters().map(|(n, _)| n).collect();
            names.sort_unstable();
            names.dedup();
            names.len()
        });

        // Bump every other counter by a distinct amount: the snapshot
        // shows it, and a recording span carries exactly the non-zero
        // names while a disabled profiler carries nothing.
        let mut first: BTreeMap<String, u64> = zeros.clone();
        for (i, (name, counter)) in block.counters().enumerate().filter(|(i, _)| i % 2 == 0) {
            counter.add(3 + i as u64);
            *first.get_mut(name).unwrap() += 3 + i as u64;
        }
        let earlier = block.snapshot();
        assert_eq!(projected(&|reg| earlier.record_into(reg)), first, "{label}");
        assert_eq!(projected(&|reg| block.record_into(reg)), first, "{label}");
        let profiler = Profiler::enabled();
        earlier.attach_to_span(&profiler.span("stage"));
        let non_zero: BTreeMap<String, u64> =
            first.iter().filter(|(_, v)| **v > 0).map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(profiler.take_profile().roots[0].metrics, non_zero, "{label}");
        let disabled = Profiler::disabled();
        earlier.attach_to_span(&disabled.span("stage"));
        assert!(disabled.take_profile().is_empty());

        // `since` is field-wise saturating subtraction.
        let mut second: BTreeMap<String, u64> = zeros.clone();
        for (i, (name, counter)) in block.counters().enumerate() {
            counter.add(100 + i as u64);
            *second.get_mut(name).unwrap() += 100 + i as u64;
        }
        let later = block.snapshot();
        assert_eq!(projected(&|reg| later.since(&earlier).record_into(reg)), second, "{label}");
        assert_eq!(earlier.since(&later), Default::default(), "{label}: since saturates");
        assert_eq!(later.since(&Default::default()), later, "{label}");

        block.reset();
        assert_eq!(block.snapshot(), Default::default(), "{label}: reset zeroes");
    })+};
}

#[test]
fn every_counter_block_obeys_the_ledger_laws() {
    let mut owners = std::collections::BTreeMap::new();
    ledger_laws!(owners:
        dgfindex::kvstore::KvStats,
        dgfindex::common::IoStats,
        dgfindex::common::ScanStats,
        dgfindex::serve::ServeStats,
        dgfindex::kvstore::FanoutStats,
        dgfindex::ingest::IngestStats,
        dgfindex::hadoopdb::ChunkStats,
        dgfindex::core::TxnStats,
        dgfindex::mapreduce::JobCounters,
        dgfindex::core::CacheCounters,
        dgfindex::core::MaintainStats,
    );
    // Every golden name is a block's, or one of the per-plan tallies and
    // phase times that spans and `RunStats` carry directly.
    let direct = GOLDEN_NAMES
        .iter()
        .filter(|(_, g)| !owners.contains_key(g))
        .map(|(_, g)| *g)
        .collect::<Vec<_>>();
    assert!(
        direct.iter().all(|g| g.starts_with("plan.") || g.ends_with("_time_us")),
        "names no block declares: {direct:?}"
    );
}

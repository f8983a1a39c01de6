//! Sidecar ≡ unpruned equivalence (DESIGN.md §15).
//!
//! The slice sidecar (zone maps + hierarchical bitmaps) is an
//! *accelerator, never a correctness dependency*: with pruning on, off,
//! or actively sabotaged — a sidecar deleted, a sidecar overwritten
//! with garbage — every query answer must equal the unpruned scan in
//! **float bits**, and sabotage must surface only in the
//! `scan.sidecar.*` degrade counters. The matrix here covers:
//!
//! * {no-sidecar, sidecar, sidecar+corrupt-one-file,
//!   sidecar+delete-one-file} × KV shard counts {1, 4}, under fixed and
//!   proptest-random grids, null patterns and predicates — including
//!   predicates on columns that are *not* grid dimensions (the zone-map
//!   and bitmap columns a grid planner cannot see);
//! * a chaos crash sweep across sidecar publication: the `.scx` file
//!   rides the staged-commit renames, so a crash at any instrumented
//!   site must leave either no sidecar or a matched slice+sidecar pair,
//!   and recovery must answer exactly like a scan of the base table.
//! * what the accelerator buys, as exact byte counts: selective
//!   queries read ≤ 25 % of the unpruned slice bytes and the
//!   bytes-skipped ledger reconciles with the real pruning-off pass —
//!   on a bulk-built index and again after streaming flushes plus one
//!   compaction pass over an RCFile index.

use std::sync::Arc;

use dgfindex::format::{is_sidecar_path, sidecar_path};
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, meter_schema, MeterConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const INDEX: &str = "dgf_scx";

fn schema() -> SchemaRef {
    Arc::new(Schema::from_pairs(&[
        ("user", ValueType::Int),
        ("day", ValueType::Int),
        ("cat", ValueType::Int),
        ("seq", ValueType::Int),
        ("power", ValueType::Float),
    ]))
}

fn aggs() -> Vec<AggFunc> {
    vec![AggFunc::Sum("power".into()), AggFunc::Count]
}

fn grid() -> SplittingPolicy {
    SplittingPolicy::new(vec![
        DimPolicy::int("user", 0, 8),
        DimPolicy::int("day", 0, 3),
    ])
    .unwrap()
}

/// Rows with non-null grid dimensions (`user`, `day`) and null holes in
/// the sidecar-only columns. `cat` is low-cardinality (bitmap-indexed),
/// `seq` is clustered (zone maps prune it hard), `power` is the float
/// whose sums must keep their bits under pruning.
fn fixed_rows(n: usize, null_p: f64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n)
        .map(|i| {
            let i = i as i64;
            let cat = if rng.random_bool(null_p) {
                Value::Null
            } else {
                Value::Int(i % 6)
            };
            let power = if rng.random_bool(null_p) {
                Value::Null
            } else {
                Value::Float(rng.random_range(-50.0..50.0))
            };
            vec![
                Value::Int(i % 40),
                Value::Int(i % 15),
                cat,
                Value::Int(i),
                power,
            ]
        })
        .collect()
}

/// Query mix: misaligned grid ranges (boundary Slices), a clustered
/// non-grid range (zone pruning), a low-cardinality equality (bitmap
/// pruning), and every sink shape.
fn queries() -> Vec<Query> {
    vec![
        Query::Aggregate {
            aggs: aggs(),
            predicate: Predicate::all()
                .and("user", ColumnRange::half_open(Value::Int(5), Value::Int(21)))
                .and("day", ColumnRange::half_open(Value::Int(3), Value::Int(11))),
        },
        Query::Aggregate {
            aggs: aggs(),
            predicate: Predicate::all().and(
                "seq",
                ColumnRange::half_open(Value::Int(100), Value::Int(140)),
            ),
        },
        Query::Aggregate {
            aggs: vec![AggFunc::Count, AggFunc::Min("power".into())],
            predicate: Predicate::all()
                .and("cat", ColumnRange::eq(Value::Int(3)))
                .and("user", ColumnRange::half_open(Value::Int(0), Value::Int(16))),
        },
        Query::GroupBy {
            key: "day".into(),
            aggs: aggs(),
            predicate: Predicate::all().and(
                "power",
                ColumnRange::open(Value::Float(-20.0), Value::Float(30.0)),
            ),
        },
        Query::Select {
            project: vec!["user".into(), "power".into()],
            predicate: Predicate::all().and(
                "seq",
                ColumnRange::half_open(Value::Int(200), Value::Int(260)),
            ),
        },
    ]
}

struct World {
    _tmp: TempDir,
    ctx: Arc<HiveContext>,
    base: TableRef,
}

fn world(tag: &str, rows: &[Row], rows_per_group: usize) -> World {
    let tmp = TempDir::new(&format!("scx-{tag}")).unwrap();
    let hdfs = SimHdfs::open(tmp.path()).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(1));
    let created = ctx
        .create_table("meter_rc", schema(), FileFormat::RcFile)
        .unwrap();
    let mut desc = (*created).clone();
    desc.rows_per_group = rows_per_group;
    ctx.load_rows(&desc, rows, 3).unwrap();
    World {
        _tmp: tmp,
        ctx,
        base: Arc::new(desc),
    }
}

fn build(w: &World, kv: Arc<dyn KvStore>) -> Arc<DgfIndex> {
    let (index, _) = DgfIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        grid(),
        aggs(),
        kv,
        INDEX,
    )
    .unwrap();
    Arc::new(index)
}

/// Exact-bits value equality: `Float`s must agree in raw bit pattern.
fn val_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// `f64::to_bits` equality over normalized results (row order is
/// unspecified for SELECT, so both sides sort first).
fn assert_bits_eq(a: &QueryResult, b: &QueryResult, label: &str) {
    let (a, b) = (a.clone().normalized(), b.clone().normalized());
    let ok = match (&a, &b) {
        (QueryResult::Scalars(x), QueryResult::Scalars(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| val_bits(p, q))
        }
        (QueryResult::Groups(x), QueryResult::Groups(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|((ka, va), (kb, vb))| {
                    val_bits(ka, kb)
                        && va.len() == vb.len()
                        && va.iter().zip(vb).all(|(p, q)| val_bits(p, q))
                })
        }
        (QueryResult::Rows(x), QueryResult::Rows(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(ra, rb)| {
                    ra.len() == rb.len() && ra.iter().zip(rb).all(|(p, q)| val_bits(p, q))
                })
        }
        _ => false,
    };
    assert!(ok, "{label}: float bits diverged:\n{a:?}\nvs\n{b:?}");
}

fn run_with_sidecar(w: &World, index: &Arc<DgfIndex>, q: &Query, sidecar: bool) -> EngineRun {
    w.ctx.set_scan_options(ScanOptions { sidecar });
    DgfEngine::new(Arc::clone(index)).run(q).unwrap()
}

/// Every `.scx` file under the index's data directory.
fn sidecar_files(ctx: &HiveContext, index: &DgfIndex) -> Vec<String> {
    let mut v: Vec<String> = ctx
        .hdfs
        .list_files(&index.data.location)
        .into_iter()
        .map(|(p, _)| p)
        .filter(|p| is_sidecar_path(p))
        .collect();
    v.sort();
    v
}

/// The full sabotage matrix over one built index. `truth` comes from a
/// plain scan of the base table with pruning disabled.
fn assert_matrix(w: &World, index: &Arc<DgfIndex>, label: &str) {
    let scx = sidecar_files(&w.ctx, index);
    assert!(!scx.is_empty(), "{label}: build emitted no sidecars");

    for (qi, q) in queries().iter().enumerate() {
        w.ctx.set_scan_options(ScanOptions { sidecar: false });
        let truth = ScanEngine::new(Arc::clone(&w.ctx), Arc::clone(&w.base))
            .run(q)
            .unwrap()
            .result;
        let off = run_with_sidecar(w, index, q, false);
        assert_bits_eq(&off.result, &truth, &format!("{label} q{qi} sidecar=off"));
        assert_eq!(
            off.stats.scan.sidecar_hits + off.stats.scan.sidecar_misses,
            0,
            "{label} q{qi}: pruning disabled but sidecars were consulted"
        );
        let on = run_with_sidecar(w, index, q, true);
        assert_bits_eq(&on.result, &truth, &format!("{label} q{qi} sidecar=on"));
    }

    // Sabotage one sidecar: garbage bytes must degrade that slice to a
    // full scan (counted as corrupt), never change an answer.
    let victim = &scx[0];
    let original = w.ctx.hdfs.read_file(victim).unwrap();
    w.ctx.hdfs.delete_file(victim).unwrap();
    let mut wr = w.ctx.hdfs.create(victim).unwrap();
    std::io::Write::write_all(&mut wr, b"not a sidecar, sorry").unwrap();
    wr.close().unwrap();
    for (qi, q) in queries().iter().enumerate() {
        let off = run_with_sidecar(w, index, q, false);
        let got = run_with_sidecar(w, index, q, true);
        assert_bits_eq(
            &got.result,
            &off.result,
            &format!("{label} q{qi} corrupt-one-file"),
        );
        assert_eq!(
            got.stats.scan.sidecar_corrupt > 0,
            got.stats.scan.sidecar_bytes > 0,
            "{label} q{qi}: read the corrupt sidecar without flagging it"
        );
    }

    // Delete it outright: a missing sidecar is a miss, not an error.
    w.ctx.hdfs.delete_file(victim).unwrap();
    for (qi, q) in queries().iter().enumerate() {
        let off = run_with_sidecar(w, index, q, false);
        let got = run_with_sidecar(w, index, q, true);
        assert_bits_eq(
            &got.result,
            &off.result,
            &format!("{label} q{qi} missing-one-file"),
        );
    }

    // Restore for any later pass over the same world.
    let mut wr = w.ctx.hdfs.create(victim).unwrap();
    std::io::Write::write_all(&mut wr, &original).unwrap();
    wr.close().unwrap();
}

/// Tentpole matrix: fixed world, shard counts {1, 4}, all four sidecar
/// states, `f64::to_bits` equality throughout — plus proof that the
/// accelerator actually engages (hits and pruned groups on the
/// clustered non-grid predicate).
#[test]
fn sabotage_matrix_is_bit_identical_across_shards() {
    let rows = fixed_rows(600, 0.15);
    let w = world("fixed", &rows, 16);
    let index = build(&w, Arc::new(MemKvStore::new()));
    let extents = index.extents().unwrap();
    assert_matrix(&w, &index, "shards=1");

    // The clustered `seq` predicate must show real pruning work, and
    // the bytes-skipped ledger must move with it.
    let q = &queries()[1];
    let run = run_with_sidecar(&w, &index, q, true);
    assert!(
        run.stats.scan.sidecar_hits > 0,
        "no sidecar was consulted on a boundary-heavy plan"
    );
    assert!(
        run.stats.scan.sidecar_groups_pruned > 0,
        "clustered non-grid predicate pruned nothing"
    );
    assert!(
        run.stats.scan.sidecar_bytes_skipped > 0,
        "pruned groups charged no skipped bytes"
    );

    // Same data, same grid, GFUs routed over 4 KV shards: the sidecar
    // path reads files, not KV, so sharding must change nothing.
    let w4 = world("shard4", &rows, 16);
    let router: Arc<dyn KvStore> = Arc::new(sharded_mem(&extents, 4).unwrap());
    let index4 = build(&w4, router);
    assert_matrix(&w4, &index4, "shards=4");
}

fn random_predicate(rng: &mut StdRng) -> Predicate {
    let mut p = Predicate::all();
    if rng.random_bool(0.6) {
        let lo = rng.random_range(0i64..30);
        let hi = lo + rng.random_range(1i64..20);
        p = p.and("user", ColumnRange::half_open(Value::Int(lo), Value::Int(hi)));
    }
    if rng.random_bool(0.5) {
        let lo = rng.random_range(0i64..12);
        let hi = lo + rng.random_range(1i64..8);
        p = p.and("day", ColumnRange::half_open(Value::Int(lo), Value::Int(hi)));
    }
    // Non-grid dimensions: the grid planner cannot narrow these; only
    // the sidecar can.
    if rng.random_bool(0.5) {
        p = p.and("cat", ColumnRange::eq(Value::Int(rng.random_range(0i64..6))));
    }
    if rng.random_bool(0.5) {
        let lo = rng.random_range(0i64..350);
        let hi = lo + rng.random_range(1i64..120);
        p = p.and("seq", ColumnRange::half_open(Value::Int(lo), Value::Int(hi)));
    }
    if rng.random_bool(0.3) {
        p = p.and(
            "power",
            ColumnRange::open(Value::Float(-25.0), Value::Float(25.0)),
        );
    }
    p
}

fn random_query(rng: &mut StdRng) -> Query {
    let predicate = random_predicate(rng);
    match rng.random_range(0u32..3) {
        0 => Query::Aggregate {
            aggs: vec![
                AggFunc::Count,
                AggFunc::Sum("power".into()),
                AggFunc::Min("seq".into()),
                AggFunc::Max("power".into()),
            ],
            predicate,
        },
        1 => Query::GroupBy {
            key: "cat".into(),
            aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
            predicate,
        },
        _ => Query::Select {
            project: vec!["user".into(), "seq".into(), "power".into()],
            predicate,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random rows, null densities, group geometry and predicates
    /// (including non-grid dimensions): sidecar on, off and corrupted
    /// all return the scan oracle's float bits, on 1 and 4 KV shards.
    #[test]
    fn random_worlds_survive_the_matrix(
        seed in 0u64..1_000_000,
        n_rows in 50usize..400,
        rows_per_group in 4usize..48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let null_p = if rng.random_bool(0.25) { 0.4 } else { 0.1 };
        let mut rows = fixed_rows(n_rows, null_p);
        // Re-deal the non-key columns from this case's rng so worlds
        // differ by more than length.
        for (i, r) in rows.iter_mut().enumerate() {
            r[3] = Value::Int(i as i64);
            if !rng.random_bool(null_p) {
                r[2] = Value::Int(rng.random_range(0i64..6));
            }
            if !rng.random_bool(null_p) {
                r[4] = Value::Float(rng.random_range(-50.0..50.0));
            }
        }
        let w = world(&format!("p{seed}"), &rows, rows_per_group);
        let index = build(&w, Arc::new(MemKvStore::new()));
        let extents = index.extents().unwrap();
        let w4 = world(&format!("p{seed}x4"), &rows, rows_per_group);
        let index4 = build(&w4, Arc::new(sharded_mem(&extents, 4).unwrap()));

        let scx = sidecar_files(&w.ctx, &index);
        prop_assert!(!scx.is_empty());
        let victim = &scx[seed as usize % scx.len()];
        w.ctx.hdfs.delete_file(victim).unwrap();
        let mut wr = w.ctx.hdfs.create(victim).unwrap();
        std::io::Write::write_all(&mut wr, &[0xde, 0xad, 0xbe, 0xef]).unwrap();
        wr.close().unwrap();

        for qi in 0..3 {
            let q = random_query(&mut rng);
            w.ctx.set_scan_options(ScanOptions { sidecar: false });
            let truth = ScanEngine::new(Arc::clone(&w.ctx), Arc::clone(&w.base))
                .run(&q)
                .unwrap()
                .result;
            // Shard 1, one sidecar corrupted.
            let off = run_with_sidecar(&w, &index, &q, false);
            let on = run_with_sidecar(&w, &index, &q, true);
            assert_bits_eq(&off.result, &truth, &format!("seed {seed} q{qi} off"));
            assert_bits_eq(&on.result, &truth, &format!("seed {seed} q{qi} corrupt"));
            // Shard 4, sidecars intact.
            let on4 = run_with_sidecar(&w4, &index4, &q, true);
            assert_bits_eq(&on4.result, &truth, &format!("seed {seed} q{qi} shards=4"));
        }
    }
}

/// Crash sweep across sidecar publication. The base table is RCFile so
/// every slice write also writes a `.scx`; crashing at each
/// instrumented storage/KV site (including the sidecar create/write
/// sites and the staged renames that publish slice and sidecar
/// together) must leave a recoverable index whose answers equal a scan
/// — and never a slice directory polluted with staging leftovers.
#[test]
fn sidecar_publication_crash_sweep_recovers() {
    const STAGING_ROOT: &str = "/warehouse/dgf_scx_data/data_staging";
    let cfg = MeterConfig {
        users: 6,
        days: 3,
        ..MeterConfig::default()
    };
    let policy = || {
        SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 3),
            DimPolicy::date("ts", cfg.start_day, 1),
        ])
        .unwrap()
    };
    let the_aggs = || vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count];
    let retry = RetryPolicy::fast(40);

    let drive = |tag: &str, plan: &Arc<FaultPlan>| -> (
        TempDir,
        Arc<HiveContext>,
        TableRef,
        Arc<dyn KvStore>,
        dgfindex::common::Result<()>,
    ) {
        let tmp = TempDir::new(&format!("scx-chaos-{tag}")).unwrap();
        let hdfs = SimHdfs::open(tmp.path()).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(1));
        let base = ctx
            .create_table("meter", meter_schema(), FileFormat::RcFile)
            .unwrap();
        let inner: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        let rows = generate_meter_data(&cfg);
        let per_day = rows.len() / cfg.days as usize;
        ctx.load_rows(&base, &rows[..2 * per_day], 2).unwrap();

        ctx.hdfs.enable_faults(Arc::clone(plan), retry);
        let kv: Arc<dyn KvStore> = Arc::new(ChaosKv::new(Arc::clone(&inner), Arc::clone(plan)));
        let options = IndexOptions {
            retry,
            fault: Some(Arc::clone(plan)),
            ..IndexOptions::default()
        };
        let out = (|| {
            let (index, _) = DgfIndex::build_with_options(
                Arc::clone(&ctx),
                Arc::clone(&base),
                policy(),
                the_aggs(),
                kv,
                "dgf_scx",
                options,
            )?;
            index.append(&rows[2 * per_day..])?;
            Ok(())
        })();
        (tmp, ctx, base, inner, out)
    };

    let verify = |ctx: &Arc<HiveContext>, base: &TableRef, inner: &Arc<dyn KvStore>| {
        ctx.hdfs.disable_faults();
        let index = match DgfIndex::open(
            Arc::clone(ctx),
            Arc::clone(base),
            Arc::clone(inner),
            "dgf_scx",
            the_aggs(),
        ) {
            Ok(index) => Arc::new(index),
            Err(e) => {
                assert!(
                    e.to_string().contains("no DGFIndex metadata"),
                    "unexpected open error: {e}"
                );
                ctx.drop_table("dgf_scx_data").unwrap();
                let (index, _) = DgfIndex::build(
                    Arc::clone(ctx),
                    Arc::clone(base),
                    policy(),
                    the_aggs(),
                    Arc::clone(inner),
                    "dgf_scx",
                )
                .unwrap();
                Arc::new(index)
            }
        };
        // Every committed slice has exactly the sidecars the data dir
        // says it should: no orphan .scx without its data file.
        for scx in sidecar_files(ctx, &index) {
            let data = scx.strip_suffix(".scx").unwrap();
            assert!(
                ctx.hdfs.file_exists(data),
                "orphan sidecar {scx} survived recovery"
            );
        }
        assert!(
            ctx.hdfs.list_files(STAGING_ROOT).is_empty(),
            "staging files leaked"
        );
        // Answers equal a scan of the current base table — with
        // pruning on, over whatever mix of sidecars the crash left.
        ctx.set_scan_options(ScanOptions { sidecar: true });
        let q = Query::Aggregate {
            aggs: the_aggs(),
            predicate: Predicate::all()
                .and(
                    "user_id",
                    ColumnRange::half_open(Value::Int(1), Value::Int(5)),
                )
                .and(
                    "ts",
                    ColumnRange::half_open(
                        Value::Date(cfg.start_day),
                        Value::Date(cfg.start_day + 2),
                    ),
                ),
        };
        let truth = ScanEngine::new(Arc::clone(ctx), Arc::clone(base))
            .run(&q)
            .unwrap()
            .result;
        let got = DgfEngine::new(index).run(&q).unwrap().result;
        assert_eq!(got, truth, "recovered index disagrees with scan");
    };

    // Record the crash-site space with a quiet plan.
    let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
    let (_tmp, ctx, base, inner, out) = drive("record", &quiet);
    out.unwrap();
    verify(&ctx, &base, &inner);
    let sites = quiet.points_hit();
    assert!(sites >= 10, "expected a rich crash-site space, got {sites}");

    // Crash once at every site; recovery must converge from each.
    for site in 0..sites {
        let plan = Arc::new(FaultPlan::new(FaultConfig::crash_at(site, site)));
        let (_tmp, ctx, base, inner, out) = drive(&format!("s{site}"), &plan);
        assert!(out.is_err(), "site {site}: scheduled crash did not fire");
        assert!(plan.crashed(), "site {site}: failed without crashing: {out:?}");
        verify(&ctx, &base, &inner);
    }
}

/// Rows whose sidecar-only columns are laid out the way sub-slice
/// skipping needs: `seq = i` is clustered (each row group of a slice
/// covers a narrow band) and `cat = i·16/n` is block-clustered
/// low-cardinality (most groups hold one or two distinct values, so the
/// bitmap's upper level answers for them). `user` and `day` cycle
/// quickly, so every stretch of rows lands in every grid cell.
fn clustered_rows(n: usize) -> Vec<Row> {
    (0..n as i64)
        .map(|i| {
            vec![
                Value::Int((i * 7) % 32),
                Value::Int((i * 13) % 8),
                Value::Int(i * 16 / n as i64),
                Value::Int(i),
                Value::Float((i % 97) as f64 / 3.0),
            ]
        })
        .collect()
}

/// Rows and rows-per-group of the two bytes-ratio tests below: ~1 600
/// rows per grid cell in ~26 groups, so a slice has room to be skipped
/// inside.
const CLUSTERED_ROWS: usize = 20_000;
const SMALL_GROUP: usize = 64;

/// The selective shapes only a sidecar can narrow: a clustered
/// non-grid range, a second one under a misaligned grid range
/// (boundary Slices), and a block-clustered low-cardinality equality.
fn selective_queries(seq_a: i64, seq_b: i64, cat: i64) -> Vec<(&'static str, Query)> {
    let n = CLUSTERED_ROWS as i64;
    let range = |lo: i64, hi: i64| ColumnRange::half_open(Value::Int(lo), Value::Int(hi));
    let aggregate = |predicate| Query::Aggregate {
        aggs: aggs(),
        predicate,
    };
    vec![
        (
            "zone_seq_range",
            aggregate(Predicate::all().and("seq", range(seq_a, seq_a + n / 20))),
        ),
        (
            "zone_seq_boundary",
            aggregate(
                Predicate::all()
                    .and("user", range(3, 29))
                    .and("seq", range(seq_b, seq_b + n / 16)),
            ),
        ),
        (
            "bitmap_cat_eq",
            aggregate(Predicate::all().and("cat", ColumnRange::eq(Value::Int(cat)))),
        ),
    ]
}

/// One query pruned and unpruned: the same float bits, a sidecar
/// actually consulted, the bytes-skipped ledger exact against the real
/// pruning-off pass, and at most a quarter of the slice bytes read.
/// Returns the answer.
fn assert_reads_a_quarter(w: &World, index: &Arc<DgfIndex>, name: &str, q: &Query) -> QueryResult {
    // An unmeasured unpruned run reads the footers of every file the two
    // measured runs open, so both are warm and read frames alone.
    run_with_sidecar(w, index, q, false);
    let on = run_with_sidecar(w, index, q, true);
    let off = run_with_sidecar(w, index, q, false);
    assert_bits_eq(&on.result, &off.result, name);
    let (pruned, unpruned) = (on.stats.data_bytes_read, off.stats.data_bytes_read);
    let scan = on.stats.scan;
    assert!(scan.sidecar_hits > 0, "{name}: no sidecar consulted");
    assert_eq!(
        pruned + scan.sidecar_bytes_skipped,
        unpruned,
        "{name}: bytes-skipped ledger does not reconcile with the unpruned pass"
    );
    assert!(
        4 * pruned <= unpruned,
        "{name}: read {pruned} of {unpruned} unpruned slice bytes (need <= 25%), \
         {} groups pruned",
        scan.sidecar_groups_pruned
    );
    on.result
}

/// The sidecar's claim ("upper level answers, lower level touched only
/// when needed" — *Hierarchical Bitmap Indexing*, PAPERS.md) as exact
/// byte counts on a bulk-built index.
#[test]
fn selective_queries_read_a_quarter_of_the_slice_bytes() {
    let n = CLUSTERED_ROWS as i64;
    let w = world("quarter", &clustered_rows(CLUSTERED_ROWS), SMALL_GROUP);
    let index = build(&w, Arc::new(MemKvStore::new()));
    for (name, q) in selective_queries(n / 10, n / 2, 11) {
        assert_reads_a_quarter(&w, &index, name, &q);
    }
}

/// A sidecar is consulted only when it can prune. A range on grid
/// columns alone is cut to cells by the grid, so a zone map has
/// something to tell apart only where a boundary cell spans several row
/// groups: there the planner still reads the sidecars; where every cell
/// fits one group it reads none, and answers exactly as with pruning off.
#[test]
fn grid_only_ranges_consult_sidecars_only_over_multi_group_cells() {
    let range = |lo: i64, hi: i64| ColumnRange::half_open(Value::Int(lo), Value::Int(hi));
    let q = Query::Aggregate {
        aggs: aggs(),
        predicate: Predicate::all().and("user", range(3, 29)).and("day", range(1, 7)),
    };
    // ~375 rows per grid cell: six groups of 64, or one of 512.
    let rows = clustered_rows(4_000);
    for (tag, rows_per_group, consults) in [("multi", SMALL_GROUP, true), ("single", 512, false)] {
        let w = world(&format!("gate-{tag}"), &rows, rows_per_group);
        let index = build(&w, Arc::new(MemKvStore::new()));
        let on = run_with_sidecar(&w, &index, &q, true);
        let off = run_with_sidecar(&w, &index, &q, false);
        assert_bits_eq(&on.result, &off.result, tag);
        assert!(on.stats.data_records_read > 0, "{tag}: no boundary cell was scanned");
        let scan = on.stats.scan;
        if consults {
            assert!(scan.sidecar_hits > 0, "{tag}: multi-group cells, no sidecar consulted");
        } else {
            assert_eq!(
                (scan.sidecar_bytes, scan.sidecar_hits + scan.sidecar_misses),
                (0, 0),
                "{tag}: a sidecar was read that could prune nothing"
            );
        }
    }
}

/// The same claim after the layout has been through the write path's
/// worst case: half the rows bulk-built, the rest landed by eight
/// flushes (each scattering ~100 rows into every cell), then one
/// maintenance pass over an RCFile index. Every file the pass wrote
/// must carry its `.scx` twin, and queries on the *flushed* rows must
/// consult it and meet the bar.
#[test]
fn compacted_rcfile_slices_keep_their_sidecars_and_the_bytes_bar() {
    use dgfindex::core::{Maintainer, MaintenanceConfig};

    let n = CLUSTERED_ROWS as i64;
    let rows = clustered_rows(CLUSTERED_ROWS);
    let (seeded, streamed) = rows.split_at(CLUSTERED_ROWS / 2);
    let w = world("compacted", seeded, SMALL_GROUP);
    let index = build(&w, Arc::new(MemKvStore::new()));
    let ingestor = StreamIngestor::open(
        Arc::clone(&index),
        w._tmp.path().join("ingest.wal"),
        IngestConfig {
            flush_rows: u64::MAX,
            auto_flush_interval: None,
            ..IngestConfig::default()
        },
    )
    .unwrap();
    for batch in streamed.chunks(streamed.len() / 8) {
        ingestor.ingest(batch).unwrap();
        ingestor.flush().unwrap();
    }
    ingestor.close().unwrap();

    let asked = selective_queries(n / 2 + n / 10, 3 * n / 4, 13);
    let answers_before: Vec<QueryResult> = asked
        .iter()
        .map(|(_, q)| run_with_sidecar(&w, &index, q, true).result)
        .collect();

    let budget = 4;
    let before = index.pin_view().unwrap().data_files;
    assert!(before.len() > budget, "only {} live files", before.len());
    let report = Maintainer::new(
        Arc::clone(&index),
        MaintenanceConfig {
            delta_file_budget: budget,
            ..MaintenanceConfig::default()
        },
    )
    .run_once()
    .unwrap();
    assert!(report.compacted_files > 0, "nothing compacted: {report:?}");

    let after = index.pin_view().unwrap().data_files;
    assert!(after.len() <= budget);
    let written: Vec<String> = after
        .iter()
        .filter(|(id, _)| !before.iter().any(|(old, _)| old == id))
        .map(|(id, _)| id.path(&index.data.location))
        .collect();
    assert!(!written.is_empty(), "the pass published no new file");
    for path in written {
        assert!(
            w.ctx.hdfs.file_exists(&sidecar_path(&path)),
            "compacted file {path} has no sidecar"
        );
    }
    // Compaction moves bytes, never re-aggregates: no answer bit moves.
    for ((name, q), was) in asked.iter().zip(&answers_before) {
        let now = assert_reads_a_quarter(&w, &index, name, q);
        assert_bits_eq(&now, was, &format!("{name} across compaction"));
    }
}

/// The sidecar file itself round-trips the staged commit: after a clean
/// build every slice has exactly one sidecar, named by suffix.
#[test]
fn every_slice_gets_exactly_one_sidecar() {
    let rows = fixed_rows(300, 0.1);
    let w = world("pair", &rows, 16);
    let index = build(&w, Arc::new(MemKvStore::new()));
    let files = w.ctx.hdfs.list_files(&index.data.location);
    let data: Vec<&String> = files
        .iter()
        .map(|(p, _)| p)
        .filter(|p| !is_sidecar_path(p))
        .collect();
    let scx: Vec<&String> = files
        .iter()
        .map(|(p, _)| p)
        .filter(|p| is_sidecar_path(p))
        .collect();
    assert!(!data.is_empty());
    assert_eq!(data.len(), scx.len(), "slice/sidecar pairing broke");
    for d in data {
        assert!(
            scx.iter().any(|s| **s == sidecar_path(d)),
            "slice {d} has no sidecar"
        );
    }
}

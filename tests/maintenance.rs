//! Maintenance daemon end-to-end (DESIGN.md §16).
//!
//! Long-running indexes leak four ways: streaming flushes scatter
//! slices across ever more delta files, retired files linger, the
//! append-only KV log keeps dead bytes forever (serving never calls
//! `flush()`), and the `(generation, gfu)` header cache accumulates
//! dead epochs. Each test here pins one counter-measure:
//!
//! * delta compaction keeps the live data-file count within a fixed
//!   budget under repeated append+maintain cycles, with answers
//!   **bit-identical** across every pass (headers copied verbatim);
//! * retired files get exactly one round of GC grace before deletion;
//! * `KvStore::maintain` bounds the log without any flush;
//! * a published view retires every older header-cache generation;
//! * a regrid after a compaction re-reads only *live* slice bytes —
//!   the regression for the double-count bug where whole-file splits
//!   re-read dead ranges of retained files;
//! * grid adaptation is the advisor run over the planner's own query
//!   history: no history moves nothing, a move preserves answers and
//!   the grid-directory invariants, and a workload that shifts twice
//!   settles each time in a few passes without revisiting a policy;
//! * a crash at any instrumented `maint.*` / `txn.*` / `apply.*` site
//!   recovers to a store that answers as the model and still converges
//!   to the file budget;
//! * a regrid or a compaction that fails *after* its commit point is
//!   finished by the next writer on the same handle, which starts
//!   clean: no lost cells, no residue, no refused pass.
//!
//! The last two are sweeps of the lifecycle checker
//! ([`common::checker::sweep`]).

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use common::checker::{sweep, Op, Site};
use common::*;
use dgfindex::core::advisor::{self, AdvisorConfig};
use dgfindex::core::{all_gfus, DimScale, MaintenanceConfig, Maintainer};
use dgfindex::format::is_sidecar_path;
use dgfindex::kvstore::LogKvConfig;
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, MeterConfig};

/// Bulk-build the first two days, then append the rest in `batches`
/// small batches — each append lands one delta file, so the data
/// directory ends up with `batches` deltas on top of the build output.
/// Returns the acknowledged rows too.
fn seed_with_deltas(w: &World, batches: usize) -> (Arc<DgfIndex>, MeterConfig, Vec<Row>) {
    let (seeded, rest) = seed_index(w);
    let index = open_index(w);
    let chunk = (rest.len() / batches).max(1);
    for batch in rest.chunks(chunk) {
        index.append(batch).unwrap();
    }
    (index, meter_cfg(), [seeded, rest].concat())
}

/// Data files currently on disk (sidecars excluded, retired-but-not-
/// yet-reclaimed files included).
fn disk_files(index: &DgfIndex) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = index
        .ctx
        .hdfs
        .list_files(&index.data.location)
        .into_iter()
        .filter(|(p, _)| !is_sidecar_path(p))
        .collect();
    v.sort();
    v
}

/// Files still serving at least one committed slice.
fn live_files(index: &DgfIndex) -> Vec<(String, u64)> {
    let gc: std::collections::HashSet<String> = index.gc_list().unwrap().into_iter().collect();
    disk_files(index)
        .into_iter()
        .filter(|(p, _)| !gc.contains(p))
        .collect()
}

/// Every answer of the mix equals the model over `rows`, the
/// acknowledged rows.
fn assert_matches_model(index: &Arc<DgfIndex>, cfg: &MeterConfig, rows: &[Row], label: &str) {
    let truth = model(cfg, rows);
    for (qi, (got, truth)) in answers(index, cfg).iter().zip(&truth).enumerate() {
        assert!(
            got.approx_eq(truth, 1e-9),
            "{label} q{qi}: index disagrees with the model:\n  got   {got:?}\n  truth {truth:?}"
        );
    }
}

/// Tentpole: repeated append+maintain cycles keep the live data-file
/// count within the delta budget, retired files get exactly one round
/// of grace, and every answer stays bit-identical throughout.
#[test]
fn compaction_bounds_live_files_and_preserves_answer_bits() {
    let w = world("budget");
    let (index, cfg, mut rows) = seed_with_deltas(&w, 6);
    let budget = 3;
    assert!(
        live_files(&index).len() > budget,
        "setup produced too few delta files for the harness to bite"
    );

    let oracle = answers(&index, &cfg);
    let maintainer = Maintainer::new(
        Arc::clone(&index),
        MaintenanceConfig {
            delta_file_budget: budget,
            ..MaintenanceConfig::default()
        },
    );

    // First pass: compaction retires the small deltas but leaves them
    // on disk — readers pinned to the prior view get one full round.
    let r1 = maintainer.run_once().unwrap();
    assert!(r1.compacted_files > 0, "nothing compacted: {r1:?}");
    assert!(r1.compacted_gfus > 0);
    assert_eq!(r1.reclaimed_files, 0, "no earlier round to reclaim yet");
    let gc = index.gc_list().unwrap();
    assert_eq!(gc.len(), r1.compacted_files);
    for path in &gc {
        assert!(
            w.ctx.hdfs.file_exists(path),
            "{path} deleted at commit instead of deferred"
        );
    }
    assert!(
        live_files(&index).len() <= budget,
        "live files over budget after compaction: {:?}",
        live_files(&index)
    );
    assert!(bits_eq(&answers(&index, &cfg), &oracle), "compaction moved float bits");

    // Second pass: the grace round ends, the retired files disappear,
    // and with the store under budget nothing new compacts.
    let r2 = maintainer.run_once().unwrap();
    assert_eq!(r2.reclaimed_files, r1.compacted_files);
    assert_eq!(r2.compacted_files, 0);
    for path in &gc {
        assert!(!w.ctx.hdfs.file_exists(path), "{path} survived its grace round");
    }
    assert!(index.gc_list().unwrap().is_empty());
    assert!(disk_files(&index).len() <= budget);
    assert!(bits_eq(&answers(&index, &cfg), &oracle));

    // Sustained churn: more flush-like appends, more passes — the bound
    // and the bits hold at every step.
    let extra = generate_meter_data(&MeterConfig {
        users: cfg.users,
        days: 2,
        start_day: cfg.start_day + cfg.days as i64,
        seed: 99,
        ..cfg.clone()
    });
    let chunk = (extra.len() / 4).max(1);
    for (i, batch) in extra.chunks(chunk).enumerate() {
        index.append(batch).unwrap();
        rows.extend_from_slice(batch);
        let oracle = answers(&index, &cfg);
        let report = maintainer.run_once().unwrap();
        assert!(
            live_files(&index).len() <= budget,
            "cycle {i}: live files over budget after {report:?}"
        );
        assert!(
            bits_eq(&answers(&index, &cfg), &oracle),
            "cycle {i}: maintenance moved float bits"
        );
    }
    assert_matches_model(&index, &cfg, &rows, "after churn");
}

/// Satellite: a pass says what it did through `obs` — one `maintain`
/// span with a child per stage that ran, each carrying the stage's
/// `kv.*` / `hdfs.*` deltas, and `maintain.*` counters that equal the
/// reports pass by pass.
#[test]
fn a_pass_reports_its_stages_and_counters() {
    use dgfindex::common::obs::{names, Profiler};
    let w = world("obs");
    let (mut index, _, _) = seed_with_deltas(&w, 6);
    let profiler = Profiler::enabled();
    Arc::get_mut(&mut index)
        .expect("the seeded index has one handle")
        .set_profiler(profiler.clone());
    let maintainer = Maintainer::new(
        Arc::clone(&index),
        MaintenanceConfig {
            delta_file_budget: 3,
            ..MaintenanceConfig::default()
        },
    );
    let (mut compacted, mut reclaimed, mut gfus, mut bytes) = (0, 0, 0, 0);
    for pass in 1..=2u64 {
        let report = maintainer.run_once().unwrap();
        let profile = profiler.take_profile();
        assert!(profile.check_nesting().is_empty());
        let root = profile.find("maintain").expect("maintain span");
        for stage in ["maintain.gc", "maintain.compact", "maintain.kvlog"] {
            assert!(root.find(stage).is_some(), "pass {pass}: no {stage} span");
        }
        // No flush hook and no adaptation configured: those stages did
        // not run, so they have no span.
        assert!(root.find("maintain.flush").is_none());
        assert!(root.find("maintain.regrid").is_none());
        let compact = &root.find("maintain.compact").unwrap().metrics;
        if pass == 1 {
            assert!(report.compacted_files > 0, "nothing compacted: {report:?}");
            assert!(compact[names::HDFS_BYTES_WRITTEN] >= report.compacted_bytes);
            assert!(compact[names::KV_PUTS] >= report.compacted_gfus as u64);
        } else {
            assert_eq!(report.reclaimed_files as u64, compacted);
            assert!(!compact.contains_key(names::HDFS_BYTES_WRITTEN), "idle stage wrote");
        }
        compacted += report.compacted_files as u64;
        reclaimed += report.reclaimed_files as u64;
        gfus += report.compacted_gfus as u64;
        bytes += report.compacted_bytes;
        let reg = index.metrics();
        assert_eq!(reg.get(names::MAINTAIN_PASSES), pass);
        assert_eq!(reg.get(names::MAINTAIN_FILES_COMPACTED), compacted);
        assert_eq!(reg.get(names::MAINTAIN_FILES_RECLAIMED), reclaimed);
        assert_eq!(reg.get(names::MAINTAIN_GFUS_REWRITTEN), gfus);
        assert_eq!(reg.get(names::MAINTAIN_BYTES_REWRITTEN), bytes);
        assert_eq!(reg.get(names::MAINTAIN_REGRIDS), 0);
    }
    assert!(bytes > 0);
}

/// Satellite: the KV log stays bounded through `maintain()` alone — no
/// serving path ever calls `flush()`, so without the threshold-gated
/// compaction the dead bytes of overwritten GFU values would grow
/// without bound.
#[test]
fn kv_log_stays_bounded_without_flush() {
    let tmp = TempDir::new("maint-kvlog").unwrap();
    let log = Arc::new(
        LogKvStore::open_with(
            tmp.path().join("gfu.log"),
            LogKvConfig {
                // No flush-time trigger: the daemon is the only bound.
                auto_compact: false,
                compact_min_bytes: 1 << 12,
                compact_dead_ratio: 0.5,
            },
        )
        .unwrap(),
    );
    let w = World {
        inner: Arc::clone(&log) as Arc<dyn KvStore>,
        ..world("kvlog")
    };
    let (index, cfg, mut rows) = seed_with_deltas(&w, 2);
    let maintainer = Maintainer::new(
        Arc::clone(&index),
        MaintenanceConfig {
            // Large enough that file compaction stays out of the way:
            // this test isolates the KV log bound.
            delta_file_budget: 1 << 16,
            ..MaintenanceConfig::default()
        },
    );

    let churn = generate_meter_data(&MeterConfig {
        users: cfg.users,
        days: 6,
        start_day: cfg.start_day + cfg.days as i64,
        seed: 7,
        ..cfg.clone()
    });
    let chunk = (churn.len() / 12).max(1);
    let mut reclaimed_total = 0;
    for batch in churn.chunks(chunk) {
        // Every append overwrites live GFU values, the view, and the
        // extents — all dead bytes in an append-only log.
        index.append(batch).unwrap();
        rows.extend_from_slice(batch);
        let report = maintainer.run_once().unwrap();
        reclaimed_total += report.kv_reclaimed_bytes;
        // The maintained invariant: dead bytes never exceed the
        // configured fraction of a log worth compacting.
        let (len, dead) = (log.log_len(), log.dead_bytes());
        assert!(
            len < (1 << 12) || (dead as f64) / (len as f64) <= 0.5,
            "log unbounded: {len} bytes, {dead} dead"
        );
    }
    assert!(
        reclaimed_total > 0,
        "churn never tripped the maintenance compaction — harness is vacuous"
    );
    assert_matches_model(&index, &cfg, &rows, "after kv churn");
}

/// Satellite: publishing a view retires every older header-cache
/// generation eagerly. Before the fix the cache held one dead epoch of
/// entries per append until capacity eviction got around to them.
#[test]
fn header_cache_drops_dead_generations_on_view_advance() {
    let w = world("cache");
    let (index, cfg, _) = seed_with_deltas(&w, 2);
    // Force the per-cell header path (the pyramid would answer inner
    // regions without touching the cache).
    let engine = DgfEngine::new(Arc::clone(&index)).without_precompute();
    let q = &queries(&cfg)[1];

    engine.run(q).unwrap();
    let cache = index.header_cache();
    assert!(!cache.is_empty(), "query filled no headers");
    assert_eq!(cache.live_generations().len(), 1);

    let extra = generate_meter_data(&MeterConfig {
        users: cfg.users,
        days: 3,
        start_day: cfg.start_day + cfg.days as i64,
        seed: 11,
        ..cfg.clone()
    });
    let chunk = (extra.len() / 3).max(1);
    for (i, batch) in extra.chunks(chunk).enumerate() {
        index.append(batch).unwrap();
        engine.run(q).unwrap();
        let gens = cache.live_generations();
        assert_eq!(
            gens.len(),
            1,
            "cycle {i}: dead generations linger in the cache: {gens:?}"
        );
        // Occupancy is bounded by the live grid, not by history.
        let cells = all_gfus(w.inner.as_ref(), 2).unwrap().len();
        assert!(
            cache.len() <= cells,
            "cycle {i}: {} cached headers for {cells} live cells",
            cache.len()
        );
    }
}

/// Regression: regrid after compaction must read only *live* slice
/// ranges. A file retained through compaction (because an untouched
/// GFU still references part of it) holds dead byte ranges whose rows
/// were rewritten into the compacted file; whole-file splits re-read
/// them and double-count. Narrow appends guarantee such a file exists
/// before the regrid.
#[test]
fn regrid_after_compaction_does_not_double_count() {
    let w = world("regrid");
    let cfg = meter_cfg();
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let seeded = &rows[..2 * per_day];
    w.ctx.load_rows(&w.base, seeded, 2).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        grid(&cfg),
        aggs(),
        Arc::clone(&w.inner),
        INDEX,
    )
    .unwrap();
    let index = Arc::new(index);
    // Narrow deltas: only users 0–1, so compaction rewrites the low
    // user cells while the high cells keep their seed-file slices —
    // the seed files survive with dead ranges inside.
    let narrow = generate_meter_data(&MeterConfig {
        users: 2,
        days: cfg.days,
        seed: 5,
        ..cfg.clone()
    });
    let chunk = (narrow.len() / 4).max(1);
    for batch in narrow.chunks(chunk) {
        index.append(batch).unwrap();
    }

    let maintainer = Maintainer::new(
        Arc::clone(&index),
        MaintenanceConfig {
            delta_file_budget: 4,
            ..MaintenanceConfig::default()
        },
    );
    let report = maintainer.run_once().unwrap();
    assert!(report.compacted_files > 0);

    // Precondition for the regression to have teeth: some retained
    // file holds bytes no live slice covers.
    let mut live_bytes: HashMap<String, u64> = HashMap::new();
    for (_, v) in all_gfus(index.kv.as_ref(), 2).unwrap() {
        for s in &v.slices {
            *live_bytes.entry(s.file.path(&index.data.location)).or_default() += s.end - s.start;
        }
    }
    let has_dead_range = live_files(&index)
        .iter()
        .any(|(p, size)| live_bytes.get(p).copied().unwrap_or(0) < *size);
    assert!(
        has_dead_range,
        "no retained file with dead ranges — regression scenario not reproduced"
    );

    // Halve the user_id interval: the rewrite re-cells every record.
    // Before the fix this double-counted the dead ranges (COUNT jumped
    // by the compacted rows; the model comparison below catches it).
    let mut dims = grid(&cfg).dims().to_vec();
    dims[0] = DimPolicy::int("user_id", 0, 2);
    maintainer.regrid_to(SplittingPolicy::new(dims).unwrap()).unwrap();
    let rows = [seeded, &narrow].concat();
    assert_matches_model(&index, &cfg, &rows, "after halving regrid");
    assert_grid_directory(&index, rows.len() as u64, "after halving regrid");

    // And back out to a coarser grid over the regridded store.
    let mut dims = grid(&cfg).dims().to_vec();
    dims[0] = DimPolicy::int("user_id", 0, 8);
    maintainer.regrid_to(SplittingPolicy::new(dims).unwrap()).unwrap();
    assert_matches_model(&index, &cfg, &rows, "after doubling regrid");
    assert_grid_directory(&index, rows.len() as u64, "after doubling regrid");
}

/// GROUP BY `ts` on one-day cells is answered per day from headers; a
/// regrid to two-day cells makes a cell span two groups, and the same
/// query degrades to the scan of every query-related Slice. Whether a
/// key's cells hold one value is the pinned view's to say: a handle
/// opened before the regrid still holds the one-day policy, and it must
/// degrade as well. Both sides agree with the model.
#[test]
fn a_regrid_that_widens_the_group_key_degrades_its_group_by() {
    let w = world("regrid-groups");
    let (index, cfg, rows) = seed_with_deltas(&w, 2);
    let stale = open_index(&w);
    let q = Query::GroupBy {
        key: "ts".into(),
        aggs: aggs(),
        predicate: Predicate::all().and(
            "user_id",
            ColumnRange::half_open(Value::Int(1), Value::Int(cfg.users as i64)),
        ),
    };
    let truth = model_answer(&q, &rows);
    let agrees = |handle: &Arc<DgfIndex>, label: &str| {
        let got = DgfEngine::new(Arc::clone(handle)).run(&q).unwrap().result;
        assert_eq!(
            truth.clone().into_groups().len() as u64,
            cfg.days,
            "{label}"
        );
        assert!(got.approx_eq(&truth, 1e-9), "{label}: {got:?} vs {truth:?}");
    };

    let plan = stale.plan(&q, true).unwrap();
    assert!(plan.inner_records > 0, "one-day cells answered no group");
    agrees(&stale, "one-day cells");

    let mut dims = grid(&cfg).dims().to_vec();
    dims[1] = DimPolicy::date("ts", cfg.start_day, 2);
    Maintainer::new(Arc::clone(&index), MaintenanceConfig::default())
        .regrid_to(SplittingPolicy::new(dims).unwrap())
        .unwrap();
    assert_eq!(
        stale.policy().dims()[1].scale,
        DimScale::Int {
            min: cfg.start_day,
            interval: 1
        },
        "the stale handle was meant to keep the one-day policy"
    );
    for (handle, label) in [(&index, "regridding handle"), (&stale, "stale handle")] {
        let plan = handle.plan(&q, true).unwrap();
        assert_eq!(
            plan.inner_records, 0,
            "{label}: two-day cells answered a group"
        );
        assert!(plan.inner_states.is_none(), "{label}");
        agrees(handle, label);
    }
}

/// The adaptation worlds: 200 users × 16 days on a grid coarse on both
/// dimensions — big enough that the advisor's model has rows to trade
/// against lookups, and sized so that every interval the advisor can
/// choose divides the extents (the domain a grid reports does not move
/// with its cell size). Returns the maintained handle and a second one
/// on the same store: checking answers and measuring reads through the
/// second keeps the first one's query history the workload's alone.
fn adaptive_world(tag: &str) -> (World, Arc<DgfIndex>, Arc<DgfIndex>, MeterConfig) {
    let w = world(tag);
    let cfg = MeterConfig {
        users: 200,
        days: 16,
        ..MeterConfig::default()
    };
    w.ctx.load_rows(&w.base, &generate_meter_data(&cfg), 2).unwrap();
    let policy = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 50),
        DimPolicy::date("ts", cfg.start_day, 4),
    ])
    .unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        policy,
        aggs(),
        Arc::clone(&w.inner),
        INDEX,
    )
    .unwrap();
    let checker = DgfIndex::open(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        Arc::clone(&w.inner),
        INDEX,
        aggs(),
    )
    .unwrap();
    (w, Arc::new(index), Arc::new(checker), cfg)
}

fn adapting(index: &Arc<DgfIndex>) -> Maintainer {
    Maintainer::new(
        Arc::clone(index),
        MaintenanceConfig {
            delta_file_budget: 1 << 16,
            adapt: true,
            ..MaintenanceConfig::default()
        },
    )
}

/// `n` aggregations, `width` users wide and `days` days long (`None` =
/// every day), placed by a seeded rng.
fn workload(cfg: &MeterConfig, seed: u64, n: usize, width: i64, days: Option<i64>) -> Vec<Query> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let user = rng.random_range(0..cfg.users as i64 - width + 1);
            let mut predicate = Predicate::all().and(
                "user_id",
                ColumnRange::half_open(Value::Int(user), Value::Int(user + width)),
            );
            if let Some(days) = days {
                let day = cfg.start_day + rng.random_range(0..cfg.days as i64 - days + 1);
                predicate = predicate.and(
                    "ts",
                    ColumnRange::half_open(Value::Date(day), Value::Date(day + days)),
                );
            }
            Query::Aggregate {
                aggs: aggs(),
                predicate,
            }
        })
        .collect()
}

/// Plan `queries` on `index` — the half of a query that enters the
/// history; the scans that would follow are what [`records_read`]
/// measures on a handle whose history nobody reads.
fn replay(index: &DgfIndex, queries: &[Query]) {
    for q in queries {
        index.plan(q, true).unwrap();
    }
}

/// Mean records read per query, running every seventh of `queries`
/// through the default engine.
fn records_read(checker: &Arc<DgfIndex>, queries: &[Query]) -> f64 {
    let engine = DgfEngine::new(Arc::clone(checker));
    let sample: Vec<&Query> = queries.iter().step_by(7).collect();
    let read: u64 = sample
        .iter()
        .map(|q| engine.run(q).unwrap().stats.data_records_read)
        .sum();
    read as f64 / sample.len() as f64
}

/// Grid adaptation is the advisor run over the planner's own history: a
/// handle that planned nothing leaves the grid alone, and so does one whose
/// history is too short to repay re-celling the table; enough narrow
/// `user_id` queries move `user_id` to the advisor's optimum in one
/// rewrite that preserves answers, the next pass stays, and the
/// `maintain.regrid` span says what the advisor saw whether or not the
/// pass moved.
#[test]
fn adaptation_follows_the_recorded_history_and_preserves_answers() {
    use dgfindex::common::obs::{names, Profiler};
    let (_w, mut index, checker, cfg) = adaptive_world("adapt");
    let profiler = Profiler::enabled();
    Arc::get_mut(&mut index)
        .expect("the built index has one handle")
        .set_profiler(profiler.clone());
    let maintainer = adapting(&index);
    let seeded = index.pin_view().unwrap().policy;
    let regrid_span = || {
        let profile = profiler.take_profile();
        profile.find("maintain.regrid").expect("the stage ran").metrics.clone()
    };

    assert_eq!(maintainer.run_once().unwrap().adapted, None, "no history, no move");
    assert!(!regrid_span().contains_key(names::MAINTAIN_HISTORY_LEN));

    replay(&index, &workload(&cfg, 1, 1, 6, None));
    assert_eq!(maintainer.run_once().unwrap().adapted, None, "one query repays no rewrite");
    assert_eq!(index.pin_view().unwrap().policy, seeded);
    let short = regrid_span();
    assert_eq!(short[names::MAINTAIN_HISTORY_LEN], 1);
    assert!(short[names::MAINTAIN_COST_CHOSEN] > 0);
    assert_eq!(short[names::MAINTAIN_COST_CHOSEN], short[names::MAINTAIN_COST_CURRENT]);

    replay(&index, &workload(&cfg, 2, 127, 6, None));
    profiler.take_profile();
    let desc = maintainer.run_once().unwrap().adapted;
    let desc = desc.expect("50-user cells under 128 six-user queries should have split");
    assert!(desc.starts_with("user_id"), "{desc}");
    let DimScale::Int { interval, .. } = index.policy().dims()[0].scale else {
        panic!("user_id is an integer dimension")
    };
    assert!(interval < 50, "user_id did not get finer: {desc}");
    assert_matches_model(&checker, &cfg, &generate_meter_data(&cfg), "after the move");
    assert_grid_directory(&index, cfg.row_count(), "after the move");
    let moved = regrid_span();
    assert_eq!(moved[names::MAINTAIN_HISTORY_LEN], 128);
    assert!(moved[names::MAINTAIN_CANDIDATES] > 1);
    assert!(moved[names::MAINTAIN_COST_CHOSEN] < moved[names::MAINTAIN_COST_CURRENT]);

    assert_eq!(maintainer.run_once().unwrap().adapted, None, "the optimum is a fixed point");
    let stayed = regrid_span();
    assert_eq!(stayed[names::MAINTAIN_HISTORY_LEN], 128);
    assert_eq!(stayed[names::MAINTAIN_COST_CHOSEN], stayed[names::MAINTAIN_COST_CURRENT]);
    assert_eq!(index.metrics().get(names::MAINTAIN_REGRIDS), 1);
}

/// The convergence soak: a workload that shifts twice — narrow on
/// `user_id`, then wide on `user_id` and narrow on `ts`, then the first
/// again — and then sits exactly where two policies tie. Each phase's
/// queries run through the engine (which is what fills the history);
/// then six adapting passes run, the workload carrying on between them.
/// Per phase: the grid is left alone by the third pass at the latest and
/// by every pass after the first that leaves it alone, no policy is
/// visited twice, every move keeps the answers and the directory
/// invariants, and the grid the model priced as cheaper *is* cheaper in
/// records read.
///
/// The last phase is what the rewrite-must-repay inequality is for. Its
/// history holds the two shapes in the proportion at which the model's
/// optimum tips from one policy to another, and the workload carrying on
/// moves that proportion by one query up, one down. Without the
/// inequality every pass re-cells the table for a saving of a fraction
/// of a row per query, and the third pass is back on the first policy.
#[test]
fn a_shifting_workload_settles_without_oscillating() {
    let (_w, index, checker, cfg) = adaptive_world("soak");
    let rows = generate_meter_data(&cfg);
    let maintainer = adapting(&index);
    let rows_total = cfg.row_count();
    let model = AdvisorConfig::default();
    // The model's boundary rows alone: no lookups, no regulariser.
    let rows_only = AdvisorConfig {
        lookup_cost: 0.0,
        cell_cost: 0.0,
        ..model.clone()
    };
    let stats = {
        let view = index.pin_view().unwrap();
        advisor::grid_stats(&index.policy(), &view.extents.dims).unwrap()
    };
    let ranges = |queries: &[Query]| -> Vec<advisor::QueryRanges> {
        let dims = || stats.iter().map(|s| s.name.as_str());
        queries.iter().map(|q| advisor::ranges_of(q.predicate(), dims())).collect()
    };

    let narrow = |seed, n| workload(&cfg, seed, n, 6, None);
    let wide = |seed, n| workload(&cfg, seed, n, 150, Some(2));
    // A full ring of `k` narrow queries and `256 - k` wide ones, its
    // oldest entries alternating between the shapes — so a workload that
    // carries on alternating swaps one shape for the other.
    let (a, b) = (narrow(7, 256), wide(8, 256));
    let balanced = |k: usize| -> Vec<Query> {
        let pairs = 256 - k;
        let mut out: Vec<Query> = (0..pairs).flat_map(|i| [b[i].clone(), a[i].clone()]).collect();
        out.extend_from_slice(&a[pairs..k]);
        out
    };
    // Bisect for a `k` at which the optimum over such a ring tips.
    let (a_ranges, b_ranges) = (ranges(&a), ranges(&b));
    let optimum = |k: usize| {
        let history = [&a_ranges[..k], &b_ranges[..256 - k]].concat();
        advisor::search(&stats, &history, rows_total, &model).unwrap().policy
    };
    let (mut below, mut tip) = (128, 255);
    assert_ne!(optimum(below), optimum(tip), "one optimum for every mix");
    while tip - below > 1 {
        let mid = (below + tip) / 2;
        if optimum(mid) == optimum(below) {
            below = mid;
        } else {
            tip = mid;
        }
    }

    type CarryOn<'a> = Box<dyn Fn(u64) -> Vec<Query> + 'a>;
    let phases: Vec<(&str, Vec<Query>, CarryOn)> = vec![
        ("narrow user_id", narrow(1, 256), Box::new(|pass| narrow(10 + pass, 32))),
        ("wide user_id, narrow ts", wide(2, 256), Box::new(|pass| wide(20 + pass, 32))),
        ("narrow user_id again", narrow(3, 256), Box::new(|pass| narrow(30 + pass, 32))),
        (
            "balanced on a tie",
            balanced(tip - 1),
            Box::new(|pass| if pass % 2 == 1 { narrow(40 + pass, 1) } else { wide(40 + pass, 1) }),
        ),
    ];
    for (name, queries, carry_on) in phases {
        let replaced = index.policy();
        let read_before = records_read(&checker, &queries);
        replay(&index, &queries);
        let mut visited = vec![replaced.encode()];
        let mut quiet_since = None;
        for pass in 1..=6 {
            match maintainer.run_once().unwrap().adapted {
                None => quiet_since = quiet_since.or(Some(pass)),
                Some(desc) => {
                    let label = format!("{name}, pass {pass} ({desc})");
                    assert_eq!(quiet_since, None, "{label}: moved again after settling");
                    assert!(pass < 3, "{label}: still moving");
                    let now = index.policy().encode();
                    assert!(!visited.contains(&now), "{label}: back on a policy already left");
                    visited.push(now);
                    assert_matches_model(&checker, &cfg, &rows, &label);
                    assert_grid_directory(&index, cfg.row_count(), &label);
                }
            }
            replay(&index, &carry_on(pass));
        }

        let chosen = index.policy();
        let read_after = records_read(&checker, &queries);
        let history = index.history().snapshot();
        let predicted = advisor::price(&chosen, &stats, &history, rows_total, &rows_only).unwrap();
        let scales = |p: &SplittingPolicy| {
            let intervals = p.dims().iter().map(|d| match d.scale {
                DimScale::Int { interval, .. } => interval.to_string(),
                DimScale::Float { interval, .. } => interval.to_string(),
            });
            intervals.collect::<Vec<_>>().join(" × ")
        };
        let summary = format!(
            "{name}: {} move(s), {} → {}; records read per query {read_before:.1} → \
             {read_after:.1}, model {:.1} (measured/predicted {:.2})",
            visited.len() - 1,
            scales(&replaced),
            scales(&chosen),
            predicted.expected_cost,
            read_after / predicted.expected_cost,
        );
        println!("{summary}");
        assert!(read_after <= read_before, "the grid priced as cheaper reads more — {summary}");
    }
}

/// The last two days appended in `k` batches: `k` delta files on top of
/// the build output, for a sweep's prefix.
fn appends(k: usize) -> Vec<Op> {
    let (_, rest) = seed_rows();
    let chunk = rest.len().div_ceil(k);
    rest.chunks(chunk).map(|batch| Op::Append(batch.to_vec())).collect()
}

/// Satellite: crash the compaction at every site of its commit window —
/// intent, staging, around the commit point, apply, cleanup. Recovery
/// must leave no transaction residue and answers equal to the model, and
/// the passes after it must still bring the live files within budget.
#[test]
fn crashes_across_the_maintenance_window_recover_cleanly() {
    let crash = |n| Op::crash(Op::Compact(3), Site::Point(n));
    let tally = sweep(1, &appends(6), crash, &[Op::Compact(3), Op::Compact(3)]);
    assert_eq!(tally.kills, tally.sites, "{tally:?}");
    assert!(tally.sites >= 6, "expected a rich maintenance crash-site space: {tally:?}");
}

/// Regression: a regrid that fails *after* its commit point (the `g:`
/// shards go away during apply) used to leave its Committed manifest in
/// the store, and the next `append` on the same handle overwrote it
/// with its own Intent — dropping the unpublished cells and celling the
/// new rows under the stale in-memory policy: silently short answers.
/// Swept over every publish of the regrid's apply phase; the checker
/// asserts the committed grid once the append has run.
#[test]
fn append_after_a_regrid_that_failed_past_its_commit_point_loses_nothing() {
    let cfg = meter_cfg();
    let next_day = generate_meter_data(&MeterConfig {
        days: 1,
        start_day: cfg.start_day + cfg.days as i64,
        seed: 17,
        ..cfg
    });
    let outage = |n| Op::Outage(Box::new(Op::Regrid(2, 1)), n);
    let then = [Op::Append(next_day), Op::Compact(1 << 16)];
    let tally = sweep(1, &appends(2), outage, &then);
    assert_eq!(tally.kills, tally.sites, "{tally:?}");
    assert!(tally.sites >= 8, "regrid published only {} cells", tally.sites);
}

/// Regression: the same outage during a compaction pass used to leave
/// the Committed manifest behind, make every later `run_once` on the
/// handle refuse ("requires a clean store"), and let the next append
/// orphan the staged keys and the never-published `m:gc` list. Swept
/// over every publish of the compaction's apply phase; the next pass
/// must leave the live files within budget and every answer's bits.
#[test]
fn maintenance_resumes_after_a_compaction_that_failed_past_its_commit_point() {
    let outage = |n| Op::Outage(Box::new(Op::Compact(2)), n);
    let tally = sweep(1, &appends(6), outage, &[Op::Compact(2)]);
    assert_eq!(tally.kills, tally.sites, "{tally:?}");
    assert!(tally.sites >= 4, "compaction published only {} cells", tally.sites);
}

/// Regression: a plan enters the query history once, from the attempt
/// that validated. The plan is forced through a second attempt without
/// any timing: a [`FreshSource`] whose first snapshot appends a row
/// through a second handle on the same store commits a new view between
/// the planner's pin and its validation, so the first attempt is a
/// discarded one. Were discarded attempts recorded too, what grid
/// adaptation is advised on would depend on how commits happened to
/// race queries.
///
/// [`FreshSource`]: dgfindex::core::FreshSource
#[test]
fn raced_plan_enters_the_query_history_exactly_once() {
    use dgfindex::core::{FreshSource, GfuCells};

    /// Holds no rows; its first snapshot commits `row` through `writer`.
    struct CommitOnFirstSnapshot {
        writer: Arc<DgfIndex>,
        row: Row,
        snapshots: AtomicU64,
    }
    impl FreshSource for CommitOnFirstSnapshot {
        fn fresh_cells(&self, _flushed_seq: u64) -> Vec<Arc<GfuCells>> {
            if self.snapshots.fetch_add(1, SeqCst) == 0 {
                self.writer.append(std::slice::from_ref(&self.row)).unwrap();
            }
            Vec::new()
        }
    }

    let w = world("history");
    let cfg = meter_cfg();
    let (_, rest) = seed_index(&w);
    let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
    let index = open_with(&w, Arc::clone(&w.inner), &quiet);
    // user_id [1, 7) cuts through the first and the last 4-wide cell.
    let q = &queries(&cfg)[1];

    index.plan(q, true).unwrap();
    let unraced = index.history().snapshot();
    assert_eq!(unraced.len(), 1, "one plan, one entry: {unraced:?}");
    assert_eq!(unraced[0][0], (1.0, 7.0), "the plan's user_id range");

    let source = Arc::new(CommitOnFirstSnapshot {
        writer: open_index(&w),
        row: rest[0].clone(),
        snapshots: AtomicU64::new(0),
    });
    let generation = index.pin_view().unwrap().generation;
    index.set_fresh_source(Arc::clone(&source) as Arc<dyn FreshSource>);
    index.plan(q, true).unwrap();
    assert!(index.pin_view().unwrap().generation > generation, "the row never committed");
    assert_eq!(
        source.snapshots.load(SeqCst),
        2,
        "the plan was not forced through exactly one second attempt"
    );
    assert_eq!(index.history().snapshot(), [unraced[0].clone(), unraced[0].clone()]);
}

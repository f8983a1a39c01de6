//! One writer at a time, raced by readers: each test is a short, fixed
//! op sequence played by the lifecycle model checker
//! ([`common::checker`]) for every seed of `stress_seeds()`.
//!
//! The checker races 2–3 readers against every op and requires each
//! answer they see to equal the model (the acknowledged rows) at some
//! commit inside the op; `compact` must hold one answer in float bits.
//! `tests/lifecycle.rs` plays the same ops in seeded shuffled
//! sequences; these pin the writer each race is about, whatever the
//! shuffle draws, and assert from the run's [`Tally`] that the race
//! they pin happened. Two races need no seed: a flush held mid-commit
//! while the mix runs beside it, and a regrid held at its first publish
//! while a cold handle reads through its pending view.

mod common;

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use common::checker::{check, draw_rows, striped, Op, Site, Tally};
use common::*;
use dgfindex::common::obs::{names, ProfileNode, Profiler, QueryProfile};
use dgfindex::core::gfu::GFU_PREFIX;
use dgfindex::core::txn::STAGE_PREFIX;
use dgfindex::core::{Maintainer, MaintenanceConfig};
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, meter_schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Play the sequence `ops(rng)` draws for every stress seed; return each
/// seed with what its run did.
fn race(ops: impl Fn(&mut StdRng) -> Vec<Op>) -> Vec<(u64, Tally)> {
    stress_seeds()
        .into_iter()
        .map(|seed| (seed, check(seed, &ops(&mut StdRng::seed_from_u64(seed)))))
        .collect()
}

/// `k` striped batches of freshly drawn rows, `k` in `2..=4`.
fn batches(rng: &mut StdRng) -> Vec<Vec<Row>> {
    let k = rng.random_range(2..=4);
    striped(&draw_rows(rng), k)
}

#[test]
fn queries_during_append_see_pre_or_post_state_only() {
    race(|rng| (0..4).map(|_| Op::Append(draw_rows(rng))).collect());
}

/// Acknowledged-but-unflushed rows are query-visible, so a flush is
/// invisible: one legal answer throughout.
#[test]
fn queries_during_flush_never_waver() {
    race(|rng| vec![Op::Ingest(batches(rng)), Op::Flush]);
}

#[test]
fn queries_during_ingest_see_a_prefix_of_acknowledged_batches() {
    race(|rng| vec![Op::Ingest(batches(rng)), Op::Ingest(batches(rng))]);
}

/// Five crashes spread across the append protocol, from its first crash
/// point (rolled back) to its last (past the commit point: rolled
/// forward).
#[test]
fn queries_during_recovery_see_pre_or_post_state_only() {
    let spread = [0, u64::MAX / 3, u64::MAX / 2, u64::MAX / 3 * 2, u64::MAX];
    let runs = race(|rng| {
        let crash = |pick| Op::crash(Op::Append(draw_rows(rng)), Site::Pick(pick));
        spread.into_iter().map(crash).collect()
    });
    for (seed, tally) in runs {
        assert!(
            tally.rolled_back > 0 && tally.rolled_forward > 0,
            "seed {seed}: the spread missed a side of the commit point: {tally:?}"
        );
    }
}

/// Compaction is pure data movement: every observation must equal the
/// answers before it in float bits. Three appends over the built file
/// exceed either budget, so the pass always compacts.
#[test]
fn queries_during_compaction_never_waver_in_float_bits() {
    let runs = race(|rng| {
        let mut ops: Vec<Op> = (0..3).map(|_| Op::Append(draw_rows(rng))).collect();
        ops.push(Op::Compact(rng.random_range(1..=2)));
        ops
    });
    for (seed, tally) in runs {
        assert!(
            tally.compacted_files > 0,
            "seed {seed}: nothing compacted — the race is vacuous"
        );
    }
}

/// `user_id` finer, then `ts` coarser, then both coarser.
#[test]
fn queries_during_regrid_see_pre_or_post_state_only() {
    race(|rng| {
        vec![
            Op::Append(draw_rows(rng)),
            Op::Regrid(8, 1),
            Op::Regrid(4, 2),
            Op::Regrid(2, 4),
        ]
    });
}

/// The memtable holds ingested rows across each regrid.
#[test]
fn queries_during_regrid_with_unflushed_rows_see_pre_or_post_state_only() {
    race(|rng| {
        vec![
            Op::Ingest(batches(rng)),
            Op::Regrid(2, 1),
            Op::Ingest(batches(rng)),
            Op::Regrid(4, 2),
        ]
    });
}

#[test]
fn queries_during_append_on_the_sharded_path_see_pre_or_post_only() {
    race(|rng| {
        vec![
            Op::Reshard(rng.random_range(2..=4)),
            Op::Append(draw_rows(rng)),
            Op::Append(draw_rows(rng)),
        ]
    });
}

/// Rows acknowledged before the flush, then an append: the flush is
/// invisible and the append is the only transition.
#[test]
fn concurrent_flush_and_append_match_pre_or_post_oracle() {
    race(|rng| {
        vec![
            Op::Ingest(batches(rng)),
            Op::Flush,
            Op::Append(draw_rows(rng)),
        ]
    });
}

/// A flush held at its first staged put has swapped its slot into the
/// flushing slot and changed nothing a reader sees. Queries do not wait
/// for it: the whole mix answers the acknowledged rows from one plan
/// attempt each (one `plan.meta` span), the streamed rows read from the
/// memtable. Once the flush publishes, the same answers come from the
/// store, again from one attempt each.
#[test]
fn queries_behind_a_stalled_flush_answer_from_one_attempt() {
    let w = world("stalled-flush");
    let cfg = meter_cfg();
    let (seeded, streamed) = seed_index(&w);
    let truth = model(&cfg, &[seeded, streamed.clone()].concat());

    // The handle's first staged put is the flush's: opening, replaying
    // and ingesting stage nothing.
    let first = AtomicBool::new(true);
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let kv = hooked(Arc::clone(&w.inner), move |op| {
        if let KvOp::Put(key, _) = op {
            if key.starts_with(STAGE_PREFIX) && first.swap(false, SeqCst) {
                held_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        }
        Ok(())
    });
    let (ctx, base) = (Arc::clone(&w.ctx), Arc::clone(&w.base));
    let mut index = DgfIndex::open(ctx, base, kv, INDEX, aggs()).unwrap();
    index.set_profiler(Profiler::enabled());
    let index = Arc::new(index);
    let ingestor = stream(&index, w.tmp.path(), u64::MAX);
    ingestor.ingest(&streamed).unwrap();

    let engine = DgfEngine::new(Arc::clone(&index));
    let mix = || -> Vec<dgfindex::common::Result<(QueryResult, QueryProfile)>> {
        let run = |q: &Query| engine.run(q).map(|r| (r.result, r.stats.profile));
        queries(&cfg).iter().map(run).collect()
    };
    let (stalled, flushed) = std::thread::scope(|s| {
        let flush = s.spawn(|| ingestor.flush());
        held_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the flush never reached a staged put");
        let stalled = mix();
        release_tx.send(()).unwrap();
        (stalled, flush.join().unwrap())
    });
    assert_eq!(flushed.unwrap(), streamed.len() as u64);

    for (phase, runs) in [("stalled flush", stalled), ("published flush", mix())] {
        let (answers, profiles): (Vec<_>, Vec<_>) = runs
            .into_iter()
            .enumerate()
            .map(|(qi, r)| r.unwrap_or_else(|e| panic!("{phase}: q{qi} failed: {e}")))
            .unzip();
        assert!(
            bits_eq(&answers, &truth),
            "{phase}: {answers:?} vs {truth:?}"
        );
        for (qi, profile) in profiles.iter().enumerate() {
            let attempts = spans_named(&profile.roots, "plan.meta");
            assert_eq!(attempts, 1, "{phase}: q{qi} planned {attempts} times");
        }
        let fresh: u64 = profiles
            .iter()
            .map(|p| p.metric_total(names::PLAN_FRESH_RECORDS))
            .sum();
        assert_eq!(
            fresh > 0,
            phase == "stalled flush",
            "{phase}: {fresh} rows from memory"
        );
    }
}

/// A coarsening regrid held at its first live `g:` publish: its view is
/// committed and pending, the new grid's values sit as staged `s:`
/// twins, and the old grid's keys are still live, masked only by the
/// staged tombstones. A cold handle plans and runs a GROUP BY (the flat
/// shape) and a wide aggregate (the pyramid shape) through that overlay,
/// and both answer as the model does after the regrid. User 1's last two
/// days are missing, so new-grid cell (1, 1) holds nothing while the
/// old grid's key of the same coordinates holds user 1's second day:
/// without its tombstone, that old key would answer the new grid's
/// probe.
#[test]
fn a_pending_regrid_answers_through_its_tombstones() {
    let w = world("pending-regrid");
    let cfg = meter_cfg();
    let schema = meter_schema();
    let (user, ts) = (schema.index_of("user_id").unwrap(), schema.index_of("ts").unwrap());
    let rows: Vec<Row> = generate_meter_data(&cfg)
        .into_iter()
        .filter(|r| r[user] != Value::Int(1) || r[ts] < Value::Date(cfg.start_day + 2))
        .collect();
    w.ctx.load_rows(&w.base, &rows, 2).unwrap();
    let unit_users = |days| {
        SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 1),
            DimPolicy::date("ts", cfg.start_day, days),
        ])
        .unwrap()
    };

    let armed = Arc::new(AtomicBool::new(false));
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let hook_armed = Arc::clone(&armed);
    let kv = hooked(Arc::clone(&w.inner), move |op| {
        if let KvOp::Put(key, _) = op {
            if key.starts_with(GFU_PREFIX) && hook_armed.swap(false, SeqCst) {
                held_tx.send(()).unwrap();
                // A reader that panicked drops the sender: carry on.
                let _ = release_rx.lock().unwrap().recv();
            }
        }
        Ok(())
    });
    let (ctx, base) = (Arc::clone(&w.ctx), Arc::clone(&w.base));
    let (writer, _) = DgfIndex::build(ctx, base, unit_users(1), aggs(), Arc::clone(&kv), INDEX).unwrap();
    let maintainer = Maintainer::new(Arc::new(writer), MaintenanceConfig::default());
    let (ctx, base) = (Arc::clone(&w.ctx), Arc::clone(&w.base));
    let reader = Arc::new(DgfIndex::open(ctx, base, kv, INDEX, aggs()).unwrap());

    let users = ColumnRange::half_open(Value::Int(1), Value::Int(cfg.users as i64));
    let group_by = Query::GroupBy {
        key: "user_id".into(),
        aggs: aggs(),
        predicate: Predicate::all().and("user_id", users.clone()),
    };
    let wide = Query::Aggregate {
        aggs: aggs(),
        predicate: Predicate::all().and("user_id", users),
    };
    armed.store(true, SeqCst);
    let old_key = GfuKey::new(vec![1, 1]).encode();
    let (held, runs) = std::thread::scope(|s| {
        let regrid = s.spawn(|| maintainer.regrid_to(unit_users(2)));
        // Moved in, so a panic here releases the regrid before the
        // scope joins it.
        let release_tx = release_tx;
        held_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the regrid never reached a live publish");
        let staged = w.inner.scan_prefix(STAGE_PREFIX).unwrap();
        let held = (
            reader.pin_view().unwrap().pending,
            w.inner.get(&old_key).unwrap().is_some(),
            staged.iter().any(|(k, _)| k.ends_with(&old_key)),
        );
        let engine = DgfEngine::new(Arc::clone(&reader));
        let runs: Vec<_> = [&group_by, &wide]
            .into_iter()
            .map(|q| {
                let before = w.inner.stats().snapshot();
                let run = engine.run(q).unwrap();
                (run, w.inner.stats().snapshot().since(&before))
            })
            .collect();
        release_tx.send(()).unwrap();
        regrid.join().unwrap().unwrap();
        (held, runs)
    });
    for ((run, kv), (q, shape)) in runs.iter().zip([(&group_by, "flat"), (&wide, "pyramid")]) {
        let truth = model_answer(q, &rows);
        assert!(
            bits_eq(std::slice::from_ref(&run.result), std::slice::from_ref(&truth)),
            "{shape}: {:?} vs {truth:?}",
            run.result
        );
        assert_eq!(kv.scans, 0, "{shape}: a plan scanned");
    }
    // What the reads went through: a pending view, the old grid's
    // (1, 1) still live, and the tombstone staged over it.
    assert_eq!(held, (true, true, true), "(pending, old key live, tombstone staged)");
    let (group_plan, wide_plan) = (reader.plan(&group_by, true).unwrap(), reader.plan(&wide, true).unwrap());
    assert_eq!(group_plan.pyramid_nodes, 0, "GROUP BY read a node");
    assert!(wide_plan.pyramid_nodes > 0, "the wide aggregate read no node");
}

/// The spans called `name` in the trees under `nodes`, `nodes` included.
fn spans_named(nodes: &[ProfileNode], name: &str) -> usize {
    let own = |n: &ProfileNode| usize::from(n.name == name);
    nodes
        .iter()
        .map(|n| own(n) + spans_named(&n.children, name))
        .sum()
}

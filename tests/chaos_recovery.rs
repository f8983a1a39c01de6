//! Seeded chaos suite: deterministic crash injection across the
//! build / append / reorganize stack.
//!
//! The model is a client (job) process dying while the key-value store
//! and the file system survive as durable services. Every crash test is
//! a sweep of the lifecycle checker ([`common::checker::sweep`]): the
//! build over an unindexed world, and an append over a built one, are
//! each killed at every site their quiet run counts — every crash point,
//! under transient noise or not, or every storage write — and recovered
//! by the next `DgfIndex::open` over the same stores (or a restarted
//! warehouse). After each site:
//!
//! * the index, reopened, answers as the model — the seeded rows, plus
//!   the append's iff its transaction rolled forward (a build rolled
//!   back leaves no index, and a rebuild from scratch must work);
//! * the grid directory holds exactly those rows, and default answers
//!   equal the flat reference's in float bits;
//! * no staged keys, no transaction manifest, and no staging files leak,
//!   and a restart's re-walk finds no file (a torn delta) outside the
//!   live namespace.
//!
//! Everything is a pure function of the seeds below — a failure here
//! reproduces exactly.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::checker::{sweep, Kill, Op, Site, Tally};
use common::*;
use dgfindex::common::DgfError;
use dgfindex::core::txn::STAGE_PREFIX;
use dgfindex::prelude::*;
use dgfindex::workload::generate_meter_data;

/// Sweep the build, then an append of the last two days, each killed
/// at every site by `kill(writer, n)`; every site must be killed.
fn sweep_build_and_append(seed: u64, kill: impl Fn(Op, u64) -> Op) -> Tally {
    let (_, rest) = seed_rows();
    let mut tally = sweep(seed, &[], |n| kill(Op::Build, n), &[]);
    tally += sweep(seed, &[], |n| kill(Op::Append(rest.clone()), n), &[]);
    assert_eq!(tally.kills, tally.sites, "seed {seed}: a site outlived its kill: {tally:?}");
    tally
}

/// Crash at every instrumented site once; recovery must converge from
/// each of them.
#[test]
fn crash_matrix_every_site_recovers() {
    let tally = sweep_build_and_append(1, |writer, n| Op::crash(writer, Site::Point(n)));
    assert!(tally.sites >= 10, "expected a rich crash-site space: {tally:?}");
    assert!(tally.rolled_back > 0 && tally.rolled_forward > 0, "{tally:?}");
}

/// The same matrix under transient-fault noise: eight seeds, every
/// site, 20% of operations failing transiently on top of the crash.
/// Retries absorb the noise, so the ordinal space is unchanged and the
/// crash still lands on the intended site.
#[test]
fn crash_matrix_with_transient_noise_recovers() {
    for seed in 1..=8u64 {
        sweep_build_and_append(seed, |writer, n| {
            let kill = Kill {
                noise: Some(seed),
                ..Kill::at(Site::Point(n))
            };
            Op::Crash(Box::new(writer), kill)
        });
    }
}

/// Crash after the n-th storage write instead of at a protocol site —
/// lands mid-file, mid-reorganize, wherever the count falls — for every
/// n until the writer outlives it.
#[test]
fn crash_after_nth_write_recovers() {
    let tally = sweep_build_and_append(1, |writer, n| Op::crash(writer, Site::Write(n)));
    assert!(tally.sites >= 10, "{tally:?}");
}

/// A crash followed by a full warehouse restart: the namenode re-walks
/// the on-disk tree (picking up any staging directory or torn delta the
/// dying client left behind), the catalog is restored from a snapshot,
/// and recovery still converges over the rediscovered namespace.
#[test]
fn warehouse_restart_after_crash_recovers() {
    sweep_build_and_append(1, |writer, n| {
        let kill = Kill {
            restart: true,
            ..Kill::at(Site::Point(n))
        };
        Op::Crash(Box::new(writer), kill)
    });
}

/// A boundary Slice in a data file the pinned view does not list is
/// `Corrupt`: skipping it would drop its rows from the answer without
/// an error. A hand-planted `g:` value is the corruption; the same cell
/// answered from its header never looks at its slices.
#[test]
fn a_slice_outside_the_pinned_view_is_corrupt() {
    let w = world("stray-slice");
    let cfg = meter_cfg();
    w.ctx.load_rows(&w.base, &generate_meter_data(&cfg), 2).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        grid(&cfg),
        aggs(),
        Arc::clone(&w.inner),
        INDEX,
    )
    .unwrap();
    let listed = index.pin_view().unwrap().data_files;
    let stray = FileId::new(999, 0);
    assert!(listed.iter().all(|(id, _)| *id != stray));

    // Users [0, 4) on day 1: a boundary cell of `users [1, 7)`, an inner
    // one of `users [0, 4)`.
    let key = GfuKey::new(vec![0, 1]).encode();
    let mut value = GfuValue::decode(&w.inner.get(&key).unwrap().unwrap()).unwrap();
    value.slices.push(SliceLoc::new(stray, 0, 64));
    w.inner.put(&key, &value.encode()).unwrap();

    let index = open_index(&w);
    let day1 = ColumnRange::half_open(Value::Date(cfg.start_day + 1), Value::Date(cfg.start_day + 2));
    let query = |lo, hi| Query::Aggregate {
        aggs: aggs(),
        predicate: Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(lo), Value::Int(hi)))
            .and("ts", day1.clone()),
    };
    match index.plan(&query(1, 7), true) {
        Err(DgfError::Corrupt(msg)) => assert!(msg.contains("part-r-00999-00000"), "{msg}"),
        other => panic!("a stray boundary slice planned as {:?}", other.map(|p| p.inputs)),
    }
    let inner = index.plan(&query(0, 4), true).unwrap();
    assert_eq!((inner.inner_gfus, inner.boundary_gfus), (1, 0));
}

/// A failed `append` rolls itself back in-process — no dangling Intent
/// manifest, no staged keys, no orphaned delta file — and the very next
/// append on the same handle succeeds. The failure is a *non-transient*
/// error on every staged put, a mid-reorganize failure no retry policy
/// absorbs.
#[test]
fn failed_append_rolls_back_in_process() {
    let w = world("rollback");
    let cfg = meter_cfg();
    let (seeded, rest) = seed_index(&w);
    let armed = Arc::new(AtomicBool::new(true));
    let failing = {
        let armed = Arc::clone(&armed);
        hooked(Arc::clone(&w.inner), move |op| match op {
            KvOp::Put(key, _) if armed.load(Ordering::Relaxed) && key.starts_with(STAGE_PREFIX) => {
                Err(DgfError::KvStore("injected staged-put failure".into()))
            }
            _ => Ok(()),
        })
    };
    let index = Arc::new(
        DgfIndex::open_with_options(
            Arc::clone(&w.ctx),
            Arc::clone(&w.base),
            failing,
            INDEX,
            aggs(),
            IndexOptions {
                retry: retry(),
                ..IndexOptions::default()
            },
        )
        .unwrap(),
    );

    let files = || {
        let count = |dir: &str| w.ctx.hdfs.list_files(dir).len();
        (count(&w.base.location), count(&index.data.location))
    };
    let files_before = files();
    let pre = answers(&index, &cfg);

    let err = index.append(&rest).unwrap_err();
    assert!(
        err.to_string().contains("injected staged-put failure"),
        "unexpected append error: {err}"
    );
    // In-process rollback: nothing of the failed transaction survives.
    assert_settled(w.inner.as_ref(), "failed append");
    assert_eq!(files(), files_before, "failed append left a delta or slice file behind");
    // Queries on the same handle are unperturbed...
    assert!(bits_eq(&answers(&index, &cfg), &pre));

    // ...and with the fault gone, the SAME handle appends cleanly.
    armed.store(false, Ordering::Relaxed);
    index.append(&rest).unwrap();
    assert!(bits_eq(&answers(&index, &cfg), &model(&cfg, &[seeded, rest].concat())));
}

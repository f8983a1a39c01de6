//! Seeded chaos suite: deterministic crash injection across the
//! build / append / reorganize stack.
//!
//! The model is a client (job) process dying while the key-value store
//! and the file system survive as durable services: every test crashes
//! the driver at an instrumented site, reattaches with fresh fault-free
//! handles over the *same* stores, and asserts the recovery invariants:
//!
//! * `DgfIndex::open` succeeds (or fails only with "no DGFIndex
//!   metadata", which can happen solely when the initial build crashed
//!   before its commit point — and then the store must be empty enough
//!   to rebuild from scratch);
//! * the recovered index answers queries identically to a full scan of
//!   the current base table;
//! * no staged keys, no transaction manifest, and no staging files leak.
//!
//! Everything is a pure function of the seeds below — a failure here
//! reproduces exactly.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::*;
use dgfindex::common::DgfError;
use dgfindex::core::txn::STAGE_PREFIX;
use dgfindex::prelude::*;
use dgfindex::workload::generate_meter_data;

/// Sibling of the reorganized data directory; must be empty after
/// recovery, whichever side of the commit point the crash landed on.
const STAGING_ROOT: &str = "/warehouse/dgf_t/data_staging";

/// Load two days fault-free, then build the index and append the
/// remaining two days entirely under `plan`. A scheduled crash surfaces
/// as `Err` from whichever call hit it.
fn drive(w: &World, plan: &Arc<FaultPlan>) -> dgfindex::common::Result<()> {
    let cfg = meter_cfg();
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    w.ctx.load_rows(&w.base, &rows[..2 * per_day], 2).unwrap();

    w.ctx.hdfs.enable_faults(Arc::clone(plan), retry());
    let kv: Arc<dyn KvStore> = Arc::new(ChaosKv::new(Arc::clone(&w.inner), Arc::clone(plan)));
    let options = IndexOptions {
        retry: retry(),
        fault: Some(Arc::clone(plan)),
        ..IndexOptions::default()
    };
    let (index, _) = DgfIndex::build_with_options(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        grid(&cfg),
        aggs(),
        kv,
        INDEX,
        options,
    )?;
    index.append(&rows[2 * per_day..3 * per_day])?;
    index.append(&rows[3 * per_day..])?;
    Ok(())
}

/// The recovered index must agree with a full scan of the *current*
/// base table — whatever prefix of the workload committed.
fn check_answers(ctx: &Arc<HiveContext>, base: &TableRef, index: Arc<DgfIndex>) {
    let scan = ScanEngine::new(Arc::clone(ctx), Arc::clone(base));
    let dgf = DgfEngine::new(index);
    for q in &queries(&meter_cfg()) {
        let truth = scan.run(q).unwrap().result;
        let got = dgf.run(q).unwrap().result;
        assert!(
            got.approx_eq(&truth, 1e-9),
            "recovered index disagrees with scan: {got:?} vs {truth:?}"
        );
    }
}

/// Reattach with fault-free handles and assert every recovery invariant.
fn verify_recovered(ctx: &Arc<HiveContext>, base: &TableRef, inner: &Arc<dyn KvStore>) {
    ctx.hdfs.disable_faults();
    let cfg = meter_cfg();
    match DgfIndex::open(
        Arc::clone(ctx),
        Arc::clone(base),
        Arc::clone(inner),
        INDEX,
        aggs(),
    ) {
        Ok(index) => check_answers(ctx, base, Arc::new(index)),
        Err(e) => {
            // Only a crash before the initial build's commit point can
            // leave the store without metadata; recovery must then have
            // rolled the half-built index back to nothing.
            let msg = e.to_string();
            assert!(
                msg.contains("no DGFIndex metadata"),
                "unexpected open error: {msg}"
            );
            assert!(
                inner.scan_prefix(b"g:").unwrap().is_empty(),
                "rolled-back build leaked GFU entries"
            );
            // The store is clean, so a from-scratch rebuild must work.
            ctx.drop_table(&format!("{INDEX}_data")).unwrap();
            let (index, _) = DgfIndex::build(
                Arc::clone(ctx),
                Arc::clone(base),
                grid(&cfg),
                aggs(),
                Arc::clone(inner),
                INDEX,
            )
            .unwrap();
            check_answers(ctx, base, Arc::new(index));
        }
    }
    // No residue from the interrupted transaction, whichever way it went.
    assert_settled(inner.as_ref(), "recovered");
    assert!(
        ctx.hdfs.list_files(STAGING_ROOT).is_empty(),
        "staging files leaked"
    );
}

/// Count the crash sites the workload passes through with a quiet plan,
/// verifying the recording run itself is healthy.
fn record_sites(tag: &str) -> u64 {
    let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
    let w = world(tag);
    drive(&w, &quiet).unwrap();
    verify_recovered(&w.ctx, &w.base, &w.inner);
    let sites = quiet.points_hit();
    assert!(sites >= 10, "expected a rich crash-site space, got {sites}");
    sites
}

/// Crash at every instrumented site once; recovery must converge from
/// each of them.
#[test]
fn crash_matrix_every_site_recovers() {
    let sites = record_sites("record");
    for site in 0..sites {
        let w = world(&format!("site{site}"));
        let plan = Arc::new(FaultPlan::new(FaultConfig::crash_at(site, site)));
        let out = drive(&w, &plan);
        assert!(out.is_err(), "site {site}: scheduled crash did not fire");
        assert!(plan.crashed(), "site {site}: failed without crashing: {out:?}");
        verify_recovered(&w.ctx, &w.base, &w.inner);
    }
}

/// The same matrix under transient-fault noise: eight seeds, every
/// site, 20% of operations failing transiently on top of the crash.
/// Retries absorb the noise, so the ordinal space is unchanged and the
/// crash still lands on the intended site.
#[test]
fn crash_matrix_with_transient_noise_recovers() {
    let sites = record_sites("record-noise");
    for seed in 1..=8u64 {
        for site in 0..sites {
            let w = world(&format!("s{seed}x{site}"));
            let plan = Arc::new(FaultPlan::new(FaultConfig {
                p_transient: 0.2,
                ..FaultConfig::crash_at(seed, site)
            }));
            let out = drive(&w, &plan);
            assert!(out.is_err(), "seed {seed} site {site}: crash did not fire");
            assert!(
                plan.crashed(),
                "seed {seed} site {site}: failed without crashing: {out:?}"
            );
            verify_recovered(&w.ctx, &w.base, &w.inner);
        }
    }
}

/// Crash after the n-th storage write instead of at a protocol site —
/// lands mid-file, mid-reorganize, wherever the count falls. Large n
/// may outlive the workload (no crash); the invariants hold either way.
#[test]
fn crash_after_nth_write_recovers() {
    for n in [1u64, 3, 7, 15, 31, 63] {
        let w = world(&format!("w{n}"));
        let plan = Arc::new(FaultPlan::new(FaultConfig::crash_after_writes(n, n)));
        let out = drive(&w, &plan);
        if plan.crashed() {
            assert!(out.is_err(), "write {n}: crash was swallowed");
        } else {
            out.unwrap();
        }
        verify_recovered(&w.ctx, &w.base, &w.inner);
    }
}

/// A crash followed by a full warehouse restart: the namenode re-walks
/// the on-disk tree (picking up any staging directory or torn delta the
/// dying client left behind), the catalog is restored from a snapshot,
/// and recovery still converges over the rediscovered namespace.
#[test]
fn warehouse_restart_after_crash_recovers() {
    let sites = record_sites("record-restart");
    // An early build site, mid-workload, and the final append's tail.
    let picks = [1, sites / 2, sites.saturating_sub(3), sites - 1];
    for &site in &picks {
        let w = world(&format!("restart{site}"));
        let plan = Arc::new(FaultPlan::new(FaultConfig::crash_at(site, site)));
        assert!(drive(&w, &plan).is_err(), "site {site}: crash did not fire");

        let descs = w.ctx.tables_snapshot();
        let hdfs2 = SimHdfs::reopen(w.tmp.path(), HdfsConfig::default()).unwrap();
        let ctx2 = HiveContext::new(hdfs2, MrEngine::new(1));
        for d in descs {
            ctx2.register_restored_table(d).unwrap();
        }
        let base2 = ctx2.table("meter").unwrap();
        // The key-value service survives the restart untouched.
        verify_recovered(&ctx2, &base2, &w.inner);
    }
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

    let index = Arc::new(
        DgfIndex::open(Arc::clone(&w.ctx), Arc::clone(&w.base), Arc::clone(&w.inner), INDEX, aggs())
            .unwrap(),
    );
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
    let (_, rest) = seed_index(&w);
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
    assert!(matches(&answers(&index, &cfg), &pre));

    // ...and with the fault gone, the SAME handle appends cleanly.
    armed.store(false, Ordering::Relaxed);
    index.append(&rest).unwrap();
    check_answers(&w.ctx, &w.base, index);
}

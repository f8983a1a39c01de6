//! The lifecycle model checker ([`common::checker`]) over seeded op
//! sequences.
//!
//! Each seed draws one shuffled sequence holding every letter of the
//! alphabet at least once: `append(rows)` with rows that revisit the
//! seeded days and open new ones, `ingest(k batches)`, `flush`,
//! `compact(budget)`, `regrid(user_id/u × ts/t)` with intervals drawn
//! finer and coarser, `crash(writer, pick)` for an append, a compaction
//! and a regrid, `reopen` and `reshard(k)`. Readers race every op and
//! every answer is checked against the model (the acknowledged rows);
//! a failure reports the seed and the shortest op sequence that still
//! fails. `DGF_STRESS_SEEDS` widens the sweep (CI runs 24 seeds in
//! release).

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::checker::{check, draw_rows, run_writer, striped, Op};
use common::*;
use dgfindex::core::txn;
use dgfindex::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The seed's sequence: every letter of the alphabet at least once
/// (append and regrid twice), shuffled.
fn sequence(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let intervals = |rng: &mut StdRng| {
        let user = [1, 2, 4, 8][rng.random_range(0..4)];
        (user, [1, 2, 4][rng.random_range(0..3)])
    };
    let k = rng.random_range(2..=4);
    let batches = striped(&draw_rows(&mut rng), k);
    let (u1, t1) = intervals(&mut rng);
    let (u2, t2) = intervals(&mut rng);
    let (u3, t3) = intervals(&mut rng);
    let mut ops = vec![
        Op::Append(draw_rows(&mut rng)),
        Op::Append(draw_rows(&mut rng)),
        Op::Ingest(batches),
        Op::Flush,
        Op::Compact(rng.random_range(1..=3)),
        Op::Regrid(u1, t1),
        Op::Regrid(u2, t2),
        Op::Crash(Box::new(Op::Append(draw_rows(&mut rng))), rng.next_u64()),
        Op::Crash(Box::new(Op::Compact(rng.random_range(1..=3))), rng.next_u64()),
        Op::Crash(Box::new(Op::Regrid(u3, t3)), rng.next_u64()),
        Op::Reopen,
        Op::Reshard(rng.random_range(2..=4)),
    ];
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.random_range(0..=i));
    }
    ops
}

/// The checker: every seed's sequence answers as the model under
/// racing readers. Prints each seed's sequence and the (op, next op)
/// pairs the sweep exercised.
#[test]
fn every_op_sequence_answers_as_the_model() {
    let mut pairs = BTreeSet::new();
    for seed in stress_seeds() {
        let ops = sequence(seed);
        pairs.extend(ops.windows(2).map(|p| (p[0].kind(), p[1].kind())));
        let kinds: Vec<&str> = ops.iter().map(Op::kind).collect();
        println!("seed {seed}: {}", kinds.join(" → "));
        check(seed, &ops);
    }
    println!("{} (op, next op) pairs:", pairs.len());
    for (a, b) in &pairs {
        println!("  {a} → {b}");
    }
}

/// Regression: a `ts`-coarsening regrid crashed at each ordinal from
/// its view put on leaves a pending view whose runs hold the old grid's
/// retired keys (masked by staged tombstones). A handle opened before
/// the crash must answer as the model over that pending view and, with
/// no cache entry of the bad walk left behind, after `recover` too.
/// (The walk that stopped at the first key it did not expect answered
/// a range SUM over 6 of 12 rows, and kept doing so after recovery.)
#[test]
fn a_handle_across_a_crashed_ts_coarsening_regrid_answers_as_the_model() {
    let cfg = meter_cfg();
    let writer = Op::Regrid(4, 2);
    let seeded = |tag: &str| {
        let w = world(tag);
        let (seeded, rest) = seed_index(&w);
        let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
        open_with(&w, Arc::clone(&w.inner), &quiet)
            .append(&rest)
            .unwrap();
        (w, [seeded, rest].concat())
    };
    let sites = {
        let (w, _) = seeded("lifecycle-ts-record");
        let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
        assert!(!run_writer(&w, &w.inner, &writer, &quiet));
        quiet.points_hit()
    };
    // apply.view, apply.published, apply.retired and txn.applied.
    for ordinal in sites - 4..sites {
        let (w, rows) = seeded(&format!("lifecycle-ts{ordinal}"));
        let want = model(&cfg, &rows);
        let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
        let reader = open_with(&w, Arc::clone(&w.inner), &quiet);
        assert!(
            matches(&answers(&reader, &cfg), &want),
            "ordinal {ordinal}: before the crash"
        );

        let crash = Arc::new(FaultPlan::new(FaultConfig::crash_at(ordinal, ordinal)));
        assert!(
            run_writer(&w, &w.inner, &writer, &crash),
            "ordinal {ordinal}: no crash"
        );
        let view = reader.pin_view().unwrap();
        assert!(
            view.pending,
            "ordinal {ordinal}: the crash came before the view put"
        );
        let got = answers(&reader, &cfg);
        assert!(
            matches(&got, &want),
            "ordinal {ordinal}: pending view\n  {got:?}\n  {want:?}"
        );

        txn::recover(&w.ctx.hdfs, &w.inner, retry(), None).unwrap();
        let got = answers(&reader, &cfg);
        assert!(
            matches(&got, &want),
            "ordinal {ordinal}: after recovery\n  {got:?}\n  {want:?}"
        );
        assert_grid_directory(&reader, &format!("ordinal {ordinal}"));
    }
}

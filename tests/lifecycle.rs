//! The lifecycle model checker ([`common::checker`]) over seeded op
//! sequences.
//!
//! Each seed draws one shuffled sequence holding every letter of the
//! alphabet but `build` at least once: `append(rows)` with rows that
//! revisit the seeded days and open new ones, `ingest(k batches)`,
//! `flush`, `compact(budget)`, `regrid(user_id/u × ts/t)` with intervals
//! drawn finer and coarser, `crash(writer, pick)` for an append, an
//! ingest, a flush, a compaction and a regrid, `outage(writer, n)` for a
//! compaction or a regrid, `reopen` and `reshard(k)`. Readers race every
//! op and every answer is checked against the model (the acknowledged
//! rows); a failure reports the seed and the shortest op sequence that
//! still fails. `DGF_STRESS_SEEDS` widens the sweep (CI runs 24 seeds in
//! release).

mod common;

use std::collections::BTreeSet;

use common::checker::{check, draw_rows, striped, sweep, Op, Site};
use common::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The seed's sequence: every letter of the alphabet but `build` at
/// least once (append and regrid twice), shuffled.
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
    let (u4, t4) = intervals(&mut rng);
    let k = rng.random_range(2..=4);
    let crashed = striped(&draw_rows(&mut rng), k);
    let crash = |writer, rng: &mut StdRng| Op::crash(writer, Site::Pick(rng.next_u64()));
    let outage = match rng.random_range(0..2) {
        0 => Op::Compact(rng.random_range(1..=3)),
        _ => Op::Regrid(u4, t4),
    };
    let mut ops = vec![
        Op::Append(draw_rows(&mut rng)),
        Op::Append(draw_rows(&mut rng)),
        Op::Ingest(batches),
        Op::Flush,
        Op::Compact(rng.random_range(1..=3)),
        Op::Regrid(u1, t1),
        Op::Regrid(u2, t2),
        crash(Op::Append(draw_rows(&mut rng)), &mut rng),
        crash(Op::Ingest(crashed), &mut rng),
        crash(Op::Flush, &mut rng),
        crash(Op::Compact(rng.random_range(1..=3)), &mut rng),
        crash(Op::Regrid(u3, t3), &mut rng),
        Op::Outage(Box::new(outage), rng.random_range(0..8)),
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
        let kinds: Vec<String> = ops.iter().map(Op::kind).collect();
        println!("seed {seed}: {}", kinds.join(" → "));
        check(seed, &ops);
    }
    println!("{} (op, next op) pairs:", pairs.len());
    for (a, b) in &pairs {
        println!("  {a} → {b}");
    }
}

/// Regression: a `ts`-coarsening regrid crashed at each ordinal from
/// its view put on leaves a pending view over a key space the old
/// grid's retired keys still share (masked by staged tombstones). A
/// handle opened before the crash must answer as the model over that
/// pending view and, with no cache entry of a bad read left behind,
/// after `recover` too. (A reader that once took a retired key for
/// the end of its cells answered a range SUM over 6 of 12 rows, and
/// kept doing so after recovery.) The sweep crashes the regrid at
/// every point, these among them.
#[test]
fn a_handle_across_a_crashed_ts_coarsening_regrid_answers_as_the_model() {
    let (_, rest) = seed_rows();
    let crash = |n| Op::crash(Op::Regrid(4, 2), Site::Point(n));
    let tally = sweep(1, &[Op::Append(rest)], crash, &[]);
    assert_eq!(tally.kills, tally.sites, "{tally:?}");
    assert!(tally.rolled_forward >= 4, "{tally:?}");
}

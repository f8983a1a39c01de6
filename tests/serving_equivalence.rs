//! Shard-equivalence harness: the sharded serving tier must be
//! *indistinguishable by answers* from the single-node engine.
//!
//! The serving tier (DESIGN.md §13) range-partitions the GFU keyspace
//! across N shards, and the router scatters each plan's one batched
//! `multi_get` over the shards its keys fall on. Aggregate states merge
//! in any order to the same bits (sums are exact), so however the cells
//! are fetched and grouped every float bit is the single node's. This file holds that claim to the
//! strictest standard available:
//!
//! * every query answer over shard counts {1, 2, 4, 7} is **bit**-equal
//!   to the single-node oracle (not approx-equal — `f64::to_bits`),
//!   under fixed and proptest-random grids, null patterns, and mixed
//!   ingest;
//! * the router's *logical* KvStats for a plan equal the single-node
//!   counters exactly (the LatencyKv double-charge regression);
//! * concurrent frontend clients racing an append observe pre- or
//!   post-commit snapshots only, never a torn cross-shard blend, under
//!   the seeded interleaving schedules `tests/lifecycle.rs` also races
//!   its readers under (`DGF_STRESS_SEEDS` widens the sweep in CI);
//! * a shard crashing mid-scatter yields a clean error or a
//!   committed-view answer — never a partial merge.
//!
//! The bit-identity matrix runs the engine as everyone gets it, so
//! aggregations read `p:` nodes from the metadata shard. The cases that
//! exist to exercise the cross-shard scatter itself (the router's sync
//! points, a shard dying under it, a transient storm on it) strip the
//! pyramid from their router ([`strip_pyramid`]), so every plan reads
//! the flat shape: `g:` cells, spread over the data shards.

mod common;

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use common::*;
use dgfindex::common::DgfError;
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, meter_schema, MeterConfig};
use proptest::prelude::*;

/// The shard-count sweep: 1 (the degenerate router), powers of two, and
/// a prime that never divides the cell count evenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Load `seeded` and build the index over `kv`. Builds are
/// deterministic, so identically seeded worlds produce byte-identical
/// GFU content whatever store they build through — including a
/// [`ShardedKv`] router, which is how a sharded serving world is stood
/// up from scratch.
fn build_over(w: &World, kv: Arc<dyn KvStore>, seeded: &[Row], policy: SplittingPolicy) -> Arc<DgfIndex> {
    w.ctx.load_rows(&w.base, seeded, 2).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        policy,
        aggs(),
        kv,
        INDEX,
    )
    .unwrap();
    Arc::new(index)
}

/// Open a serving reader over `kv` with an optional scheduling plan.
fn open_reader(
    w: &World,
    kv: Arc<dyn KvStore>,
    fault: Option<Arc<FaultPlan>>,
) -> dgfindex::common::Result<Arc<DgfIndex>> {
    Ok(Arc::new(DgfIndex::open_with_options(
        Arc::clone(&w.ctx),
        Arc::clone(&w.base),
        kv,
        INDEX,
        aggs(),
        IndexOptions {
            retry: retry(),
            fault,
            ..IndexOptions::default()
        },
    )?))
}

/// The seeded meter world every deterministic test shares: first two
/// days indexed, plus an append batch that revisits the seeded days
/// *and* opens new ones (half its rows overwrite live cells — the racy
/// path — half extend the extents past the shard boundaries computed
/// from the seeded grid).
fn seeded_and_batch(cfg: &MeterConfig) -> (Vec<Row>, Vec<Row>) {
    let rows = generate_meter_data(cfg);
    let per_day = rows.len() / cfg.days as usize;
    let (seeded, rest) = rows.split_at(2 * per_day);
    let mut batch = seeded.to_vec();
    batch.extend(rest.iter().cloned());
    (seeded.to_vec(), batch)
}

/// Tentpole: build through the router, append through the router, and
/// answer through the router at every shard count — every float bit
/// must equal the single-node engine's. Shard count 7 on a 4-cell
/// seeded grid also covers the empty-tail-shard topology, and the
/// append pushes keys past every boundary computed from the seeded
/// extents.
#[test]
fn every_shard_count_answers_bit_identically_to_single_node() {
    let cfg = meter_cfg();
    let (seeded, batch) = seeded_and_batch(&cfg);

    let (oracle, extents) = {
        let w = world("oracle");
        let index = build_over(&w, Arc::new(MemKvStore::new()), &seeded, grid(&cfg));
        let extents = index.extents().unwrap();
        index.append(&batch).unwrap();
        (answers(&index, &cfg), extents)
    };

    for shards in SHARD_COUNTS {
        let w = world(&format!("s{shards}"));
        let router = Arc::new(sharded_mem(&extents, shards).unwrap());
        build_over(
            &w,
            Arc::clone(&router) as Arc<dyn KvStore>,
            &seeded,
            grid(&cfg),
        );
        let reader = open_reader(&w, Arc::clone(&router) as Arc<dyn KvStore>, None).unwrap();
        reader.append(&batch).unwrap();
        let got = answers(&reader, &cfg);
        assert!(
            bits_eq(&got, &oracle),
            "{shards}-shard answers differ from single-node in float bits:\n{got:?}\nvs\n{oracle:?}"
        );
        if shards >= 2 {
            let occupied = router.shards().iter().filter(|s| !s.is_empty()).count();
            assert!(
                occupied >= 2,
                "{shards}-shard world kept all keys on one shard — the split never engaged"
            );
        }
    }
}

/// Satellite: the router's *logical* KvStats for a plan must equal a
/// single-node store's, byte for byte — one `multi_get` however many
/// shards it straddles, one scan per logical range. (Physical per-shard
/// sub-ops land in each shard's own stats; before the fix, a fanned-out
/// batch was recounted per underlying shard op, so cost models read the
/// sharded tier as N× more expensive than the identical plan.)
#[test]
fn sharded_plan_counters_match_single_node_exactly() {
    let cfg = meter_cfg();
    let rows = generate_meter_data(&cfg);
    let w = world("stats");
    let built: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    let index = build_over(&w, Arc::clone(&built), &rows, grid(&cfg));
    let extents = index.extents().unwrap();
    drop(index);

    // Mirror the built store into a fresh single-node copy and a 4-way
    // router: identical bytes, independent counters.
    let single = Arc::new(MemKvStore::new());
    let router = Arc::new(sharded_mem(&extents, 4).unwrap());
    let copied = mirror_kv(built.as_ref(), single.as_ref()).unwrap();
    assert_eq!(copied, mirror_kv(built.as_ref(), router.as_ref()).unwrap());

    let a = open_reader(&w, Arc::clone(&single) as Arc<dyn KvStore>, None).unwrap();
    let b = open_reader(&w, Arc::clone(&router) as Arc<dyn KvStore>, None).unwrap();
    let before_single = single.stats().snapshot();
    let before_router = router.stats().snapshot();

    let ea = DgfEngine::new(a);
    let eb = DgfEngine::new(b);
    for q in &queries(&cfg) {
        let ra = ea.run(q).unwrap().result;
        let rb = eb.run(q).unwrap().result;
        assert_eq!(ra, rb);
    }

    let da = single.stats().snapshot().since(&before_single);
    let db = router.stats().snapshot().since(&before_router);
    assert_eq!(
        da, db,
        "router logical counters diverged from single-node for the same plan"
    );
}

/// Satellite: concurrent frontend clients racing a staged-commit append
/// on the sharded path. The seeded schedules stretch the commit wide
/// open at the planner's and the router's own sync points; every served
/// answer must wholly equal the
/// pre-append or post-append snapshot — a cross-shard blend (some cells
/// old, some new) fails here.
#[test]
fn concurrent_clients_vs_append_never_see_torn_cross_shard_state() {
    let cfg = meter_cfg();
    let (seeded, batch) = seeded_and_batch(&cfg);
    let extents = {
        let w = world("conc-extents");
        build_over(&w, Arc::new(MemKvStore::new()), &seeded, grid(&cfg))
            .extents()
            .unwrap()
    };

    for seed in stress_seeds().into_iter().take(3) {
        let w = world(&format!("conc{seed}"));
        let plan = interleave(seed);
        let router = Arc::new(
            sharded_mem(&extents, 4)
                .unwrap()
                .with_fault(Arc::clone(&plan)),
        );
        build_over(
            &w,
            Arc::clone(&router) as Arc<dyn KvStore>,
            &seeded,
            grid(&cfg),
        );
        strip_pyramid(router.as_ref());
        let index = open_reader(
            &w,
            Arc::clone(&router) as Arc<dyn KvStore>,
            Some(Arc::clone(&plan)),
        )
        .unwrap();

        let mix = queries(&cfg);
        let pre = answers(&index, &cfg);
        let qs: Vec<Query> = (0..8).flat_map(|_| mix.iter().cloned()).collect();
        let front = ServeFrontend::new(
            DgfEngine::new(Arc::clone(&index)),
            ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
        );
        let report = std::thread::scope(|s| {
            let writer = s.spawn(|| index.append(&batch).unwrap());
            let report = front.run_concurrent(&qs, 3).unwrap();
            writer.join().unwrap();
            report
        });
        let post = answers(&index, &cfg);

        assert!(
            !bits_eq(&post, &pre),
            "seed {seed}: append changed nothing — harness is vacuous"
        );
        assert_eq!(front.stats().snapshot().failed, 0, "seed {seed}: queries failed");
        for served in &report.served {
            let got = served.result.as_ref().expect("query dropped");
            let j = served.query_index % mix.len();
            assert!(
                *got == pre[j] || *got == post[j],
                "seed {seed}: served query {} is a torn cross-shard read:\n  got  {got:?}\n  pre  {:?}\n  post {:?}",
                served.query_index,
                pre[j],
                post[j]
            );
        }
    }
}

/// Satellite: same race, writer = streaming flush. A flush moves
/// acked-but-already-visible rows from the memtable into the index, so
/// on the sharded path too there is only ONE legal answer the whole
/// time.
#[test]
fn concurrent_clients_vs_flush_hold_one_answer_on_the_sharded_path() {
    let cfg = meter_cfg();
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let (seeded, rest) = rows.split_at(2 * per_day);
    let extents = {
        let w = world("flush-extents");
        build_over(&w, Arc::new(MemKvStore::new()), seeded, grid(&cfg))
            .extents()
            .unwrap()
    };

    for seed in stress_seeds().into_iter().take(2) {
        let w = world(&format!("flush{seed}"));
        let plan = interleave(seed ^ 0x5A4D);
        let router = Arc::new(
            sharded_mem(&extents, 4)
                .unwrap()
                .with_fault(Arc::clone(&plan)),
        );
        build_over(
            &w,
            Arc::clone(&router) as Arc<dyn KvStore>,
            seeded,
            grid(&cfg),
        );
        let index = open_reader(
            &w,
            Arc::clone(&router) as Arc<dyn KvStore>,
            Some(Arc::clone(&plan)),
        )
        .unwrap();
        let ingestor = stream(&index, w.tmp.path(), u64::MAX);
        ingestor.ingest(rest).unwrap();

        let mix = queries(&cfg);
        let pre = answers(&index, &cfg);
        let qs: Vec<Query> = (0..6).flat_map(|_| mix.iter().cloned()).collect();
        let front = ServeFrontend::new(
            DgfEngine::new(Arc::clone(&index)),
            ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
        );
        let report = std::thread::scope(|s| {
            let flusher = s.spawn(|| ingestor.flush().unwrap());
            let report = front.run_concurrent(&qs, 3).unwrap();
            flusher.join().unwrap();
            report
        });
        let post = answers(&index, &cfg);

        assert!(
            bits_eq(&post, &pre),
            "seed {seed}: flush changed answers on the sharded path"
        );
        for served in &report.served {
            let got = served.result.as_ref().expect("query dropped");
            let j = served.query_index % mix.len();
            assert!(
                *got == pre[j],
                "seed {seed}: served query {} wavered during flush:\n  got  {got:?}\n  want {:?}",
                served.query_index,
                pre[j]
            );
        }
    }
}

/// Satellite (chaos): one shard dies mid-scatter. Each query must
/// either error cleanly or answer with the committed view — never a
/// partial merge of the surviving shards' headers with the dead shard's
/// absence. The crash-site sweep walks the read-op space (shard dead on
/// arrival through dead-after-the-whole-mix), so both outcomes are
/// exercised — asserted at the bottom, an all-error or all-clean sweep
/// would be vacuous. A second pass storms the same shard with
/// [`ChaosKv`] transient faults past retry exhaustion: same invariant.
/// [`ChaosKv`]'s crash triggers are write-anchored, so the dying shard is
/// a read-anchored hook: after `site` operations it fails every later
/// one, sticky like a dead region server.
#[test]
fn shard_crash_mid_scatter_is_clean_error_or_committed_answer() {
    let cfg = meter_cfg();
    let (seeded, batch) = seeded_and_batch(&cfg);
    let w = world("chaos");
    let extents = {
        let probe = world("chaos-extents");
        build_over(&probe, Arc::new(MemKvStore::new()), &seeded, grid(&cfg))
            .extents()
            .unwrap()
    };
    let router = Arc::new(sharded_mem(&extents, 4).unwrap());
    let built = build_over(
        &w,
        Arc::clone(&router) as Arc<dyn KvStore>,
        &seeded,
        grid(&cfg),
    );
    built.append(&batch).unwrap();
    drop(built);
    strip_pyramid(router.as_ref());

    // The committed-view oracle, through the healthy router.
    let healthy = open_reader(&w, Arc::clone(&router) as Arc<dyn KvStore>, None).unwrap();
    let oracle = answers(&healthy, &cfg);

    // Kill a GFU-bearing shard below the metadata (last) shard, so the
    // view pin itself survives and the crash lands inside the scatter.
    let target = router
        .shards()
        .iter()
        .take(router.shards().len() - 1)
        .position(|s| !s.is_empty())
        .expect("a data shard below the metadata shard");

    // A router identical to `router` except shard `target` is wrapped.
    let wrap = |wrapped: Arc<dyn KvStore>| -> Arc<ShardedKv> {
        let shards: Vec<Arc<dyn KvStore>> = router
            .shards()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == target {
                    Arc::clone(&wrapped)
                } else {
                    Arc::clone(s)
                }
            })
            .collect();
        Arc::new(ShardedKv::new(shards, router.boundaries().to_vec()).unwrap())
    };

    let mix = queries(&cfg);
    let (mut crashed, mut clean) = (0u32, 0u32);
    for site in 0..16i64 {
        let countdown = AtomicI64::new(site);
        let dead = wrap(hooked(Arc::clone(&router.shards()[target]), move |_| {
            if countdown.fetch_sub(1, Ordering::SeqCst) <= 0 {
                return Err(DgfError::KvStore("injected shard crash".into()));
            }
            Ok(())
        }));
        let reader = match open_reader(&w, dead as Arc<dyn KvStore>, None) {
            Ok(reader) => reader,
            Err(_) => {
                // Crash fired during open: a clean refusal, no answer.
                crashed += 1;
                continue;
            }
        };
        let engine = DgfEngine::new(reader);
        for (j, q) in mix.iter().enumerate() {
            match engine.run(q) {
                Ok(run) => {
                    clean += 1;
                    assert!(
                        run.result == oracle[j],
                        "site {site}: a crashed shard leaked a partial merge:\n  got  {:?}\n  want {:?}",
                        run.result,
                        oracle[j]
                    );
                }
                Err(_) => crashed += 1,
            }
        }
    }
    assert!(crashed > 0, "no crash site ever fired — the sweep is vacuous");
    assert!(clean > 0, "every site crashed — committed answers never exercised");

    // ChaosKv transient storm: every read on the target shard fails
    // with a retryable error until the reader's RetryPolicy gives up.
    let storm_plan = Arc::new(FaultPlan::new(FaultConfig::transient(7, 1.0)));
    let stormy = wrap(Arc::new(ChaosKv::new(
        Arc::clone(&router.shards()[target]),
        storm_plan,
    )));
    let mut stormed = 0u32;
    if let Ok(reader) = open_reader(&w, stormy as Arc<dyn KvStore>, None) {
        let engine = DgfEngine::new(reader);
        for (j, q) in mix.iter().enumerate() {
            match engine.run(q) {
                Ok(run) => assert!(
                    run.result == oracle[j],
                    "storm: a partial merge leaked past retry exhaustion"
                ),
                Err(_) => stormed += 1,
            }
        }
    } else {
        stormed += 1;
    }
    assert!(stormed > 0, "a full transient storm never surfaced an error");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole (randomized): proptest-chosen grid spans, data shapes,
    /// null patterns in the aggregated measure, and a mixed-ingest
    /// split. Whatever the grid, the sharded answers must match the
    /// single-node engine bit for bit.
    #[test]
    fn random_grids_nulls_and_ingest_serve_bit_identically(
        users in 4u64..12,
        days in 2u64..5,
        user_span in 1i64..5,
        day_span in 1i64..3,
        null_mask in any::<u64>(),
        seed in any::<u64>(),
        shard_pick in 0usize..3,
    ) {
        let shards = [2usize, 4, 7][shard_pick];
        let cfg = MeterConfig { users, days, seed, ..MeterConfig::default() };
        let mut rows = generate_meter_data(&cfg);
        let power = meter_schema().index_of("power_consumed").unwrap();
        for (i, row) in rows.iter_mut().enumerate() {
            if (null_mask >> (i % 64)) & 1 == 1 {
                row[power] = Value::Null;
            }
        }
        let (seeded, rest) = rows.split_at((rows.len() / 2).max(1));
        let policy = || SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, user_span),
            DimPolicy::date("ts", cfg.start_day, day_span),
        ]).unwrap();

        let wo = world("prop-oracle");
        let oracle_index = build_over(&wo, Arc::new(MemKvStore::new()), seeded, policy());
        let extents = oracle_index.extents().unwrap();
        oracle_index.append(rest).unwrap();
        let oracle = answers(&oracle_index, &cfg);

        let ws = world(&format!("prop-s{shards}"));
        let router = Arc::new(sharded_mem(&extents, shards).unwrap());
        build_over(&ws, Arc::clone(&router) as Arc<dyn KvStore>, seeded, policy());
        let reader = open_reader(&ws, Arc::clone(&router) as Arc<dyn KvStore>, None).unwrap();
        reader.append(rest).unwrap();
        let got = answers(&reader, &cfg);
        prop_assert!(
            bits_eq(&got, &oracle),
            "{shards}-shard answers differ from single-node under grid ({user_span}, {day_span}), {users} users x {days} days:\n{got:?}\nvs\n{oracle:?}"
        );
    }
}

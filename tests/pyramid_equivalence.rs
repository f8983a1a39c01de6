//! Pyramid-equivalence harness: the aggregate pyramid must be
//! *indistinguishable by answers* from flat inner-cell enumeration.
//!
//! The pyramid (DESIGN.md §14) replaces per-cell inner header reads with
//! O(surface × levels) pre-computed `p:` node reads, and it is what the
//! default plan reads. Because aggregate states merge in any order to
//! the same bits ([`dgfindex::query::exact`]), default answers are
//! claimed to be **bit**-identical — `f64::to_bits`,
//! not approx-equal — to the flat reference (the same store with its
//! pyramid stripped, [`strip_pyramid`]), and this file holds that claim
//! under:
//!
//! * fixed and proptest-random grids, null patterns in the aggregated
//!   measure, staged-commit appends, and unflushed ingest overlays
//!   (fresh memtable cells sit outside the persisted tree and merge
//!   into the same accumulator, in any order);
//! * shard counts {1, 2, 4} — `p:` keys route to the metadata shard, so
//!   the router's `multi_get` must serve them like any other key;
//! * a sweep of the lifecycle checker that crashes an append at every
//!   crash point and every storage write, the pyramid staging sites and
//!   mid-publish of the staged nodes among them: recovery via the
//!   staged-commit manifest must leave cells and ancestors consistent
//!   (pyramid answers still bit-equal flat ones).
//!
//! It also pins what the pyramid buys and costs, as exact counts on a
//! built 64×64 grid: ≥ 10× fewer KV keys and bytes than the flat shape
//! on an inner-heavy box, the `p:` key census, and the keys one cold
//! plan requests.

mod common;

use std::sync::Arc;

use common::checker::{sweep, Op, Site, Tally};
use common::*;
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, meter_schema, MeterConfig};
use proptest::prelude::*;

/// A finer grid than the serving tests use (cell width 1 on both
/// dimensions): wide queries then cover enough inner cells for the
/// decomposition to emit level ≥ 1 nodes, so pyramid reads actually
/// engage instead of degenerating to leaf lookups.
fn fine_grid(cfg: &MeterConfig) -> SplittingPolicy {
    SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 1),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])
    .unwrap()
}

/// The query mix: a full COUNT, a wide range aggregate whose inner
/// region dwarfs its boundary, a misaligned narrow range, and a GROUP
/// BY a grid dimension (header-answered per group on the unit grid,
/// degraded to a scan on a coarser one; the flat shape either way).
fn queries(cfg: &MeterConfig) -> Vec<Query> {
    let wide = Predicate::all()
        .and(
            "user_id",
            ColumnRange::half_open(Value::Int(1), Value::Int(cfg.users as i64 - 1)),
        )
        .and(
            "ts",
            ColumnRange::half_open(
                Value::Date(cfg.start_day),
                Value::Date(cfg.start_day + cfg.days as i64 - 1),
            ),
        );
    let narrow = Predicate::all()
        .and(
            "user_id",
            ColumnRange::half_open(Value::Int(1), Value::Int(3)),
        )
        .and(
            "ts",
            ColumnRange::half_open(
                Value::Date(cfg.start_day + 1),
                Value::Date(cfg.start_day + 2),
            ),
        );
    vec![
        Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        },
        Query::Aggregate {
            aggs: aggs(),
            predicate: wide.clone(),
        },
        Query::Aggregate {
            aggs: aggs(),
            predicate: narrow,
        },
        Query::GroupBy {
            key: "user_id".into(),
            aggs: aggs(),
            predicate: wide,
        },
    ]
}

fn build_over(
    w: &World,
    kv: Arc<dyn KvStore>,
    seeded: &[Row],
    policy: SplittingPolicy,
) -> Arc<DgfIndex> {
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

fn open_reader(w: &World, kv: Arc<dyn KvStore>) -> Arc<DgfIndex> {
    Arc::new(
        DgfIndex::open_with_options(
            Arc::clone(&w.ctx),
            Arc::clone(&w.base),
            kv,
            INDEX,
            aggs(),
            IndexOptions {
                retry: retry(),
                ..IndexOptions::default()
            },
        )
        .unwrap(),
    )
}

fn answers(engine: &DgfEngine, cfg: &MeterConfig) -> Vec<QueryResult> {
    queries(cfg)
        .iter()
        .map(|q| engine.run(q).unwrap().result)
        .collect()
}

/// The whole query mix through the engine as everyone gets it: the
/// planner itself picks the pyramid wherever one can answer.
fn default_answers(index: &Arc<DgfIndex>, cfg: &MeterConfig) -> Vec<QueryResult> {
    answers(&DgfEngine::new(Arc::clone(index)), cfg)
}

/// A copy of `kv` with the pyramid stripped.
fn stripped_kv(kv: &dyn KvStore) -> Arc<dyn KvStore> {
    let copy: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    mirror_kv(kv, copy.as_ref()).unwrap();
    strip_pyramid(copy.as_ref());
    copy
}

/// A handle over a copy of `index`'s store with the pyramid stripped:
/// the flat reference, every plan of which reads the flat shape.
fn stripped_copy(w: &World, index: &DgfIndex) -> Arc<DgfIndex> {
    open_reader(w, stripped_kv(index.kv.as_ref()))
}

/// The same mix through the flat reference.
fn flat_answers(w: &World, index: &DgfIndex, cfg: &MeterConfig) -> Vec<QueryResult> {
    default_answers(&stripped_copy(w, index), cfg)
}

/// Tentpole (fixed): on a 24×8-cell grid grown by a staged-commit
/// append, the default engine answers bit-identically to the flat
/// reference, the wide query actually engages level ≥ 1 pyramid nodes,
/// the decomposition reads strictly fewer headers than it summarizes
/// cells, and queries no node can answer read none.
#[test]
fn default_engine_reads_the_pyramid_and_equals_the_flat_reference() {
    let cfg = MeterConfig {
        users: 24,
        days: 8,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let (seeded, rest) = rows.split_at(4 * per_day);
    let w = world("fixed");
    let index = build_over(&w, Arc::new(MemKvStore::new()), seeded, fine_grid(&cfg));
    // The append dirties existing subtrees AND extends the extents, so
    // the staged pyramid delta (not just the build) is under test.
    index.append(rest).unwrap();
    assert!(index.pyramid_levels().is_some(), "build skipped the pyramid");

    let flat = flat_answers(&w, &index, &cfg);
    let default = default_answers(&index, &cfg);
    assert!(
        bits_eq(&flat, &default),
        "flat vs default answers differ in float bits:\n{flat:?}\nvs\n{default:?}"
    );

    // The wide aggregate must have decomposed into coarse nodes — an
    // all-leaf decomposition would make the bit-identity claim vacuous.
    let mix = queries(&cfg);
    let plan = index.plan(&mix[1], true).unwrap();
    assert!(plan.pyramid_nodes > 0, "wide query never read a pyramid node");
    assert!(
        plan.pyramid_cells > plan.pyramid_nodes,
        "pyramid nodes summarized no more cells than reads spent"
    );
    let flat_index = stripped_copy(&w, &index);
    let flat_plan = flat_index.plan(&mix[1], true).unwrap();
    assert_eq!(
        plan.inner_records, flat_plan.inner_records,
        "pyramid plan accounts different inner records than flat"
    );
    assert!(plan.inner_gfus < flat_plan.inner_gfus, "nodes merged no cells");
    // The default engine ran that very plan.
    let run = DgfEngine::new(Arc::clone(&index)).run(&mix[1]).unwrap();
    assert_eq!(
        run.stats.index_records_read,
        plan.inner_gfus + plan.boundary_gfus
    );

    // GROUP BY a one-value-cell dimension: the headers answer each
    // group's inner cells, and the plan reads the flat shape with or
    // without a pyramid — a one-cell-wide slab has no node above level
    // 0 — so the default is the flat reference by construction (the bit
    // check above covers every group).
    let group_by = index.plan(&mix[3], true).unwrap();
    let flat_group_by = flat_index.plan(&mix[3], true).unwrap();
    assert!(
        group_by.inner_records > 0,
        "GROUP BY user_id read no header"
    );
    assert_eq!(group_by.pyramid_nodes, 0, "GROUP BY claimed pyramid reads");
    assert_eq!(group_by.inner_gfus, flat_group_by.inner_gfus);
    assert_eq!(group_by.inputs, flat_group_by.inputs);
    assert_eq!(group_by.inner_states, flat_group_by.inner_states);
    let Some(dgfindex::query::AggPartials::Groups(groups)) = &group_by.inner_states else {
        panic!("GROUP BY planned without group partials");
    };
    assert_eq!(
        groups.len() as u64,
        cfg.users - 2,
        "one group per inner user"
    );
}

/// An aggregate whose range lies strictly inside one cell on a
/// dimension has no fully-inner cell: the default plan reads no node
/// and still equals the flat reference.
#[test]
fn aggregate_without_a_fully_inner_cell_reads_no_pyramid_node() {
    let cfg = MeterConfig {
        users: 12,
        days: 4,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let w = world("no-inner");
    let coarse = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 4),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])
    .unwrap();
    let index = build_over(&w, Arc::new(MemKvStore::new()), &rows, coarse);
    assert!(index.pyramid_levels().is_some());
    let q = Query::Aggregate {
        aggs: aggs(),
        predicate: Predicate::all().and(
            "user_id",
            ColumnRange::half_open(Value::Int(1), Value::Int(3)),
        ),
    };
    let plan = index.plan(&q, true).unwrap();
    assert_eq!(plan.pyramid_nodes, 0);
    assert_eq!(plan.inner_gfus, 0);
    assert!(plan.boundary_gfus > 0);
    let default = DgfEngine::new(Arc::clone(&index)).run(&q).unwrap().result;
    let flat = DgfEngine::new(stripped_copy(&w, &index)).run(&q).unwrap().result;
    assert!(bits_eq(&[default], &[flat]));
}

/// Satellite: a store that carries no pyramid (the view's height zeroed
/// and every `p:` key removed, as stores built before the pyramid existed
/// look) opens without one; the default plan then reads the flat shape
/// wholesale. Query by query, it equals the default plan of the store
/// that has the pyramid on every field the shape does not decide, and
/// answers bit-identically to what the pyramid answered.
#[test]
fn default_plan_degrades_cleanly_on_a_store_without_a_pyramid() {
    let cfg = MeterConfig {
        users: 12,
        days: 4,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let w = world("no-pyramid");
    let built = build_over(&w, Arc::new(MemKvStore::new()), &rows, fine_grid(&cfg));
    assert!(built.plan(&queries(&cfg)[1], true).unwrap().pyramid_nodes > 0);
    let index = stripped_copy(&w, &built);
    assert!(index.pyramid_levels().is_none());

    assert!(bits_eq(&default_answers(&built, &cfg), &default_answers(&index, &cfg)));
    for (qi, q) in queries(&cfg).iter().enumerate() {
        let plan = index.plan(q, true).unwrap();
        let default = built.plan(q, true).unwrap();
        assert_eq!(plan.pyramid_nodes, 0, "q{qi}: degraded plan claimed pyramid reads");
        assert_eq!(plan.pyramid_cells, 0, "q{qi}");
        assert_eq!(plan.inputs, default.inputs, "q{qi}");
        assert_eq!(plan.chosen_splits, default.chosen_splits, "q{qi}");
        assert_eq!(plan.inner_states, default.inner_states, "q{qi}");
        let counts = |p: &dgfindex::core::DgfPlan| {
            let c = [p.boundary_gfus, p.inner_records, p.splits_total, p.splits_read];
            c.into_iter().chain([p.fresh_gfus, p.fresh_records])
        };
        assert!(counts(&plan).eq(counts(&default)), "q{qi}: plan counts");
    }
    let plan = index.plan(&queries(&cfg)[1], true).unwrap();
    assert!(plan.inner_gfus > 0, "degraded plan lost its inner headers");
}

/// Cells per side of the square grid the two count tests below share.
/// The reduction grows with the side; at 64 a built store (leaf values
/// carry slice locations, `p:` nodes do not) measures 11.1× on
/// keys requested (3 364 vs 304) and 11.0× on bytes against the 10× bar.
const SQUARE: u64 = 64;

/// An origin-aligned `SQUARE × SQUARE` grid — cell width 1 on both
/// dimensions, one row per cell — built through `DgfIndex::build`, and
/// the margin-3 box over it. Width-1 cells make every cell in the box
/// fully inner (no boundary), and the odd margin misaligns the box with
/// every pyramid level, so the decomposition descends to `g:` leaves
/// along the whole rim instead of collapsing into one node.
fn square_grid(tag: &str) -> (World, Arc<dyn KvStore>, Query) {
    let cfg = MeterConfig {
        users: SQUARE,
        days: SQUARE,
        ..MeterConfig::default()
    };
    let w = world(tag);
    let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    let rows = generate_meter_data(&cfg);
    build_over(&w, Arc::clone(&kv), &rows, fine_grid(&cfg));
    let (lo, hi) = (3, SQUARE as i64 - 3);
    let q = Query::Aggregate {
        aggs: aggs(),
        predicate: Predicate::all()
            .and(
                "user_id",
                ColumnRange::half_open(Value::Int(lo), Value::Int(hi)),
            )
            .and(
                "ts",
                ColumnRange::half_open(
                    Value::Date(cfg.start_day + lo),
                    Value::Date(cfg.start_day + hi),
                ),
            ),
    };
    (w, kv, q)
}

/// One cold planning pass: a fresh handle (empty header cache) and the
/// store's counter delta around the plan alone.
fn cold_plan(
    w: &World,
    kv: &Arc<dyn KvStore>,
    q: &Query,
) -> (dgfindex::core::DgfPlan, dgfindex::kvstore::KvStatsSnapshot) {
    let reader = open_reader(w, Arc::clone(kv));
    let before = kv.stats().snapshot();
    let plan = reader.plan(q, true).unwrap();
    (plan, kv.stats().snapshot().since(&before))
}

/// The pyramid's O(surface) claim (Brisaboa et al., PAPERS.md) as a
/// count: on an inner-heavy box, cold cache, the default plan requests
/// ≥ 10× fewer keys and reads ≥ 10× fewer KV value bytes than the flat
/// shape of the same store without its pyramid, for the same inner
/// records. Both read their misses with exactly one `multi_get`: the
/// shapes differ in what they list, not in how a list is read.
#[test]
fn default_plan_reads_a_tenth_of_the_flat_scan_on_an_inner_heavy_box() {
    let (w, kv, q) = square_grid("reduction");
    let (flat_plan, flat) = cold_plan(&w, &stripped_kv(kv.as_ref()), &q);
    let (plan, pyr) = cold_plan(&w, &kv, &q);

    let inner = (SQUARE - 6) * (SQUARE - 6);
    assert_eq!(flat_plan.inner_gfus, inner, "flat shape missed inner cells");
    assert_eq!(plan.inner_records, flat_plan.inner_records);
    assert!(plan.pyramid_nodes > 0);
    assert_eq!((flat.multi_gets, flat.scans), (1, 0), "flat plan's batches");
    assert_eq!((pyr.multi_gets, pyr.scans), (1, 0), "pyramid plan's batches");
    for (axis, flat, pyr) in [
        ("keys requested", flat.multi_get_keys, pyr.multi_get_keys),
        ("bytes read", flat.bytes_read, pyr.bytes_read),
    ] {
        assert!(
            pyr > 0 && flat >= 10 * pyr,
            "{axis}: flat {flat} vs pyramid {pyr} over {inner} inner cells (need >= 10x)"
        );
    }
}

/// The baseline ROADMAP's paged-pyramid item has to beat, as exact
/// counts: how many `p:` keys the store holds for a full 2ᵏ × 2ᵏ grid,
/// and how many keys one cold plan of the margin-3 box asks for.
#[test]
fn pyramid_key_census_and_cold_plan_key_count_are_exact() {
    use dgfindex::core::pyramid::{decompose, parent_coords};
    use dgfindex::core::PYRAMID_PREFIX;
    use std::collections::BTreeSet;

    let (w, kv, q) = square_grid("census");
    let height = open_reader(&w, Arc::clone(&kv))
        .pyramid_levels()
        .expect("build skipped the pyramid");

    // Census: the distinct ancestors of the leaf coordinates, level by
    // level up to the stored height.
    let side = SQUARE as i64;
    let mut level: BTreeSet<Vec<i64>> = (0..side)
        .flat_map(|x| (0..side).map(move |y| vec![x, y]))
        .collect();
    let mut census = 0usize;
    for _ in 1..=height {
        level = level.iter().map(|c| parent_coords(c)).collect();
        census += level.len();
    }
    // On an origin-aligned 2ᵏ × 2ᵏ grid that is (4ᵏ − 1)/3 nodes up to
    // the root plus one per level above it.
    let k = SQUARE.trailing_zeros();
    let above_root = (height as u32 - k) as usize;
    assert_eq!(census, (4usize.pow(k) - 1) / 3 + above_root);
    let stored = kv.scan_prefix(PYRAMID_PREFIX).unwrap().len();
    assert_eq!(stored, census, "p: keys over {} leaves", side * side);

    // A cold plan pins and validates `m:view` (two gets) and asks for
    // every decomposition item in one batch; the box has no boundary
    // cell, so that is all it asks for.
    let (plan, delta) = cold_plan(&w, &kv, &q);
    let items = decompose(&[(3, side - 4), (3, side - 4)], height).len() as u64;
    assert_eq!(plan.boundary_gfus, 0);
    assert_eq!(plan.inner_gfus, items);
    assert_eq!(
        (delta.gets, delta.multi_get_keys),
        (2, items),
        "keys requested by a cold plan of the margin-3 box"
    );
}

/// Sweep an append of the last two days over the world regridded to
/// unit cells (the mix's wide aggregate then reads level ≥ 1 pyramid
/// nodes), killed at every site by `kill(writer, n)`. Every site must be
/// killed, every recovered site's plans must read pyramid nodes, and
/// recovery must leave the pyramid answering bit-equal to the flat
/// reference (a half-published pyramid would break that: ancestors
/// from one epoch over cells from another).
fn sweep_append_over_unit_cells(kill: impl Fn(Op, u64) -> Op) -> Tally {
    let (_, rest) = seed_rows();
    let tally = sweep(1, &[Op::Regrid(1, 1)], |n| kill(Op::Append(rest.clone()), n), &[]);
    assert_eq!(tally.kills, tally.sites, "a site outlived its kill: {tally:?}");
    assert!(tally.pyramid_nodes >= tally.sites, "no pyramid node read: {tally:?}");
    tally
}

/// Tentpole (chaos): crash an append at every instrumented protocol
/// site — which includes the pyramid staging site and the apply phase
/// that publishes staged `p:` nodes — then recover via the
/// staged-commit manifest.
#[test]
fn crash_anywhere_in_append_recovers_a_consistent_pyramid() {
    let tally = sweep_append_over_unit_cells(|writer, n| Op::crash(writer, Site::Point(n)));
    assert!(tally.sites >= 8, "expected a rich crash-site space: {tally:?}");
}

/// Tentpole (chaos, mid-publish): crash after the n-th storage *write*
/// instead of at a protocol site, for every n, so the crash lands
/// between individual staged-key publishes — cells visible, ancestors
/// half-published, view not yet flipped. Recovery re-applies from the
/// Committed manifest and the pyramid must come out whole.
#[test]
fn crash_between_individual_publish_writes_recovers_a_consistent_pyramid() {
    let tally = sweep_append_over_unit_cells(|writer, n| Op::crash(writer, Site::Write(n)));
    assert!(tally.sites >= 16, "append issued too few writes to sweep: {tally:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole (randomized): proptest-chosen grid spans, null patterns,
    /// a staged-commit append, an *unflushed* ingest overlay, and shard
    /// counts {1, 2, 4}. The default engine on the sharded store must
    /// answer bit-identically to flat enumeration on a single node —
    /// fresh overlay cells included.
    #[test]
    fn random_grids_nulls_ingest_and_shards_answer_bit_identically(
        users in 4u64..12,
        days in 2u64..5,
        user_span in 1i64..3,
        day_span in 1i64..3,
        null_mask in any::<u64>(),
        seed in any::<u64>(),
        shard_pick in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_pick];
        let cfg = MeterConfig { users, days, seed, ..MeterConfig::default() };
        let mut rows = generate_meter_data(&cfg);
        let power = meter_schema().index_of("power_consumed").unwrap();
        for (i, row) in rows.iter_mut().enumerate() {
            if (null_mask >> (i % 64)) & 1 == 1 {
                row[power] = Value::Null;
            }
        }
        let third = (rows.len() / 3).max(1);
        let (seeded, rest) = rows.split_at(third);
        let (appended, fresh) = rest.split_at(rest.len() / 2);
        let policy = || SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, user_span),
            DimPolicy::date("ts", cfg.start_day, day_span),
        ]).unwrap();

        // Single-node oracle: the same store without a pyramid, fresh
        // rows overlaid.
        let wo = world("prop-oracle");
        let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        let built = build_over(&wo, Arc::clone(&kv), seeded, policy());
        let extents = built.extents().unwrap();
        built.append(appended).unwrap();
        strip_pyramid(kv.as_ref());
        let oracle_index = open_reader(&wo, kv);
        let oracle_ing = stream(&oracle_index, wo.tmp.path(), u64::MAX);
        oracle_ing.ingest(fresh).unwrap();
        let oracle = default_answers(&oracle_index, &cfg);

        // Sharded pyramid reader over an identically grown store.
        let ws = world(&format!("prop-s{shards}"));
        let router = Arc::new(sharded_mem(&extents, shards).unwrap());
        build_over(&ws, Arc::clone(&router) as Arc<dyn KvStore>, seeded, policy());
        let reader = open_reader(&ws, Arc::clone(&router) as Arc<dyn KvStore>);
        reader.append(appended).unwrap();
        let reader_ing = stream(&reader, ws.tmp.path(), u64::MAX);
        reader_ing.ingest(fresh).unwrap();
        let got = default_answers(&reader, &cfg);
        prop_assert!(
            bits_eq(&got, &oracle),
            "{shards}-shard pyramid answers differ from flat single-node under grid ({user_span}, {day_span}), {users} users x {days} days:\n{got:?}\nvs\n{oracle:?}"
        );
    }
}

/// Float aggregates are bit-identical however many MapReduce workers
/// compute them, with headers and without: sums are exact, so neither
/// the task schedule nor the merge order can move a bit.
#[test]
fn aggregate_results_bit_identical_across_worker_counts() {
    let cfg = meter_cfg();
    let rows = generate_meter_data(&cfg);
    let run = |workers: usize| -> Vec<QueryResult> {
        let tmp = TempDir::new(&format!("bits{workers}")).unwrap();
        let hdfs = SimHdfs::open(tmp.path()).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(workers));
        let base = ctx
            .create_table("meter", meter_schema(), FileFormat::Text)
            .unwrap();
        ctx.load_rows(&base, &rows, 2).unwrap();
        let kv = Arc::new(MemKvStore::new());
        let (index, _) = DgfIndex::build(ctx, base, grid(&cfg), aggs(), kv, INDEX).unwrap();
        let index = Arc::new(index);
        let precompute = DgfEngine::new(Arc::clone(&index));
        let raw = DgfEngine::new(Arc::clone(&index)).without_precompute();
        common::queries(&cfg)
            .iter()
            .flat_map(|q| [precompute.run(q).unwrap().result, raw.run(q).unwrap().result])
            .collect()
    };
    let one = run(1);
    for workers in [2, 8] {
        let other = run(workers);
        assert!(
            bits_eq(&one, &other),
            "1-worker vs {workers}-worker answers differ in float bits:\n{one:?}\nvs\n{other:?}"
        );
    }
}

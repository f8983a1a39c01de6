//! Streaming ingestion: freshness, crash recovery, and build equivalence.
//!
//! Three pillars:
//!
//! * **Freshness** — a query issued immediately after an acknowledged
//!   streaming write returns that row, with zero header-cache generation
//!   bumps between flushes.
//! * **Chaos matrix** — a sweep of the lifecycle checker crashes an
//!   ingest at every WAL site (append, sync) and a flush at every site it
//!   passes (staging, commit, and every append/apply site between) ×
//!   transient-noise seeds; after reopening, the answer equals the model
//!   over the acknowledged batches (an unacknowledged in-flight batch
//!   may land either way — atomically — and nothing else may differ).
//! * **Equivalence** — property test: streamed-then-flushed ingestion
//!   answers queries identically to a one-shot batch `build` over the
//!   same rows.

mod common;

use std::sync::Arc;

use common::checker::{sweep, Kill, Op, Site, Tally};
use common::*;
use dgfindex::common::DgfError;
use dgfindex::format::{is_sidecar_path, sidecar_path};
use dgfindex::ingest::IngestConfig;
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, meter_schema, stream_meter_data, MeterConfig};
use proptest::prelude::*;

/// GROUP BY `ts` (one-day cells, so headers answer per day) over every
/// user — each cell covered — and over a misaligned user range, whose
/// low user cell is boundary and pushes its rows.
fn group_by_ts(cfg: &MeterConfig) -> Vec<Query> {
    [0, 1]
        .into_iter()
        .map(|lo| Query::GroupBy {
            key: "ts".into(),
            aggs: aggs(),
            predicate: Predicate::all().and(
                "user_id",
                ColumnRange::half_open(Value::Int(lo), Value::Int(cfg.users as i64)),
            ),
        })
        .collect()
}

/// Acknowledged writes are immediately query-visible, and no flush means
/// no header-cache generation bump — the acceptance bar verbatim.
#[test]
fn acked_writes_visible_with_zero_generation_bumps() {
    let w = world("fresh");
    let cfg = meter_cfg();
    let (seeded, streamed) = seed_index(&w);
    let index = open_index(&w);
    let ingestor = stream(&index, w.tmp.path(), u64::MAX);

    let gen_before = index.generation();
    let mut present = seeded.clone();
    for batch in streamed.chunks(5) {
        ingestor.ingest(batch).unwrap();
        present.extend(batch.iter().cloned());
        // Immediately after the ack, every query sees the batch.
        assert!(
            matches(&answers(&index, &cfg), &model(&cfg, &present)),
            "acknowledged batch not visible to the very next query"
        );
    }
    assert_eq!(
        index.generation(),
        gen_before,
        "freshness merge must not bump the header-cache generation"
    );
    assert_eq!(ingestor.stats().flushes, 0);

    // The flush changes where the rows live, not what queries see.
    ingestor.flush().unwrap();
    assert!(index.generation() > gen_before);
    assert!(matches(&answers(&index, &cfg), &model(&cfg, &present)));
    // And now the persisted index alone (a handle with no memtable)
    // agrees too.
    let persisted = answers(&open_index(&w), &cfg);
    assert!(matches(&persisted, &model(&cfg, &present)));
}

/// Unflushed rows land in their groups: a GROUP BY `ts` merges each
/// covered memtable cell's running partial into its day's group (the
/// streamed days exist only there) and pushes a boundary cell's rows,
/// answering what the model answers over the acknowledged rows, before
/// the flush and after it.
#[test]
fn unflushed_rows_land_in_their_header_answered_groups() {
    let w = world("groups");
    let cfg = meter_cfg();
    let (seeded, streamed) = seed_index(&w);
    let index = open_index(&w);
    let ingestor = stream(&index, w.tmp.path(), u64::MAX);
    ingestor.ingest(&streamed).unwrap();
    let engine = DgfEngine::new(Arc::clone(&index));
    let acknowledged = [seeded, streamed].concat();

    let mut fresh_answers = Vec::new();
    for (qi, q) in group_by_ts(&cfg).iter().enumerate() {
        let plan = index.plan(q, true).unwrap();
        assert!(plan.fresh_gfus > 0, "q{qi}: the memtable was not consulted");
        let Some(dgfindex::query::AggPartials::Groups(groups)) = &plan.inner_states else {
            panic!("q{qi}: GROUP BY ts planned without group partials");
        };
        // Every day has a covered user cell: two seeded, two unflushed.
        assert_eq!(groups.len() as u64, cfg.days, "q{qi}");
        // Only the misaligned range has a boundary cell to push.
        assert_eq!(plan.fresh_rows.is_empty(), qi == 0, "q{qi}");
        fresh_answers.push(engine.run(q).unwrap().result);
    }

    ingestor.flush().unwrap();
    for (qi, (q, fresh)) in group_by_ts(&cfg).iter().zip(&fresh_answers).enumerate() {
        let truth = model_answer(q, &acknowledged);
        assert_eq!(truth.clone().into_groups().len() as u64, cfg.days);
        assert!(
            fresh.approx_eq(&truth, 1e-9),
            "q{qi}: {fresh:?} vs {truth:?}"
        );
        assert!(
            engine.run(q).unwrap().result.approx_eq(&truth, 1e-9),
            "q{qi}"
        );
    }
}

/// Unflushed rows follow a regrid. The streamed days are buffered under
/// the 4-user grid when `regrid_to` installs a 2-user one; a plan pinned
/// to the new view re-groups them into its own cells, a batch ingested
/// afterwards joins the same slot, and the flush writes every buffered
/// row under the grid it commits with. Every answer equals the oracle
/// throughout, and after the flush every answer equals, in float bits,
/// an index built in one pass over the same rows under the new grid.
/// (Answering buffered cells in the grid they were routed under, the
/// range COUNT read 13 where 12 rows match: the old cell of users 4–7
/// passed for the covered new cell of users 2–3.)
#[test]
fn unflushed_rows_follow_a_regrid() {
    use dgfindex::core::{MaintenanceConfig, Maintainer};
    let w = world("regrid");
    let cfg = meter_cfg();
    let (seeded, streamed) = seed_index(&w);
    // A fifth day: the generator draws day by day, so the first four
    // days of a five-day run are the rows above.
    let five = generate_meter_data(&MeterConfig { days: 5, ..meter_cfg() });
    let later = &five[seeded.len() + streamed.len()..];
    let (ctx, base, kv) = (Arc::clone(&w.ctx), Arc::clone(&w.base), Arc::clone(&w.inner));
    let index = Arc::new(DgfIndex::open(ctx, base, kv, INDEX, aggs()).unwrap());
    let ingestor = stream(&index, w.tmp.path(), u64::MAX);
    ingestor.ingest(&streamed).unwrap();
    let mut dims = grid(&cfg).dims().to_vec();
    dims[0] = DimPolicy::int("user_id", 0, 2);
    let finer = SplittingPolicy::new(dims).unwrap();
    Maintainer::new(Arc::clone(&index), MaintenanceConfig::default())
        .regrid_to(finer.clone())
        .unwrap();

    // The one-pass twin over every row, the fifth day included.
    let one = world("regrid-one-pass");
    one.ctx.load_rows(&one.base, &five, 2).unwrap();
    let kv = Arc::clone(&one.inner);
    let (built, _) = DgfIndex::build(Arc::clone(&one.ctx), Arc::clone(&one.base), finer, aggs(), kv, INDEX).unwrap();
    let twin = Arc::new(built);
    // The mix, and GROUP BY `ts` over every user (each user cell covered).
    let all = |index: &Arc<DgfIndex>| -> Vec<QueryResult> {
        let by_day = &group_by_ts(&cfg)[0];
        let mut got = answers(index, &cfg);
        got.push(DgfEngine::new(Arc::clone(index)).run(by_day).unwrap().result);
        got
    };

    let mut present = [seeded, streamed].concat();
    assert!(matches(&answers(&index, &cfg), &model(&cfg, &present)), "after the regrid");
    ingestor.ingest(later).unwrap();
    present.extend_from_slice(later);
    assert!(matches(&answers(&index, &cfg), &model(&cfg, &present)), "after a later batch");
    assert!(matches(&all(&index), &all(&twin)), "before the flush");

    ingestor.flush().unwrap();
    assert!(matches(&answers(&index, &cfg), &model(&cfg, &present)), "after the flush");
    assert!(bits_eq(&all(&index), &all(&twin)), "after the flush");
}

/// Acknowledged-but-unflushed rows survive a process exit: WAL replay at
/// reopen restores them, and they are query-visible again before any
/// flush happens.
#[test]
fn wal_replay_restores_unflushed_rows_across_reopen() {
    let w = world("replay");
    let cfg = meter_cfg();
    let (seeded, streamed) = seed_index(&w);
    let mut present = seeded.clone();
    {
        let index = open_index(&w);
        let ingestor = stream(&index, w.tmp.path(), u64::MAX);
        for batch in streamed.chunks(7).take(3) {
            ingestor.ingest(batch).unwrap();
            present.extend(batch.iter().cloned());
        }
        // Dropped without flush: rows exist only in the WAL now.
    }
    let ingested = (present.len() - seeded.len()) as u64;
    let batches = streamed.chunks(7).take(3).count() as u64;
    let index = open_index(&w);
    let ingestor = stream(&index, w.tmp.path(), 12);
    let replayed = ingestor.stats();
    assert!(ingested > 0);
    assert_eq!(replayed.replayed_batches, batches);
    assert_eq!(replayed.replayed_rows, ingested);
    assert!(
        matches(&answers(&index, &cfg), &model(&cfg, &present)),
        "replayed rows must be query-visible before any flush"
    );
}

/// Concurrent ingesters racing inline flushes: every acknowledged batch
/// survives a reopen. This is the regression test for the seq/watermark
/// race — without the batch gate, a flush could snapshot the memtable
/// while a lower, already-WAL-appended sequence was still on its way in,
/// commit a watermark covering it, and recovery would then drop the
/// acknowledged batch from both the WAL and the memtable.
#[test]
fn concurrent_ingest_with_racing_flushes_loses_no_acked_batch() {
    let w = world("race");
    let cfg = meter_cfg();
    let (seeded, streamed) = seed_index(&w);
    let index = open_index(&w);
    // Tiny threshold: inline flushes constantly race the other ingest
    // threads.
    let ingestor = Arc::new(stream(&index, w.tmp.path(), 8));
    let threads = 4;
    std::thread::scope(|s| {
        for t in 0..threads {
            let ingestor = Arc::clone(&ingestor);
            let batches: Vec<&[Row]> = streamed.chunks(3).skip(t).step_by(threads).collect();
            s.spawn(move || {
                for b in batches {
                    ingestor.ingest(b).unwrap();
                }
            });
        }
    });
    // Drop without a final flush: whatever is still buffered must come
    // back from the WAL alone.
    drop(ingestor);

    let index = open_index(&w);
    let _ingestor = stream(&index, w.tmp.path(), 12);
    let mut present = seeded;
    present.extend(streamed.iter().cloned());
    assert!(
        matches(&answers(&index, &cfg), &model(&cfg, &present)),
        "an acknowledged batch went missing across concurrent flushes"
    );
}

/// Admission control: a buffer past the byte bound rejects with
/// `Backpressure` (counted, no side effects); a flush reopens admission.
#[test]
fn backpressure_rejects_then_flush_reopens_admission() {
    let w = world("backpressure");
    let (_, streamed) = seed_index(&w);
    let index = open_index(&w);
    // Room for one batch and a half of the rows' WAL encoding.
    let batch_bytes = dgfindex::ingest::encode_rows(&streamed[..4]).len() as u64;
    let config = IngestConfig {
        max_buffered_bytes: batch_bytes * 3 / 2,
        ..flushing_at(u64::MAX)
    };
    let ingestor = StreamIngestor::open(Arc::clone(&index), w.tmp.path().join("ingest.wal"), config).unwrap();
    let mut acked = 0u64;
    let mut rejected = false;
    for batch in streamed.chunks(4) {
        match ingestor.ingest(batch) {
            Ok(_) => acked += batch.len() as u64,
            Err(DgfError::Backpressure(_)) => {
                rejected = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected, "tiny buffer bound never rejected");
    assert!(acked > 0, "first batches should have been admitted");
    assert_eq!(ingestor.stats().rejections, 1);
    assert_eq!(ingestor.stats().rows, acked);

    // Flushing drains the buffer; the same batch is admitted now.
    ingestor.flush().unwrap();
    ingestor.ingest(&streamed[..4]).unwrap();
}

/// Sweep one ingest of the last two days in batches of five, which
/// flushes inline after the second, and a flush over a WAL an earlier
/// flush already cut, each killed at every crash point by
/// `kill(writer, n)`; every point must be killed. A killed ingest leaves
/// the acknowledged batches (and at most the one in flight) in the WAL
/// past the last committed flush, and the flush after it writes them; a
/// killed flush leaves its batches in the WAL or in Slices, never both
/// and never neither.
fn sweep_ingest_and_flush(seed: u64, kill: impl Fn(Op, u64) -> Op) -> Tally {
    let (_, streamed) = seed_rows();
    let batches: Vec<Vec<Row>> = streamed.chunks(5).map(<[Row]>::to_vec).collect();
    let ingest = Op::Ingest(batches.clone());
    let mut tally = sweep(seed, &[], |n| kill(ingest.clone(), n), &[Op::Flush]);
    let (first, second) = batches.split_at(2);
    let cut = [Op::Ingest(first.to_vec()), Op::Flush, Op::Ingest(second.to_vec())];
    tally += sweep(seed, &cut, |n| kill(Op::Flush, n), &[]);
    assert_eq!(tally.kills, tally.sites, "seed {seed}: a site outlived its kill: {tally:?}");
    assert!(tally.sites >= 12, "expected WAL + flush + append sites: {tally:?}");
    tally
}

/// Crash at every instrumented site once; the recovered index must
/// answer as the acknowledged rows from each of them.
#[test]
fn ingest_crash_matrix_every_site_recovers() {
    sweep_ingest_and_flush(1, |writer, n| Op::crash(writer, Site::Point(n)));
}

/// The same matrix under 20% transient-fault noise, four seeds. Retries
/// absorb the noise; the crash still lands on the intended site.
#[test]
fn ingest_crash_matrix_with_transient_noise_recovers() {
    for seed in 1..=4u64 {
        sweep_ingest_and_flush(seed, |writer, n| {
            let kill = Kill {
                noise: Some(seed),
                ..Kill::at(Site::Point(n))
            };
            Op::Crash(Box::new(writer), kill)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streamed-then-flushed ingestion is query-equivalent to one-shot
    /// batch construction over the same rows.
    #[test]
    fn streamed_ingest_equals_one_shot_build(
        users in 4u64..10,
        days in 2u64..5,
        batch in 3usize..17,
        flush_rows in 5u64..40,
    ) {
        let cfg = MeterConfig { users, days, ..MeterConfig::default() };
        let per_day = (cfg.row_count() / cfg.days) as usize;

        // Path A: one-shot build over the full table.
        let wa = world("prop-a");
        let all: Vec<Row> = stream_meter_data(&cfg, usize::MAX).flatten().collect();
        wa.ctx.load_rows(&wa.base, &all, 2).unwrap();
        let (index_a, _) = DgfIndex::build(
            Arc::clone(&wa.ctx),
            Arc::clone(&wa.base),
            grid(&cfg),
            aggs(),
            Arc::clone(&wa.inner),
            INDEX,
        )
        .unwrap();
        let engine_a = DgfEngine::new(Arc::new(index_a));

        // Path B: build over day one, stream the rest, final flush.
        let wb = world("prop-b");
        wb.ctx.load_rows(&wb.base, &all[..per_day], 2).unwrap();
        let (index_b, _) = DgfIndex::build(
            Arc::clone(&wb.ctx),
            Arc::clone(&wb.base),
            grid(&cfg),
            aggs(),
            Arc::clone(&wb.inner),
            INDEX,
        )
        .unwrap();
        let index_b = Arc::new(index_b);
        let ingestor = stream(&index_b, wb.tmp.path(), flush_rows);
        for b in all[per_day..].chunks(batch) {
            ingestor.ingest(b).unwrap();
        }
        let engine_b = DgfEngine::new(Arc::clone(&index_b));
        // Before the final flush, the unflushed rows' groups come from
        // the memtable's partials.
        for q in &group_by_ts(&cfg) {
            let a = engine_a.run(q).unwrap().result;
            let b = engine_b.run(q).unwrap().result;
            prop_assert!(
                a.approx_eq(&b, 1e-9),
                "streamed (unflushed) vs one-shot groups diverged: {a:?} vs {b:?}"
            );
        }
        ingestor.close().unwrap();

        for q in queries(&cfg).iter().chain(&group_by_ts(&cfg)) {
            let a = engine_a.run(q).unwrap().result;
            let b = engine_b.run(q).unwrap().result;
            prop_assert!(
                a.approx_eq(&b, 1e-9),
                "streamed vs one-shot diverged: {a:?} vs {b:?}"
            );
        }
    }
}

/// Satellite (maintenance PR): a streaming flush on an RcFile-backed
/// index writes a `.scx` sidecar beside every slice file it lands —
/// the sidecar rides the flush's staged-commit renames exactly like a
/// build's — and queries over the flushed data actually consult them
/// (`scan.sidecar.*` counters move) while answering in the same float
/// bits as the sidecar-free scan. Before the fix, flushed deltas were
/// the one write path without sidecars, so a long-streamed index
/// silently lost sub-slice pruning on exactly its newest (hottest)
/// data.
#[test]
fn flush_emits_consultable_sidecars_on_rcfile_indexes() {
    let cfg = meter_cfg();
    let rows = generate_meter_data(&cfg);
    let per_day = rows.len() / cfg.days as usize;
    let (seeded, streamed) = rows.split_at(2 * per_day);

    let tmp = TempDir::new("stream-scx").unwrap();
    let hdfs = SimHdfs::open(tmp.path()).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(1));
    let created = ctx
        .create_table("meter_rc", meter_schema(), FileFormat::RcFile)
        .unwrap();
    // Small row groups, the pruning granularity the flushed slices'
    // sidecars are written at.
    let mut desc = (*created).clone();
    desc.rows_per_group = 8;
    let base: TableRef = Arc::new(desc);
    ctx.load_rows(&base, seeded, 2).unwrap();
    let (index, _) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&base),
        grid(&cfg),
        aggs(),
        Arc::new(MemKvStore::new()),
        INDEX,
    )
    .unwrap();
    let index = Arc::new(index);

    let before: std::collections::HashSet<String> = ctx
        .hdfs
        .list_files(&index.data.location)
        .into_iter()
        .map(|(p, _)| p)
        .collect();

    let ingestor = stream(&index, tmp.path(), u64::MAX);
    ingestor.ingest(streamed).unwrap();
    ingestor.flush().unwrap();

    // Every slice file the flush landed has its sidecar twin.
    let flushed: Vec<String> = ctx
        .hdfs
        .list_files(&index.data.location)
        .into_iter()
        .map(|(p, _)| p)
        .filter(|p| !before.contains(p) && !is_sidecar_path(p))
        .collect();
    assert!(!flushed.is_empty(), "flush landed no slice files");
    for f in &flushed {
        assert!(
            ctx.hdfs.file_exists(&sidecar_path(f)),
            "flushed slice {f} has no .scx sidecar"
        );
    }

    // The misaligned range covers a flushed day, so its boundary scan
    // reads flushed slices, and the conjunct on a column the grid does
    // not cut on is something only a sidecar can narrow: pruning must
    // consult the flushed slices' sidecars and the answer must not move
    // a single float bit. (The grid-only range alone consults nothing
    // here — each of its cells is one row group.)
    let Query::Aggregate { aggs, predicate } = queries(&cfg).swap_remove(1) else {
        unreachable!("the range query is an aggregation")
    };
    let region = ColumnRange::half_open(Value::Int(0), Value::Int(5));
    let q = &Query::Aggregate {
        aggs,
        predicate: predicate.and("region_id", region),
    };
    ctx.set_scan_options(ScanOptions { sidecar: false });
    let off = DgfEngine::new(Arc::clone(&index)).run(q).unwrap();
    assert_eq!(
        off.stats.scan.sidecar_hits + off.stats.scan.sidecar_misses,
        0,
        "pruning disabled but sidecars were consulted"
    );
    ctx.set_scan_options(ScanOptions { sidecar: true });
    let on = DgfEngine::new(Arc::clone(&index)).run(q).unwrap();
    assert!(
        on.stats.scan.sidecar_hits > 0,
        "query over flushed data never consulted a sidecar: {:?}",
        on.stats.scan
    );
    let (a, b) = (off.result.into_scalars(), on.result.into_scalars());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        let same = match (x, y) {
            (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        };
        assert!(same, "sidecar pruning moved float bits: {a:?} vs {b:?}");
    }
}

/// A three-column table whose string column cycles through `""`, NULL
/// and `"on"`, gridded on `user` (4 users a cell) with `COUNT(*)`
/// pre-computed and built over its first `built` rows; returns the
/// index and the rows left for the caller to write.
fn tagged(tag: &str, format: FileFormat, built: usize) -> (TempDir, Arc<DgfIndex>, Vec<Row>) {
    let tmp = TempDir::new(&format!("stream-tagged-{tag}")).unwrap();
    let ctx = HiveContext::new(SimHdfs::open(tmp.path()).unwrap(), MrEngine::new(2));
    let schema = Schema::from_pairs(&[
        ("user", ValueType::Int),
        ("tag", ValueType::Str),
        ("power", ValueType::Float),
    ]);
    let base = ctx.create_table("tagged", Arc::new(schema), format).unwrap();
    let tags = [Value::Str(String::new()), Value::Null, Value::Str("on".into())];
    let rows: Vec<Row> = (0..300i64)
        .map(|i| vec![Value::Int(i % 23), tags[i as usize % 3].clone(), Value::Float(i as f64 / 4.0)])
        .collect();
    ctx.load_rows(&base, &rows[..built], 2).unwrap();
    let policy = SplittingPolicy::new(vec![DimPolicy::int("user", 0, 4)]).unwrap();
    let kv = Arc::new(MemKvStore::new());
    let (index, _) = DgfIndex::build(ctx, base, policy, tag_aggs(), kv, INDEX).unwrap();
    (tmp, Arc::new(index), rows[built..].to_vec())
}

fn tag_aggs() -> Vec<AggFunc> {
    vec![AggFunc::Count]
}

/// GROUP BY the string column with `COUNT(*)` and its `MIN`, and both
/// aggregates over a misaligned `user` range, normalized.
fn tag_answers(engine: &dyn Engine) -> Vec<QueryResult> {
    let aggs = vec![AggFunc::Count, AggFunc::Min("tag".into())];
    let users = ColumnRange::half_open(Value::Int(2), Value::Int(17));
    let queries = [
        Query::GroupBy { key: "tag".into(), aggs: aggs.clone(), predicate: Predicate::all() },
        Query::Aggregate { aggs, predicate: Predicate::all().and("user", users) },
    ];
    queries.iter().map(|q| engine.run(q).unwrap().result.normalized()).collect()
}

/// A replayed batch is the acknowledged batch. On an RCFile index a
/// string column's `""` stays apart from NULL in the memtable, across a
/// reopen that replays it from the WAL, and in a one-shot build over the
/// same rows. (When the WAL logged text lines, replay read `""` back as
/// NULL: the groups and the `MIN` moved across a restart.)
#[test]
fn replayed_batches_equal_the_acknowledged_ones() {
    let (tmp, index, rest) = tagged("replay", FileFormat::RcFile, 150);
    let acked = {
        let ingestor = stream(&index, tmp.path(), u64::MAX);
        for batch in rest.chunks(7) {
            ingestor.ingest(batch).unwrap();
        }
        tag_answers(&DgfEngine::new(Arc::clone(&index)))
        // Dropped without a flush: the batches live in the WAL alone.
    };
    let (ctx, base, kv) = (Arc::clone(&index.ctx), Arc::clone(&index.base), Arc::clone(&index.kv));
    let reopened = Arc::new(DgfIndex::open(ctx, base, kv, INDEX, tag_aggs()).unwrap());
    let ingestor = stream(&reopened, tmp.path(), u64::MAX);
    assert_eq!(ingestor.stats().replayed_rows, rest.len() as u64);
    assert_eq!(tag_answers(&DgfEngine::new(reopened)), acked);
    let (_t, one_shot, _) = tagged("replay-one-shot", FileFormat::RcFile, 300);
    assert_eq!(tag_answers(&DgfEngine::new(one_shot)), acked);
}

/// Fresh answers are the post-flush answers, for both formats: a Text
/// table cannot tell `""` from NULL, so an ingest stores `""` as NULL
/// from the ack on, as the flush and a scan of the base table read it.
/// The flushed data table holds exactly the base table's rows. A row of
/// the wrong arity or type is a schema error before anything is written.
#[test]
fn fresh_and_flushed_rows_answer_as_the_base_table_does() {
    for format in [FileFormat::RcFile, FileFormat::Text] {
        let (tmp, index, rest) = tagged(&format!("fresh-{format}"), format, 150);
        let (ctx, base) = (Arc::clone(&index.ctx), Arc::clone(&index.base));
        let dgf = DgfEngine::new(Arc::clone(&index));
        let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&base));
        assert_eq!(tag_answers(&dgf), tag_answers(&scan), "{format}: built");
        let ingestor = stream(&index, tmp.path(), u64::MAX);

        let files = ctx.hdfs.list_files(&base.location).len();
        let short = vec![Value::Int(1), Value::Null];
        let mistyped = vec![Value::Str("1".into()), Value::Null, Value::Float(0.0)];
        for bad in [short, mistyped] {
            let err = ingestor.ingest(&[rest[0].clone(), bad]).unwrap_err();
            assert!(matches!(err, DgfError::Schema(_)), "{format}: {err}");
        }
        assert_eq!(ingestor.stats().batches, 0, "{format}");

        for batch in rest.chunks(9) {
            ingestor.ingest(batch).unwrap();
        }
        let fresh = tag_answers(&dgf);
        ingestor.flush().unwrap();
        assert_eq!(ctx.hdfs.list_files(&base.location).len(), files + 1, "{format}");
        assert_eq!(tag_answers(&scan), fresh, "{format}: flushed base table");
        assert_eq!(tag_answers(&dgf), fresh, "{format}: flushed index");
        let sorted = |table: &TableRef| {
            let mut rows = ctx.read_all(table).unwrap();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&index.data), sorted(&base), "{format}");
    }
}

/// Neither an append nor a flush reads back the base-table delta it
/// writes: each groups the rows it holds, so across each the warehouse
/// opens no file and reads no byte, and no MapReduce job runs. A flush
/// writes the memtable's own cells and scans the store twice — the
/// staged keys, to stage the pyramid above them and to publish them —
/// and nothing that grows with the store.
#[test]
fn appends_and_flushes_read_nothing_back() {
    use dgfindex::common::{obs::names, Profiler};
    let w = world("no-read-back");
    let (_, streamed) = seed_index(&w);
    let profiler = Profiler::enabled();
    let options = IndexOptions {
        profiler: profiler.clone(),
        ..IndexOptions::default()
    };
    let (ctx, base, kv) = (Arc::clone(&w.ctx), Arc::clone(&w.base), Arc::clone(&w.inner));
    let index = Arc::new(DgfIndex::open_with_options(ctx, base, kv, INDEX, aggs(), options).unwrap());
    let ingestor = stream(&index, w.tmp.path(), u64::MAX);
    let (day3, day4) = streamed.split_at(streamed.len() / 2);
    ingestor.ingest(day4).unwrap();
    let _ = profiler.take_profile();

    let io = || w.ctx.hdfs.stats().snapshot();
    let before = io();
    index.append(day3).unwrap();
    let appended = io();
    let kv_before = w.inner.stats().snapshot();
    assert_eq!(ingestor.flush().unwrap(), day4.len() as u64);
    let flushed = io();
    assert_eq!(w.inner.stats().snapshot().since(&kv_before).scans, 2, "flush scans");
    for (what, d) in [("append", appended.since(&before)), ("flush", flushed.since(&appended))] {
        assert_eq!((d.bytes_read, d.opens), (0, 0), "{what} read back: {d:?}");
        assert!(d.bytes_written > 0, "{what} wrote nothing");
    }
    let profile = profiler.take_profile();
    assert_eq!(profile.metric_total(names::MR_MAP_INPUTS), 0);
    assert!(profile.find("append").is_some());
}

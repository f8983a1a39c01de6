//! The one test world the integration suites share: an 8-user × 4-day
//! meter table gridded `user_id`/4 × `ts`/1 with `SUM(power_consumed)`
//! and `COUNT(*)` pre-computed, the four-query mix every torn-read and
//! recovery check runs, the answer comparisons, the seeded schedules,
//! the grid-directory invariants, and a pass-through [`KvStore`] whose
//! hook sees every operation before the inner store does. The lifecycle
//! model checker that plays op sequences over this world is [`checker`].
//!
//! Each test binary uses a subset of this file.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dgfindex::common::Result;
use dgfindex::core::gfu::META_VIEW_KEY;
use dgfindex::core::pyramid::parent_coords;
use dgfindex::core::txn::{STAGE_PREFIX, TXN_MANIFEST_KEY};
use dgfindex::core::{all_gfus, ReadView, PYRAMID_PREFIX};
use dgfindex::kvstore::{KvPair, KvStats};
use dgfindex::prelude::*;
use dgfindex::query::RowSink;
use dgfindex::workload::{generate_meter_data, meter_schema, MeterConfig};

pub mod checker;

pub const INDEX: &str = "dgf_t";

/// Zero backoff keeps sweeps wall-clock-free; 40 attempts makes budget
/// exhaustion under injected transient noise astronomically unlikely.
pub fn retry() -> RetryPolicy {
    RetryPolicy::fast(40)
}

pub fn aggs() -> Vec<AggFunc> {
    vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count]
}

pub fn meter_cfg() -> MeterConfig {
    MeterConfig {
        users: 8,
        days: 4,
        ..MeterConfig::default()
    }
}

pub fn grid(cfg: &MeterConfig) -> SplittingPolicy {
    SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 4),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])
    .unwrap()
}

/// The query mix: a full COUNT (torn states show up as impossible
/// intermediate row counts), a misaligned range aggregate (boundary
/// Slices + inner headers), two GROUP BYs (the grouped sink and
/// per-group float sums; the second, on `ts`, merges each day's inner
/// headers into its group), and a wide aggregate over all but the edge
/// users and the last seeded day, whose inner region holds aligned
/// blocks of cells on a fine grid: its default plan reads level ≥ 1
/// pyramid nodes there.
pub fn queries(cfg: &MeterConfig) -> Vec<Query> {
    let range = Predicate::all()
        .and(
            "user_id",
            ColumnRange::half_open(Value::Int(1), Value::Int(7)),
        )
        .and(
            "ts",
            ColumnRange::half_open(
                Value::Date(cfg.start_day + 1),
                Value::Date(cfg.start_day + 3),
            ),
        );
    vec![
        Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        },
        Query::Aggregate {
            aggs: aggs(),
            predicate: range.clone(),
        },
        Query::GroupBy {
            key: "user_id".into(),
            aggs: aggs(),
            predicate: range,
        },
        Query::GroupBy {
            key: "ts".into(),
            aggs: aggs(),
            predicate: Predicate::all().and(
                "user_id",
                ColumnRange::half_open(Value::Int(1), Value::Int(cfg.users as i64)),
            ),
        },
        Query::Aggregate {
            aggs: aggs(),
            predicate: Predicate::all()
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
                ),
        },
    ]
}

pub struct World {
    pub tmp: TempDir,
    pub ctx: Arc<HiveContext>,
    pub base: TableRef,
    pub inner: Arc<dyn KvStore>,
}

/// An empty text `meter` table over a fresh warehouse, and an empty
/// in-memory store. One MapReduce worker, so crash-point ordinals are
/// globally deterministic.
pub fn world(tag: &str) -> World {
    let tmp = TempDir::new(tag).unwrap();
    let hdfs = SimHdfs::open(tmp.path()).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(1));
    let base = ctx
        .create_table("meter", meter_schema(), FileFormat::Text)
        .unwrap();
    World {
        tmp,
        ctx,
        base,
        inner: Arc::new(MemKvStore::new()),
    }
}

/// The world's rows: the first two days, which a world is seeded with,
/// and the last two, for a test to write.
pub fn seed_rows() -> (Vec<Row>, Vec<Row>) {
    let cfg = meter_cfg();
    let mut seeded = generate_meter_data(&cfg);
    let per_day = seeded.len() / cfg.days as usize;
    let rest = seeded.split_off(2 * per_day);
    (seeded, rest)
}

/// Load the seeded rows fault-free, unindexed; return [`seed_rows`].
pub fn load_seed(w: &World) -> (Vec<Row>, Vec<Row>) {
    let (seeded, rest) = seed_rows();
    w.ctx.load_rows(&w.base, &seeded, 2).unwrap();
    (seeded, rest)
}

/// Index the world's base table over `kv` fault-free.
pub fn build(w: &World, kv: &Arc<dyn KvStore>) {
    let (ctx, base) = (Arc::clone(&w.ctx), Arc::clone(&w.base));
    DgfIndex::build(ctx, base, grid(&meter_cfg()), aggs(), Arc::clone(kv), INDEX).unwrap();
}

/// Load and index the seeded rows fault-free; return [`seed_rows`].
pub fn seed_index(w: &World) -> (Vec<Row>, Vec<Row>) {
    let rows = load_seed(w);
    build(w, &w.inner);
    rows
}

/// A test's ingest configuration: no background flusher, and an inline
/// flush once `flush_rows` rows are buffered (`u64::MAX`: only when
/// asked), so flushes are a function of the batch sequence.
pub fn flushing_at(flush_rows: u64) -> IngestConfig {
    IngestConfig {
        flush_rows,
        auto_flush_interval: None,
        ..IngestConfig::default()
    }
}

/// A stream into `index` through the WAL `ingest.wal` under `dir`,
/// configured by [`flushing_at`]`(flush_rows)`.
pub fn stream(index: &Arc<DgfIndex>, dir: &std::path::Path, flush_rows: u64) -> StreamIngestor {
    let wal = dir.join("ingest.wal");
    StreamIngestor::open(Arc::clone(index), wal, flushing_at(flush_rows)).unwrap()
}

/// A handle over the world's own store, with default options.
pub fn open_index(w: &World) -> Arc<DgfIndex> {
    let (ctx, base, kv) = (Arc::clone(&w.ctx), Arc::clone(&w.base), Arc::clone(&w.inner));
    Arc::new(DgfIndex::open(ctx, base, kv, INDEX, aggs()).unwrap())
}

/// Open a handle over `kv` with an attached fault plan (scheduling
/// points, transient noise, or crash schedule — whatever the plan says).
pub fn open_with(w: &World, kv: Arc<dyn KvStore>, plan: &Arc<FaultPlan>) -> Arc<DgfIndex> {
    Arc::new(
        DgfIndex::open_with_options(
            Arc::clone(&w.ctx),
            Arc::clone(&w.base),
            kv,
            INDEX,
            aggs(),
            IndexOptions {
                retry: retry(),
                fault: Some(Arc::clone(plan)),
                ..IndexOptions::default()
            },
        )
        .unwrap(),
    )
}

/// A seeded scheduling plan: pause at every named site, up to 500µs.
/// The pauses dwarf the work between commit-protocol writes, so the
/// publish window stays open long enough for reader fetches to land
/// inside it (in debug and release builds alike).
pub fn interleave(seed: u64) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(FaultConfig::interleave(
        seed,
        1.0,
        Duration::from_micros(500),
    )))
}

/// Seeds to sweep: `DGF_STRESS_SEEDS=1,2,3` overrides (CI uses this to
/// widen the sweep in release mode), default is a small fixed set.
pub fn stress_seeds() -> Vec<u64> {
    match std::env::var("DGF_STRESS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim())
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().expect("DGF_STRESS_SEEDS entries must be u64"))
            .collect(),
        Err(_) => (1..=6).collect(),
    }
}

/// One observation of the whole query mix. Isolation is per query
/// (each pins its own view), so a commit may land between two queries
/// of one observation.
pub fn answers(index: &Arc<DgfIndex>, cfg: &MeterConfig) -> Vec<QueryResult> {
    let engine = DgfEngine::new(Arc::clone(index));
    queries(cfg)
        .iter()
        .map(|q| engine.run(q).unwrap().result)
        .collect()
}

/// The model's answers to the mix: [`model_answer`] query by query.
pub fn model(cfg: &MeterConfig, rows: &[Row]) -> Vec<QueryResult> {
    queries(cfg).iter().map(|q| model_answer(q, rows)).collect()
}

/// The model's answer to `q`: `rows` through the scan engine's own
/// filter and fold ([`RowSink`]).
pub fn model_answer(q: &Query, rows: &[Row]) -> QueryResult {
    let schema = meter_schema();
    let mut sink = RowSink::new(q, &schema, None).unwrap();
    let bound = q.predicate().bind(&schema).unwrap();
    for row in rows {
        sink.push_if(row, &bound).unwrap();
    }
    sink.finish()
}

/// Exact-bits equality: `Float`s must agree in raw bit pattern. Sums
/// are exact, so every engine, plan and schedule that reads the same
/// rows answers in the same bits; a torn read moves whole rows.
pub fn bits_eq(a: &[QueryResult], b: &[QueryResult]) -> bool {
    fn val(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }
    fn one(a: &QueryResult, b: &QueryResult) -> bool {
        match (a, b) {
            (QueryResult::Scalars(x), QueryResult::Scalars(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| val(p, q))
            }
            (QueryResult::Groups(x), QueryResult::Groups(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|((ka, va), (kb, vb))| {
                        val(ka, kb)
                            && va.len() == vb.len()
                            && va.iter().zip(vb).all(|(p, q)| val(p, q))
                    })
            }
            _ => a == b,
        }
    }
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| one(x, y))
}

/// Run `write` on the calling thread while `readers` threads loop
/// `observe`; return every observation. The write starts once every
/// reader runs, and each reader observes at least once, until the write
/// returns (an observation that ends after it must equal the post
/// state). A panic of `write` stops the readers before it is re-raised,
/// so a failing writer fails the caller instead of hanging it; a
/// reader's panic is re-raised with its own message.
pub fn observe_during<T: Send>(
    readers: usize,
    observe: impl Fn() -> T + Sync,
    write: impl FnOnce(),
) -> Vec<T> {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(readers + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut seen = vec![observe()];
                    while !stop.load(Ordering::Relaxed) {
                        seen.push(observe());
                    }
                    seen
                })
            })
            .collect();
        start.wait();
        let written = catch_unwind(AssertUnwindSafe(write));
        stop.store(true, Ordering::Relaxed);
        let seen: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        if let Err(panic) = written {
            resume_unwind(panic);
        }
        seen.into_iter()
            .flat_map(|r| r.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

/// What a split or merge of a grid file must keep (Joshi et al., *Using
/// Grid Files for a Relational DBMS*, PAPERS.md), read back from the
/// store: every directory entry lies inside the recorded extents, the
/// entries hold the `rows` flushed rows the caller's model counts, every
/// slice lies inside a live data file and no two overlap, the aggregate
/// pyramid has exactly the ancestors of the leaves, and no writer left
/// anything staged.
pub fn assert_grid_directory(index: &DgfIndex, rows: u64, label: &str) {
    let kv = index.kv.as_ref();
    let view = index.pin_view().unwrap();
    let gfus = all_gfus(kv, view.extents.dims.len()).unwrap();
    let mut celled = 0;
    let mut slices: HashMap<FileId, Vec<(u64, u64)>> = HashMap::new();
    for (key, value) in &gfus {
        for (c, (lo, hi)) in key.cells.iter().zip(&view.extents.dims) {
            assert!(
                lo <= c && c <= hi,
                "{label}: cell {:?} outside {:?}",
                key.cells,
                view.extents
            );
        }
        celled += value.record_count;
        for s in value.slices.iter().filter(|s| !s.is_empty()) {
            slices.entry(s.file).or_default().push((s.start, s.end));
        }
    }
    assert_eq!(celled, rows, "{label}: rows in cells");
    for (file, mut ranges) in slices {
        let len = view
            .data_files
            .iter()
            .find(|(id, _)| *id == file)
            .map(|(_, len)| *len);
        let len = len.unwrap_or_else(|| panic!("{label}: slice in {file:?}, not a live data file"));
        ranges.sort_unstable();
        assert!(
            ranges.last().unwrap().1 <= len,
            "{label}: slice past the end of {file:?}"
        );
        for pair in ranges.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "{label}: slices overlap in {file:?}: {pair:?}"
            );
        }
    }
    let mut level: BTreeSet<Vec<i64>> = gfus.iter().map(|(key, _)| key.cells.clone()).collect();
    let mut census = 0;
    for _ in 0..index
        .pyramid_levels()
        .expect("the shared worlds pre-compute")
    {
        level = level.iter().map(|c| parent_coords(c)).collect();
        census += level.len();
    }
    let stored = kv.scan_prefix(PYRAMID_PREFIX).unwrap().len();
    assert_eq!(
        stored,
        census,
        "{label}: p: keys over {} leaves",
        gfus.len()
    );
    assert_settled(kv, label);
}

/// No transaction residue: what every writer must leave behind once a
/// successful writer has run, whatever failed before it.
pub fn assert_settled(kv: &dyn KvStore, label: &str) {
    assert!(
        kv.scan_prefix(STAGE_PREFIX).unwrap().is_empty(),
        "{label}: staged keys left behind"
    );
    assert!(
        kv.get(TXN_MANIFEST_KEY).unwrap().is_none(),
        "{label}: manifest left behind"
    );
}

/// Strip the aggregate pyramid from a built store: delete every `p:`
/// key and re-put `m:view` with `pyramid: 0`. A handle opened over it
/// plans every query with the flat shape, every cell of the span box —
/// the flat reference the pyramid's answers must equal, and plans whose
/// one batch spreads over the data shards of a router.
pub fn strip_pyramid(kv: &dyn KvStore) {
    let mut view = ReadView::decode(&kv.get(META_VIEW_KEY).unwrap().unwrap()).unwrap();
    view.pyramid = 0;
    kv.put(META_VIEW_KEY, &view.encode()).unwrap();
    for (key, _) in kv.scan_prefix(PYRAMID_PREFIX).unwrap() {
        kv.delete(&key).unwrap();
    }
}

/// One operation as a [`hooked`] store sees it, before it reaches the
/// inner store.
pub enum KvOp<'a> {
    Put(&'a [u8], &'a [u8]),
    Get(&'a [u8]),
    MultiGet(&'a [Vec<u8>]),
    Delete(&'a [u8]),
    ScanRange(&'a [u8], &'a [u8]),
}

/// A pass-through store: `hook` sees every put, get, batched get,
/// delete and range scan first, and an `Err` from it fails the
/// operation without forwarding it. Recorders, fault switches and dead
/// shards are each a closure over their own state.
struct Hooked<F> {
    inner: Arc<dyn KvStore>,
    hook: F,
}

pub fn hooked<F>(inner: Arc<dyn KvStore>, hook: F) -> Arc<dyn KvStore>
where
    F: Fn(KvOp<'_>) -> Result<()> + Send + Sync + 'static,
{
    Arc::new(Hooked { inner, hook })
}

impl<F> KvStore for Hooked<F>
where
    F: Fn(KvOp<'_>) -> Result<()> + Send + Sync,
{
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        (self.hook)(KvOp::Put(key, value))?;
        self.inner.put(key, value)
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        (self.hook)(KvOp::Get(key))?;
        self.inner.get(key)
    }
    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        (self.hook)(KvOp::MultiGet(keys))?;
        self.inner.multi_get(keys)
    }
    fn delete(&self, key: &[u8]) -> Result<bool> {
        (self.hook)(KvOp::Delete(key))?;
        self.inner.delete(key)
    }
    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        (self.hook)(KvOp::ScanRange(start, end))?;
        self.inner.scan_range(start, end)
    }
    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        self.inner.update(key, f)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn logical_size_bytes(&self) -> u64 {
        self.inner.logical_size_bytes()
    }
    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
    fn maintain(&self) -> Result<u64> {
        self.inner.maintain()
    }
    fn stats(&self) -> &KvStats {
        self.inner.stats()
    }
}

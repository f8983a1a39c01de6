//! The lifecycle model checker: one oracle for every op sequence,
//! sequential and concurrent, and for every crash.
//!
//! A sequence is a list of [`Op`]s over the alphabet
//!
//! * `build` — only as a sequence's first op, over the seeded rows of an
//!   unindexed world (every other sequence starts built);
//! * `append(rows)`;
//! * `ingest(k batches)` through a non-flushing [`StreamIngestor`];
//! * `flush`;
//! * `compact(budget)` — one maintenance pass under a delta-file budget;
//! * `regrid(user_id/u × ts/t)`;
//! * `crash(writer, kill)` for any of the writers above: the writer runs
//!   over chaos handles and dies where its [`Kill`] says — at a crash
//!   point or at the n-th storage write, under transient noise or not.
//!   A dying ingest flushes inline every few rows. The handle opened
//!   before the crash queries the half-done state, then `txn::recover`
//!   runs while readers race it on that handle. With no readers, or with
//!   `restart` — over a restarted warehouse (`SimHdfs::reopen` plus a
//!   catalog restore), whose NameNode sees what the dead writer left on
//!   disk — recovery is a `DgfIndex::open`, as in the next process. The
//!   sequence goes on over a fresh handle (the writer's process is
//!   gone). The transaction rolled forward iff the committed view's
//!   generation moved past the one before the crash;
//! * `outage(writer, n)` — the store's live `g:` puts fail after `n`
//!   while an append, compaction or regrid runs on the current handle.
//!   They fail past the commit point, so the writer's effect stands, and
//!   the same handle carries on: the next writer must finish the
//!   transaction the failed one left;
//! * `reopen` — a new handle with a cold cache;
//! * `reshard(k)` — the store is mirrored into a `k`-shard router, and
//!   every later op runs on it.
//!
//! `reopen` and `reshard` flush first. The model is the set of
//! acknowledged rows (and how many of them only the WAL holds), and the
//! grid; a query's expected answer is the rows pushed through `RowSink`
//! — the scan engine's own filter and fold ([`model`]). Each op runs
//! while 2–3 reader threads query the index under a seeded schedule
//! ([`interleave`]); their first observations take handles opened
//! before the op, whose cold header caches send every fetch to the
//! store while the writer publishes. Every answer a reader sees must
//! equal the model at some commit inside the op: before or after it,
//! after any prefix of an ingest's batches, or — for a crash — before it
//! or after the roll-forward. After every op, the whole mix runs once
//! more against the model, the grid-directory invariants and the Slice
//! files on disk are checked (once no outage's transaction is left
//! unfinished), and `compact`,
//! `reopen` and `reshard` must leave every answer identical in float
//! bits to the step before.
//!
//! [`check`] plays a sequence and, on a failure, replays it without
//! readers, dropping one op at a time, and reports the seed and the
//! shortest sequence that still fails. A failure only a racing reader
//! can see is shrunk with readers instead. [`sweep`] plays a prefix and
//! then kills one writer at every site its quiet run counts. A passing
//! run returns its [`Tally`], so a test can assert that the race or the
//! sweep it pins happened.

use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::{
    aggs, answers, assert_grid_directory, assert_settled, bits_eq, build, flushing_at, grid, hooked,
    interleave, load_seed, meter_cfg, model, observe_during, queries, retry, stream,
    strip_pyramid, world, KvOp, World, INDEX,
};
use dgfindex::common::{DgfError, Result};
use dgfindex::core::gfu::{GFU_PREFIX, META_VIEW_KEY};
use dgfindex::core::{txn, Maintainer, MaintenanceConfig, ReadView};
use dgfindex::format::is_sidecar_path;
use dgfindex::hive::TableDesc;
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, MeterConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Cold handles per op: enough that the readers' first observations
/// span an op's commit window.
const COLD_HANDLES: usize = 8;

/// Buffered rows at which a crashed ingest flushes inline: twice a
/// sweep's five-row batches.
const INLINE_FLUSH_ROWS: u64 = 10;

/// The error of a live `g:` put during an outage.
const OUTAGE: &str = "g: shards are down";

#[derive(Clone, Debug)]
pub enum Op {
    Build,
    Append(Vec<Row>),
    Ingest(Vec<Vec<Row>>),
    Flush,
    Compact(usize),
    Regrid(i64, i64),
    Crash(Box<Op>, Kill),
    Outage(Box<Op>, u64),
    Reopen,
    Reshard(usize),
}

/// Where a `crash` kills its writer.
#[derive(Clone, Copy, Debug)]
pub enum Site {
    /// Crash point `⌊pick · sites / 2⁶⁴⌋` of the `sites` a quiet run of
    /// the writer on a copy of the world counts: pick 0 is the first
    /// point, `u64::MAX` the last, `u64::MAX / 2` the middle, whatever
    /// the writer.
    Pick(u64),
    /// Crash point `n`, counted from 0.
    Point(u64),
    /// Storage write `n`, counted from 0: a put, delete or flush of the
    /// store, or an HDFS create, write or rename. A writer that makes
    /// fewer writes outlives the kill.
    Write(u64),
}

#[derive(Clone, Copy, Debug)]
pub struct Kill {
    pub site: Site,
    /// Seed of 20 % transient faults on the writer's storage operations,
    /// which its retries absorb.
    pub noise: Option<u64>,
    /// Recover over a restarted warehouse instead of racing readers on
    /// the live one.
    pub restart: bool,
}

impl Kill {
    pub fn at(site: Site) -> Kill {
        Kill {
            site,
            noise: None,
            restart: false,
        }
    }
}

impl Op {
    /// `writer` killed at `site`, without noise or restart.
    pub fn crash(writer: Op, site: Site) -> Op {
        Op::Crash(Box::new(writer), Kill::at(site))
    }

    /// The op's letter in the alphabet, for the coverage report.
    pub fn kind(&self) -> String {
        match self {
            Op::Build => "build".into(),
            Op::Append(_) => "append".into(),
            Op::Ingest(_) => "ingest".into(),
            Op::Flush => "flush".into(),
            Op::Compact(_) => "compact".into(),
            Op::Regrid(..) => "regrid".into(),
            Op::Crash(writer, _) => format!("crash-{}", writer.kind()),
            Op::Outage(writer, _) => format!("outage-{}", writer.kind()),
            Op::Reopen => "reopen".into(),
            Op::Reshard(_) => "reshard".into(),
        }
    }

    /// Whether the op builds the index: it may only come first.
    fn builds(&self) -> bool {
        match self {
            Op::Build => true,
            Op::Crash(writer, _) => writer.builds(),
            _ => false,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Build => write!(f, "build"),
            Op::Append(rows) => write!(f, "append({} rows)", rows.len()),
            Op::Ingest(batches) => write!(f, "ingest({} batches)", batches.len()),
            Op::Flush => write!(f, "flush"),
            Op::Compact(budget) => write!(f, "compact(budget {budget})"),
            Op::Regrid(u, t) => write!(f, "regrid(user_id/{u} × ts/{t})"),
            Op::Crash(writer, kill) => write!(f, "crash({writer}, {kill:?})"),
            Op::Outage(writer, n) => write!(f, "outage({writer}, after {n} puts)"),
            Op::Reopen => write!(f, "reopen"),
            Op::Reshard(k) => write!(f, "reshard({k})"),
        }
    }
}

/// What a passing run did that its checks alone do not show.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Delta files the `compact` ops fed into compaction.
    pub compacted_files: usize,
    /// Crashed transactions that recovery finished.
    pub rolled_forward: usize,
    /// Crashed transactions that recovery undid.
    pub rolled_back: usize,
    /// Sites the quiet run of a [`sweep`]'s writer counted.
    pub sites: u64,
    /// Pyramid nodes the default plans of the mix read at a sweep's
    /// recovered sites: the bit-identity with the flat reference holds
    /// over ancestors, not only over leaf cells.
    pub pyramid_nodes: u64,
    /// Crashes and outages that fired.
    pub kills: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.compacted_files += other.compacted_files;
        self.rolled_forward += other.rolled_forward;
        self.rolled_back += other.rolled_back;
        self.sites += other.sites;
        self.pyramid_nodes += other.pyramid_nodes;
        self.kills += other.kills;
    }
}

/// One or two days of rows starting anywhere from the first seeded day
/// to three days past the last one: they revisit seeded days and open
/// new ones.
pub fn draw_rows(rng: &mut StdRng) -> Vec<Row> {
    let cfg = meter_cfg();
    generate_meter_data(&MeterConfig {
        days: rng.random_range(1..=2),
        start_day: cfg.start_day + rng.random_range(0..5),
        seed: rng.next_u64(),
        ..cfg.clone()
    })
}

/// `rows` dealt into `k` batches, striped so every batch revisits every
/// cell the others touch.
pub fn striped(rows: &[Row], k: usize) -> Vec<Vec<Row>> {
    (0..k)
        .map(|i| rows.iter().skip(i).step_by(k).cloned().collect())
        .collect()
}

pub fn policy(cfg: &MeterConfig, user: i64, ts: i64) -> SplittingPolicy {
    SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, user),
        DimPolicy::date("ts", cfg.start_day, ts),
    ])
    .unwrap()
}

/// Every answer of every observation equals the same query's answer at
/// one of `commits`.
fn assert_some_commit(seen: &[Vec<QueryResult>], commits: &[Vec<QueryResult>], label: &str) {
    for (n, obs) in seen.iter().enumerate() {
        for (q, got) in obs.iter().enumerate() {
            assert!(
                commits.iter().any(|c| *got == c[q]),
                "{label}: observation {n}, query {q} equals the model at no commit of the op:\n  \
                 got     {got:?}\n  commits {:?}",
                commits.iter().map(|c| &c[q]).collect::<Vec<_>>()
            );
        }
    }
}

fn wal(w: &World) -> PathBuf {
    w.tmp.path().join("ingest.wal")
}

/// Run `writer` over chaos handles on `w` and the store `kv` — HDFS and
/// the store both consult `plan` — and return the ingest batches it
/// acknowledged. A writer the plan kills must fail; any other must not.
fn run_writer(w: &World, kv: &Arc<dyn KvStore>, writer: &Op, plan: &Arc<FaultPlan>) -> usize {
    let cfg = meter_cfg();
    w.ctx.hdfs.enable_faults(Arc::clone(plan), retry());
    let chaos: Arc<dyn KvStore> = Arc::new(ChaosKv::new(Arc::clone(kv), Arc::clone(plan)));
    let options = IndexOptions {
        retry: retry(),
        fault: Some(Arc::clone(plan)),
        ..IndexOptions::default()
    };
    let (ctx, base) = (Arc::clone(&w.ctx), Arc::clone(&w.base));
    let mut acked = 0;
    let outcome = (|| -> Result<()> {
        if let Op::Build = writer {
            let built = DgfIndex::build_with_options(ctx, base, grid(&cfg), aggs(), chaos, INDEX, options);
            return built.map(drop);
        }
        let index = Arc::new(DgfIndex::open_with_options(ctx, base, chaos, INDEX, aggs(), options)?);
        match writer {
            Op::Append(rows) => index.append(rows).map(drop),
            Op::Ingest(batches) => {
                // A dying stream flushes inline, as a live one does: its
                // crash sites include a flush inside `ingest` and WAL
                // appends past the watermark that flush moved.
                let ingestor = StreamIngestor::open(index, wal(w), flushing_at(INLINE_FLUSH_ROWS))?;
                for batch in batches {
                    ingestor.ingest(batch)?;
                    acked += 1;
                }
                Ok(())
            }
            Op::Flush => StreamIngestor::open(index, wal(w), flushing_at(u64::MAX))?.flush().map(drop),
            Op::Compact(budget) => {
                let config = MaintenanceConfig {
                    delta_file_budget: *budget,
                    ..MaintenanceConfig::default()
                };
                Maintainer::new(index, config).run_once().map(drop)
            }
            Op::Regrid(u, t) => {
                Maintainer::new(index, MaintenanceConfig::default()).regrid_to(policy(&cfg, *u, *t))
            }
            _ => unreachable!("{writer} is not a writer a crash kills"),
        }
    })();
    w.ctx.hdfs.disable_faults();
    if plan.crashed() {
        assert!(outcome.is_err(), "the crash fired but {writer} succeeded");
    } else {
        outcome.unwrap();
    }
    acked
}

fn copy_tree(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            std::fs::create_dir_all(&dest).unwrap();
            copy_tree(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// The warehouse under `dir` after a restart: the NameNode re-walks the
/// tree and the catalog is restored from `tables`.
fn reopen_warehouse(dir: &Path, tables: Vec<TableDesc>) -> (Arc<HiveContext>, TableRef) {
    let hdfs = SimHdfs::reopen(dir, HdfsConfig::default()).unwrap();
    let ctx = HiveContext::new(hdfs, MrEngine::new(1));
    for desc in tables {
        ctx.register_restored_table(desc).unwrap();
    }
    let base = ctx.table("meter").unwrap();
    (ctx, base)
}

/// The `g:` shards an `outage` takes down: while armed, live `g:` puts
/// go through `allow` more times, then fail until disarmed. Counts the
/// puts that went through, and whether one was refused.
#[derive(Default)]
struct Outage {
    armed: AtomicBool,
    allow: AtomicU64,
    published: AtomicU64,
    refused: AtomicBool,
}

impl Outage {
    /// `kv` behind this outage's switch.
    fn wrap(self: &Arc<Self>, kv: Arc<dyn KvStore>) -> Arc<dyn KvStore> {
        let outage = Arc::clone(self);
        hooked(kv, move |op| match op {
            KvOp::Put(key, _) if key.starts_with(GFU_PREFIX) => outage.put(),
            _ => Ok(()),
        })
    }

    fn put(&self) -> Result<()> {
        let down = self.armed.load(Ordering::SeqCst)
            && self
                .allow
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| left.checked_sub(1))
                .is_err();
        if down {
            self.refused.store(true, Ordering::SeqCst);
            return Err(DgfError::Transient(OUTAGE.into()));
        }
        self.published.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// One sequence being played: the world, the store every op runs on
/// (the world's own, or a router after `reshard`, behind the outage
/// switch), the current handle and its ingestor, the model, and the
/// tally.
struct Run {
    seed: u64,
    readers: bool,
    cfg: MeterConfig,
    w: World,
    kv: Arc<dyn KvStore>,
    outage: Arc<Outage>,
    handles: u64,
    plan: Arc<FaultPlan>,
    /// `None` until the index is built.
    index: Option<Arc<DgfIndex>>,
    ingestor: Option<StreamIngestor>,
    /// The acknowledged rows, of which `unflushed` only the WAL and the
    /// memtable hold.
    rows: Vec<Row>,
    unflushed: usize,
    /// The grid the committed view holds.
    grid: SplittingPolicy,
    /// An outage left a committed transaction for the next writer.
    unsettled: bool,
    tally: Tally,
}

impl Run {
    fn new(seed: u64, readers: bool, built: bool) -> Run {
        let w = world(&format!("lifecycle-{seed}"));
        let (seeded, _) = load_seed(&w);
        let mut run = Run::over(seed, readers, w, seeded);
        if built {
            run.build();
        }
        run
    }

    /// A run over `w` with `rows` acknowledged and flushed, no handle.
    fn over(seed: u64, readers: bool, w: World, rows: Vec<Row>) -> Run {
        let outage = Arc::new(Outage::default());
        let cfg = meter_cfg();
        Run {
            seed,
            readers,
            grid: grid(&cfg),
            cfg,
            kv: outage.wrap(Arc::clone(&w.inner)),
            outage,
            w,
            handles: 0,
            plan: Arc::new(FaultPlan::new(FaultConfig::quiet(0))),
            index: None,
            ingestor: None,
            rows,
            unflushed: 0,
            unsettled: false,
            tally: Tally::default(),
        }
    }

    /// A copy of the warehouse and the store, for runs that must not
    /// touch the real ones.
    fn fork_world(&self) -> World {
        let tmp = TempDir::new(&format!("lifecycle-{}-fork", self.seed)).unwrap();
        copy_tree(self.w.tmp.path(), tmp.path());
        let (ctx, base) = reopen_warehouse(tmp.path(), self.w.ctx.tables_snapshot());
        let inner: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        mirror_kv(self.kv.as_ref(), inner.as_ref()).unwrap();
        World {
            tmp,
            ctx,
            base,
            inner,
        }
    }

    /// This run, without readers, over a copy of its world.
    fn fork(&self) -> Run {
        let mut run = Run::over(self.seed, false, self.fork_world(), self.rows.clone());
        run.unflushed = self.unflushed;
        run.grid = self.grid.clone();
        run.unsettled = self.unsettled;
        if self.index.is_some() {
            run.open();
        }
        run
    }

    fn build(&mut self) {
        build(&self.w, &self.kv);
        self.open();
    }

    /// A fresh handle (and ingestor, replaying the WAL) over the current
    /// store, with a schedule of its own when readers race the ops.
    /// Returns the rows the WAL replayed.
    fn open(&mut self) -> u64 {
        self.ingestor = None;
        self.handles += 1;
        self.plan = if self.readers {
            interleave(self.seed.wrapping_mul(1009).wrapping_add(self.handles))
        } else {
            Arc::new(FaultPlan::new(FaultConfig::quiet(0)))
        };
        let index = self.handle();
        let ingestor = stream(&index, self.w.tmp.path(), u64::MAX);
        let replayed = ingestor.stats().replayed_rows;
        self.index = Some(index);
        self.ingestor = Some(ingestor);
        replayed
    }

    /// A handle over the current store under the current schedule.
    fn handle(&self) -> Arc<DgfIndex> {
        self.try_handle().unwrap()
    }

    fn try_handle(&self) -> Result<Arc<DgfIndex>> {
        let options = IndexOptions {
            retry: retry(),
            fault: Some(Arc::clone(&self.plan)),
            ..IndexOptions::default()
        };
        let (ctx, base, kv) = (
            Arc::clone(&self.w.ctx),
            Arc::clone(&self.w.base),
            Arc::clone(&self.kv),
        );
        DgfIndex::open_with_options(ctx, base, kv, INDEX, aggs(), options).map(Arc::new)
    }

    fn index(&self) -> &Arc<DgfIndex> {
        self.index.as_ref().expect("the index is built")
    }

    /// Handles with a cold header cache over the current store and
    /// memtable, for the readers of one op. A warm cache answers every
    /// cell of the generation a plan pinned, so only a cold plan fetches
    /// from the store while the writer publishes — where a torn fetch
    /// would show. Opened before the op: an open recovers whatever
    /// transaction it finds.
    fn cold_handles(&self) -> Vec<Arc<DgfIndex>> {
        if !self.readers {
            return Vec::new();
        }
        let fresh = self
            .index()
            .fresh_source()
            .expect("every handle has an ingestor");
        let cold = (0..COLD_HANDLES).map(|_| self.handle());
        cold.inspect(|h| h.set_fresh_source(Arc::clone(&fresh)))
            .collect()
    }

    fn ingestor(&self) -> &StreamIngestor {
        self.ingestor
            .as_ref()
            .expect("every handle has an ingestor")
    }

    /// The committed view's generation, if the store holds an index.
    fn generation(&self) -> Option<u64> {
        let bytes = self.kv.get(META_VIEW_KEY).unwrap()?;
        Some(ReadView::decode(&bytes).unwrap().generation)
    }

    /// A writer's result on the current handle: an error only the armed
    /// outage may cause. The writer then failed past its commit point.
    fn wrote<T>(&self, result: Result<T>, label: &str) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) if self.outage.armed.load(Ordering::SeqCst) && e.to_string().contains(OUTAGE) => None,
            Err(e) => panic!("{label}: {e}"),
        }
    }

    /// Run `write` while the op's readers query: each observation takes
    /// the next of `cold`, then the current handle once they run out. A
    /// reader's or the writer's failure is reported under the op's
    /// `label`, and so is a reader that never observed.
    fn observe(
        &self,
        step: usize,
        label: &str,
        cold: &[Arc<DgfIndex>],
        write: impl FnOnce(),
    ) -> Vec<Vec<QueryResult>> {
        let readers = if self.readers {
            2 + (self.seed as usize + step) % 2
        } else {
            0
        };
        let next = AtomicUsize::new(0);
        let observe = || {
            let handle = cold.get(next.fetch_add(1, Ordering::Relaxed));
            answers(handle.unwrap_or(self.index()), &self.cfg)
        };
        let seen = catch_unwind(AssertUnwindSafe(|| observe_during(readers, observe, write)))
            .unwrap_or_else(|panic| panic!("{label}: {}", message(panic)));
        assert!(
            seen.len() >= readers,
            "{label}: {readers} readers made {} observations",
            seen.len()
        );
        seen
    }

    fn model(&self) -> Vec<QueryResult> {
        model(&self.cfg, &self.rows)
    }

    /// Play `ops`, numbering them from step `from`, and check after each.
    fn play(&mut self, ops: &[Op], from: usize) {
        for (step, op) in (from..).zip(ops) {
            let label = format!("seed {} op {step} {op}", self.seed);
            assert!(step == 0 || !op.builds(), "{label}: a build comes first");
            self.step(step, op, &label);
            self.check(&label);
        }
    }

    /// The handle answers as the model, and — once no outage left a
    /// transaction unfinished — the store holds the model's grid and a
    /// grid directory of the flushed rows.
    fn check(&self, label: &str) {
        let index = self.index();
        let got = answers(index, &self.cfg);
        let want = self.model();
        assert!(
            bits_eq(&got, &want),
            "{label}: answers\n  {got:?}\nwant the model's\n  {want:?}"
        );
        if !self.unsettled {
            let committed = SplittingPolicy::decode(&index.pin_view().unwrap().policy).unwrap();
            assert_eq!(committed, self.grid, "{label}: the committed grid");
            let flushed = (self.rows.len() - self.unflushed) as u64;
            assert_grid_directory(index, flushed, label);
            self.data_files(label);
        }
    }

    /// The Slice files on disk: exactly the committed view's, plus any
    /// on the deferred-reclamation list (`m:gc`). A file neither names
    /// is leaked for good. Returns how many are on disk, and how many of
    /// them only `m:gc` holds.
    fn data_files(&self, label: &str) -> (usize, usize) {
        let index = self.index();
        let location = &index.data.location;
        let view: BTreeSet<String> =
            index.pin_view().unwrap().data_files.iter().map(|(id, _)| id.path(location)).collect();
        let gc: BTreeSet<String> = index.gc_list().unwrap().into_iter().collect();
        let files = self.w.ctx.hdfs.list_files(location).into_iter().map(|(path, _)| path);
        let disk: BTreeSet<String> = files.filter(|path| !is_sidecar_path(path)).collect();
        let missing: Vec<_> = view.difference(&disk).collect();
        assert!(missing.is_empty(), "{label}: view files missing on disk: {missing:?}");
        let leaked: Vec<_> = disk.iter().filter(|p| !view.contains(*p) && !gc.contains(*p)).collect();
        assert!(leaked.is_empty(), "{label}: files in neither the view nor m:gc: {leaked:?}");
        (disk.len(), disk.intersection(&gc).count())
    }

    /// What every site of a sweep comes back to: the checks after every
    /// op with nothing left unfinished, an empty staging directory, the
    /// live namespace on disk, and default answers bit-identical to
    /// those of a copy of the store without its pyramid.
    fn assert_recovered(&mut self, label: &str) {
        assert!(!self.unsettled, "{label}: no writer finished the outage's transaction");
        self.check(label);
        let index = Arc::clone(self.index());
        assert_settled(index.kv.as_ref(), label);
        let staging = format!("{}_staging", index.data.location);
        let left = self.w.ctx.hdfs.list_files(&staging);
        assert!(left.is_empty(), "{label}: staging files left behind: {left:?}");
        // A restart re-walks the disk: it must find the live namespace,
        // not bytes a dead writer left outside it.
        let walked = SimHdfs::reopen(self.w.tmp.path(), HdfsConfig::default()).unwrap();
        let (live, walked) = (self.w.ctx.hdfs.list_files("/warehouse"), walked.list_files("/warehouse"));
        assert_eq!(walked, live, "{label}: the namespace a restart finds");
        let flat: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        mirror_kv(self.kv.as_ref(), flat.as_ref()).unwrap();
        strip_pyramid(flat.as_ref());
        let (ctx, base) = (Arc::clone(&self.w.ctx), Arc::clone(&self.w.base));
        let flat = Arc::new(DgfIndex::open(ctx, base, flat, INDEX, aggs()).unwrap());
        flat.set_fresh_source(index.fresh_source().expect("every handle has an ingestor"));
        let (got, want) = (answers(&index, &self.cfg), answers(&flat, &self.cfg));
        assert!(
            bits_eq(&got, &want),
            "{label}: default answers\n  {got:?}\nwant the flat reference's bits\n  {want:?}"
        );
        for q in queries(&self.cfg) {
            self.tally.pyramid_nodes += index.plan(&q, true).unwrap().pyramid_nodes;
        }
    }

    fn step(&mut self, step: usize, op: &Op, label: &str) {
        let unsettled = std::mem::take(&mut self.unsettled);
        match op {
            Op::Build => return self.build(),
            Op::Crash(writer, kill) => {
                // Recovery settles; a writer with nothing to do is not run.
                self.unsettled = unsettled;
                return self.crash(step, writer, *kill, label);
            }
            Op::Outage(writer, n) => {
                self.outage.allow.store(*n, Ordering::SeqCst);
                self.outage.armed.store(true, Ordering::SeqCst);
                self.step(step, writer, label);
                self.outage.armed.store(false, Ordering::SeqCst);
                self.unsettled = self.outage.refused.swap(false, Ordering::SeqCst);
                self.tally.kills += u64::from(self.unsettled);
                return;
            }
            _ => {}
        }
        let cfg = self.cfg.clone();
        let before = answers(self.index(), &cfg);
        let pre = self.model();
        let index = Arc::clone(self.index());
        let cold = self.cold_handles();
        match op {
            Op::Append(rows) => {
                let post = model(&cfg, &[self.rows.as_slice(), rows.as_slice()].concat());
                assert!(!bits_eq(&pre, &post), "{label}: the append changes nothing");
                let seen = self.observe(step, label, &cold, || {
                    self.wrote(index.append(rows), label);
                });
                assert_some_commit(&seen, &[pre, post], label);
                self.rows.extend_from_slice(rows);
            }
            Op::Ingest(batches) => {
                let mut commits = vec![pre];
                let mut acked = self.rows.clone();
                for batch in batches {
                    acked.extend_from_slice(batch);
                    commits.push(model(&cfg, &acked));
                }
                let seen = self.observe(step, label, &cold, || {
                    for batch in batches {
                        self.ingestor().ingest(batch).unwrap();
                        // Let the readers plan against this prefix too.
                        if self.readers {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                });
                assert_some_commit(&seen, &commits, label);
                self.rows = acked;
                self.unflushed += batches.iter().map(Vec::len).sum::<usize>();
                self.unsettled = unsettled;
            }
            Op::Flush => {
                let seen = self.observe(step, label, &cold, || {
                    self.ingestor().flush().unwrap();
                });
                assert_some_commit(&seen, &[pre], label);
                // A flush of nothing begins no transaction.
                self.unsettled = unsettled && self.unflushed == 0;
                self.unflushed = 0;
            }
            Op::Compact(budget) => {
                let config = MaintenanceConfig {
                    delta_file_budget: *budget,
                    ..MaintenanceConfig::default()
                };
                let maintainer = Maintainer::new(index, config);
                let mut report = None;
                let seen = self.observe(step, label, &cold, || {
                    report = self.wrote(maintainer.run_once(), label);
                });
                if let Some(report) = report {
                    self.tally.compacted_files += report.compacted_files;
                    let (disk, retired) = self.data_files(label);
                    assert!(disk - retired <= *budget, "{label}: {disk} - {retired} live data files");
                    // A pass over a settled store that compacts nothing
                    // reclaimed the last round's files and retired none:
                    // the disk itself is within budget.
                    if report.compacted_files == 0 && !unsettled {
                        assert!(disk <= *budget, "{label}: {disk} data files on disk");
                    }
                }
                // Pure data movement: one answer, to the last float bit.
                for (n, obs) in seen.iter().enumerate() {
                    assert!(
                        bits_eq(obs, &before),
                        "{label}: observation {n} moved float bits:\n  {obs:?}"
                    );
                }
                let after = answers(self.index(), &cfg);
                assert!(
                    bits_eq(&after, &before),
                    "{label}: moved float bits:\n  {after:?}\n  {before:?}"
                );
            }
            Op::Regrid(u, t) => {
                let maintainer = Maintainer::new(index, MaintenanceConfig::default());
                let to = policy(&cfg, *u, *t);
                let seen = self.observe(step, label, &cold, || {
                    self.wrote(maintainer.regrid_to(to.clone()), label);
                });
                assert_some_commit(&seen, &[pre], label);
                self.grid = to;
            }
            Op::Reopen | Op::Reshard(_) => {
                let seen = self.observe(step, label, &cold, || {
                    self.ingestor().flush().unwrap();
                });
                assert_some_commit(&seen, &[pre], label);
                self.unflushed = 0;
                let flushed = answers(self.index(), &cfg);
                if let Op::Reshard(k) = op {
                    let extents = self.index().extents().unwrap();
                    let router = sharded_mem(&extents, *k)
                        .unwrap()
                        .with_fault(Arc::clone(&self.plan));
                    mirror_kv(self.kv.as_ref(), &router).unwrap();
                    self.kv = self.outage.wrap(Arc::new(router));
                }
                self.open();
                let after = answers(self.index(), &cfg);
                assert!(
                    bits_eq(&after, &flushed),
                    "{label}: moved float bits:\n  {after:?}\n  {flushed:?}"
                );
            }
            Op::Build | Op::Crash(..) | Op::Outage(..) => unreachable!(),
        }
    }

    /// The crash points a quiet run of `writer` passes on a copy of the
    /// world.
    fn quiet_points(&self, writer: &Op, label: &str) -> u64 {
        let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
        let fork = self.fork_world();
        run_writer(&fork, &fork.inner, writer, &quiet);
        assert!(!quiet.crashed(), "{label}: the quiet run crashed");
        quiet.points_hit()
    }

    /// The live `g:` puts `writer` makes on a copy of this run.
    fn publishes(&self, writer: &Op, label: &str) -> u64 {
        let mut fork = self.fork();
        let outage = Arc::clone(&fork.outage);
        let published = || outage.published.load(Ordering::SeqCst);
        let before = published();
        fork.step(0, writer, &format!("{label}: quiet run"));
        published() - before
    }

    fn crash(&mut self, step: usize, writer: &Op, kill: Kill, label: &str) {
        let config = match kill.site {
            Site::Pick(pick) => {
                let sites = self.quiet_points(writer, label);
                if sites == 0 {
                    return; // a pass with nothing to do writes nothing to crash in
                }
                let ordinal = ((u128::from(pick) * u128::from(sites)) >> 64) as u64;
                FaultConfig::crash_at(0, ordinal)
            }
            Site::Point(n) => FaultConfig::crash_at(0, n),
            Site::Write(n) => FaultConfig::crash_after_writes(0, n + 1),
        };
        let label = match config.crash_at_point {
            Some(ordinal) => format!("{label}: crash point {ordinal}"),
            None => label.to_string(),
        };
        let plan = Arc::new(FaultPlan::new(match kill.noise {
            Some(seed) => FaultConfig {
                seed,
                p_transient: 0.2,
                ..config
            },
            None => config,
        }));

        let pinned = self.generation();
        // A dead ingest's batches are in no handle's memtable until the
        // next open replays the WAL; an inline flush may have written any
        // prefix of them to Slices.
        let mut commits = vec![self.model()];
        let mut rows = self.rows.clone();
        match writer {
            Op::Append(append) => rows.extend_from_slice(append),
            Op::Ingest(batches) => {
                for batch in &batches[..batches.len() - 1] {
                    rows.extend_from_slice(batch);
                    commits.push(model(&self.cfg, &rows));
                }
                rows.extend_from_slice(&batches[batches.len() - 1]);
            }
            _ => {}
        }
        if let Op::Append(_) | Op::Ingest(_) = writer {
            commits.push(model(&self.cfg, &rows));
        }
        // The dying writer's ingestor takes the WAL over.
        self.ingestor = None;
        let acked = run_writer(&self.w, &self.kv, writer, &plan);
        let fired = plan.crashed();
        assert!(
            fired || matches!(kill.site, Site::Write(_)),
            "{label}: the crash did not fire"
        );
        self.tally.kills += u64::from(fired);

        // The handle opened before the crash reads the half-done state,
        // then races the recovery that finishes or undoes it — unless the
        // warehouse restarts under it.
        if let Some(index) = &self.index {
            assert_some_commit(&[answers(index, &self.cfg)], &commits, &label);
        }
        if kill.restart {
            let tables = self.w.ctx.tables_snapshot();
            (self.w.ctx, self.w.base) = reopen_warehouse(self.w.tmp.path(), tables);
        }
        if self.readers && self.index.is_some() && !kill.restart {
            let (hdfs, kv, plan) = (&self.w.ctx.hdfs, &self.kv, &self.plan);
            let seen = self.observe(step, &label, &[], || {
                txn::recover(hdfs, kv, retry(), Some(plan)).unwrap();
            });
            assert_some_commit(&seen, &commits, &label);
        } else if let Err(e) = self.try_handle() {
            // With no reader to race, recovery is what the next process
            // runs first: an open. It refuses a store whose build rolled
            // back.
            let refused = matches!(writer, Op::Build) && self.generation().is_none();
            assert!(refused, "{label}: open after the crash: {e}");
            assert!(e.to_string().contains("no DGFIndex metadata"), "{label}: {e}");
        }

        self.unsettled = false;
        let forward = self.generation() > pinned;
        match writer {
            Op::Build if !forward => {
                let label = format!("{label}: rolled back");
                assert!(self.kv.scan_prefix(GFU_PREFIX).unwrap().is_empty(), "{label}: g: keys");
                self.w.ctx.drop_table(&format!("{INDEX}_data")).unwrap();
                build(&self.w, &self.kv);
            }
            Op::Append(rows) if forward => self.rows.extend_from_slice(rows),
            Op::Flush if forward => self.unflushed = 0,
            Op::Regrid(u, t) if forward => self.grid = policy(&self.cfg, *u, *t),
            _ => {}
        }
        if fired && !matches!(writer, Op::Ingest(_)) {
            let tally = &mut self.tally;
            *if forward { &mut tally.rolled_forward } else { &mut tally.rolled_back } += 1;
        }
        // The pre-crash handle answers as the model now, if its warehouse
        // still runs. The model has yet to take a dead ingest's batches:
        // the handle sees those an inline flush committed.
        if let (Some(index), false) = (&self.index, kill.restart) {
            let got = answers(index, &self.cfg);
            match writer {
                Op::Ingest(_) => assert_some_commit(&[got], &commits, &label),
                _ => assert!(
                    bits_eq(&got, &self.model()),
                    "{label}: the pre-crash handle after recovery\n  {got:?}\n  {:?}",
                    self.model()
                ),
            }
        }
        let replayed = self.open() as usize;
        if let Op::Ingest(batches) = writer {
            // Every batch the dead ingestor acknowledged landed, and at
            // most the one in flight.
            let got = answers(self.index(), &self.cfg);
            let landed = (acked..=batches.len().min(acked + 1))
                .find(|&k| bits_eq(&got, &commits[k]))
                .unwrap_or_else(|| panic!("{label}: {got:?} holds no acknowledged prefix"));
            // The WAL replays the stream from the last committed flush
            // on: from batch j ≥ 1 if an inline flush committed, or all
            // of it, rows buffered before the crash first.
            let size = |j: usize| batches[j..landed].iter().map(Vec::len).sum::<usize>();
            let kept = match forward {
                true => (1..=landed).any(|j| size(j) == replayed),
                false => size(0) + self.unflushed == replayed,
            };
            assert!(kept, "{label}: the WAL replayed {replayed} rows");
            for batch in &batches[..landed] {
                self.rows.extend_from_slice(batch);
            }
            self.unflushed = replayed;
        }
        assert_eq!(replayed, self.unflushed, "{label}: rows the WAL replayed");
    }
}

/// A panic's message.
fn message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(msg) => *msg,
        Err(panic) => panic
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// Play `ops` for `seed`; a panic anywhere is the failure message.
fn attempt(seed: u64, ops: &[Op], readers: bool) -> std::result::Result<Tally, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut run = Run::new(seed, readers, !ops.first().is_some_and(Op::builds));
        run.play(ops, 0);
        run.tally
    }))
    .map_err(message)
}

/// The shortest subsequence of `ops` (as indices) that still fails,
/// dropping one op at a time until no single drop fails: replayed
/// without readers when that reproduces the failure, with them (three
/// tries a trial, as a race may miss) when only a racing reader sees it.
fn shrink(seed: u64, ops: &[Op]) -> (Vec<usize>, bool) {
    let readers = attempt(seed, ops, false).is_ok();
    let mut kept: Vec<usize> = (0..ops.len()).collect();
    'shorter: loop {
        for skip in 0..kept.len() {
            let trial: Vec<usize> = kept.iter().copied().filter(|&k| k != kept[skip]).collect();
            let seq: Vec<Op> = trial.iter().map(|&k| ops[k].clone()).collect();
            let tries = if readers { 3 } else { 1 };
            if (0..tries).any(|_| attempt(seed, &seq, readers).is_err()) {
                kept = trial;
                continue 'shorter;
            }
        }
        return (kept, readers);
    }
}

/// Play `ops` for `seed` with readers racing every op and return what
/// the run did. On a failure, panic with the seed, the failure and the
/// shortest op sequence that still fails.
pub fn check(seed: u64, ops: &[Op]) -> Tally {
    let failure = match attempt(seed, ops, true) {
        Ok(tally) => return tally,
        Err(failure) => failure,
    };
    let (kept, readers) = shrink(seed, ops);
    let shortest: Vec<String> = kept.iter().map(|&k| format!("[{k}] {}", ops[k])).collect();
    panic!(
        "seed {seed} failed: {failure}\nshortest failing sequence ({} of {} ops, {}): {}",
        kept.len(),
        ops.len(),
        if readers {
            "with readers"
        } else {
            "replayed without readers"
        },
        shortest.join(" → ")
    );
}

/// Play `prefix` for `seed` without readers, then kill a writer at every
/// site: `kill(n)` is the op that kills it at site `n`. The sites are
/// the crash points a quiet run of the writer counts (for a `crash` at a
/// [`Site::Point`] or [`Site::Pick`]), its live `g:` puts (for an
/// `outage`), or its storage writes (for a `crash` at a
/// [`Site::Write`]: the sweep walks n = 0, 1, … until the writer
/// outlives the kill, and that run is the quiet one). Each site plays on
/// a copy of the prefixed world, then plays `then`, and must come back
/// to the model with nothing left behind ([`Run::assert_recovered`]).
/// The tally counts the sites and the kills that fired.
pub fn sweep(seed: u64, prefix: &[Op], kill: impl Fn(u64) -> Op, then: &[Op]) -> Tally {
    let first = kill(0);
    let built = !prefix.first().unwrap_or(&first).builds();
    let mut start = Run::new(seed, false, built);
    start.play(prefix, 0);
    let label = format!("seed {seed} sweep");
    let walk = matches!(first, Op::Crash(_, Kill { site: Site::Write(_), .. }));
    let sites = match &first {
        _ if walk => u64::MAX,
        Op::Crash(writer, _) => start.quiet_points(writer, &label),
        Op::Outage(writer, _) => start.publishes(writer, &label),
        _ => panic!("{label}: {first} kills no writer"),
    };
    let mut tally = Tally {
        sites,
        ..Tally::default()
    };
    for n in 0..sites {
        let mut run = start.fork();
        run.play(&[kill(n)], prefix.len());
        run.play(then, prefix.len() + 1);
        run.assert_recovered(&format!("{label}: site {n} {}", kill(n)));
        let outlived = run.tally.kills == 0;
        tally += run.tally;
        if outlived && walk {
            tally.sites = n;
            break;
        }
    }
    tally
}

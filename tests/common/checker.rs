//! The lifecycle model checker: one oracle for every op sequence,
//! sequential and concurrent.
//!
//! A sequence is a list of [`Op`]s over the alphabet
//!
//! * `append(rows)`;
//! * `ingest(k batches)` through a non-flushing [`StreamIngestor`];
//! * `flush`;
//! * `compact(budget)` — one maintenance pass under a delta-file budget;
//! * `regrid(user_id/u × ts/t)`;
//! * `crash(writer, pick)` for the writers append, compact and regrid:
//!   a quiet run of the same writer on a copy of the world counts its
//!   `sites` crash points, and the writer dies at `pick` scaled onto
//!   them (`⌊pick · sites / 2⁶⁴⌋`: pick 0 is the first point, `u64::MAX`
//!   the last, `u64::MAX / 2` the middle, whatever the writer).
//!   The handle opened before the crash queries the half-done state,
//!   then `txn::recover` runs while readers race it, and the sequence
//!   goes on over a fresh handle (the writer's process is gone);
//! * `reopen` — a new handle with a cold cache;
//! * `reshard(k)` — the store is mirrored into a `k`-shard router read
//!   with `fetch_parallelism: 2`, and every later op runs on it.
//!
//! `reopen` and `reshard` flush first. The model is the set of
//! acknowledged rows, and a query's expected answer is those rows
//! pushed through `RowSink` — the scan engine's own filter and fold
//! ([`model`]). Each op runs while 2–3 reader threads query the index
//! under a seeded schedule ([`interleave`]); their first observations
//! take handles opened before the op, whose cold header caches send
//! every fetch to the store while the writer publishes. Every answer a
//! reader sees must equal the model at some commit inside the op:
//! before or after it, after any prefix of an ingest's batches, or —
//! for a crash — before it or after the roll-forward. After every op,
//! the whole mix runs once more against the model, the grid-directory
//! invariants are checked, and `compact`, `reopen` and `reshard` must
//! leave every answer identical in float bits to the step before.
//!
//! [`check`] plays a sequence and, on a failure, replays it without
//! readers, dropping one op at a time, and reports the seed and the
//! shortest sequence that still fails. A failure only a racing reader
//! can see is shrunk with readers instead. A passing run returns its
//! [`Tally`], so a test can assert that the race it pins happened.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::{
    aggs, answers, assert_grid_directory, bits_eq, interleave, matches, meter_cfg, model,
    observe_during, open_with, retry, seed_index, world, World, INDEX,
};
use dgfindex::core::txn;
use dgfindex::core::{Maintainer, MaintenanceConfig};
use dgfindex::prelude::*;
use dgfindex::workload::{generate_meter_data, MeterConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Cold handles per op: enough that the readers' first observations
/// span an op's commit window.
const COLD_HANDLES: usize = 8;

#[derive(Clone, Debug)]
pub enum Op {
    Append(Vec<Row>),
    Ingest(Vec<Vec<Row>>),
    Flush,
    Compact(usize),
    Regrid(i64, i64),
    /// The writer — an `Append`, `Compact` or `Regrid` — dies at `pick`.
    Crash(Box<Op>, u64),
    Reopen,
    Reshard(usize),
}

impl Op {
    /// The op's letter in the alphabet, for the coverage report.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Append(_) => "append",
            Op::Ingest(_) => "ingest",
            Op::Flush => "flush",
            Op::Compact(_) => "compact",
            Op::Regrid(..) => "regrid",
            Op::Crash(writer, _) => match **writer {
                Op::Append(_) => "crash-append",
                Op::Compact(_) => "crash-compact",
                Op::Regrid(..) => "crash-regrid",
                _ => unreachable!("{writer} is not a writer a crash kills"),
            },
            Op::Reopen => "reopen",
            Op::Reshard(_) => "reshard",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Append(rows) => write!(f, "append({} rows)", rows.len()),
            Op::Ingest(batches) => write!(f, "ingest({} batches)", batches.len()),
            Op::Flush => write!(f, "flush"),
            Op::Compact(budget) => write!(f, "compact(budget {budget})"),
            Op::Regrid(u, t) => write!(f, "regrid(user_id/{u} × ts/{t})"),
            Op::Crash(writer, pick) => write!(f, "crash({writer}, pick {pick})"),
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
    /// Crashed appends that recovery finished.
    pub appends_rolled_forward: usize,
    /// Crashed appends that recovery undid.
    pub appends_rolled_back: usize,
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
                commits.iter().any(|c| got.approx_eq(&c[q], 1e-9)),
                "{label}: observation {n}, query {q} equals the model at no commit of the op:\n  \
                 got     {got:?}\n  commits {:?}",
                commits.iter().map(|c| &c[q]).collect::<Vec<_>>()
            );
        }
    }
}

/// Run `writer` (an append, compact or regrid) over chaos handles on `w`
/// and the store `kv`: HDFS and the store both consult `plan`. Returns
/// whether the plan's crash fired.
pub fn run_writer(w: &World, kv: &Arc<dyn KvStore>, writer: &Op, plan: &Arc<FaultPlan>) -> bool {
    let cfg = meter_cfg();
    w.ctx.hdfs.enable_faults(Arc::clone(plan), retry());
    let chaos: Arc<dyn KvStore> = Arc::new(ChaosKv::new(Arc::clone(kv), Arc::clone(plan)));
    let outcome = (|| -> dgfindex::common::Result<()> {
        let options = IndexOptions {
            retry: retry(),
            fault: Some(Arc::clone(plan)),
            ..IndexOptions::default()
        };
        let (ctx, base) = (Arc::clone(&w.ctx), Arc::clone(&w.base));
        let index = Arc::new(DgfIndex::open_with_options(
            ctx,
            base,
            chaos,
            INDEX,
            aggs(),
            options,
        )?);
        match writer {
            Op::Append(rows) => index.append(rows).map(drop),
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
    plan.crashed()
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

/// One sequence being played: the world, the store every op runs on
/// (the world's own, or a router after `reshard`), the current handle
/// and its ingestor, the model, and the tally.
struct Run {
    seed: u64,
    readers: bool,
    cfg: MeterConfig,
    w: World,
    kv: Arc<dyn KvStore>,
    sharded: bool,
    handles: u64,
    plan: Arc<FaultPlan>,
    index: Arc<DgfIndex>,
    ingestor: Option<StreamIngestor>,
    rows: Vec<Row>,
    tally: Tally,
}

impl Run {
    fn new(seed: u64, readers: bool) -> Run {
        let w = world(&format!("lifecycle-{seed}"));
        let (seeded, _) = seed_index(&w);
        let kv = Arc::clone(&w.inner);
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
        let index = open_with(&w, Arc::clone(&kv), &plan);
        let mut run = Run {
            seed,
            readers,
            cfg: meter_cfg(),
            w,
            kv,
            sharded: false,
            handles: 0,
            plan,
            index,
            ingestor: None,
            rows: seeded,
            tally: Tally::default(),
        };
        run.open();
        run
    }

    /// A fresh handle (and ingestor, replaying the WAL) over the current
    /// store, with a schedule of its own when readers race the ops.
    fn open(&mut self) {
        self.ingestor = None;
        self.handles += 1;
        self.plan = if self.readers {
            interleave(self.seed.wrapping_mul(1009).wrapping_add(self.handles))
        } else {
            Arc::new(FaultPlan::new(FaultConfig::quiet(0)))
        };
        self.index = self.handle();
        let config = IngestConfig {
            flush_rows: u64::MAX,
            auto_flush_interval: None,
            fault: Some(Arc::clone(&self.plan)),
            ..IngestConfig::default()
        };
        let wal = self.w.tmp.path().join("ingest.wal");
        self.ingestor = Some(StreamIngestor::open(Arc::clone(&self.index), wal, config).unwrap());
    }

    /// A handle over the current store under the current schedule.
    fn handle(&self) -> Arc<DgfIndex> {
        let options = IndexOptions {
            retry: retry(),
            fault: Some(Arc::clone(&self.plan)),
            fetch_parallelism: if self.sharded { 2 } else { 1 },
            ..IndexOptions::default()
        };
        let (ctx, base, kv) = (
            Arc::clone(&self.w.ctx),
            Arc::clone(&self.w.base),
            Arc::clone(&self.kv),
        );
        Arc::new(DgfIndex::open_with_options(ctx, base, kv, INDEX, aggs(), options).unwrap())
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
            .index
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
            answers(handle.unwrap_or(&self.index), &self.cfg)
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

    fn play(&mut self, ops: &[Op]) {
        for (step, op) in ops.iter().enumerate() {
            let label = format!("seed {} op {step} {op}", self.seed);
            self.step(step, op, &label);
            let got = answers(&self.index, &self.cfg);
            let want = self.model();
            assert!(
                matches(&got, &want),
                "{label}: answers\n  {got:?}\nwant the model's\n  {want:?}"
            );
            assert_grid_directory(&self.index, &label);
        }
    }

    fn step(&mut self, step: usize, op: &Op, label: &str) {
        let cfg = self.cfg.clone();
        let before = answers(&self.index, &cfg);
        let pre = self.model();
        let index = Arc::clone(&self.index);
        let cold = match op {
            Op::Crash(..) => Vec::new(),
            _ => self.cold_handles(),
        };
        match op {
            Op::Append(rows) => {
                let post = model(&cfg, &[self.rows.as_slice(), rows.as_slice()].concat());
                assert!(!matches(&pre, &post), "{label}: the append changes nothing");
                let seen = self.observe(step, label, &cold, || {
                    index.append(rows).unwrap();
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
            }
            Op::Flush => {
                let seen = self.observe(step, label, &cold, || {
                    self.ingestor().flush().unwrap();
                });
                assert_some_commit(&seen, &[pre], label);
            }
            Op::Compact(budget) => {
                let config = MaintenanceConfig {
                    delta_file_budget: *budget,
                    ..MaintenanceConfig::default()
                };
                let maintainer = Maintainer::new(index, config);
                let mut compacted = 0;
                let seen = self.observe(step, label, &cold, || {
                    compacted = maintainer.run_once().unwrap().compacted_files;
                });
                self.tally.compacted_files += compacted;
                // Pure data movement: one answer, to the last float bit.
                for (n, obs) in seen.iter().enumerate() {
                    assert!(
                        bits_eq(obs, &before),
                        "{label}: observation {n} moved float bits:\n  {obs:?}"
                    );
                }
                let after = answers(&self.index, &cfg);
                assert!(
                    bits_eq(&after, &before),
                    "{label}: moved float bits:\n  {after:?}\n  {before:?}"
                );
            }
            Op::Regrid(u, t) => {
                let maintainer = Maintainer::new(index, MaintenanceConfig::default());
                let to = policy(&cfg, *u, *t);
                let seen = self.observe(step, label, &cold, || {
                    maintainer.regrid_to(to.clone()).unwrap()
                });
                assert_some_commit(&seen, &[pre], label);
                assert_eq!(*self.index.policy(), to, "{label}: the grid did not move");
            }
            Op::Reopen | Op::Reshard(_) => {
                let seen = self.observe(step, label, &cold, || {
                    self.ingestor().flush().unwrap();
                });
                assert_some_commit(&seen, &[pre], label);
                let flushed = answers(&self.index, &cfg);
                if let Op::Reshard(k) = op {
                    let extents = self.index.extents().unwrap();
                    let router = sharded_mem(&extents, *k)
                        .unwrap()
                        .with_fault(Arc::clone(&self.plan));
                    mirror_kv(self.kv.as_ref(), &router).unwrap();
                    self.kv = Arc::new(router);
                    self.sharded = true;
                }
                self.open();
                let after = answers(&self.index, &cfg);
                assert!(
                    bits_eq(&after, &flushed),
                    "{label}: moved float bits:\n  {after:?}\n  {flushed:?}"
                );
            }
            Op::Crash(writer, pick) => self.crash(step, writer, *pick, label),
        }
    }

    /// A copy of the warehouse and the store, for a quiet run that must
    /// not touch the real ones.
    fn fork(&self) -> World {
        let tmp = TempDir::new(&format!("lifecycle-{}-fork", self.seed)).unwrap();
        copy_tree(self.w.tmp.path(), tmp.path());
        let hdfs = SimHdfs::reopen(tmp.path(), HdfsConfig::default()).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(1));
        for desc in self.w.ctx.tables_snapshot() {
            ctx.register_restored_table(desc).unwrap();
        }
        let base = ctx.table("meter").unwrap();
        let inner: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        mirror_kv(self.kv.as_ref(), inner.as_ref()).unwrap();
        World {
            tmp,
            ctx,
            base,
            inner,
        }
    }

    fn crash(&mut self, step: usize, writer: &Op, pick: u64, label: &str) {
        let quiet = Arc::new(FaultPlan::new(FaultConfig::quiet(0)));
        let fork = self.fork();
        assert!(
            !run_writer(&fork, &fork.inner, writer, &quiet),
            "{label}: the quiet run crashed"
        );
        let sites = quiet.points_hit();
        if sites == 0 {
            return; // a pass with nothing to do writes nothing to crash in
        }
        let ordinal = ((u128::from(pick) * u128::from(sites)) >> 64) as u64;
        let files = self.w.ctx.hdfs.list_files(&self.w.base.location).len();
        let crash = Arc::new(FaultPlan::new(FaultConfig::crash_at(ordinal, ordinal)));
        let label = format!("{label}: ordinal {ordinal} of {sites}");
        assert!(
            run_writer(&self.w, &self.kv, writer, &crash),
            "{label}: the crash did not fire"
        );

        let mut commits = vec![self.model()];
        if let Op::Append(rows) = writer {
            commits.push(model(
                &self.cfg,
                &[self.rows.as_slice(), rows.as_slice()].concat(),
            ));
        }
        // The handle opened before the crash reads the half-done state,
        // then races the recovery that finishes or undoes it.
        assert_some_commit(&[answers(&self.index, &self.cfg)], &commits, &label);
        let (hdfs, kv, plan) = (&self.w.ctx.hdfs, &self.kv, &self.plan);
        let seen = self.observe(step, &label, &[], || {
            txn::recover(hdfs, kv, retry(), Some(plan)).unwrap();
        });
        assert_some_commit(&seen, &commits, &label);
        // An append rolled forward iff its base-table delta survived.
        if let Op::Append(rows) = writer {
            if self.w.ctx.hdfs.list_files(&self.w.base.location).len() > files {
                self.rows.extend_from_slice(rows);
                self.tally.appends_rolled_forward += 1;
            } else {
                self.tally.appends_rolled_back += 1;
            }
        }
        let got = answers(&self.index, &self.cfg);
        let want = self.model();
        assert!(
            matches(&got, &want),
            "{label}: the pre-crash handle after recovery\n  {got:?}\n  {want:?}"
        );
        self.open();
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
        let mut run = Run::new(seed, readers);
        run.play(ops);
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

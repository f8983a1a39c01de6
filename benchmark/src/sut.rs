//! The adapter: the only benchmark file that names an item of the
//! program under test. Everything else speaks [`QuerySpec`], [`Answer`],
//! [`Columns`] and counter names.
//!
//! This file is the pinned API surface a later refactor must keep
//! compiling (or change here, in one place):
//!
//! * `dgf_core`: `DgfIndex::{build_with_options, open, open_with_options,
//!   plan_with_strategy, extents, metrics, header_cache}` and its `data`
//!   field, `IndexOptions`, `DgfEngine::{new, with_right}`, `PlanStrategy`,
//!   `DimPolicy`, `SplittingPolicy`, `Maintainer::{new, run_once}`,
//!   `MaintenanceConfig`;
//! * `dgf_query`: `Engine::run`, `Query`, `QueryResult`, `Predicate`,
//!   `ColumnRange`, `AggFunc`, `RowSink::{merge_agg_states, push_if,
//!   finish}`, `RunStats`;
//! * `dgf_hive`: `HiveContext::{new, create_table, load_rows, table,
//!   table_size_bytes, scan_options, set_scan_options, save_catalog,
//!   load_catalog}` and its `hdfs` / `scan_stats` fields, `execute_sink`,
//!   `ScanInput`, `ScanOptions`, `ServeOptions`;
//! * `dgf_ingest`: `StreamIngestor::{open, ingest, flush, stats}`,
//!   `IngestConfig`;
//! * `dgf_serve`: `ServeFrontend::{new, run, engine, stats}`,
//!   `shard_boundaries`, `mirror_kv`, `record_fanout_into`;
//! * `dgf_kvstore`: the `KvStore` trait with `MemKvStore`, `LogKvStore`,
//!   `LatencyKv`, `LatencyModel::hbase_like`, `ShardedKv::{new, fanout}`;
//! * `dgf_storage`: `SimHdfs::{new, reopen, open_reader, list_files,
//!   file_len}`, `HdfsConfig`, `FileSplit`;
//! * `dgf_format`: `RcReader::{open, with_group_ranges, with_row_filter,
//!   with_projection, next_batch}`, `FileFormat`;
//! * `dgf_common`: `Row`, `Value`, `DgfError`, `MetricsRegistry::snapshot`,
//!   `Profiler::{disabled, enabled}`, `QueryProfile::{metric_total, find}`,
//!   the `*::record_into` projections, and the counter names of
//!   `dgf_common::obs::names`, which are read as strings only;
//! * `dgf_mapreduce`: `MrEngine::new`;
//! * `dgf_workload`: `MeterConfig`, `generate_meter_data`,
//!   `generate_user_info`, `meter_schema`, `user_info_schema`.
//!
//! Every layer is measured from outside: by timing these calls and by
//! reading counters by name. A name the program does not export is
//! reported as absent, never as 0.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dgf_common::obs::Profiler;
use dgf_common::{DgfError, MetricsRegistry, Row, Value};
use dgf_core::{
    DgfEngine, DgfIndex, DimPolicy, IndexOptions, Maintainer, MaintenanceConfig, PlanStrategy,
    SplittingPolicy,
};
use dgf_format::{FileFormat, RcReader};
use dgf_hive::{execute_sink, HiveContext, ScanInput, ScanOptions, ServeOptions, TableRef};
use dgf_ingest::{IngestConfig, StreamIngestor};
use dgf_kvstore::{
    KvPair, KvStats, KvStore, LatencyKv, LatencyModel, LogKvStore, MemKvStore, ShardedKv,
};
use dgf_mapreduce::MrEngine;
use dgf_query::{AggFunc, ColumnRange, Engine, Predicate, Query, QueryResult};
use dgf_serve::{mirror_kv, record_fanout_into, shard_boundaries, ServeFrontend};
use dgf_storage::{FileSplit, HdfsConfig, SimHdfs};
use dgf_workload::{
    generate_meter_data, generate_user_info, meter_schema, user_info_schema, MeterConfig,
};

use crate::gen::{Kind, QuerySpec};
use crate::oracle::{sort_rows, Answer, Columns};
use crate::trace::Tracer;

const INDEX: &str = "dgf";
const BASE_TABLE: &str = "meter";
const USER_TABLE: &str = "user_info";
const REGIONS: u64 = 11;
/// The common cluster: 4 MiB blocks, no replication, two map slots.
const HDFS: HdfsConfig = HdfsConfig {
    block_size: 4 << 20,
    replication: 1,
};
const MAP_SLOTS: usize = 2;
const BASE_FILES: usize = 4;

/// Counter values by their stable registry name.
pub type Counters = BTreeMap<String, u64>;

/// `after − before`, for every name `after` holds.
pub fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

fn err(e: DgfError) -> String {
    e.to_string()
}

/// Why a query did not return an answer.
#[derive(Debug)]
pub enum RunError {
    /// The serving tier refused admission.
    Backpressure,
    Failed(String),
}

impl From<DgfError> for RunError {
    fn from(e: DgfError) -> RunError {
        match e {
            DgfError::Backpressure(_) => RunError::Backpressure,
            other => RunError::Failed(other.to_string()),
        }
    }
}

/// The generated meter table plus the oracle's compact copy of it.
pub struct Dataset {
    rows: Vec<Row>,
    user_info: Vec<Row>,
    pub cols: Columns,
    pub users: u64,
    start_day: i64,
}

/// Generate `days` days of readings for `users` users from `seed`.
pub fn generate(users: u64, days: u64, seed: u64) -> Dataset {
    let cfg = MeterConfig {
        users,
        regions: REGIONS,
        days,
        readings_per_day: 1,
        seed,
        ..MeterConfig::default()
    };
    let rows = generate_meter_data(&cfg);
    let user_info = generate_user_info(&cfg);
    let int = |v: &Value| v.as_i64().expect("generated dimension is an integer");
    let mut cols = Columns::default();
    for r in &rows {
        cols.user_id.push(int(&r[0]));
        cols.region_id.push(int(&r[1]));
        cols.day.push(int(&r[2]) - cfg.start_day);
        cols.power
            .push(r[3].as_f64().expect("generated power is a float"));
    }
    cols.user_name = user_info
        .iter()
        .map(|r| {
            r[1].as_str()
                .expect("generated name is a string")
                .to_owned()
        })
        .collect();
    Dataset {
        rows,
        user_info,
        cols,
        users,
        start_day: cfg.start_day,
    }
}

/// Which key-value store holds the GFU headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// In-memory, no latency.
    Mem,
    /// The CLI's durable single-file log.
    Log,
    /// Range shards behind a router, each charging a modelled HBase
    /// round trip; the planner fetches with one thread per shard.
    ShardedLatency { shards: usize },
}

/// What one workload asks of set-up.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Users per grid cell on `user_id` (regions and days split by 1).
    pub user_cell: i64,
    /// Days bulk-loaded and indexed by `build`; later days stay in
    /// memory for streaming.
    pub loaded_days: u64,
    pub store: Store,
    /// Pre-compute `COUNT(*)` beside `SUM(power_consumed)`.
    pub count_header: bool,
    /// Load the `user_info` table for joins.
    pub user_info: bool,
    /// Serve through `ServeFrontend` with this many workers instead of
    /// calling the engine directly.
    pub serve_workers: Option<usize>,
}

enum Runner {
    Engine(DgfEngine),
    Frontend(Box<ServeFrontend>),
}

/// One fully set-up system: warehouse, index, engine.
pub struct Stack {
    root: PathBuf,
    cfg: StackConfig,
    ctx: Arc<HiveContext>,
    base: TableRef,
    right: Option<TableRef>,
    kv: Arc<dyn KvStore>,
    log: Option<Arc<LogKvStore>>,
    router: Option<Arc<ShardedKv>>,
    index: Arc<DgfIndex>,
    runner: Runner,
    ingestor: Option<StreamIngestor>,
    /// When the index itself was opened over the timing decorator.
    timed: Option<Arc<TimedKv>>,
    /// `kv.*` counters of the store `build` wrote to, where the index
    /// is served from another store (the shards) afterwards.
    built_kv: Option<Counters>,
    start_day: i64,
    /// Seconds inside `DgfIndex::build`.
    pub build_s: f64,
    /// Rows `build` indexed.
    pub rows_built: u64,
}

fn aggs(count_header: bool) -> Vec<AggFunc> {
    let mut a = vec![AggFunc::Sum("power_consumed".into())];
    if count_header {
        a.push(AggFunc::Count);
    }
    a
}

fn kv_paths(root: &Path) -> (PathBuf, PathBuf) {
    // Hidden from the simulated namespace, like the CLI's `.dgf-kv`.
    let dir = root.join(".dgf-kv");
    (
        dir.join(format!("{INDEX}.log")),
        dir.join(format!("{INDEX}.wal")),
    )
}

fn options(tracer: Option<&Arc<Tracer>>, fetch_parallelism: usize) -> IndexOptions {
    IndexOptions {
        // Timed runs never collect the program's own spans; the default
        // would honour DGF_TRACE from the environment.
        profiler: if tracer.is_some() {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        },
        fetch_parallelism,
        ..IndexOptions::default()
    }
}

impl Stack {
    /// Load, build and open everything `cfg` asks for under `root`.
    /// With a tracer the index runs over the timing decorator with the
    /// program's profiler on (used for the traced ingest replay).
    pub fn set_up(
        cfg: &StackConfig,
        data: &Dataset,
        root: &Path,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Stack, String> {
        let hdfs = SimHdfs::new(root, HDFS).map_err(err)?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(MAP_SLOTS));
        let base = ctx
            .create_table(BASE_TABLE, meter_schema(), FileFormat::RcFile)
            .map_err(err)?;
        let loaded = cfg.loaded_days as usize * data.users as usize;
        ctx.load_rows(&base, &data.rows[..loaded], BASE_FILES)
            .map_err(err)?;
        let right = if cfg.user_info {
            let t = ctx
                .create_table(USER_TABLE, user_info_schema(), FileFormat::Text)
                .map_err(err)?;
            ctx.load_rows(&t, &data.user_info, 1).map_err(err)?;
            Some(t)
        } else {
            None
        };
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, cfg.user_cell),
            DimPolicy::int("region_id", 0, 1),
            DimPolicy::date("ts", data.start_day, 1),
        ])
        .map_err(err)?;

        let (log_path, _) = kv_paths(root);
        let mut log = None;
        let build_store: Arc<dyn KvStore> = match cfg.store {
            Store::Log => {
                std::fs::create_dir_all(log_path.parent().expect("log path has a parent"))
                    .map_err(|e| e.to_string())?;
                let l = Arc::new(LogKvStore::open(&log_path).map_err(err)?);
                log = Some(Arc::clone(&l));
                l
            }
            Store::Mem | Store::ShardedLatency { .. } => Arc::new(MemKvStore::new()),
        };
        let timed = tracer
            .as_ref()
            .map(|t| Arc::new(TimedKv::new(Arc::clone(&build_store), Arc::clone(t))));
        let build_kv: Arc<dyn KvStore> = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn KvStore>,
            None => Arc::clone(&build_store),
        };
        let started = Instant::now();
        let (built, _) = DgfIndex::build_with_options(
            Arc::clone(&ctx),
            Arc::clone(&base),
            policy,
            aggs(cfg.count_header),
            Arc::clone(&build_kv),
            INDEX,
            options(tracer.as_ref(), 1),
        )
        .map_err(err)?;
        let build_s = started.elapsed().as_secs_f64();

        // The serving layout: mirror the built store into plain shards
        // first and only then put the latency model in front of them —
        // mirroring through the model would charge set-up one modelled
        // round trip per key.
        let mut built_kv = None;
        let (kv, router, index) = match cfg.store {
            Store::ShardedLatency { shards } => {
                let reg = MetricsRegistry::new();
                build_kv.stats().snapshot().record_into(&reg);
                built_kv = Some(reg.snapshot());
                let plain: Vec<Arc<dyn KvStore>> = (0..shards)
                    .map(|_| Arc::new(MemKvStore::new()) as Arc<dyn KvStore>)
                    .collect();
                let bounds = shard_boundaries(&built.extents().map_err(err)?, shards);
                let loader = ShardedKv::new(plain.clone(), bounds.clone()).map_err(err)?;
                mirror_kv(build_kv.as_ref(), &loader).map_err(err)?;
                drop(loader);
                let slow: Vec<Arc<dyn KvStore>> = plain
                    .into_iter()
                    .map(|s| {
                        Arc::new(LatencyKv::new(SharedKv(s), LatencyModel::hbase_like()))
                            as Arc<dyn KvStore>
                    })
                    .collect();
                let router = Arc::new(ShardedKv::new(slow, bounds).map_err(err)?);
                let kv: Arc<dyn KvStore> = Arc::clone(&router) as Arc<dyn KvStore>;
                let index = DgfIndex::open_with_options(
                    Arc::clone(&ctx),
                    Arc::clone(&base),
                    Arc::clone(&kv),
                    INDEX,
                    aggs(cfg.count_header),
                    options(None, shards),
                )
                .map_err(err)?;
                (kv, Some(router), index)
            }
            Store::Mem | Store::Log => (build_kv, None, built),
        };
        if cfg.store == Store::Log {
            // What a restart finds the tables by.
            ctx.save_catalog(&[]).map_err(err)?;
        }
        let index = Arc::new(index);
        Ok(Stack {
            root: root.to_owned(),
            runner: make_runner(&index, right.as_ref(), cfg.serve_workers),
            cfg: cfg.clone(),
            ctx,
            base,
            right,
            kv,
            log,
            router,
            index,
            ingestor: None,
            timed,
            built_kv,
            start_day: data.start_day,
            build_s,
            rows_built: loaded as u64,
        })
    }

    /// Restart: reopen the warehouse, the durable store, the index and
    /// the ingest WAL from what is on disk under `root`.
    pub fn reopen(cfg: &StackConfig, data: &Dataset, root: &Path) -> Result<Stack, String> {
        let hdfs = SimHdfs::reopen(root, HDFS).map_err(err)?;
        let (ctx, _) = HiveContext::load_catalog(hdfs, MrEngine::new(MAP_SLOTS)).map_err(err)?;
        let base = ctx.table(BASE_TABLE).map_err(err)?;
        let right = ctx.table(USER_TABLE).ok();
        let (log_path, _) = kv_paths(root);
        let log = Arc::new(LogKvStore::open(&log_path).map_err(err)?);
        let kv: Arc<dyn KvStore> = Arc::clone(&log) as Arc<dyn KvStore>;
        let index = Arc::new(
            DgfIndex::open_with_options(
                Arc::clone(&ctx),
                Arc::clone(&base),
                Arc::clone(&kv),
                INDEX,
                aggs(cfg.count_header),
                options(None, 1),
            )
            .map_err(err)?,
        );
        let mut stack = Stack {
            root: root.to_owned(),
            runner: make_runner(&index, right.as_ref(), cfg.serve_workers),
            cfg: cfg.clone(),
            ctx,
            base,
            right,
            kv,
            log: Some(log),
            router: None,
            index,
            ingestor: None,
            timed: None,
            built_kv: None,
            start_day: data.start_day,
            build_s: 0.0,
            rows_built: 0,
        };
        stack.open_ingest()?;
        Ok(stack)
    }

    fn query(&self, q: &QuerySpec) -> Query {
        let mut predicate = Predicate::all();
        if let Some((lo, hi)) = q.users {
            predicate = predicate.and(
                "user_id",
                ColumnRange::half_open(Value::Int(lo), Value::Int(hi)),
            );
        }
        let region = if q.regions.1 == q.regions.0 + 1 {
            ColumnRange::eq(Value::Int(q.regions.0))
        } else {
            ColumnRange::half_open(Value::Int(q.regions.0), Value::Int(q.regions.1))
        };
        let day = |d: i64| Value::Date(self.start_day + d);
        let days = if q.days.1 == q.days.0 + 1 && q.users.is_none() {
            ColumnRange::eq(day(q.days.0))
        } else {
            ColumnRange::half_open(day(q.days.0), day(q.days.1))
        };
        let predicate = predicate.and("region_id", region).and("ts", days);
        let sum = AggFunc::Sum("power_consumed".into());
        match q.kind {
            Kind::Sum => Query::Aggregate {
                aggs: vec![sum],
                predicate,
            },
            Kind::SumCount => Query::Aggregate {
                aggs: vec![sum, AggFunc::Count],
                predicate,
            },
            Kind::SumByDay => Query::GroupBy {
                key: "ts".into(),
                aggs: vec![sum],
                predicate,
            },
            Kind::JoinUserName => Query::Join {
                left_key: "user_id".into(),
                right_key: "user_id".into(),
                left_project: vec!["power_consumed".into()],
                right_project: vec!["user_name".into()],
                predicate,
            },
        }
    }

    fn answer(&self, result: QueryResult) -> Result<Answer, String> {
        let num = |v: &Value| v.as_f64().map_err(err);
        Ok(match result {
            QueryResult::Scalars(v) => {
                Answer::Scalars(v.iter().map(num).collect::<Result<_, _>>()?)
            }
            QueryResult::Groups(groups) => Answer::Groups(
                groups
                    .iter()
                    .map(|(k, v)| {
                        let day = k.as_i64().map_err(err)? - self.start_day;
                        Ok((day, v.iter().map(num).collect::<Result<_, String>>()?))
                    })
                    .collect::<Result<_, String>>()?,
            ),
            QueryResult::Rows(rows) => {
                let mut out = rows
                    .iter()
                    .map(|r| Ok((r[0].as_str().map_err(err)?.to_owned(), num(&r[1])?)))
                    .collect::<Result<Vec<_>, String>>()?;
                sort_rows(&mut out);
                Answer::Rows(out)
            }
        })
    }

    /// Run one query the way a user of this stack would: through the
    /// serving frontend if the workload has one, else the engine.
    pub fn run(&self, q: &QuerySpec) -> Result<Answer, RunError> {
        let query = self.query(q);
        let run = match &self.runner {
            Runner::Engine(e) => e.run(&query)?,
            Runner::Frontend(f) => f.run(&query)?,
        };
        self.answer(run.result).map_err(RunError::Failed)
    }

    /// Run one query on the engine, bypassing any serving frontend.
    pub fn run_engine(&self, q: &QuerySpec) -> Result<Answer, RunError> {
        let engine = match &self.runner {
            Runner::Engine(e) => e,
            Runner::Frontend(f) => f.engine(),
        };
        let run = engine.run(&self.query(q))?;
        self.answer(run.result).map_err(RunError::Failed)
    }

    /// Every lifetime counter the stack exports, by registry name:
    /// `kv.*`, `cache.header.*`, `hdfs.*` (the index), `scan.*` (the
    /// warehouse), `serve.*` (frontend and router), `ingest.*`.
    pub fn counters(&self) -> Counters {
        let reg: MetricsRegistry = self.index.metrics();
        for (name, v) in self.built_kv.iter().flatten() {
            reg.add(name, *v);
        }
        self.ctx.scan_stats.snapshot().record_into(&reg);
        if let Runner::Frontend(f) = &self.runner {
            f.stats().record_into(&reg);
        }
        if let Some(router) = &self.router {
            record_fanout_into(router.fanout(), &reg);
        }
        if let Some(ing) = &self.ingestor {
            ing.stats().record_into(&reg);
        }
        reg.snapshot()
    }

    /// Bytes of the base table's files.
    pub fn base_bytes(&self) -> u64 {
        self.ctx.table_size_bytes(&self.base)
    }

    /// `(slice data bytes, sidecar bytes, data files)` of the index's
    /// reorganized table as it is on disk now.
    pub fn data_files(&self) -> (u64, u64, u64) {
        let files = self.ctx.hdfs.list_files(&self.index.data.location);
        let (scx, data): (Vec<_>, Vec<_>) = files.iter().partition(|(p, _)| p.ends_with(".scx"));
        (
            data.iter().map(|(_, n)| n).sum(),
            scx.iter().map(|(_, n)| n).sum(),
            data.len() as u64,
        )
    }

    /// Live key+value bytes in the GFU store.
    pub fn kv_logical_bytes(&self) -> u64 {
        self.kv.logical_size_bytes()
    }

    /// On-disk size of the durable store's log (`Store::Log` only).
    pub fn kv_log_file_bytes(&self) -> Option<u64> {
        self.log.as_ref().map(|l| l.log_len())
    }

    /// Entries the header cache holds.
    pub fn header_cache_len(&self) -> usize {
        self.index.header_cache().len()
    }

    // ---- write path -------------------------------------------------

    /// Open the streaming ingestor (WAL beside the store's log). The
    /// benchmark owns the flush schedule: no row-count trigger, no
    /// background flusher.
    pub fn open_ingest(&mut self) -> Result<(), String> {
        let (_, wal) = kv_paths(&self.root);
        std::fs::create_dir_all(wal.parent().expect("wal path has a parent"))
            .map_err(|e| e.to_string())?;
        let ing = StreamIngestor::open(
            Arc::clone(&self.index),
            wal,
            IngestConfig {
                flush_rows: u64::MAX,
                auto_flush_interval: None,
                ..IngestConfig::default()
            },
        )
        .map_err(err)?;
        self.ingestor = Some(ing);
        Ok(())
    }

    fn ingestor(&self) -> &StreamIngestor {
        self.ingestor.as_ref().expect("open_ingest comes first")
    }

    /// Ingest rows `range` of the dataset as one acknowledged batch.
    pub fn ingest(&self, data: &Dataset, range: std::ops::Range<usize>) -> Result<(), RunError> {
        self.ingestor().ingest(&data.rows[range])?;
        Ok(())
    }

    /// Flush buffered rows into slices; returns rows flushed.
    pub fn flush(&self) -> Result<u64, String> {
        self.ingestor().flush().map_err(err)
    }

    /// One maintenance pass with the given live-file budget; returns
    /// the delta files it compacted.
    pub fn maintain(&self, delta_file_budget: usize) -> Result<u64, String> {
        let m = Maintainer::new(
            Arc::clone(&self.index),
            MaintenanceConfig {
                delta_file_budget,
                ..MaintenanceConfig::default()
            },
        );
        Ok(m.run_once().map_err(err)?.compacted_files as u64)
    }

    // ---- traced replay ----------------------------------------------

    /// A handle for the traced replay: this stack's own index when it
    /// was set up with a tracer, else a second handle on the same store
    /// opened over the timing decorator with the program's profiler on.
    pub fn traced(&self, tracer: &Arc<Tracer>) -> Result<Traced<'_>, String> {
        if let Some(timed) = &self.timed {
            return Ok(Traced {
                stack: self,
                index: Arc::clone(&self.index),
                kv: Arc::clone(timed),
                tracer: Arc::clone(tracer),
            });
        }
        let kv = Arc::new(TimedKv::new(Arc::clone(&self.kv), Arc::clone(tracer)));
        let shards = match self.cfg.store {
            Store::ShardedLatency { shards } => shards,
            Store::Mem | Store::Log => 1,
        };
        let index = DgfIndex::open_with_options(
            Arc::clone(&self.ctx),
            Arc::clone(&self.base),
            Arc::clone(&kv) as Arc<dyn KvStore>,
            INDEX,
            aggs(self.cfg.count_header),
            options(Some(tracer), shards),
        )
        .map_err(err)?;
        Ok(Traced {
            stack: self,
            index: Arc::new(index),
            kv,
            tracer: Arc::clone(tracer),
        })
    }
}

fn make_runner(index: &Arc<DgfIndex>, right: Option<&TableRef>, workers: Option<usize>) -> Runner {
    let mut engine = DgfEngine::new(Arc::clone(index));
    if let Some(r) = right {
        engine = engine.with_right(Arc::clone(r));
    }
    match workers {
        Some(workers) => Runner::Frontend(Box::new(ServeFrontend::new(
            engine,
            ServeOptions {
                workers,
                ..ServeOptions::default()
            },
        ))),
        None => Runner::Engine(engine),
    }
}

/// What the planner handed the scan for one replayed query, kept for
/// the probes.
pub struct ScanPlan(Vec<ScanInput>);

/// Counts and the program's own stage times from one traced plan.
#[derive(Debug, Default, Clone)]
pub struct PlanFacts {
    /// By registry name, from the plan's own profile.
    pub counts: Counters,
    /// `plan.meta` / `plan.fetch` / `plan.splits` / `plan.sidecar` wall
    /// milliseconds, where the program recorded the stage.
    pub stage_ms: BTreeMap<String, f64>,
}

/// The replay handle. See [`Stack::traced`].
pub struct Traced<'a> {
    stack: &'a Stack,
    index: Arc<DgfIndex>,
    kv: Arc<TimedKv>,
    tracer: Arc<Tracer>,
}

impl Traced<'_> {
    fn plan_facts(plan: &dgf_core::DgfPlan) -> PlanFacts {
        let mut facts = PlanFacts::default();
        if plan.profile.is_empty() {
            return facts;
        }
        // A plan profile only carries the counters that were non-zero,
        // so a missing name under a present profile is 0.
        for name in [
            "plan.inner_gfus",
            "plan.boundary_gfus",
            "plan.inner_records",
            "plan.fresh_gfus",
            "plan.fresh_records",
            "plan.splits_total",
            "plan.splits_read",
        ] {
            facts
                .counts
                .insert(name.to_owned(), plan.profile.metric_total(name));
        }
        for stage in ["plan.meta", "plan.fetch", "plan.splits", "plan.sidecar"] {
            if let Some(node) = plan.profile.find(stage) {
                facts
                    .stage_ms
                    .insert(stage.to_owned(), node.wall.as_secs_f64() * 1e3);
            }
        }
        facts
    }

    /// Re-enact query `qid` through the public stage functions the
    /// engine itself calls, one span per stage:
    /// `query` ⊃ `core.plan` ⊃ `kvstore.<op>`, then `hive.scan`, then
    /// `query.merge`. The answer must equal the engine's bit for bit.
    pub fn replay(
        &self,
        qid: usize,
        q: &QuerySpec,
    ) -> Result<(Answer, ScanPlan, PlanFacts), String> {
        let query = self.stack.query(q);
        let t = &self.tracer;
        t.set_query(qid);
        let root = t.open("query");
        let plan_span = t.open("core.plan");
        let plan = self
            .index
            .plan_with_strategy(&query, true, PlanStrategy::default());
        let mut plan = match plan {
            Ok(p) => p,
            Err(e) => {
                t.close(plan_span, &[]);
                t.close(root, &[]);
                return Err(err(e));
            }
        };
        let facts = Self::plan_facts(&plan);
        let gfus = plan.inner_gfus + plan.boundary_gfus;
        t.close(
            plan_span,
            &[("gfus", gfus), ("inputs", plan.inputs.len() as u64)],
        );
        let inputs = std::mem::take(&mut plan.inputs);
        let kept = ScanPlan(inputs.clone());

        let scan_span = t.open("hive.scan");
        let sink = execute_sink(
            &self.stack.ctx,
            &self.index.data,
            &query,
            self.stack.right.as_deref(),
            inputs,
        );
        t.close(scan_span, &[]);
        let merge_span = t.open("query.merge");
        let result = sink.and_then(|mut sink| {
            if let Some(states) = &plan.inner_states {
                sink.merge_agg_states(states)?;
            }
            if !plan.fresh_rows.is_empty() {
                let bound = query.predicate().bind(&self.index.data.schema)?;
                for row in &plan.fresh_rows {
                    sink.push_if(row, &bound)?;
                }
            }
            Ok(sink.finish())
        });
        t.close(merge_span, &[("fresh_rows", plan.fresh_rows.len() as u64)]);
        t.close(root, &[]);
        t.adopt_orphans(qid);
        let answer = self.stack.answer(result.map_err(err)?)?;
        Ok((answer, kept, facts))
    }

    /// Plan only, under `strategy`, with sidecar consultation on or
    /// off. Returns `(milliseconds, key-value keys read)`.
    pub fn plan_only(
        &self,
        q: &QuerySpec,
        strategy: PlanStrategy,
        sidecar: bool,
    ) -> Result<(f64, u64), String> {
        let query = self.stack.query(q);
        let saved = self.stack.ctx.scan_options();
        self.stack
            .ctx
            .set_scan_options(ScanOptions { sidecar, ..saved });
        let keys_before = self.kv.keys_read();
        let started = Instant::now();
        let plan = self.index.plan_with_strategy(&query, true, strategy);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.stack.ctx.set_scan_options(saved);
        plan.map_err(err)?;
        Ok((ms, self.kv.keys_read() - keys_before))
    }

    /// The default strategy's plan time and keys.
    pub fn plan_default(&self, q: &QuerySpec, sidecar: bool) -> Result<(f64, u64), String> {
        self.plan_only(q, PlanStrategy::default(), sidecar)
    }

    /// The pyramid strategy's plan time and keys.
    pub fn plan_pyramid(&self, q: &QuerySpec) -> Result<(f64, u64), String> {
        self.plan_only(q, PlanStrategy::Pyramid, true)
    }

    /// Storage probe: read the plan's byte ranges again through the
    /// storage layer alone. An upper bound where the sidecar pruned row
    /// groups inside a range. Returns `(milliseconds, bytes)`.
    pub fn probe_storage(&self, plan: &ScanPlan) -> Result<(f64, u64), String> {
        let hdfs = &self.stack.ctx.hdfs;
        let started = Instant::now();
        let mut bytes = 0u64;
        let mut buf = Vec::new();
        for input in &plan.0 {
            let (path, ranges): (&str, Vec<(u64, u64)>) = match input {
                ScanInput::FullSplit(s) => (&s.path, vec![(s.start, s.start + s.len)]),
                ScanInput::RcFiltered { split, .. } => {
                    (&split.path, vec![(split.start, split.start + split.len)])
                }
                ScanInput::TextRanges { path, ranges }
                | ScanInput::RcRanges { path, ranges }
                | ScanInput::RcPruned { path, ranges, .. } => {
                    (path, ranges.iter().map(|r| (r.start, r.end)).collect())
                }
            };
            let mut reader = hdfs.open_reader(path).map_err(err)?;
            for (start, end) in ranges {
                buf.resize((end - start) as usize, 0);
                reader
                    .seek(SeekFrom::Start(start))
                    .map_err(|e| e.to_string())?;
                reader.read_exact(&mut buf).map_err(|e| e.to_string())?;
                bytes += end - start;
            }
        }
        Ok((started.elapsed().as_secs_f64() * 1e3, bytes))
    }

    /// Format probe: drain the plan's inputs through the batched RCFile
    /// reader with the query's projection and no kernels. Returns
    /// `(milliseconds, rows decoded)`.
    pub fn probe_decode(&self, q: &QuerySpec, plan: &ScanPlan) -> Result<(f64, u64), String> {
        let table = &self.index.data;
        let mut names = vec!["region_id", "ts", "power_consumed"];
        if q.users.is_some() || q.kind == Kind::JoinUserName {
            names.push("user_id");
        }
        let mut projection = names
            .iter()
            .map(|n| table.schema.index_of(n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        projection.sort_unstable();
        let hdfs = &self.stack.ctx.hdfs;
        let whole = |path: &str| -> Result<FileSplit, String> {
            Ok(FileSplit::new(path, 0, hdfs.file_len(path).map_err(err)?))
        };
        let started = Instant::now();
        let mut rows = 0u64;
        for input in &plan.0 {
            let open =
                |split: &FileSplit| RcReader::open(hdfs, table.schema.clone(), split).map_err(err);
            let reader = match input {
                ScanInput::FullSplit(s) => open(s)?,
                ScanInput::RcFiltered { split, row_filter } => {
                    open(split)?.with_row_filter(row_filter.clone())
                }
                ScanInput::RcRanges { path, ranges } => {
                    open(&whole(path)?)?.with_group_ranges(ranges)
                }
                ScanInput::RcPruned {
                    path,
                    ranges,
                    row_filter,
                } => open(&whole(path)?)?
                    .with_group_ranges(ranges)
                    .with_row_filter(row_filter.clone()),
                ScanInput::TextRanges { .. } => continue,
            };
            let mut reader = reader.with_projection(projection.clone());
            while let Some(batch) = reader.next_batch().map_err(err)? {
                rows += std::hint::black_box(&batch).len() as u64;
            }
        }
        Ok((started.elapsed().as_secs_f64() * 1e3, rows))
    }

    /// Counters of the replay handle's own index (its header cache is
    /// its own; the stores and the warehouse are shared).
    pub fn counters(&self) -> Counters {
        let reg = self.index.metrics();
        self.stack.ctx.scan_stats.snapshot().record_into(&reg);
        reg.snapshot()
    }
}

/// `Arc<dyn KvStore>` as a sized store, so a store that was filled
/// through one handle can afterwards be wrapped by a generic decorator.
struct SharedKv(Arc<dyn KvStore>);

impl KvStore for SharedKv {
    fn put(&self, key: &[u8], value: &[u8]) -> dgf_common::Result<()> {
        self.0.put(key, value)
    }
    fn get(&self, key: &[u8]) -> dgf_common::Result<Option<Vec<u8>>> {
        self.0.get(key)
    }
    fn delete(&self, key: &[u8]) -> dgf_common::Result<bool> {
        self.0.delete(key)
    }
    fn scan_range(&self, start: &[u8], end: &[u8]) -> dgf_common::Result<Vec<KvPair>> {
        self.0.scan_range(start, end)
    }
    fn update(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>,
    ) -> dgf_common::Result<()> {
        self.0.update(key, f)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn logical_size_bytes(&self) -> u64 {
        self.0.logical_size_bytes()
    }
    fn flush(&self) -> dgf_common::Result<()> {
        self.0.flush()
    }
    fn stats(&self) -> &KvStats {
        self.0.stats()
    }
    fn multi_get(&self, keys: &[Vec<u8>]) -> dgf_common::Result<Vec<Option<Vec<u8>>>> {
        self.0.multi_get(keys)
    }
    fn maintain(&self) -> dgf_common::Result<u64> {
        self.0.maintain()
    }
    fn scan_prefix(&self, prefix: &[u8]) -> dgf_common::Result<Vec<KvPair>> {
        self.0.scan_prefix(prefix)
    }
}

/// The key-value layer seen from outside: every operation becomes a
/// `kvstore.<op>` span carrying the keys asked for and the value bytes
/// returned (the store's own `kv.bytes_read` counts the same bytes, so
/// the two can be cross-checked). Busy time includes any modelled
/// round-trip wait of the wrapped store.
pub struct TimedKv {
    inner: Arc<dyn KvStore>,
    tracer: Arc<Tracer>,
    keys_read: std::sync::atomic::AtomicU64,
}

impl TimedKv {
    fn new(inner: Arc<dyn KvStore>, tracer: Arc<Tracer>) -> TimedKv {
        TimedKv {
            inner,
            tracer,
            keys_read: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Keys asked for or returned by read operations so far.
    fn keys_read(&self) -> u64 {
        self.keys_read.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn timed<T>(
        &self,
        op: &str,
        f: impl FnOnce() -> dgf_common::Result<T>,
        size: impl Fn(&T) -> (u64, u64),
        read: bool,
    ) -> dgf_common::Result<T> {
        let start = self.tracer.now_ns();
        let out = f();
        let end = self.tracer.now_ns();
        let (keys, bytes) = out.as_ref().map_or((0, 0), size);
        if read {
            // Relaxed: a statistic that publishes nothing else.
            self.keys_read
                .fetch_add(keys, std::sync::atomic::Ordering::Relaxed);
        }
        self.tracer.record(
            op,
            start,
            end,
            &[("keys", keys), ("bytes", bytes), ("read", u64::from(read))],
        );
        out
    }
}

fn pairs_size(pairs: &[KvPair]) -> (u64, u64) {
    (
        pairs.len() as u64,
        pairs.iter().map(|(_, v)| v.len() as u64).sum(),
    )
}

impl KvStore for TimedKv {
    fn put(&self, key: &[u8], value: &[u8]) -> dgf_common::Result<()> {
        let n = (key.len() + value.len()) as u64;
        self.timed(
            "kvstore.put",
            || self.inner.put(key, value),
            |_| (1, n),
            false,
        )
    }
    fn get(&self, key: &[u8]) -> dgf_common::Result<Option<Vec<u8>>> {
        self.timed(
            "kvstore.get",
            || self.inner.get(key),
            |v| (1, v.as_ref().map_or(0, |v| v.len() as u64)),
            true,
        )
    }
    fn delete(&self, key: &[u8]) -> dgf_common::Result<bool> {
        self.timed(
            "kvstore.delete",
            || self.inner.delete(key),
            |_| (1, 0),
            false,
        )
    }
    fn scan_range(&self, start: &[u8], end: &[u8]) -> dgf_common::Result<Vec<KvPair>> {
        self.timed(
            "kvstore.scan",
            || self.inner.scan_range(start, end),
            |p| pairs_size(p),
            true,
        )
    }
    fn update(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>,
    ) -> dgf_common::Result<()> {
        self.timed(
            "kvstore.update",
            || self.inner.update(key, f),
            |_| (1, 0),
            false,
        )
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn logical_size_bytes(&self) -> u64 {
        self.inner.logical_size_bytes()
    }
    fn flush(&self) -> dgf_common::Result<()> {
        self.timed("kvstore.flush", || self.inner.flush(), |_| (0, 0), false)
    }
    fn stats(&self) -> &KvStats {
        self.inner.stats()
    }
    fn multi_get(&self, keys: &[Vec<u8>]) -> dgf_common::Result<Vec<Option<Vec<u8>>>> {
        self.timed(
            "kvstore.multi_get",
            || self.inner.multi_get(keys),
            |vs| {
                (
                    vs.len() as u64,
                    vs.iter().flatten().map(|v| v.len() as u64).sum(),
                )
            },
            true,
        )
    }
    fn maintain(&self) -> dgf_common::Result<u64> {
        self.timed(
            "kvstore.maintain",
            || self.inner.maintain(),
            |_| (0, 0),
            false,
        )
    }
    fn scan_prefix(&self, prefix: &[u8]) -> dgf_common::Result<Vec<KvPair>> {
        self.timed(
            "kvstore.scan",
            || self.inner.scan_prefix(prefix),
            |p| pairs_size(p),
            true,
        )
    }
}

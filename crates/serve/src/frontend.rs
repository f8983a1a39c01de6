//! The concurrent query frontend: admission control and scheduling.
//!
//! [`ServeFrontend`] wraps a [`DgfEngine`] with the two mechanisms the
//! ingest path already proved out:
//!
//! * **Admission control** reuses the ingest byte-reservation pattern:
//!   each query reserves [`ServeOptions::query_cost_bytes`] against a
//!   shared in-flight budget with a single `fetch_add`; a reservation
//!   that would exceed [`ServeOptions::max_inflight_bytes`] is rolled
//!   back and the query is rejected with
//!   [`DgfError::Backpressure`], exactly like an over-budget append.
//! * **Scheduling** multiplexes many in-flight MDRQs over a bounded
//!   worker pool: a counting semaphore of [`ServeOptions::workers`]
//!   execution slots. Admitted queries queue for a slot (the wait is
//!   metered as `serve.queue_wait_us`), run to completion on the
//!   caller's thread, and release the slot.
//!
//! The frontend never touches answers: each query runs through the
//! ordinary planner against its own pinned view, so answers are
//! bit-identical to an unwrapped engine run — concurrency changes
//! throughput and latency, never bytes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dgf_common::obs::{names, MetricsRegistry};
use dgf_common::{counter_block, DgfError, Result};
use dgf_core::{DgfEngine, MaintenanceReport, Maintainer};
use dgf_hive::ServeOptions;
use dgf_kvstore::FanoutStats;
use dgf_query::{Engine, EngineRun, Query, QueryResult};

counter_block! {
    /// Frontend counters, under the `serve.*` registry names.
    pub struct ServeStats, snapshot ServeStatsSnapshot {
        /// Queries that cleared admission control.
        admitted: names::SERVE_ADMITTED,
        /// Queries bounced with [`DgfError::Backpressure`].
        rejected: names::SERVE_REJECTED,
        /// Admitted queries that completed successfully.
        completed: names::SERVE_COMPLETED,
        /// Admitted queries that returned an error.
        failed: names::SERVE_FAILED,
        /// Total microseconds admitted queries spent waiting for a worker
        /// slot.
        queue_wait_us: names::SERVE_QUEUE_WAIT_US,
        /// Maintenance passes that ran to completion through
        /// [`ServeFrontend::run_maintenance`].
        maintenance_runs: names::SERVE_MAINTENANCE_RUNS,
    }
}

/// Mirror a router's scatter counters into `reg` (`serve.scatters`,
/// `serve.shard_subops`).
pub fn record_fanout_into(fanout: &FanoutStats, reg: &MetricsRegistry) {
    fanout.record_into(reg);
}

/// One client's outcome for one query in [`ServeFrontend::run_concurrent`].
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// Index of the query in the submitted batch.
    pub query_index: usize,
    /// The answer, or `None` if the query ultimately failed.
    pub result: Option<QueryResult>,
    /// Wall latency from first submission attempt to final outcome,
    /// including backpressure retries and slot waits.
    pub latency: Duration,
}

/// A finished [`ServeFrontend::run_concurrent`] batch.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query outcomes, in submission (input) order.
    pub served: Vec<ServedQuery>,
    /// Wall time for the whole batch.
    pub wall: Duration,
}

impl ServeReport {
    /// Completed queries per wall-clock second.
    pub fn qps(&self) -> f64 {
        let ok = self.served.iter().filter(|s| s.result.is_some()).count();
        ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Latency at quantile `q` in `[0, 1]` over all served queries, in
    /// microseconds.
    pub fn latency_us_at(&self, q: f64) -> u64 {
        let mut lats: Vec<u64> = self
            .served
            .iter()
            .map(|s| s.latency.as_micros() as u64)
            .collect();
        if lats.is_empty() {
            return 0;
        }
        lats.sort_unstable();
        let idx = ((lats.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        lats[idx]
    }
}

/// A concurrent query frontend over one engine.
pub struct ServeFrontend {
    engine: DgfEngine,
    opts: ServeOptions,
    inflight_bytes: AtomicU64,
    free_slots: Mutex<usize>,
    slot_freed: Condvar,
    stats: ServeStats,
}

impl ServeFrontend {
    /// Wrap `engine` with admission control and a worker pool sized by
    /// `opts`.
    pub fn new(engine: DgfEngine, opts: ServeOptions) -> ServeFrontend {
        ServeFrontend {
            engine,
            free_slots: Mutex::new(opts.workers.max(1)),
            slot_freed: Condvar::new(),
            opts,
            inflight_bytes: AtomicU64::new(0),
            stats: ServeStats::default(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &DgfEngine {
        &self.engine
    }

    /// The frontend's options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Frontend counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The shared admission + scheduling protocol: reserve `cost` bytes
    /// against the in-flight budget (or bounce with
    /// [`DgfError::Backpressure`]), wait for one of the `workers`
    /// execution slots, run `work`, release both. Queries and
    /// maintenance passes go through this same gate, so a maintenance
    /// pass can never oversubscribe a tier that is already at its
    /// serving budget — it waits or bounces exactly like a query.
    fn run_admitted<T>(&self, cost: u64, work: impl FnOnce() -> T) -> Result<T> {
        // Admission: optimistic reservation, rolled back on overshoot —
        // the same protocol the ingest buffer uses for append bytes.
        let already = self.inflight_bytes.fetch_add(cost, Ordering::SeqCst);
        if already + cost > self.opts.max_inflight_bytes {
            self.inflight_bytes.fetch_sub(cost, Ordering::SeqCst);
            self.stats.rejected.inc();
            return Err(DgfError::Backpressure(format!(
                "serving budget full: {} in-flight + {} requested > {} max",
                already, cost, self.opts.max_inflight_bytes
            )));
        }
        self.stats.admitted.inc();

        // Scheduling: one of `workers` execution slots.
        let waited = Instant::now();
        {
            // A poisoned lock is recovered, here and below: the guarded
            // slot count (like the result vector of `run_concurrent`) is
            // valid after every single update made under it.
            let mut free = self.free_slots.lock().unwrap_or_else(PoisonError::into_inner);
            while *free == 0 {
                free = self.slot_freed.wait(free).unwrap_or_else(PoisonError::into_inner);
            }
            *free -= 1;
        }
        self.stats
            .queue_wait_us
            .add(waited.elapsed().as_micros() as u64);

        let outcome = work();

        {
            let mut free = self.free_slots.lock().unwrap_or_else(PoisonError::into_inner);
            *free += 1;
        }
        self.slot_freed.notify_one();
        self.inflight_bytes.fetch_sub(cost, Ordering::SeqCst);
        Ok(outcome)
    }

    /// Serve one query: admit (or bounce with backpressure), wait for a
    /// worker slot, execute, release. Answers are byte-identical to
    /// running the wrapped engine directly.
    pub fn run(&self, query: &Query) -> Result<EngineRun> {
        let outcome = self.run_admitted(self.opts.query_cost_bytes, || self.engine.run(query))?;
        match &outcome {
            Ok(_) => self.stats.completed.inc(),
            Err(_) => self.stats.failed.inc(),
        }
        outcome
    }

    /// Run one maintenance pass through the frontend's admission gate.
    ///
    /// The pass is charged like a query (one `query_cost_bytes`
    /// reservation, one worker slot), so on a saturated tier it bounces
    /// with backpressure instead of stealing capacity from readers; the
    /// caller's daemon loop simply retries later. Readers never block on
    /// it either way — the pass publishes through the staged-commit
    /// protocol, and in-flight queries keep answering from their pinned
    /// views. `maintainer` should wrap the same index this frontend
    /// serves; running someone else's maintenance here only burns budget.
    pub fn run_maintenance(&self, maintainer: &Maintainer) -> Result<MaintenanceReport> {
        let outcome = self.run_admitted(self.opts.query_cost_bytes, || maintainer.run_once())?;
        match &outcome {
            Ok(_) => {
                self.stats.maintenance_runs.inc();
                self.stats.completed.inc();
            }
            Err(_) => self.stats.failed.inc(),
        }
        outcome
    }

    /// Drive `queries` to completion from `clients` concurrent threads,
    /// retrying backpressure rejections until each query lands. Returns
    /// per-query latencies and answers plus the batch wall time — the
    /// raw material for QPS / p50 / p99 in the serving bench.
    pub fn run_concurrent(&self, queries: &[Query], clients: usize) -> Result<ServeReport> {
        let clients = clients.max(1);
        let next = AtomicUsize::new(0);
        let batch_start = Instant::now();
        let mut served: Vec<Option<ServedQuery>> = Vec::new();
        served.resize_with(queries.len(), || None);
        let slots = Mutex::new(&mut served);
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    let started = Instant::now();
                    let result = loop {
                        match self.run(&queries[i]) {
                            Ok(run) => break Some(run.result),
                            Err(DgfError::Backpressure(_)) => {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(_) => break None,
                        }
                    };
                    let outcome = ServedQuery {
                        query_index: i,
                        result,
                        latency: started.elapsed(),
                    };
                    slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(outcome);
                });
            }
        });
        let served: Option<Vec<ServedQuery>> = served.into_iter().collect();
        Ok(ServeReport {
            served: served
                .ok_or_else(|| DgfError::Index("a client left a query unserved".into()))?,
            wall: batch_start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_core::{DgfIndex, DimPolicy, SplittingPolicy};
    use dgf_format::FileFormat;
    use dgf_hive::HiveContext;
    use dgf_kvstore::MemKvStore;
    use dgf_mapreduce::MrEngine;
    use dgf_query::{AggFunc, ColumnRange, Predicate};
    use dgf_storage::SimHdfs;

    fn meter_frontend(opts: ServeOptions) -> (TempDir, ServeFrontend) {
        let tmp = TempDir::new("serve-front").unwrap();
        let hdfs = SimHdfs::open(tmp.path()).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let schema = Arc::new(Schema::from_pairs(&[
            ("city", ValueType::Int),
            ("meter_id", ValueType::Int),
            ("usage", ValueType::Float),
        ]));
        let table = ctx.create_table("meter", schema, FileFormat::Text).unwrap();
        let mut rows = Vec::new();
        for city in 0..4i64 {
            for meter in 0..12i64 {
                rows.push(vec![
                    Value::Int(city),
                    Value::Int(meter),
                    Value::Float((city * 100 + meter) as f64 / 4.0),
                ]);
            }
        }
        ctx.load_rows(&table, &rows, 2).unwrap();
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("city", 0, 2),
            DimPolicy::int("meter_id", 0, 4),
        ])
        .unwrap();
        let (index, _) = DgfIndex::build(
            ctx,
            table,
            policy,
            vec![AggFunc::Sum("usage".into()), AggFunc::Count],
            Arc::new(MemKvStore::new()),
            "dgf_serve_front",
        )
        .unwrap();
        let engine = DgfEngine::new(Arc::new(index));
        (tmp, ServeFrontend::new(engine, opts))
    }

    fn range_query(col: &str, lo: i64, hi: i64) -> Query {
        Query::Aggregate {
            aggs: vec![AggFunc::Sum("usage".into()), AggFunc::Count],
            predicate: Predicate::all().and(
                col,
                ColumnRange::half_open(Value::Int(lo), Value::Int(hi)),
            ),
        }
    }

    #[test]
    fn served_answers_match_the_bare_engine() {
        let (_tmp, front) = meter_frontend(ServeOptions::default());
        let query = range_query("city", 1, 3);
        let direct = front.engine().run(&query).unwrap();
        let io = front.engine().index().ctx.hdfs.stats();
        let before = io.snapshot();
        let served = front.run(&query).unwrap();
        assert_eq!(served.result, direct.result);
        let snap = front.stats().snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 0);
        assert!(io.snapshot().since(&before).records_read > 0);
    }

    #[test]
    fn over_budget_queries_bounce_with_backpressure() {
        let (_tmp, front) = meter_frontend(ServeOptions {
            max_inflight_bytes: 10,
            query_cost_bytes: 16,
            ..ServeOptions::default()
        });
        match front.run(&range_query("city", 0, 4)) {
            Err(DgfError::Backpressure(msg)) => assert!(msg.contains("serving budget")),
            other => panic!("expected backpressure, got {other:?}"),
        }
        let snap = front.stats().snapshot();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.admitted, 0);
    }

    #[test]
    fn concurrent_batch_answers_every_query() {
        let (_tmp, front) = meter_frontend(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        });
        let queries: Vec<Query> = (0..3).map(|c| range_query("city", c, c + 1)).collect();
        let oracle: Vec<QueryResult> = queries
            .iter()
            .map(|query| front.engine().run(query).unwrap().result)
            .collect();
        let report = front.run_concurrent(&queries, 4).unwrap();
        assert_eq!(report.served.len(), 3);
        for (served, expect) in report.served.iter().zip(&oracle) {
            assert_eq!(served.result.as_ref().unwrap(), expect);
        }
        assert!(report.qps() > 0.0);
        assert!(report.latency_us_at(0.99) >= report.latency_us_at(0.5));
        let snap = front.stats().snapshot();
        // The oracle ran on the bare engine, bypassing the frontend.
        assert_eq!(snap.completed, 3);
    }

    #[test]
    fn tight_budget_batch_retries_to_completion() {
        // Budget admits exactly one query at a time; three clients must
        // retry through backpressure and still all land.
        let (_tmp, front) = meter_frontend(ServeOptions {
            workers: 1,
            max_inflight_bytes: 1 << 20,
            query_cost_bytes: 1 << 20,
        });
        let queries: Vec<Query> = (0..6).map(|m| range_query("meter_id", m, m + 1)).collect();
        let report = front.run_concurrent(&queries, 3).unwrap();
        assert!(report.served.iter().all(|s| s.result.is_some()));
        let snap = front.stats().snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn maintenance_runs_behind_the_admission_gate() {
        use dgf_core::MaintenanceConfig;
        let (_tmp, front) = meter_frontend(ServeOptions::default());
        let maintainer = Maintainer::new(
            Arc::clone(front.engine().index()),
            MaintenanceConfig::default(),
        );
        let query = range_query("city", 0, 4);
        let before = front.run(&query).unwrap();
        let report = front.run_maintenance(&maintainer).unwrap();
        assert_eq!(report.reclaimed_files, 0, "nothing deferred yet");
        let after = front.run(&query).unwrap();
        assert_eq!(after.result, before.result);
        let snap = front.stats().snapshot();
        assert_eq!(snap.maintenance_runs, 1);
        assert_eq!(snap.completed, 3, "maintenance counts as completed work");
        assert_eq!(snap.failed, 0);
        // The pass reaches the registry (the counter used to stop here).
        let reg = MetricsRegistry::new();
        front.stats().record_into(&reg);
        assert_eq!(reg.get(names::SERVE_MAINTENANCE_RUNS), 1);
    }

    #[test]
    fn maintenance_bounces_when_the_budget_is_full() {
        use dgf_core::MaintenanceConfig;
        let (_tmp, front) = meter_frontend(ServeOptions {
            max_inflight_bytes: 10,
            query_cost_bytes: 16,
            ..ServeOptions::default()
        });
        let maintainer = Maintainer::new(
            Arc::clone(front.engine().index()),
            MaintenanceConfig::default(),
        );
        match front.run_maintenance(&maintainer) {
            Err(DgfError::Backpressure(_)) => {}
            other => panic!("expected backpressure, got {other:?}"),
        }
        let snap = front.stats().snapshot();
        assert_eq!(snap.maintenance_runs, 0);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn stats_project_into_metrics_registry() {
        let (_tmp, front) = meter_frontend(ServeOptions::default());
        front.run(&range_query("city", 0, 2)).unwrap();
        let reg = MetricsRegistry::new();
        front.stats().record_into(&reg);
        assert_eq!(reg.get(names::SERVE_ADMITTED), 1);
        assert_eq!(reg.get(names::SERVE_COMPLETED), 1);
    }
}

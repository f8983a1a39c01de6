//! Serving-tier throughput experiment (DESIGN.md §13).
//!
//! The claim: range-partitioning the GFU keyspace across N
//! latency-realistic shards and scattering each query's prefix-scan
//! runs across them (`IndexOptions::fetch_parallelism`) lifts QPS on a
//! mixed ingest+query meter workload by ≥2× at 4 shards — with answers
//! bit-identical to the single-node engine. The serving engine is pinned
//! to [`PlanStrategy::PrefixScan`]: the default plan reads `p:` nodes,
//! which all live on the metadata shard and so never scatter, and the
//! run scatter (the path every header-less plan takes) is what this lab
//! measures. This module stands up the
//! lab: build the index once on a plain in-memory store, mirror it into
//! a [`ShardedKv`] of [`LatencyKv`]-wrapped shards per shard count, and
//! drive a [`ServeFrontend`] with concurrent clients while a background
//! writer lands appends through the same router. It also assembles the
//! `BENCH_serving.json` document.

use std::sync::Arc;
use std::time::Duration;

use dgf_common::obs::JsonObject;
use dgf_common::{Result, Row, TempDir, Value};
use dgf_core::{
    DgfEngine, DgfIndex, DimPolicy, Extents, IndexOptions, PlanStrategy, SplittingPolicy,
};
use dgf_format::FileFormat;
use dgf_hive::{HiveContext, ServeOptions, TableRef};
use dgf_kvstore::{KvStore, LatencyKv, LatencyModel, MemKvStore, ShardedKv};
use dgf_mapreduce::MrEngine;
use dgf_query::{AggFunc, ColumnRange, Engine, Predicate, Query, QueryResult};
use dgf_serve::{mirror_kv, shard_boundaries, ServeFrontend};
use dgf_storage::{HdfsConfig, SimHdfs};
use dgf_workload::{generate_meter_data, meter_schema, MeterConfig};

const INDEX: &str = "dgf_serving";

/// Shape of the serving experiment.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Distinct meter users (the wide dimension).
    pub users: u64,
    /// Loaded collection days.
    pub days: u64,
    /// Extra days generated for the background appender.
    pub append_days: u64,
    /// Users per grid cell on the `user_id` dimension.
    pub user_span: i64,
    /// User cells each query's band covers (each becomes one
    /// prefix-scan run, i.e. one unit of scatter).
    pub band_cells: u64,
    /// Queries per pass.
    pub queries: usize,
    /// Concurrent client threads.
    pub clients: usize,
}

impl ServingConfig {
    /// The release-bench acceptance configuration.
    pub fn acceptance() -> ServingConfig {
        ServingConfig {
            users: 5_120,
            days: 8,
            append_days: 2,
            user_span: 4,
            band_cells: 16,
            queries: 80,
            clients: 4,
        }
    }

    /// A debug-test-sized configuration.
    pub fn tiny() -> ServingConfig {
        ServingConfig {
            users: 64,
            days: 4,
            append_days: 1,
            user_span: 4,
            band_cells: 4,
            queries: 8,
            clients: 4,
        }
    }
}

/// The built single-node index plus everything a serving pass mirrors.
pub struct ServingLab {
    _tmp: TempDir,
    cfg: ServingConfig,
    /// The warehouse the passes run in.
    pub ctx: Arc<HiveContext>,
    /// The base meter table.
    pub base: TableRef,
    /// The plain store holding the built index — the mirror source and
    /// the single-node oracle's store.
    pub single: Arc<dyn KvStore>,
    /// Grid extents of the built index (drives the shard boundaries).
    pub extents: Extents,
    /// Rows loaded into the base table.
    pub rows: u64,
    append_batch: Vec<Row>,
    start_day: i64,
}

/// One serving pass's outcome at a given shard count.
#[derive(Debug, Clone)]
pub struct ServePass {
    /// Shards behind the router (1 = single-node layout).
    pub shards: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Completed queries per second.
    pub qps: f64,
    /// Median query latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: u64,
    /// Queries completed / rejected-then-retried / failed.
    pub completed: u64,
    /// Backpressure rejections absorbed by client retries.
    pub rejected: u64,
    /// Queries that ultimately failed.
    pub failed: u64,
    /// Per-shard sub-operations issued by cross-shard fan-outs.
    pub shard_subops: u64,
    /// The answers, in query order (`None` for failed queries).
    pub answers: Vec<Option<QueryResult>>,
}

fn aggs() -> Vec<AggFunc> {
    vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count]
}

impl ServingLab {
    /// Generate the meter table, build the index on a plain store, and
    /// hold back `append_days` of rows for the background writer.
    pub fn build(cfg: ServingConfig) -> Result<ServingLab> {
        let tmp = TempDir::new("serving")?;
        let hdfs = SimHdfs::new(
            tmp.path(),
            HdfsConfig {
                block_size: 4 << 20,
                replication: 1,
            },
        )?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let base = ctx.create_table("meter_serve", meter_schema(), FileFormat::Text)?;
        let mcfg = MeterConfig {
            users: cfg.users,
            days: cfg.days + cfg.append_days,
            ..MeterConfig::default()
        };
        let all = generate_meter_data(&mcfg);
        let per_day = all.len() / mcfg.days as usize;
        let (loaded, held_back) = all.split_at(cfg.days as usize * per_day);
        ctx.load_rows(&base, loaded, 2)?;
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, cfg.user_span),
            DimPolicy::date("ts", mcfg.start_day, 1),
        ])?;
        let single: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        let (index, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&base),
            policy,
            aggs(),
            Arc::clone(&single),
            INDEX,
        )?;
        let extents = index.extents()?;
        Ok(ServingLab {
            _tmp: tmp,
            cfg,
            ctx,
            base,
            single,
            extents,
            rows: loaded.len() as u64,
            append_batch: held_back.to_vec(),
            start_day: mcfg.start_day,
        })
    }

    /// The pass's query list: cell-aligned SUM+COUNT bands marching
    /// across the `user_id` dimension, each spanning
    /// [`ServingConfig::band_cells`] grid cells (= that many scatter
    /// units) and half the loaded days. Aligned bounds mean headers
    /// answer every query — planning cost is pure index traffic, which
    /// is what the serving tier scatters.
    pub fn queries(&self) -> Vec<Query> {
        let band = self.cfg.band_cells as i64 * self.cfg.user_span;
        let day_lo = self.start_day + (self.cfg.days as i64) / 4;
        let day_hi = day_lo + ((self.cfg.days as i64) / 2).max(1);
        (0..self.cfg.queries)
            .map(|i| {
                let lo = (i as i64 * band) % (self.cfg.users as i64 - band + 1);
                Query::Aggregate {
                    aggs: aggs(),
                    predicate: Predicate::all()
                        .and(
                            "user_id",
                            ColumnRange::half_open(Value::Int(lo), Value::Int(lo + band)),
                        )
                        .and(
                            "ts",
                            ColumnRange::half_open(Value::Date(day_lo), Value::Date(day_hi)),
                        ),
                }
            })
            .collect()
    }

    /// Single-node oracle answers over the plain store.
    pub fn oracle(&self) -> Result<Vec<QueryResult>> {
        let index = DgfIndex::open(
            Arc::clone(&self.ctx),
            Arc::clone(&self.base),
            Arc::clone(&self.single),
            INDEX,
            aggs(),
        )?;
        let engine = DgfEngine::new(Arc::new(index));
        self.queries()
            .iter()
            .map(|q| Ok(engine.run(q)?.result))
            .collect()
    }

    /// Run one serving pass: mirror the index into `shards`
    /// latency-realistic stores, open the engine over the router with
    /// `fetch_parallelism = shards`, and drive the query list from
    /// concurrent clients while (optionally) a background writer lands
    /// the held-back days through the same router.
    pub fn serve_pass(&self, shards: usize, with_ingest: bool) -> Result<ServePass> {
        // An earlier mixed pass appended through its own router; the
        // plain store mirrored below never indexed those deltas, and a
        // query would (rightly) call the mirror stale.
        for (path, _) in self.ctx.hdfs.list_files(&self.base.location) {
            if path.rsplit('/').next().is_some_and(|f| f.starts_with("delta-")) {
                self.ctx.hdfs.delete_file(&path)?;
            }
        }
        let stores: Vec<Arc<dyn KvStore>> = (0..shards)
            .map(|_| {
                Arc::new(LatencyKv::new(MemKvStore::new(), LatencyModel::hbase_like()))
                    as Arc<dyn KvStore>
            })
            .collect();
        let router = Arc::new(ShardedKv::new(
            stores,
            shard_boundaries(&self.extents, shards),
        )?);
        let kv: Arc<dyn KvStore> = Arc::clone(&router) as Arc<dyn KvStore>;
        mirror_kv(self.single.as_ref(), kv.as_ref())?;

        let reader = DgfIndex::open_with_options(
            Arc::clone(&self.ctx),
            Arc::clone(&self.base),
            Arc::clone(&kv),
            INDEX,
            aggs(),
            IndexOptions {
                // The 1-shard pass is the single-node baseline (the
                // stock sequential engine); sharded passes scatter one
                // in-flight fetch per shard.
                fetch_parallelism: shards,
                ..IndexOptions::default()
            },
        )?;
        let frontend = ServeFrontend::new(
            DgfEngine::new(Arc::new(reader)).with_strategy(PlanStrategy::PrefixScan),
            ServeOptions {
                workers: self.cfg.clients,
                ..ServeOptions::default()
            },
        );
        let queries = self.queries();

        let report = std::thread::scope(|scope| -> Result<_> {
            let writer = if with_ingest {
                let writer_index = DgfIndex::open_with_options(
                    Arc::clone(&self.ctx),
                    Arc::clone(&self.base),
                    Arc::clone(&kv),
                    INDEX,
                    aggs(),
                    IndexOptions::default(),
                )?;
                let batch = &self.append_batch;
                Some(scope.spawn(move || -> Result<()> {
                    // Two half-day commits: each bumps the index
                    // generation mid-batch, so concurrent queries keep
                    // re-reading headers instead of serving a warm
                    // cache — the mixed-workload shape of the bar.
                    for chunk in batch.chunks((batch.len() / 2).max(1)) {
                        writer_index.append(chunk)?;
                    }
                    Ok(())
                }))
            } else {
                None
            };
            let report = frontend.run_concurrent(&queries, self.cfg.clients);
            if let Some(w) = writer {
                w.join().expect("appender panicked")?;
            }
            Ok(report)
        })?;

        let snap = frontend.stats().snapshot();
        let shard_subops = router.fanout().shard_subops.get();
        Ok(ServePass {
            shards,
            wall: report.wall,
            qps: report.qps(),
            p50_us: report.latency_us_at(0.5),
            p99_us: report.latency_us_at(0.99),
            completed: snap.completed,
            rejected: snap.rejected,
            failed: snap.failed,
            shard_subops,
            answers: report.served.into_iter().map(|s| s.result).collect(),
        })
    }
}

fn pass_json(p: &ServePass) -> String {
    JsonObject::new()
        .value("shards", p.shards)
        .value("qps", format_args!("{:.2}", p.qps))
        .value("p50_us", p.p50_us)
        .value("p99_us", p.p99_us)
        .value("wall_us", p.wall.as_micros())
        .value("completed", p.completed)
        .value("rejected", p.rejected)
        .value("failed", p.failed)
        .value("shard_subops", p.shard_subops)
        .finish()
}

/// Assemble the `BENCH_serving.json` document: one entry per shard
/// count plus the 4-shard acceptance speedup over the 1-shard layout.
pub fn serving_json(config: &str, rows: u64, passes: &[ServePass]) -> String {
    let qps_at = |n: usize| passes.iter().find(|p| p.shards == n).map(|p| p.qps);
    let speedup = match (qps_at(1), qps_at(4)) {
        (Some(base), Some(four)) if base > 0.0 => four / base,
        _ => 0.0,
    };
    JsonObject::new()
        .string("experiment", "serving")
        .string("config", config)
        .value("rows", rows)
        .array("passes", passes.iter().map(pass_json))
        .value("speedup_4_shards", format_args!("{speedup:.2}"))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-scale correctness: every shard count answers bit-identically
    /// to the single-node oracle (ingest off, so the store is quiescent),
    /// and the fan-out counters show the scatter actually happened.
    #[test]
    fn quiescent_passes_match_the_oracle_at_every_shard_count() {
        let lab = ServingLab::build(ServingConfig::tiny()).unwrap();
        let oracle = lab.oracle().unwrap();
        for shards in [1usize, 2, 4] {
            let pass = lab.serve_pass(shards, false).unwrap();
            assert_eq!(pass.failed, 0, "{shards} shards");
            assert_eq!(pass.answers.len(), oracle.len());
            for (got, want) in pass.answers.iter().zip(&oracle) {
                assert!(
                    got.as_ref().unwrap().approx_eq(want, 0.0),
                    "{shards} shards diverged from the single-node oracle"
                );
            }
        }
    }

    /// Mixed ingest+query still completes every query, and the JSON
    /// document carries the schema EXPERIMENTS.md documents.
    #[test]
    fn mixed_ingest_pass_completes_and_reports() {
        let lab = ServingLab::build(ServingConfig::tiny()).unwrap();
        let p1 = lab.serve_pass(1, true).unwrap();
        let p4 = lab.serve_pass(4, true).unwrap();
        assert_eq!(p1.failed, 0);
        assert_eq!(p4.failed, 0);
        assert_eq!(p1.completed as usize, lab.queries().len());
        let json = serving_json("tiny", lab.rows, &[p1, p4]);
        for needle in [
            "\"experiment\":\"serving\"",
            "\"passes\":[",
            "\"shards\":1",
            "\"shards\":4",
            "\"p99_us\":",
            "\"speedup_4_shards\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}

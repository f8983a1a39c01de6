//! `dgf` — a command-line warehouse driven by DGFIndex.
//!
//! A persistent single-directory warehouse: tables live as files under
//! the directory (the simulated HDFS root), the catalog at
//! `/warehouse/_catalog`, and each index's GFU store as a crash-safe log
//! under `.dgf-kv/`. Every invocation reopens the warehouse cold — the
//! tool demonstrates that the whole system state (tables, indexes,
//! extents, pre-computed headers) survives restarts.
//!
//! ```text
//! dgf init <dir>
//! dgf tables <dir>
//! dgf create-table <dir> <name> --schema "user_id:int,ts:date,power:float" [--format text|rcfile]
//! dgf load <dir> <table> <file>            # '|'-delimited rows
//! dgf gen-meter <dir> <table> --users N --days N [--seed N]
//! dgf index <dir> <name> --table <t> --dims "user_id:0:100,ts:2012-12-01:1" \
//!           [--precompute "sum(power_consumed), count(*)"]
//! dgf append <dir> <index> <file>          # index + base table extend
//! dgf ingest <dir> <index> <file> [--batch N] [--flush]
//! dgf query <dir> <table> "SELECT sum(power_consumed) WHERE ..." [--index <name>] [--explain]
//! dgf profile <dir> <table> "SELECT ..." [--index <name>] [--json]
//! dgf serve <dir> <index> "SELECT ..." [--shards N] [--clients C] [--queries Q]
//! dgf maintain <dir> <index> [--budget N] [--adapt] [--history "pred; pred; ..."]
//! dgf advise <dir> <table> --dims "user_id,ts" --history "u>1 AND ...; ts='2012-12-05'"
//! ```
//!
//! `profile` runs a query with span collection forced on and renders the
//! per-stage tree (wall time, KV ops, bytes, cache hits, retries) plus a
//! metrics-registry dump; `query` honours the `DGF_TRACE` env filter
//! instead (e.g. `DGF_TRACE=plan,kv`).
//!
//! `ingest` streams rows through the WAL-backed memtable path instead of
//! committing Slices per batch: rows are acknowledged once
//! logged (WAL at `.dgf-kv/<index>.wal`) and become query-visible
//! immediately. Without `--flush` the rows stay in the WAL across
//! invocations — `query --index` and `profile --index` replay it on open,
//! so freshness survives restarts; `--flush` converts everything into
//! real Slices before exiting.
//!
//! `serve` stands up the scatter-gather serving tier (DESIGN.md §13)
//! over an existing index: the durable GFU log is mirrored into an
//! N-shard range-partitioned router, the query is fanned out from C
//! concurrent clients through admission control, and the answer plus a
//! QPS / p50 / p99 / scatter summary is printed.
//!
//! `maintain --adapt` asks the same advisor as `advise` whether the grid
//! still fits the queries in `--history`; a fresh process has recorded
//! none of its own, and without any the grid stays as it is.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

use dgfindex::common::{parse_date, parse_row, DgfError, Result, Row, Schema, ValueType};
use dgfindex::core::advisor::{history_from_predicates, recommend_policy, AdvisorConfig};
use dgfindex::hive::IndexEntry;
use dgfindex::prelude::*;
use dgfindex::query::{parse_aggs, parse_predicate, parse_query, AggPartials};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        exit(2);
    }
    if matches!(args[0].as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return;
    }
    if let Err(e) = dispatch(&args) {
        eprintln!("error: {e}");
        exit(1);
    }
}

const USAGE: &str = "usage:
  dgf init <dir>
  dgf tables <dir>
  dgf create-table <dir> <name> --schema \"a:int,b:float\" [--format text|rcfile]
  dgf load <dir> <table> <file>
  dgf gen-meter <dir> <table> --users N --days N [--seed N]
  dgf index <dir> <name> --table <t> --dims \"col:min:interval,...\" [--precompute \"sum(x)\"]
  dgf append <dir> <index> <file>
  dgf ingest <dir> <index> <file> [--batch N] [--flush]
  dgf query <dir> <table> \"SELECT ... [WHERE ...] [GROUP BY col]\" [--index <name>] [--explain]
  dgf profile <dir> <table> \"SELECT ... [WHERE ...]\" [--index <name>] [--json]
  dgf serve <dir> <index> \"SELECT ...\" [--shards N] [--clients C] [--queries Q]
  dgf maintain <dir> <index> [--budget N] [--adapt] [--history \"pred; pred; ...\"]
  dgf advise <dir> <table> --dims \"a,b\" --history \"pred; pred; ...\"";

/// A reopened warehouse: cluster + catalog.
struct Warehouse {
    dir: PathBuf,
    ctx: Arc<HiveContext>,
    indexes: Vec<IndexEntry>,
}

impl Warehouse {
    fn open(dir: &str) -> Result<Warehouse> {
        let dir = PathBuf::from(dir);
        if !dir.is_dir() {
            return Err(DgfError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{} is not a warehouse (run `dgf init`)", dir.display()),
            )));
        }
        let hdfs = SimHdfs::reopen(&dir, HdfsConfig::default())?;
        let (ctx, indexes) = HiveContext::load_catalog(hdfs, MrEngine::default())?;
        Ok(Warehouse { dir, ctx, indexes })
    }

    fn save(&self) -> Result<()> {
        self.ctx.save_catalog(&self.indexes)
    }

    fn kv_path(&self, index_name: &str) -> PathBuf {
        self.dir.join(".dgf-kv").join(format!("{index_name}.log"))
    }

    fn wal_path(&self, index_name: &str) -> PathBuf {
        self.dir.join(".dgf-kv").join(format!("{index_name}.wal"))
    }

    /// If the index has a streaming WAL on disk, replay it into a fresh
    /// source so queries see acknowledged-but-unflushed rows. The
    /// returned ingestor must stay alive for the duration of the query.
    fn attach_fresh(
        &self,
        index: &Arc<DgfIndex>,
        index_name: &str,
    ) -> Result<Option<StreamIngestor>> {
        let wal = self.wal_path(index_name);
        if !wal.is_file() {
            return Ok(None);
        }
        let ingestor = StreamIngestor::open(
            Arc::clone(index),
            wal,
            IngestConfig {
                // Read-only attach: never flush as a side effect of a query.
                flush_rows: u64::MAX,
                auto_flush_interval: None,
                ..IngestConfig::default()
            },
        )?;
        let s = ingestor.stats();
        if s.replayed_rows > 0 {
            eprintln!(
                "-- replayed {} unflushed rows ({} batches) from ingest WAL",
                s.replayed_rows, s.replayed_batches
            );
        }
        Ok(Some(ingestor))
    }

    fn open_index(&self, name: &str) -> Result<DgfIndex> {
        self.open_index_with_options(name, IndexOptions::default())
    }

    fn open_index_with_options(&self, name: &str, options: IndexOptions) -> Result<DgfIndex> {
        let kv: Arc<dyn KvStore> = Arc::new(LogKvStore::open(self.kv_path(name))?);
        self.open_index_on(name, kv, options)
    }

    /// Open the named index over an explicit store (the serving tier
    /// opens over a shard router instead of the durable log).
    fn open_index_on(
        &self,
        name: &str,
        kv: Arc<dyn KvStore>,
        options: IndexOptions,
    ) -> Result<DgfIndex> {
        let entry = self
            .indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| DgfError::Index(format!("no such index {name:?}")))?;
        let base = self.ctx.table(&entry.base_table)?;
        let aggs = if entry.aggs_text.is_empty() {
            Vec::new()
        } else {
            parse_aggs(&entry.aggs_text, &base.schema)?
        };
        DgfIndex::open_with_options(Arc::clone(&self.ctx), base, kv, name, aggs, options)
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn dispatch(args: &[String]) -> Result<()> {
    let bad_usage = || DgfError::Query(USAGE.to_owned());
    match args[0].as_str() {
        "init" => {
            let dir = args.get(1).ok_or_else(bad_usage)?;
            std::fs::create_dir_all(dir)?;
            let hdfs = SimHdfs::open(dir)?;
            let ctx = HiveContext::new(hdfs, MrEngine::default());
            ctx.save_catalog(&[])?;
            println!("initialized warehouse at {dir}");
            Ok(())
        }
        "tables" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let mut tables = w.ctx.tables_snapshot();
            tables.sort_by(|a, b| a.name.cmp(&b.name));
            for t in tables {
                let size = w.ctx.table_size_bytes(&t);
                println!(
                    "table {:<24} {:<7} {:>12} bytes  {}",
                    t.name, t.format, size, t.schema
                );
            }
            for i in &w.indexes {
                println!(
                    "index {:<24} on {:<12} precompute: {}",
                    i.name,
                    i.base_table,
                    if i.aggs_text.is_empty() { "-" } else { &i.aggs_text }
                );
            }
            Ok(())
        }
        "create-table" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let name = args.get(2).ok_or_else(bad_usage)?;
            let schema = Schema::parse(flag(args, "--schema").ok_or_else(bad_usage)?)?;
            let format = match flag(args, "--format").unwrap_or("text") {
                "text" => FileFormat::Text,
                "rcfile" | "rc" => FileFormat::RcFile,
                other => return Err(DgfError::Query(format!("unknown format {other:?}"))),
            };
            w.ctx.create_table(name, Arc::new(schema), format)?;
            w.save()?;
            println!("created table {name}");
            Ok(())
        }
        "load" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let table = w.ctx.table(args.get(2).ok_or_else(bad_usage)?)?;
            let rows = read_rows_file(args.get(3).ok_or_else(bad_usage)?, &table.schema)?;
            let n = rows.len();
            let file_name = format!("load-{:05}", w.ctx.table_splits(&table).len());
            w.ctx.append_file(&table, &file_name, &rows)?;
            w.save()?;
            println!("loaded {n} rows into {}", table.name);
            if w.indexes.iter().any(|i| i.base_table == table.name) {
                println!(
                    "note: this table has a DGFIndex; use `dgf append` to keep it in sync"
                );
            }
            Ok(())
        }
        "gen-meter" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let name = args.get(2).ok_or_else(bad_usage)?;
            let users: u64 = flag(args, "--users").unwrap_or("1000").parse().unwrap_or(1000);
            let days: u64 = flag(args, "--days").unwrap_or("30").parse().unwrap_or(30);
            let seed: u64 = flag(args, "--seed").unwrap_or("42").parse().unwrap_or(42);
            let cfg = dgfindex::workload::MeterConfig {
                users,
                days,
                seed,
                ..dgfindex::workload::MeterConfig::default()
            };
            let rows = dgfindex::workload::generate_meter_data(&cfg);
            let table = w.ctx.create_table(
                name,
                dgfindex::workload::meter_schema(),
                FileFormat::Text,
            )?;
            w.ctx.load_rows(&table, &rows, 4)?;
            w.save()?;
            println!(
                "generated {} meter rows into {name} ({} users x {} days)",
                rows.len(),
                users,
                days
            );
            Ok(())
        }
        "index" => {
            let mut w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let name = args.get(2).ok_or_else(bad_usage)?.clone();
            let table = w.ctx.table(flag(args, "--table").ok_or_else(bad_usage)?)?;
            let policy = parse_dims_spec(
                flag(args, "--dims").ok_or_else(bad_usage)?,
                &table.schema,
            )?;
            let aggs_text = flag(args, "--precompute").unwrap_or("").to_owned();
            let aggs = if aggs_text.is_empty() {
                Vec::new()
            } else {
                parse_aggs(&aggs_text, &table.schema)?
            };
            std::fs::create_dir_all(w.dir.join(".dgf-kv"))?;
            let kv: Arc<dyn KvStore> = Arc::new(LogKvStore::open(w.kv_path(&name))?);
            let (_index, report) = DgfIndex::build(
                Arc::clone(&w.ctx),
                table.clone(),
                policy,
                aggs,
                kv,
                &name,
            )?;
            w.indexes.push(IndexEntry {
                name: name.clone(),
                base_table: table.name.clone(),
                aggs_text,
            });
            w.save()?;
            println!(
                "built index {name}: {} GFUs, {} bytes, in {:.2?}",
                report.index_entries, report.index_size_bytes, report.build_time
            );
            Ok(())
        }
        "append" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let index = w.open_index(args.get(2).ok_or_else(bad_usage)?)?;
            let rows = read_rows_file(args.get(3).ok_or_else(bad_usage)?, &index.base.schema)?;
            let n = rows.len();
            let report = index.append(&rows)?;
            w.save()?;
            println!(
                "appended {n} rows; index now holds {} GFUs ({:.2?})",
                report.index_entries, report.build_time
            );
            Ok(())
        }
        "ingest" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let index_name = args.get(2).ok_or_else(bad_usage)?;
            let index = Arc::new(w.open_index(index_name)?);
            let rows = read_rows_file(args.get(3).ok_or_else(bad_usage)?, &index.base.schema)?;
            let batch: usize = flag(args, "--batch")
                .unwrap_or("500")
                .parse()
                .map_err(|e| DgfError::Query(format!("bad --batch: {e}")))?;
            if batch == 0 {
                return Err(DgfError::Query("--batch must be positive".into()));
            }
            std::fs::create_dir_all(w.dir.join(".dgf-kv"))?;
            let ingestor = StreamIngestor::open(
                Arc::clone(&index),
                w.wal_path(index_name),
                IngestConfig {
                    auto_flush_interval: None,
                    ..IngestConfig::default()
                },
            )?;
            for chunk in rows.chunks(batch) {
                ingestor.ingest(chunk)?;
            }
            let flushed = args.iter().any(|a| a == "--flush");
            if flushed {
                ingestor.flush()?;
                w.save()?;
            }
            let s = ingestor.stats();
            println!(
                "ingested {} rows in {} batches ({} WAL bytes, {} syncs, {} flushes)",
                s.rows, s.batches, s.wal_bytes, s.wal_syncs, s.flushes
            );
            if !flushed {
                println!(
                    "rows are query-visible now and held in the WAL; \
                     rerun with --flush (or keep streaming) to persist them as Slices"
                );
            }
            Ok(())
        }
        "query" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let table = w.ctx.table(args.get(2).ok_or_else(bad_usage)?)?;
            let sql = args.get(3).ok_or_else(bad_usage)?;
            let query = parse_query(sql, &table.schema)?;
            let explain = args.iter().any(|a| a == "--explain");
            let run = match flag(args, "--index") {
                Some(index_name) => {
                    let index = Arc::new(w.open_index(index_name)?);
                    let _fresh = w.attach_fresh(&index, index_name)?;
                    if explain {
                        let plan = index.plan(&query, true)?;
                        println!(
                            "plan: {} inner headers ({} pyramid nodes standing for {} cells; \
                             {} records skipped), {} boundary GFUs, {}/{} splits",
                            plan.inner_gfus,
                            plan.pyramid_nodes,
                            plan.pyramid_cells,
                            plan.inner_records,
                            plan.boundary_gfus,
                            plan.splits_read,
                            plan.splits_total
                        );
                        if let Query::GroupBy { .. } = query {
                            let groups = match &plan.inner_states {
                                Some(AggPartials::Groups(g)) => g.len(),
                                _ => 0,
                            };
                            println!("plan: {groups} groups answered from headers");
                        }
                    }
                    DgfEngine::new(index).run(&query)?
                }
                None => ScanEngine::new(Arc::clone(&w.ctx), table).run(&query)?,
            };
            print_result(&run);
            Ok(())
        }
        "profile" => {
            use dgfindex::common::obs::Profiler;
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let table = w.ctx.table(args.get(2).ok_or_else(bad_usage)?)?;
            let sql = args.get(3).ok_or_else(bad_usage)?;
            let query = parse_query(sql, &table.schema)?;
            let as_json = args.iter().any(|a| a == "--json");
            let profiler = Profiler::enabled();
            let (run, registry) = match flag(args, "--index") {
                Some(index_name) => {
                    let index = Arc::new(w.open_index_with_options(
                        index_name,
                        IndexOptions {
                            profiler: profiler.clone(),
                            ..IndexOptions::default()
                        },
                    )?);
                    let _fresh = w.attach_fresh(&index, index_name)?;
                    let run = DgfEngine::new(Arc::clone(&index)).run(&query)?;
                    (run, index.metrics())
                }
                None => {
                    let run = ScanEngine::new(Arc::clone(&w.ctx), table)
                        .with_profiler(profiler.clone())
                        .run(&query)?;
                    let reg = scan_run_metrics(&run.stats);
                    (run, reg)
                }
            };
            if as_json {
                println!("{}", run.stats.profile.to_json());
                return Ok(());
            }
            print_result(&run);
            let scan = &run.stats.scan;
            if scan.batches > 0 || scan.rowwise_rows > 0 {
                eprintln!(
                    "\n== columnar scan ==\n\
                     {} batches, {} rows decoded, {} rows selected; \
                     decode {:.3} ms, kernels {:.3} ms; {} row-wise rows",
                    scan.batches,
                    scan.rows_decoded,
                    scan.rows_selected,
                    scan.decode_us as f64 / 1000.0,
                    scan.kernel_us as f64 / 1000.0,
                    scan.rowwise_rows,
                );
            }
            // Stages recorded outside the query itself (index open,
            // crash recovery) accumulate in the root profiler.
            let open_profile = profiler.take_profile();
            if !open_profile.is_empty() {
                eprintln!("\n== open stages ==");
                eprint!("{}", open_profile.render());
            }
            eprintln!("\n== query stages ==");
            eprint!("{}", run.stats.profile.render());
            eprintln!("\n== metrics ==");
            eprint!("{}", registry.render());
            Ok(())
        }
        "serve" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let index_name = args.get(2).ok_or_else(bad_usage)?;
            let sql = args.get(3).ok_or_else(bad_usage)?;
            let parse_num = |name: &str, default: &str| -> Result<usize> {
                flag(args, name)
                    .unwrap_or(default)
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad {name}: {e}")))
            };
            let shards = parse_num("--shards", "4")?;
            let clients = parse_num("--clients", "4")?;
            let repeat = parse_num("--queries", "16")?;
            if shards == 0 || clients == 0 || repeat == 0 {
                return Err(DgfError::Query(
                    "--shards, --clients, and --queries must be positive".into(),
                ));
            }

            // Stand the serving tier up beside the durable log: mirror
            // the GFU store into an N-shard router split on the
            // odometer keyspace, then open a reader over the router: it
            // scatters each plan's one batch over the shards its keys
            // fall on.
            let durable: Arc<dyn KvStore> = Arc::new(LogKvStore::open(w.kv_path(index_name))?);
            let extents = w
                .open_index_on(index_name, Arc::clone(&durable), IndexOptions::default())?
                .extents()?;
            let router = Arc::new(sharded_mem(&extents, shards)?);
            let pairs = mirror_kv(durable.as_ref(), router.as_ref())?;
            drop(durable);
            let index = Arc::new(w.open_index_on(
                index_name,
                Arc::clone(&router) as Arc<dyn KvStore>,
                IndexOptions::default(),
            )?);
            let _fresh = w.attach_fresh(&index, index_name)?;

            let query = parse_query(sql, &index.base.schema)?;
            let front = ServeFrontend::new(
                DgfEngine::new(Arc::clone(&index)),
                ServeOptions {
                    workers: clients,
                    ..ServeOptions::default()
                },
            );
            let queries: Vec<Query> = vec![query; repeat];
            let report = front.run_concurrent(&queries, clients)?;

            if let Some(result) = report.served.iter().find_map(|s| s.result.as_ref()) {
                print_query_result(result);
            }
            let snap = front.stats().snapshot();
            let fanout = router.fanout().snapshot();
            eprintln!(
                "-- served {} queries over {shards} shards ({pairs} GFU pairs, {clients} clients): \
                 {:.1} qps | p50 {}us | p99 {}us",
                snap.completed,
                report.qps(),
                report.latency_us_at(0.5),
                report.latency_us_at(0.99),
            );
            eprintln!(
                "-- admitted {} | rejected {} | failed {} | cross-shard scatters {} | shard subops {}",
                snap.admitted,
                snap.rejected,
                snap.failed,
                fanout.cross_shard_multi_gets + fanout.cross_shard_scans,
                fanout.shard_subops,
            );
            Ok(())
        }
        "maintain" => {
            use dgfindex::core::{MaintenanceConfig, Maintainer};
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let index_name = args.get(2).ok_or_else(bad_usage)?;
            let index = Arc::new(w.open_index(index_name)?);
            let mut config = MaintenanceConfig::default();
            if let Some(budget) = flag(args, "--budget") {
                config.delta_file_budget = budget
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad --budget: {e}")))?;
            }
            let adapt = args.iter().any(|a| a == "--adapt");
            config.adapt = adapt;
            if let Some(text) = flag(args, "--history") {
                for q in parse_history(text, &index.base.schema)? {
                    index.history().record(q.predicate(), &index.policy());
                }
            }
            // If the index has a streaming WAL, drain it first so every
            // acknowledged row is a Slice the compactor can fold in.
            let wal = w.wal_path(index_name);
            if wal.is_file() {
                let ingestor = Arc::new(StreamIngestor::open(
                    Arc::clone(&index),
                    wal,
                    IngestConfig {
                        auto_flush_interval: None,
                        ..IngestConfig::default()
                    },
                )?);
                config.flush_hook = Some(Box::new(move || ingestor.flush()));
            }
            let maintainer = Maintainer::new(Arc::clone(&index), config);
            let report = maintainer.run_once()?;
            w.save()?;
            println!(
                "maintenance pass: reclaimed {} deferred file(s), flushed {} batch(es), \
                 compacted {} file(s) across {} GFU(s), reclaimed {} KV log byte(s)",
                report.reclaimed_files,
                report.flushed_batches,
                report.compacted_files,
                report.compacted_gfus,
                report.kv_reclaimed_bytes,
            );
            match report.adapted {
                Some(desc) => println!("grid adapted: {desc}"),
                None if adapt && index.history().snapshot().is_empty() => {
                    println!("grid unchanged (no query history)")
                }
                None => println!("grid unchanged"),
            }
            // `txn.*` covers every writer the pass ran: recovery at open,
            // the flush, the compaction, the regrid.
            eprintln!("\n== metrics ==");
            eprint!("{}", index.metrics().render());
            Ok(())
        }
        "advise" => {
            let w = Warehouse::open(args.get(1).ok_or_else(bad_usage)?)?;
            let table = w.ctx.table(args.get(2).ok_or_else(bad_usage)?)?;
            let dims: Vec<String> = flag(args, "--dims")
                .ok_or_else(bad_usage)?
                .split(',')
                .map(|s| s.trim().to_owned())
                .collect();
            let history =
                parse_history(flag(args, "--history").ok_or_else(bad_usage)?, &table.schema)?;
            let sample = w.ctx.read_all(&table)?;
            let rows_total = sample.len() as u64;
            let rec = recommend_policy(
                &sample,
                &table.schema,
                &dims,
                &history,
                rows_total,
                &AdvisorConfig::default(),
            )?;
            println!(
                "recommended policy (expected cost {:.1}, ~{:.0} cells):",
                rec.expected_cost, rec.expected_cells
            );
            for (d, c) in rec.policy.dims().iter().zip(&rec.counts) {
                println!("  {}: {:?} (~{c} intervals)", d.name, d.scale);
            }
            Ok(())
        }
        other => Err(DgfError::Query(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

fn read_rows_file(path: &str, schema: &Schema) -> Result<Vec<Row>> {
    let f = std::fs::File::open(Path::new(path))?;
    let mut rows = Vec::new();
    for (i, line) in std::io::BufReader::new(f).lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        rows.push(parse_row(&line, schema).map_err(|e| {
            DgfError::Schema(format!("{path}:{}: {e}", i + 1))
        })?);
    }
    Ok(rows)
}

/// Parse a `"pred; pred; ..."` query history.
fn parse_history(text: &str, schema: &Schema) -> Result<Vec<Query>> {
    let preds: Result<Vec<_>> =
        text.split(';').map(|p| parse_predicate(p.trim(), schema)).collect();
    Ok(history_from_predicates(&preds?))
}

/// Parse `"col:min:interval,..."`; min is a date literal for date columns.
fn parse_dims_spec(text: &str, schema: &Schema) -> Result<SplittingPolicy> {
    let mut dims = Vec::new();
    for part in text.split(',') {
        let fields: Vec<&str> = part.trim().split(':').collect();
        if fields.len() != 3 {
            return Err(DgfError::Query(format!(
                "expected col:min:interval, found {part:?}"
            )));
        }
        let (name, min_s, int_s) = (fields[0], fields[1], fields[2]);
        let dim = match schema.type_of(name)? {
            ValueType::Int => DimPolicy::int(
                name,
                min_s
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad min {min_s:?}: {e}")))?,
                int_s
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad interval {int_s:?}: {e}")))?,
            ),
            ValueType::Date => DimPolicy::date(
                name,
                parse_date(min_s)?,
                int_s
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad interval {int_s:?}: {e}")))?,
            ),
            ValueType::Float => DimPolicy::float(
                name,
                min_s
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad min {min_s:?}: {e}")))?,
                int_s
                    .parse()
                    .map_err(|e| DgfError::Query(format!("bad interval {int_s:?}: {e}")))?,
            ),
            ValueType::Str => {
                return Err(DgfError::Query(format!(
                    "{name:?} is a string column; grid dimensions must be numeric or date"
                )))
            }
        };
        dims.push(dim);
    }
    SplittingPolicy::new(dims)
}

fn print_result(run: &EngineRun) {
    print_query_result(&run.result);
    eprintln!("-- {}", run.stats);
}

fn print_query_result(result: &QueryResult) {
    match result {
        QueryResult::Scalars(vals) => {
            println!(
                "{}",
                vals.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" | ")
            );
        }
        QueryResult::Groups(groups) => {
            for (k, vals) in groups {
                println!(
                    "{k} | {}",
                    vals.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(" | ")
                );
            }
        }
        QueryResult::Rows(rows) => {
            for r in rows {
                println!("{}", dgfindex::common::format_row(r));
            }
        }
    }
}

/// The registry `dgf profile` prints for a plain table scan: the run's
/// own report, which already carries the bytes and records the storage
/// layer read (the other `hdfs.*` counters are on the `query.scan` span).
fn scan_run_metrics(stats: &RunStats) -> dgfindex::common::MetricsRegistry {
    let reg = dgfindex::common::MetricsRegistry::new();
    stats.record_into(&reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `dgf profile` without `--index` used to print twice the bytes and
    /// records the scan read.
    #[test]
    fn scan_profile_counts_each_read_byte_once() {
        let stats = RunStats {
            data_bytes_read: 4096,
            data_records_read: 64,
            ..RunStats::default()
        };
        let snap = scan_run_metrics(&stats).snapshot();
        assert_eq!(snap["hdfs.bytes_read"], 4096);
        assert_eq!(snap["hdfs.records_read"], 64);
    }
}

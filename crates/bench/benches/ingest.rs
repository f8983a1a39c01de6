//! Streaming-ingestion bench: WAL-acknowledged write throughput, the
//! latency from acknowledgement to query visibility (the freshness the
//! subsystem exists for), and the flush that folds buffers into Slices.
//!
//! Emits `BENCH_ingest.json` ($DGF_BENCH_JSON or target/BENCH_ingest.json)
//! with throughput, visibility latency, flush timings, and the ingestor's
//! own counter snapshot.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dgf_common::obs::JsonObject;
use dgf_common::{Result, Row, TempDir};
use dgf_core::{DgfEngine, DgfIndex, DimPolicy, SplittingPolicy};
use dgf_format::FileFormat;
use dgf_hive::HiveContext;
use dgf_ingest::{IngestConfig, StreamIngestor};
use dgf_kvstore::{KvStore, MemKvStore};
use dgf_mapreduce::MrEngine;
use dgf_query::{AggFunc, Engine, Predicate, Query};
use dgf_storage::SimHdfs;
use dgf_workload::{generate_meter_data, meter_schema, stream_meter_data, MeterConfig};

/// A seeded warehouse plus a live ingestor over a fresh WAL.
struct IngestLab {
    _tmp: TempDir,
    index: Arc<DgfIndex>,
    ingestor: StreamIngestor,
    engine: DgfEngine,
    stream: Vec<Vec<Row>>,
}

fn meter_cfg(users: u64, days: u64) -> MeterConfig {
    MeterConfig {
        users,
        days,
        // Quarter-hourly readings (paper: up to 96/day) make the stream
        // big enough for throughput numbers to mean something.
        readings_per_day: 24,
        ..MeterConfig::default()
    }
}

impl IngestLab {
    /// Seed the index with one day of `users` meters, leave `days - 1`
    /// days of rows as the stream, batched collection-time order.
    fn build(users: u64, days: u64, batch_rows: usize) -> Result<IngestLab> {
        let cfg = meter_cfg(users, days);
        let tmp = TempDir::new("bench-ingest")?;
        let hdfs = SimHdfs::open(tmp.path())?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let base = ctx.create_table("meter", meter_schema(), FileFormat::Text)?;
        let seeded = generate_meter_data(&meter_cfg(users, 1));
        ctx.load_rows(&base, &seeded, 2)?;
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, (users as i64 / 16).max(1)),
            DimPolicy::date("ts", cfg.start_day, 1),
        ])?;
        let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        let (index, _) = DgfIndex::build(
            Arc::clone(&ctx),
            base,
            policy,
            vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count],
            kv,
            "dgf_bench",
        )?;
        let index = Arc::new(index);
        let ingestor = StreamIngestor::open(
            Arc::clone(&index),
            tmp.path().join("ingest.wal"),
            IngestConfig {
                flush_rows: u64::MAX,
                auto_flush_interval: None,
                ..IngestConfig::default()
            },
        )?;
        let stream: Vec<Vec<Row>> = stream_meter_data(&cfg, batch_rows)
            .map(|b| {
                b.into_iter()
                    .filter(|r| r[2].as_i64().unwrap() > cfg.start_day)
                    .collect::<Vec<Row>>()
            })
            .filter(|b: &Vec<Row>| !b.is_empty())
            .collect();
        let engine = DgfEngine::new(Arc::clone(&index));
        Ok(IngestLab {
            _tmp: tmp,
            index,
            ingestor,
            engine,
            stream,
        })
    }

    /// Swap the hold-everything ingestor for one that inline-flushes
    /// every 20k rows, so unbounded criterion iteration stays bounded.
    fn rebind_for_steady_state(&mut self) -> Result<()> {
        self.ingestor.flush()?;
        let replacement = StreamIngestor::open(
            Arc::clone(&self.index),
            self._tmp.path().join("ingest-steady.wal"),
            IngestConfig {
                flush_rows: 20_000,
                max_buffered_bytes: u64::MAX,
                auto_flush_interval: None,
                ..IngestConfig::default()
            },
        )?;
        self.ingestor = replacement;
        Ok(())
    }

    fn count_query(&self) -> Query {
        Query::Aggregate {
            aggs: vec![AggFunc::Count, AggFunc::Sum("power_consumed".into())],
            predicate: Predicate::all(),
        }
    }
}

struct IngestReport {
    rows: u64,
    batches: u64,
    ingest_wall: Duration,
    visibility: Vec<Duration>,
    flush_wall: Duration,
    flushed_rows: u64,
    generation_bumps: u64,
    wal_bytes: u64,
    wal_syncs: u64,
}

/// Stream every batch, sampling ack→query-visible latency every
/// `sample_every` batches, then flush once at the end.
fn ingest_experiment(users: u64, days: u64, batch_rows: usize) -> Result<IngestReport> {
    let lab = IngestLab::build(users, days, batch_rows)?;
    let query = lab.count_query();
    let gen_before = lab.index.generation();
    let sample_every = (lab.stream.len() / 16).max(1);

    let mut visibility = Vec::new();
    let started = Instant::now();
    for (i, batch) in lab.stream.iter().enumerate() {
        let t0 = Instant::now();
        lab.ingestor.ingest(batch)?;
        if i % sample_every == 0 {
            // Ack-to-visible: the query right after the ack already folds
            // the batch in; its wall time bounds the freshness latency.
            lab.engine.run(&query)?;
            visibility.push(t0.elapsed());
        }
    }
    let ingest_wall = started.elapsed();
    let generation_bumps = lab.index.generation() - gen_before;

    let flush_started = Instant::now();
    lab.ingestor.flush()?;
    let flush_wall = flush_started.elapsed();

    let s = lab.ingestor.stats();
    Ok(IngestReport {
        rows: s.rows,
        batches: s.batches,
        ingest_wall,
        visibility,
        flush_wall,
        flushed_rows: s.flushed_rows,
        generation_bumps,
        wal_bytes: s.wal_bytes,
        wal_syncs: s.wal_syncs,
    })
}

fn ingest_json(config: &str, r: &IngestReport) -> String {
    let max_vis = r.visibility.iter().max().cloned().unwrap_or_default();
    let sum_vis: Duration = r.visibility.iter().sum();
    let mean_vis = sum_vis.checked_div(r.visibility.len().max(1) as u32).unwrap_or_default();
    let rows_per_sec = r.rows as f64 / r.ingest_wall.as_secs_f64().max(1e-9);
    JsonObject::new()
        .string("experiment", "ingest")
        .string("config", config)
        .value("rows", r.rows)
        .value("batches", r.batches)
        .value("ingest_wall_us", r.ingest_wall.as_micros())
        .value("rows_per_sec", format_args!("{rows_per_sec:.0}"))
        .value("visibility_samples", r.visibility.len())
        .value("visibility_mean_us", mean_vis.as_micros())
        .value("visibility_max_us", max_vis.as_micros())
        .value("flush_wall_us", r.flush_wall.as_micros())
        .value("flushed_rows", r.flushed_rows)
        .value("generation_bumps_before_flush", r.generation_bumps)
        .value("wal_bytes", r.wal_bytes)
        .value("wal_syncs", r.wal_syncs)
        .finish()
}

fn bench(c: &mut Criterion) {
    for (label, users, days, batch) in [
        ("small batches 64x4/b25", 64u64, 4u64, 25usize),
        ("large batches 64x4/b400", 64, 4, 400),
    ] {
        let r = ingest_experiment(users, days, batch).unwrap();
        println!(
            "ingest [{label}]: {} rows in {} batches, {:.0} rows/s acked | \
             visibility mean {:?} max {:?} ({} samples) | \
             flush {} rows in {:?} | {} generation bumps before flush",
            r.rows,
            r.batches,
            r.rows as f64 / r.ingest_wall.as_secs_f64().max(1e-9),
            r.visibility.iter().sum::<Duration>() / r.visibility.len().max(1) as u32,
            r.visibility.iter().max().cloned().unwrap_or_default(),
            r.visibility.len(),
            r.flushed_rows,
            r.flush_wall,
            r.generation_bumps,
        );
        assert_eq!(
            r.generation_bumps, 0,
            "freshness merge must not bump the header-cache generation"
        );
    }

    // BENCH_ingest.json: the large-batch configuration's full report.
    let r = ingest_experiment(64, 4, 400).unwrap();
    let json = ingest_json("64 users x 4 days, batch 400", &r);
    let path = std::env::var("DGF_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_ingest.json").to_owned()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("ingest: wrote throughput/freshness JSON to {path}"),
        Err(e) => eprintln!("ingest: could not write {path}: {e}"),
    }

    // Steady-state criterion timings over a persistent lab: the acked
    // write itself, and the fresh-merge query while buffers are hot.
    // The inline flush (every `flush_rows`) keeps buffered memory bounded
    // however many iterations criterion runs; its cost amortizes into the
    // ack timing exactly as it would for a real writer.
    let mut lab = IngestLab::build(64, 30, 50).unwrap();
    lab.rebind_for_steady_state().unwrap();
    let lab = lab;
    let mut next = 0usize;
    let mut g = c.benchmark_group("ingest");
    g.bench_function("ack_one_batch_50_rows", |b| {
        b.iter(|| {
            let batch = &lab.stream[next % lab.stream.len()];
            next += 1;
            lab.ingestor.ingest(batch).unwrap()
        })
    });
    let query = lab.count_query();
    g.bench_function("fresh_merge_query", |b| {
        b.iter(|| lab.engine.run(&query).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

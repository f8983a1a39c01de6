//! Serving-tier bench: scatter-gather QPS across shard counts on the
//! mixed ingest+query meter workload (DESIGN.md §13). Asserts bit-identity
//! at every shard count and that no query fails, and writes
//! `BENCH_serving.json` (which reports the 4-shard speed-up; it is a
//! figure, not a bar — it moves 1.75–2.40× between runs of one commit).

use criterion::{criterion_group, criterion_main, Criterion};
use dgf_bench::serving::{serving_json, ServingConfig, ServingLab};

fn bench(c: &mut Criterion) {
    let cfg = ServingConfig::acceptance();
    let lab = ServingLab::build(cfg).unwrap();

    // Quiescent oracle check first: every shard count must answer the
    // whole query list bit-identically to the single-node engine.
    let oracle = lab.oracle().unwrap();
    for shards in [1usize, 2, 4] {
        let pass = lab.serve_pass(shards, false).unwrap();
        for (got, want) in pass.answers.iter().zip(&oracle) {
            assert!(
                got.as_ref().unwrap().approx_eq(want, 0.0),
                "{shards}-shard quiescent pass diverged from the single-node engine"
            );
        }
    }

    // The measured sweep: concurrent clients + background appends.
    // Best-of-3 per shard count: a single pass is at the mercy of OS
    // scheduling noise (the appender races the clients on few cores).
    let mut passes = Vec::new();
    for shards in [1usize, 2, 4] {
        let pass = (0..3)
            .map(|_| {
                let p = lab.serve_pass(shards, true).unwrap();
                assert_eq!(p.failed, 0, "{shards}-shard pass dropped queries");
                p
            })
            .max_by(|a, b| a.qps.total_cmp(&b.qps))
            .unwrap();
        println!(
            "serving [{} rows, {} queries, {} clients, {} shards]: \
             {:.1} qps | p50 {}us | p99 {}us | {} subops | wall {:.3?}",
            lab.rows,
            cfg.queries,
            cfg.clients,
            shards,
            pass.qps,
            pass.p50_us,
            pass.p99_us,
            pass.shard_subops,
            pass.wall,
        );
        passes.push(pass);
    }

    let json = serving_json(
        "meter 5120x8 +2 append days, 80 queries, 4 clients, hbase-like shards",
        lab.rows,
        &passes,
    );
    let path = std::env::var("DGF_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_serving.json").to_owned()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("serving: wrote shard sweep JSON to {path}"),
        Err(e) => eprintln!("serving: could not write {path}: {e}"),
    }

    // One criterion-timed sample for regression tracking: a quiescent
    // 4-shard pass (deterministic work, no appender races).
    c.bench_function("serving_scatter_gather_4_shards", |b| {
        b.iter(|| lab.serve_pass(4, false).unwrap())
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

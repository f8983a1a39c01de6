//! Columnar scan bench: vectorized batch kernels vs. the row-at-a-time
//! oracle on a ≥10⁵-row RCFile meter table (DESIGN.md §12). Asserts the
//! ≥3× full-scan aggregate acceptance bar and writes
//! `BENCH_columnar.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use dgf_bench::columnar::{columnar_json, ColumnarLab};
use dgf_hive::ScanOptions;
use dgf_workload::MeterConfig;

fn bench(c: &mut Criterion) {
    // 6000 users × 20 days = 120k rows of the 17-column meter schema,
    // 4096-row groups across 4 files — the acceptance configuration.
    let cfg = MeterConfig {
        users: 6_000,
        days: 20,
        ..MeterConfig::default()
    };
    let lab = ColumnarLab::build(&cfg, 4096, 4).unwrap();
    let reps = 5;

    let rowwise = lab
        .scan_pass(
            ScanOptions {
                columnar: false,
                ..ScanOptions::default()
            },
            reps,
        )
        .unwrap();
    let columnar = lab.scan_pass(ScanOptions::default(), reps).unwrap();

    assert_eq!(
        rowwise.result, columnar.result,
        "columnar pass diverged from the row-wise oracle"
    );

    let speedup = rowwise.time.as_secs_f64() / columnar.time.as_secs_f64();
    println!(
        "columnar [{} rows]: row-wise {:.3?} | columnar {:.3?} ({speedup:.1}x)",
        lab.rows, rowwise.time, columnar.time,
    );

    let kernels = lab.kernel_micro().unwrap();
    println!(
        "columnar kernels [{} rows, {} groups]: decode {:.3?} | select {:.3?} | \
         sum+avg fold {:.3?} | min/max fold {:.3?} | row-wise sum+avg {:.3?}",
        kernels.rows, kernels.batches, kernels.decode, kernels.select, kernels.sum,
        kernels.minmax, kernels.rowwise_sum,
    );

    // The acceptance bar: vectorized full-scan SUM/AVG ≥3× faster
    // than row-at-a-time on the same slices.
    assert!(
        speedup >= 3.0,
        "vectorized full-scan aggregate is only {speedup:.2}x the row-wise path (need >= 3x)"
    );

    let json = columnar_json(
        "meter 6000x20, groups 4096, 4 files",
        lab.rows,
        &rowwise,
        &columnar,
        &kernels,
    );
    let path = std::env::var("DGF_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_columnar.json").to_owned()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("columnar: wrote kernel timings JSON to {path}"),
        Err(e) => eprintln!("columnar: could not write {path}: {e}"),
    }

    // Keep one criterion-timed sample so the harness reports a stable
    // number for regression tracking.
    c.bench_function("columnar_full_scan_sum_avg", |b| {
        b.iter(|| lab.scan_pass(ScanOptions::default(), 1).unwrap())
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

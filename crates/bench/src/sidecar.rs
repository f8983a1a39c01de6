//! Sub-slice skipping micro-experiment (DESIGN.md §15).
//!
//! The sidecar PR's tentpole claim: for *selective* queries — boundary
//! Slices narrowed by a clustered non-grid-dimension range, or a
//! low-cardinality equality the grid cannot see — zone-map and bitmap
//! pruning lets the scan read ≤ 25% of the slice bytes the unpruned
//! plan reads, with bit-identical answers. The ratio is measured from
//! the [`ScanStats`](dgf_common::stats::ScanStats) bytes-skipped
//! ledger, which `tests/profile_invariants.rs` proves reconciles
//! exactly with the unpruned pass, and cross-checked here against an
//! actual pruning-off run. This module assembles `BENCH_sidecar.json`.

use std::sync::Arc;
use std::time::Duration;

use dgf_common::obs::JsonObject;
use dgf_common::stats::ScanSnapshot;
use dgf_common::{Result, Row, Schema, Stopwatch, TempDir, Value, ValueType};
use dgf_core::{DgfEngine, DgfIndex, DimPolicy, SplittingPolicy};
use dgf_format::FileFormat;
use dgf_hive::{HiveContext, ScanOptions};
use dgf_kvstore::MemKvStore;
use dgf_mapreduce::MrEngine;
use dgf_query::{AggFunc, ColumnRange, Engine, Predicate, Query, QueryResult};
use dgf_storage::{HdfsConfig, SimHdfs};

/// A built DGFIndex over an RCFile table whose slices carry sidecars:
/// `user_id × day` is the grid; `seq` (clustered) and `cat`
/// (low-cardinality, block-clustered) are visible only to the sidecar.
pub struct SidecarLab {
    _tmp: TempDir,
    /// The warehouse the passes run in.
    pub ctx: Arc<HiveContext>,
    /// The built index.
    pub idx: Arc<DgfIndex>,
    /// Rows in the table.
    pub rows: u64,
}

/// One query's pruned-vs-unpruned outcome.
#[derive(Debug, Clone)]
pub struct SidecarPass {
    /// Query label for the report.
    pub name: &'static str,
    /// Wall time with pruning on.
    pub pruned_time: Duration,
    /// Wall time with pruning off.
    pub unpruned_time: Duration,
    /// Slice bytes read with pruning on.
    pub pruned_bytes: u64,
    /// Slice bytes read with pruning off.
    pub unpruned_bytes: u64,
    /// Scan counters of the pruned pass (the sidecar ledger).
    pub scan: ScanSnapshot,
    /// The (identical) answer.
    pub result: QueryResult,
}

impl SidecarPass {
    /// Fraction of the unpruned pass's slice bytes the pruned pass
    /// read, computed from the bytes-skipped ledger.
    pub fn bytes_ratio(&self) -> f64 {
        let would_read = self.pruned_bytes + self.scan.sidecar_bytes_skipped;
        self.pruned_bytes as f64 / would_read.max(1) as f64
    }
}

impl SidecarLab {
    /// Generate `n` rows, store them as RCFile with `rows_per_group`
    /// groups, and build the index. Small groups relative to the slice
    /// size give the sidecar room to skip inside each boundary Slice.
    pub fn build(n: usize, rows_per_group: usize) -> Result<SidecarLab> {
        let tmp = TempDir::new("sidecar")?;
        let hdfs = SimHdfs::new(
            tmp.path(),
            HdfsConfig {
                block_size: 4 << 20,
                replication: 1,
            },
        )?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(4));
        let schema = Arc::new(Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("day", ValueType::Int),
            ("seq", ValueType::Int),
            ("cat", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let created = ctx.create_table("meter_scx", schema, FileFormat::RcFile)?;
        let mut desc = (*created).clone();
        desc.rows_per_group = rows_per_group;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let i = i as i64;
                vec![
                    Value::Int((i * 7) % 32),
                    Value::Int((i * 13) % 8),
                    // Clustered: groups partition the seq range.
                    Value::Int(i),
                    // Block-clustered low-cardinality: one value per
                    // sixteenth of the table, so most groups hold 1–2
                    // distinct values and the bitmap level-1 gate bites.
                    Value::Int(i * 16 / n as i64),
                    Value::Float((i % 97) as f64 / 3.0),
                ]
            })
            .collect();
        ctx.load_rows(&desc, &rows, 4)?;
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 8),
            DimPolicy::int("day", 0, 2),
        ])?;
        let (idx, _) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::new(desc),
            policy,
            vec![AggFunc::Count, AggFunc::Sum("power".into())],
            Arc::new(MemKvStore::new()),
            "dgf_sidecar",
        )?;
        Ok(SidecarLab {
            _tmp: tmp,
            ctx,
            idx: Arc::new(idx),
            rows: n as u64,
        })
    }

    /// The selective query set: each mixes misaligned grid ranges
    /// (boundary Slices) with a predicate only the sidecar can narrow.
    pub fn queries(&self) -> Vec<(&'static str, Query)> {
        let n = self.rows as i64;
        vec![
            (
                "zone_seq_range",
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
                    predicate: Predicate::all().and(
                        "seq",
                        ColumnRange::half_open(Value::Int(n / 10), Value::Int(n / 10 + n / 20)),
                    ),
                },
            ),
            (
                "zone_seq_boundary",
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
                    predicate: Predicate::all()
                        .and(
                            "user_id",
                            ColumnRange::half_open(Value::Int(3), Value::Int(29)),
                        )
                        .and(
                            "seq",
                            ColumnRange::half_open(Value::Int(n / 2), Value::Int(n / 2 + n / 16)),
                        ),
                },
            ),
            (
                "bitmap_cat_eq",
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
                    predicate: Predicate::all().and("cat", ColumnRange::eq(Value::Int(11))),
                },
            ),
        ]
    }

    /// Run one query with pruning on and off, best-of-`reps` each, and
    /// check the answers agree in float bits.
    pub fn pass(&self, name: &'static str, q: &Query, reps: usize) -> Result<SidecarPass> {
        measure_pass(&self.ctx, &self.idx, name, q, reps)
    }
}

/// Run one query over `idx` with pruning on and off, best-of-`reps`
/// each, and check the answers agree. Shared by the sidecar and
/// compaction labs so both reports measure the same way.
pub fn measure_pass(
    ctx: &Arc<HiveContext>,
    idx: &Arc<DgfIndex>,
    name: &'static str,
    q: &Query,
    reps: usize,
) -> Result<SidecarPass> {
    let run = |sidecar: bool| -> Result<(Duration, u64, ScanSnapshot, QueryResult)> {
        ctx.set_scan_options(ScanOptions {
            columnar: true,
            sidecar,
        });
        let mut best: Option<(Duration, u64, ScanSnapshot, QueryResult)> = None;
        for _ in 0..reps.max(1) {
            let watch = Stopwatch::start();
            let r = DgfEngine::new(Arc::clone(idx)).run(q)?;
            let t = watch.elapsed();
            if best.as_ref().is_none_or(|b| t < b.0) {
                best = Some((t, r.stats.data_bytes_read, r.stats.scan, r.result));
            }
        }
        Ok(best.expect("reps >= 1"))
    };
    let (pruned_time, pruned_bytes, scan, result) = run(true)?;
    let (unpruned_time, unpruned_bytes, _, baseline) = run(false)?;
    assert_eq!(result, baseline, "{name}: pruning changed the answer");
    Ok(SidecarPass {
        name,
        pruned_time,
        unpruned_time,
        pruned_bytes,
        unpruned_bytes,
        scan,
        result,
    })
}

fn pass_json(p: &SidecarPass) -> String {
    JsonObject::new()
        .string("name", p.name)
        .value("pruned_time_us", p.pruned_time.as_micros())
        .value("unpruned_time_us", p.unpruned_time.as_micros())
        .value("pruned_bytes", p.pruned_bytes)
        .value("unpruned_bytes", p.unpruned_bytes)
        .value("bytes_ratio", format_args!("{:.4}", p.bytes_ratio()))
        .value("sidecar_hits", p.scan.sidecar_hits)
        .value("sidecar_bytes", p.scan.sidecar_bytes)
        .value("groups_pruned", p.scan.sidecar_groups_pruned)
        .value("bytes_skipped", p.scan.sidecar_bytes_skipped)
        .finish()
}

/// Assemble the `BENCH_sidecar.json` document.
pub fn sidecar_json(config: &str, rows: u64, passes: &[SidecarPass]) -> String {
    let worst = passes
        .iter()
        .map(SidecarPass::bytes_ratio)
        .fold(0.0f64, f64::max);
    JsonObject::new()
        .string("experiment", "sidecar")
        .string("config", config)
        .value("rows", rows)
        .array("queries", passes.iter().map(pass_json))
        .value("worst_bytes_ratio", format_args!("{worst:.4}"))
        .value("acceptance_max_ratio", 0.25)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes ratio is a deterministic property of the data layout,
    /// not a timing, so the acceptance bar holds in debug builds too:
    /// every selective query reads ≤ 25% of the unpruned slice bytes,
    /// the ledger agrees with the real pruning-off pass, and answers
    /// are identical.
    #[test]
    fn selective_queries_skip_three_quarters_of_slice_bytes() {
        let lab = SidecarLab::build(40_000, 128).unwrap();
        for (name, q) in lab.queries() {
            let p = lab.pass(name, &q, 1).unwrap();
            assert!(p.scan.sidecar_hits > 0, "{name}: no sidecar consulted");
            assert!(
                p.bytes_ratio() <= 0.25,
                "{name}: read {:.1}% of unpruned slice bytes (need <= 25%)",
                p.bytes_ratio() * 100.0
            );
            // The ledger's denominator is the real unpruned pass.
            assert_eq!(
                p.pruned_bytes + p.scan.sidecar_bytes_skipped,
                p.unpruned_bytes,
                "{name}: ledger does not reconcile"
            );
        }
        let json = sidecar_json("test", lab.rows, &[]);
        for needle in [
            "\"experiment\":\"sidecar\"",
            "\"worst_bytes_ratio\":",
            "\"acceptance_max_ratio\":0.25",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}

//! Delta-compaction micro-experiment (DESIGN.md §16).
//!
//! The maintenance PR's measurable claim: a sustained streaming
//! workload scatters the grid across many small flush deltas, and one
//! maintenance pass (a) brings the live data-file count back within the
//! delta budget and (b) leaves the flushed rows in contiguous,
//! sidecar-covered slices on which selective boundary scans hit the
//! sidecar bar — ≤ 25% of the unpruned slice bytes — with answers
//! **bit-identical** to the pre-compaction index (headers are copied
//! verbatim; compaction is pure data movement). This module assembles
//! `BENCH_compaction.json`.

use std::sync::Arc;

use dgf_common::obs::JsonObject;
use dgf_common::{Result, Row, Schema, TempDir, Value, ValueType};
use dgf_core::{DgfIndex, DimPolicy, MaintenanceConfig, MaintenanceReport, Maintainer, SplittingPolicy};
use dgf_format::{is_sidecar_path, FileFormat};
use dgf_hive::HiveContext;
use dgf_ingest::{IngestConfig, StreamIngestor};
use dgf_kvstore::MemKvStore;
use dgf_mapreduce::MrEngine;
use dgf_query::{AggFunc, ColumnRange, Predicate, Query};
use dgf_storage::{HdfsConfig, SimHdfs};

use crate::sidecar::SidecarPass;

/// An RCFile-backed index whose second half arrived through streaming
/// flushes: half the rows are bulk-built, the rest land as one small
/// delta file per flush. `user_id × day` is the grid; `seq` (clustered)
/// and `cat` (low-cardinality) are visible only to the sidecars.
pub struct CompactionLab {
    _tmp: TempDir,
    /// The warehouse the passes run in.
    pub ctx: Arc<HiveContext>,
    /// The index, half bulk-built, half streamed.
    pub idx: Arc<DgfIndex>,
    /// Total rows in the table.
    pub rows: u64,
}

impl CompactionLab {
    /// Generate `n` rows, bulk-build the first half, then stream the
    /// second half through `flushes` ingest flushes — each one lands a
    /// separate delta file, the accumulation a maintenance pass exists
    /// to undo.
    pub fn build(n: usize, rows_per_group: usize, flushes: usize) -> Result<CompactionLab> {
        let tmp = TempDir::new("compaction")?;
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
        let created = ctx.create_table("meter_cpt", schema, FileFormat::RcFile)?;
        let mut desc = (*created).clone();
        desc.rows_per_group = rows_per_group;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let i = i as i64;
                vec![
                    Value::Int((i * 7) % 32),
                    Value::Int((i * 13) % 8),
                    // Clustered: each flush batch covers a narrow band.
                    Value::Int(i),
                    // Low-cardinality, block-clustered.
                    Value::Int(i * 16 / n as i64),
                    Value::Float((i % 97) as f64 / 3.0),
                ]
            })
            .collect();
        let seeded = &rows[..n / 2];
        ctx.load_rows(&desc, seeded, 4)?;
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
            "dgf_compaction",
        )?;
        let idx = Arc::new(idx);
        let ingestor = StreamIngestor::open(
            Arc::clone(&idx),
            tmp.path().join("ingest.wal"),
            IngestConfig {
                flush_rows: u64::MAX,
                auto_flush_interval: None,
                ..IngestConfig::default()
            },
        )?;
        let streamed = &rows[n / 2..];
        let chunk = (streamed.len() / flushes.max(1)).max(1);
        for batch in streamed.chunks(chunk) {
            ingestor.ingest(batch)?;
            ingestor.flush()?;
        }
        ingestor.close()?;
        Ok(CompactionLab {
            _tmp: tmp,
            ctx,
            idx,
            rows: n as u64,
        })
    }

    /// Live (non-sidecar, non-retired) data files of the index.
    pub fn delta_files(&self) -> usize {
        let gc: std::collections::HashSet<String> =
            self.idx.gc_list().unwrap_or_default().into_iter().collect();
        self.ctx
            .hdfs
            .list_files(&self.idx.data.location)
            .into_iter()
            .filter(|(p, _)| !is_sidecar_path(p) && !gc.contains(p))
            .count()
    }

    /// Selective queries whose predicates land on the *flushed* half of
    /// the table (`seq >= n/2`, high `cat` values), each mixing a
    /// misaligned grid range with a predicate only the sidecar narrows.
    pub fn queries(&self) -> Vec<(&'static str, Query)> {
        let n = self.rows as i64;
        vec![
            (
                "flushed_seq_range",
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
                    predicate: Predicate::all().and(
                        "seq",
                        ColumnRange::half_open(
                            Value::Int(n / 2 + n / 10),
                            Value::Int(n / 2 + n / 10 + n / 20),
                        ),
                    ),
                },
            ),
            (
                "flushed_seq_boundary",
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
                    predicate: Predicate::all()
                        .and(
                            "user_id",
                            ColumnRange::half_open(Value::Int(3), Value::Int(29)),
                        )
                        .and(
                            "seq",
                            ColumnRange::half_open(
                                Value::Int(3 * n / 4),
                                Value::Int(3 * n / 4 + n / 16),
                            ),
                        ),
                },
            ),
            (
                "flushed_bitmap_cat_eq",
                Query::Aggregate {
                    aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
                    predicate: Predicate::all().and("cat", ColumnRange::eq(Value::Int(13))),
                },
            ),
        ]
    }

    /// One pruned-vs-unpruned measurement (borrowing the sidecar lab's
    /// pass shape so both reports read the same).
    pub fn pass(&self, name: &'static str, q: &Query, reps: usize) -> Result<SidecarPass> {
        crate::sidecar::measure_pass(&self.ctx, &self.idx, name, q, reps)
    }

    /// Run the maintenance daemon to convergence: one pass to compact
    /// back within `budget` live files, one more to end the retired
    /// files' grace round. Returns both reports.
    pub fn maintain(&self, budget: usize) -> Result<(MaintenanceReport, MaintenanceReport)> {
        let maintainer = Maintainer::new(
            Arc::clone(&self.idx),
            MaintenanceConfig {
                delta_file_budget: budget,
                ..MaintenanceConfig::default()
            },
        );
        Ok((maintainer.run_once()?, maintainer.run_once()?))
    }
}

fn pass_json(p: &SidecarPass) -> String {
    JsonObject::new()
        .string("name", p.name)
        .value("pruned_time_us", p.pruned_time.as_micros())
        .value("unpruned_time_us", p.unpruned_time.as_micros())
        .value("pruned_bytes", p.pruned_bytes)
        .value("unpruned_bytes", p.unpruned_bytes)
        .value("bytes_ratio", format_args!("{:.4}", p.bytes_ratio()))
        .value("groups_pruned", p.scan.sidecar_groups_pruned)
        .value("bytes_skipped", p.scan.sidecar_bytes_skipped)
        .finish()
}

/// Assemble the `BENCH_compaction.json` document: delta-file counts and
/// per-query boundary-scan bytes before/after one maintenance pass.
pub fn compaction_json(
    config: &str,
    rows: u64,
    budget: usize,
    files_before: usize,
    files_after: usize,
    before: &[SidecarPass],
    after: &[SidecarPass],
) -> String {
    let worst_after = after
        .iter()
        .map(SidecarPass::bytes_ratio)
        .fold(0.0f64, f64::max);
    JsonObject::new()
        .string("experiment", "compaction")
        .string("config", config)
        .value("rows", rows)
        .value("delta_file_budget", budget)
        .value("files_before", files_before)
        .value("files_after", files_after)
        .array("before", before.iter().map(pass_json))
        .array("after", after.iter().map(pass_json))
        .value("worst_after_bytes_ratio", format_args!("{worst_after:.4}"))
        .value("acceptance_max_ratio", 0.25)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The file-count bound and the bytes ratio are deterministic
    /// properties of the data layout, so the acceptance bar holds in
    /// debug builds: maintenance brings live files within budget, every
    /// selective query over the flushed rows then reads ≤ 25% of the
    /// unpruned slice bytes, and answers do not move a float bit.
    #[test]
    fn maintenance_restores_the_sidecar_bar_on_flushed_data() {
        let lab = CompactionLab::build(40_000, 128, 8).unwrap();
        let budget = 4;
        let files_before = lab.delta_files();
        assert!(files_before > budget, "streaming produced too few deltas");

        let before: Vec<SidecarPass> = lab
            .queries()
            .into_iter()
            .map(|(name, q)| lab.pass(name, &q, 1).unwrap())
            .collect();

        let (r1, r2) = lab.maintain(budget).unwrap();
        assert!(r1.compacted_files > 0, "nothing compacted: {r1:?}");
        assert_eq!(r2.reclaimed_files, r1.compacted_files);
        assert!(lab.delta_files() <= budget);

        for (p, (name, q)) in before.iter().zip(lab.queries()) {
            let a = lab.pass(name, &q, 1).unwrap();
            assert_eq!(
                a.result, p.result,
                "{name}: compaction changed the answer"
            );
            assert!(a.scan.sidecar_hits > 0, "{name}: no sidecar consulted");
            assert!(
                a.bytes_ratio() <= 0.25,
                "{name}: read {:.1}% of unpruned slice bytes after compaction",
                a.bytes_ratio() * 100.0
            );
        }

        let json = compaction_json("test", lab.rows, budget, files_before, lab.delta_files(), &before, &[]);
        for needle in [
            "\"experiment\":\"compaction\"",
            "\"files_before\":",
            "\"worst_after_bytes_ratio\":",
            "\"acceptance_max_ratio\":0.25",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}

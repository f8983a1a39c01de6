//! Hive's Compact Index (paper §2.2, HIVE-417).
//!
//! The index is itself a Hive table with one row per **combination of
//! indexed dimension values per data file**, carrying the file name and
//! the array of block offsets where that combination occurs (Table 1 /
//! Listing 1). Query processing scans the whole index table first, then
//! keeps only the base-table splits containing a recorded offset.
//!
//! Its two structural weaknesses, which the evaluation exposes, fall out
//! of this design with no extra modeling:
//!
//! 1. With high-cardinality dimensions the index table approaches the
//!    base table in size (the paper's 821 GB 3-D index), and the mandatory
//!    index-table scan dominates.
//! 2. Filtering is split-granular: if every split contains a matching
//!    offset (values scattered evenly, as in TPC-H), nothing is filtered
//!    and performance is *worse* than a plain scan.

use std::collections::HashMap;
use std::sync::Arc;

use dgf_common::{DgfError, Result, Stopwatch};
use dgf_format::{FileFormat, TextWriter};
use dgf_query::{Engine, EngineRun, Predicate, Query, RunStats};
use dgf_storage::FileSplit;

use crate::context::{HiveContext, TableDesc, TableRef};
use crate::index_common::{
    compact_index_schema, dims_key, dims_schema, for_each_dims_row, format_offsets,
    parse_dims_key, parse_offsets, BuildReport,
};
use crate::scan::{execute, open_input, ScanInput};

/// A built Compact Index over one base table.
pub struct CompactIndex {
    ctx: Arc<HiveContext>,
    base: TableRef,
    dims: Vec<String>,
    index_table: TableRef,
}

impl CompactIndex {
    /// Build a Compact Index on `dims` of `base` via a MapReduce job
    /// equivalent to the paper's Listing 1 (`GROUP BY dims,
    /// INPUT_FILE_NAME` + `collect_set(BLOCK_OFFSET_INSIDE_FILE)`).
    pub fn build(
        ctx: Arc<HiveContext>,
        base: TableRef,
        dims: Vec<String>,
        index_name: &str,
    ) -> Result<(CompactIndex, BuildReport)> {
        let watch = Stopwatch::start();
        let dims_s = Arc::new(dims_schema(&base.schema, &dims)?);
        let index_schema = Arc::new(compact_index_schema(&base.schema, &dims)?);
        let index_table =
            ctx.create_table(index_name, index_schema, FileFormat::Text)?;

        let dim_idx: Vec<usize> = dims
            .iter()
            .map(|d| base.schema.index_of(d))
            .collect::<Result<_>>()?;

        let splits = ctx.table_splits(&base);
        let num_reducers = ctx.engine.threads().min(splits.len()).max(1);
        let ctx2 = Arc::clone(&ctx);
        let base2 = Arc::clone(&base);
        let index_loc = index_table.location.clone();

        let job = ctx.engine.map_reduce(
            splits,
            num_reducers,
            // Map: emit (dims ++ filename) -> offset.
            &|_, split: FileSplit, e| {
                let path = split.path.clone();
                for_each_dims_row(&ctx2, &base2, split, &dim_idx, |off, dvals| {
                    e.emit(dims_key(&dvals, &path), off);
                    Ok(())
                })
            },
            // Combine: collect_set semantics — duplicates collapse early.
            Some(&|_, mut offs: Vec<u64>| {
                offs.sort_unstable();
                offs.dedup();
                Ok(offs)
            }),
            // Reduce: write one index file per reducer.
            &|tid, groups| {
                let path = format!("{index_loc}/part-{tid:05}");
                let mut w = TextWriter::create(&ctx2.hdfs, &path)?;
                let mut entries = 0u64;
                for (key, mut offs) in groups {
                    offs.sort_unstable();
                    offs.dedup();
                    let (_, _) = parse_dims_key(&key, &dims_s)?; // validate
                    let (dims_part, file) = key
                        .split_once(crate::index_common::KEY_SEP)
                        .expect("validated above");
                    w.write_line(&format!(
                        "{dims_part}|{file}|{}",
                        format_offsets(&offs)
                    ))?;
                    entries += 1;
                }
                w.close()?;
                Ok(entries)
            },
        )?;

        let report = BuildReport {
            build_time: watch.elapsed(),
            index_size_bytes: ctx.table_size_bytes(&index_table),
            index_entries: job.outputs.iter().sum(),
        };
        Ok((
            CompactIndex {
                ctx,
                base,
                dims,
                index_table,
            },
            report,
        ))
    }

    /// The indexed dimensions.
    pub fn dims(&self) -> &[String] {
        &self.dims
    }

    /// The index table (a regular Hive table).
    pub fn index_table(&self) -> &TableRef {
        &self.index_table
    }

    /// Resolve a predicate to the base-table splits that must be read:
    /// scan the index table, keep matching entries, keep splits containing
    /// a recorded offset.
    pub fn plan(&self, predicate: &Predicate) -> Result<CompactPlan> {
        let watch = Stopwatch::start();
        let before = self.ctx.hdfs.stats().snapshot();

        // Only conditions on indexed dimensions filter index entries; the
        // rest of the predicate is applied when reading base data.
        let idx_pred = {
            let keep: Vec<&str> = self.dims.iter().map(|s| s.as_str()).collect();
            predicate.project_columns(&keep)
        };
        let bound = idx_pred.bind(&self.index_table.schema)?;
        let file_col = self.dims.len();
        let off_col = self.dims.len() + 1;

        // Hive writes matching (file, offsets) pairs to a temporary file
        // from a scan over the index table; this is that scan.
        let ctx = &self.ctx;
        let index_table = &self.index_table;
        let job = ctx.engine.map_only(
            ctx.table_splits(index_table),
            &|_, split: FileSplit| {
                let mut hits: Vec<(String, Vec<u64>)> = Vec::new();
                open_input(ctx, index_table, &ScanInput::FullSplit(split))?
                    .for_each_row(|_, row| {
                        if bound.matches(row) {
                            let file = row[file_col].as_str()?.to_owned();
                            hits.push((file, parse_offsets(&row[off_col])?));
                        }
                        Ok(())
                    })?;
                Ok(hits)
            },
        )?;

        let mut per_file: HashMap<String, Vec<u64>> = HashMap::new();
        let mut matched_entries = 0u64;
        for hits in job.outputs {
            for (file, offs) in hits {
                matched_entries += 1;
                per_file.entry(file).or_default().extend(offs);
            }
        }

        // getSplits: keep base splits containing any recorded offset.
        let all_splits = self.ctx.table_splits(&self.base);
        let splits_total = all_splits.len() as u64;
        let mut chosen = Vec::new();
        for split in all_splits {
            if let Some(offs) = per_file.get(&split.path) {
                if offs.iter().any(|o| *o >= split.start && *o < split.end()) {
                    chosen.push(split);
                }
            }
        }

        let delta = self.ctx.hdfs.stats().snapshot().since(&before);
        Ok(CompactPlan {
            chosen,
            splits_total,
            matched_entries,
            index_records_read: delta.records_read,
            index_time: watch.elapsed(),
        })
    }
}

/// Result of Compact Index planning.
#[derive(Debug, Clone)]
pub struct CompactPlan {
    /// Base-table splits that must be scanned.
    pub chosen: Vec<FileSplit>,
    /// All base-table splits.
    pub splits_total: u64,
    /// Index entries matching the predicate.
    pub matched_entries: u64,
    /// Index-table rows scanned.
    pub index_records_read: u64,
    /// Time spent in index scan + split selection.
    pub index_time: std::time::Duration,
}

/// The Compact Index query engine.
pub struct CompactEngine {
    index: Arc<CompactIndex>,
    right: Option<TableRef>,
}

impl CompactEngine {
    /// An engine over a built index.
    pub fn new(index: Arc<CompactIndex>) -> Self {
        CompactEngine { index, right: None }
    }

    /// Attach the dimension table used by join queries.
    pub fn with_right(mut self, right: TableRef) -> Self {
        self.right = Some(right);
        self
    }
}

impl Engine for CompactEngine {
    fn name(&self) -> String {
        format!("Compact-{}D", self.index.dims.len())
    }

    fn run(&self, query: &Query) -> Result<EngineRun> {
        let plan = self.index.plan(query.predicate())?;
        let ctx = &self.index.ctx;
        let before = ctx.hdfs.stats().snapshot();
        let watch = Stopwatch::start();
        let splits_read = plan.chosen.len() as u64;
        let inputs = plan.chosen.into_iter().map(ScanInput::FullSplit).collect();
        let result = execute(
            ctx,
            &self.index.base,
            query,
            self.right.as_deref(),
            inputs,
        )?;
        let delta = ctx.hdfs.stats().snapshot().since(&before);
        Ok(EngineRun {
            result,
            stats: RunStats {
                index_time: plan.index_time,
                data_time: watch.elapsed(),
                index_records_read: plan.index_records_read,
                data_records_read: delta.records_read,
                data_bytes_read: delta.bytes_read,
                splits_total: plan.splits_total,
                splits_read,
                ..RunStats::default()
            },
        })
    }
}

/// Error type helper: building an index on a missing column fails early.
pub fn validate_dims(base: &TableDesc, dims: &[String]) -> Result<()> {
    if dims.is_empty() {
        return Err(DgfError::Index("an index needs at least one dimension".into()));
    }
    for d in dims {
        base.schema.index_of(d)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Row, Schema, TempDir, Value, ValueType};
    use dgf_mapreduce::MrEngine;
    use dgf_query::{AggFunc, ColumnRange, QueryResult};
    use dgf_storage::{HdfsConfig, SimHdfs};

    /// Time-sorted data (like the paper's meter data): region and day have
    /// few distinct values, and equal days are contiguous.
    fn setup(format: FileFormat) -> (TempDir, Arc<HiveContext>, TableRef) {
        let t = TempDir::new("compact").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 2048,
                replication: 1,
            },
        )
        .unwrap();
        let ctx = HiveContext::new(h, MrEngine::new(4));
        let schema = Arc::new(Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("day", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let tab = ctx.create_table("meter", schema, format).unwrap();
        let mut rows: Vec<Row> = Vec::new();
        for day in 0..10i64 {
            for user in 0..100i64 {
                rows.push(vec![
                    Value::Int(user),
                    Value::Int(user % 5),
                    Value::Int(day),
                    Value::Float((user + day) as f64),
                ]);
            }
        }
        ctx.load_rows(&tab, &rows, 4).unwrap();
        (t, ctx, tab)
    }

    fn day_query(d0: i64, d1: i64) -> Query {
        Query::Aggregate {
            aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
            predicate: Predicate::all()
                .and("day", ColumnRange::half_open(Value::Int(d0), Value::Int(d1))),
        }
    }

    #[test]
    fn build_reports_sane_numbers() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let (_idx, report) = CompactIndex::build(
            Arc::clone(&ctx),
            tab,
            vec!["region_id".into(), "day".into()],
            "idx_rd",
        )
        .unwrap();
        // 5 regions x 10 days scattered over 4 files: at most 200 combos,
        // at least 50.
        assert!(report.index_entries >= 50 && report.index_entries <= 200);
        assert!(report.index_size_bytes > 0);
    }

    #[test]
    fn query_matches_scan_and_filters_splits() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let q = day_query(2, 4);
        let scan = crate::scan::ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
            .run(&q)
            .unwrap();
        let (idx, _) = CompactIndex::build(
            Arc::clone(&ctx),
            tab,
            vec!["region_id".into(), "day".into()],
            "idx_rd",
        )
        .unwrap();
        let run = CompactEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert!(run.result.approx_eq(&scan.result, 1e-9));
        // Time-sorted data: the 2-day range lives in a strict subset of
        // splits.
        assert!(run.stats.splits_read < run.stats.splits_total);
        assert!(run.stats.data_records_read < scan.stats.data_records_read);
        assert!(run.stats.index_records_read > 0);
    }

    #[test]
    fn scattered_dimension_filters_nothing() {
        // user_id % 5 == region: every split has every region, so a region
        // query keeps all splits — the paper's TPC-H failure mode.
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let (idx, _) = CompactIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            vec!["region_id".into()],
            "idx_r",
        )
        .unwrap();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and("region_id", ColumnRange::eq(Value::Int(3))),
        };
        let run = CompactEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(200));
        assert_eq!(run.stats.splits_read, run.stats.splits_total);
    }

    #[test]
    fn rcfile_base_table_uses_group_offsets() {
        let (_t, ctx, tab) = setup(FileFormat::RcFile);
        let q = day_query(0, 3);
        let scan = crate::scan::ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
            .run(&q)
            .unwrap();
        let (idx, report) = CompactIndex::build(
            Arc::clone(&ctx),
            tab,
            vec!["region_id".into(), "day".into()],
            "idx_rd",
        )
        .unwrap();
        // Group offsets dedupe: entries bounded by combos x groups.
        assert!(report.index_entries > 0);
        let run = CompactEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert!(run.result.approx_eq(&scan.result, 1e-9));
    }

    #[test]
    fn predicate_on_unindexed_column_is_still_exact() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let (idx, _) = CompactIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            vec!["day".into()],
            "idx_d",
        )
        .unwrap();
        // day is indexed, user_id is not: index filters splits by day, the
        // full predicate still applies to rows.
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all()
                .and("day", ColumnRange::eq(Value::Int(5)))
                .and("user_id", ColumnRange::half_open(Value::Int(0), Value::Int(10))),
        };
        let run = CompactEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(10));
    }

    #[test]
    fn empty_result_when_nothing_matches() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let (idx, _) = CompactIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            vec!["day".into()],
            "idx_d",
        )
        .unwrap();
        let run = CompactEngine::new(Arc::new(idx)).run(&day_query(50, 60)).unwrap();
        assert_eq!(run.stats.splits_read, 0);
        assert_eq!(run.stats.data_records_read, 0);
        match run.result {
            QueryResult::Scalars(v) => assert_eq!(v[0], Value::Int(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validate_dims_errors() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        assert!(validate_dims(&tab, &[]).is_err());
        assert!(validate_dims(&tab, &["nope".into()]).is_err());
        assert!(validate_dims(&tab, &["day".into()]).is_ok());
        drop(ctx);
    }
}

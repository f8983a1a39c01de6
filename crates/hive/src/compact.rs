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

use dgf_common::obs::Profiler;
use dgf_common::{Result, ValueType};
use dgf_query::{Engine, EngineRun, Predicate, Query};

use crate::context::{HiveContext, TableRef};
use crate::index_common::{
    build_index_table, distinct, format_offsets, parse_offsets, probe, BuildReport, Emit,
};
use crate::scan::{measured_run, ScanInput, ScanPlan};

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
        let (index_table, report) = build_index_table(
            &ctx,
            &base,
            &dims,
            index_name,
            &[("_offsets", ValueType::Str)],
            Emit::DistinctBlockOffset,
            &|offsets| format_offsets(&distinct(offsets)),
        )?;
        let index = CompactIndex {
            ctx,
            base,
            dims,
            index_table,
        };
        Ok((index, report))
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
    /// probe the index table, keep splits containing a recorded offset.
    pub fn plan(&self, predicate: &Predicate) -> Result<ScanPlan> {
        ScanPlan::measure(&self.ctx, || {
            let file_col = self.dims.len();
            let mut per_file: HashMap<String, Vec<u64>> = HashMap::new();
            for row in probe(&self.ctx, &self.index_table, &self.dims, predicate)? {
                let offsets = parse_offsets(&row[file_col + 1])?;
                per_file.entry(row[file_col].as_str()?.to_owned()).or_default().extend(offsets);
            }
            // getSplits: keep base splits containing any recorded offset.
            let splits = self.ctx.table_splits(&self.base);
            let splits_total = splits.len() as u64;
            let inputs = splits
                .into_iter()
                .filter(|split| {
                    let mine = |o: &u64| (split.start..split.end()).contains(o);
                    per_file.get(&split.path).is_some_and(|offs| offs.iter().any(mine))
                })
                .map(ScanInput::FullSplit)
                .collect();
            Ok((inputs, splits_total))
        })
    }
}

/// The Compact Index query engine.
pub struct CompactEngine {
    index: Arc<CompactIndex>,
    right: Option<TableRef>,
    profiler: Profiler,
}

impl CompactEngine {
    /// An engine over a built index. Honours `DGF_TRACE` for profiling.
    pub fn new(index: Arc<CompactIndex>) -> Self {
        CompactEngine {
            index,
            right: None,
            profiler: Profiler::from_env(),
        }
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
        let index = &self.index;
        measured_run(&index.ctx, &index.base, self.right.as_deref(), &self.profiler, query, || {
            index.plan(query.predicate())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_common::validate_dims;
    use dgf_common::{DgfError, Row, Schema, TempDir, Value};
    use dgf_format::FileFormat;
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
        assert_eq!(run.result, scan.result);
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
        assert_eq!(run.result, scan.result);
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
        let none = CompactIndex::build(ctx, tab, vec![], "idx_none");
        assert!(matches!(none, Err(DgfError::Index(_))), "{:?}", none.err());
    }

    #[test]
    fn a_faulted_run_books_its_planning_reads_in_the_profile() {
        use dgf_common::obs::names;
        use dgf_common::{FaultConfig, FaultPlan, RetryPolicy};

        let (_t, ctx, tab) = setup(FileFormat::Text);
        let dims = vec!["region_id".into(), "day".into()];
        let (idx, _) = CompactIndex::build(Arc::clone(&ctx), tab, dims, "idx_rd").unwrap();
        let plan = Arc::new(FaultPlan::new(FaultConfig::transient(7, 0.4)));
        ctx.hdfs.enable_faults(plan, RetryPolicy::fast(64));
        let engine = CompactEngine {
            profiler: Profiler::enabled(),
            ..CompactEngine::new(Arc::new(idx))
        };
        let before = ctx.hdfs.stats().snapshot();
        let run = engine.run(&day_query(2, 4)).unwrap();
        let delta = ctx.hdfs.stats().snapshot().since(&before);
        ctx.hdfs.disable_faults();

        // The index probe's reads sit on the `query` span itself and the
        // scan's on `query.scan`: together they are the whole run.
        let profile = &run.stats.profile;
        let planning = &profile.find("query").unwrap().metrics;
        assert!(planning[names::HDFS_RECORDS_READ] > 0);
        assert_eq!(planning[names::HDFS_RECORDS_READ], run.stats.index_records_read);
        assert!(delta.retries > 0);
        assert_eq!(profile.metric_total(names::HDFS_RETRIES), delta.retries);
        assert_eq!(profile.metric_total(names::HDFS_RETRIES), run.stats.retries_absorbed);
        assert_eq!(profile.metric_total(names::HDFS_BYTES_READ), delta.bytes_read);
        assert_eq!(profile.metric_total(names::HDFS_RECORDS_READ), delta.records_read);
    }
}

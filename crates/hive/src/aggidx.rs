//! Hive's Aggregate Index (paper §2.2, HIVE-1694).
//!
//! An Aggregate Index is a Compact Index whose rows carry pre-computed
//! aggregations (upstream Hive supports only `count`). Using "index as
//! data", an eligible `GROUP BY` query is rewritten into a scan of the
//! much smaller index table. The restrictions are faithful to the paper:
//! every column referenced in SELECT/WHERE/GROUP BY must be an indexed
//! dimension and the aggregates must be derivable from the pre-computed
//! list — "in practice, there are very few use cases that can meet its
//! restrictions" (§6).

use std::sync::Arc;

use dgf_common::{DgfError, Result, Stopwatch, Value, ValueType};
use dgf_query::{AggFunc, Engine, EngineRun, Query, QueryResult, RowSink, RunStats};

use crate::context::{HiveContext, TableRef};
use crate::index_common::{build_index_table, distinct, format_offsets, probe, BuildReport, Emit};

/// A built Aggregate Index (Compact Index + per-entry `count(*)`).
pub struct AggregateIndex {
    ctx: Arc<HiveContext>,
    dims: Vec<String>,
    index_table: TableRef,
}

impl AggregateIndex {
    /// Build the index: one row per (dims, file) with offsets and count.
    pub fn build(
        ctx: Arc<HiveContext>,
        base: TableRef,
        dims: Vec<String>,
        index_name: &str,
    ) -> Result<(AggregateIndex, BuildReport)> {
        let (index_table, report) = build_index_table(
            &ctx,
            &base,
            &dims,
            index_name,
            &[("_offsets", ValueType::Str), ("_count_of_all", ValueType::Int)],
            Emit::BlockOffset,
            // collect_set(offsets) + count(*) per entry.
            &|offsets| {
                let count = offsets.len();
                format!("{}|{count}", format_offsets(&distinct(offsets)))
            },
        )?;
        let index = AggregateIndex {
            ctx,
            dims,
            index_table,
        };
        Ok((index, report))
    }

    /// Whether the rewrite applies: all referenced columns are indexed
    /// dimensions and all aggregates are `count(*)`.
    pub fn eligible(&self, query: &Query) -> bool {
        let cols_ok = |pred: &dgf_query::Predicate| {
            pred.columns().all(|c| self.dims.iter().any(|d| d == c))
        };
        match query {
            Query::Aggregate { aggs, predicate } => {
                aggs.iter().all(|a| matches!(a, AggFunc::Count)) && cols_ok(predicate)
            }
            Query::GroupBy {
                key,
                aggs,
                predicate,
            } => {
                self.dims.iter().any(|d| d == key)
                    && aggs.iter().all(|a| matches!(a, AggFunc::Count))
                    && cols_ok(predicate)
            }
            _ => false,
        }
    }

    /// The index table.
    pub fn index_table(&self) -> &TableRef {
        &self.index_table
    }
}

/// Engine that answers eligible queries from the index table alone.
pub struct AggregateIndexEngine {
    index: Arc<AggregateIndex>,
}

impl AggregateIndexEngine {
    /// An engine over a built index.
    pub fn new(index: Arc<AggregateIndex>) -> Self {
        AggregateIndexEngine { index }
    }
}

impl Engine for AggregateIndexEngine {
    fn name(&self) -> String {
        "AggregateIndex".to_owned()
    }

    /// Rewrite the query onto the index table: `count(*)` becomes
    /// `sum(_count_of_all)`, grouping/filtering happen on the dimension
    /// columns the index table carries verbatim.
    fn run(&self, query: &Query) -> Result<EngineRun> {
        if !self.index.eligible(query) {
            return Err(DgfError::Query(
                "query does not meet the Aggregate Index restrictions".into(),
            ));
        }
        let watch = Stopwatch::start();
        let ctx = &self.index.ctx;
        let table = &self.index.index_table;
        let before = ctx.hdfs.stats().snapshot();

        let rewritten = match query {
            Query::Aggregate { aggs, predicate } => Query::Aggregate {
                aggs: aggs
                    .iter()
                    .map(|_| AggFunc::Sum("_count_of_all".into()))
                    .collect(),
                predicate: predicate.clone(),
            },
            Query::GroupBy {
                key,
                aggs,
                predicate,
            } => Query::GroupBy {
                key: key.clone(),
                aggs: aggs
                    .iter()
                    .map(|_| AggFunc::Sum("_count_of_all".into()))
                    .collect(),
                predicate: predicate.clone(),
            },
            _ => unreachable!("eligibility checked"),
        };

        let mut sink = RowSink::new(&rewritten, &table.schema, None)?;
        for row in probe(ctx, table, &self.index.dims, rewritten.predicate())? {
            sink.push(&row)?;
        }
        // sum() yields Float; counts are integers — cast back.
        let result = match sink.finish() {
            QueryResult::Scalars(vals) => QueryResult::Scalars(
                vals.into_iter().map(float_count_to_int).collect(),
            ),
            QueryResult::Groups(groups) => QueryResult::Groups(
                groups
                    .into_iter()
                    .map(|(k, vals)| (k, vals.into_iter().map(float_count_to_int).collect()))
                    .collect(),
            ),
            other => other,
        };
        let delta = ctx.hdfs.stats().snapshot().since(&before);
        Ok(EngineRun {
            result,
            stats: RunStats {
                index_time: watch.elapsed(),
                index_records_read: delta.records_read,
                ..RunStats::default()
            },
        })
    }
}

fn float_count_to_int(v: Value) -> Value {
    match v {
        Value::Float(f) => Value::Int(f as i64),
        Value::Null => Value::Int(0),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanEngine;
    use dgf_common::{Row, Schema, TempDir};
    use dgf_format::FileFormat;
    use dgf_mapreduce::MrEngine;
    use dgf_query::{ColumnRange, Predicate};
    use dgf_storage::{HdfsConfig, SimHdfs};

    fn setup() -> (TempDir, Arc<HiveContext>, TableRef) {
        let t = TempDir::new("aggidx").unwrap();
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
        let tab = ctx.create_table("meter", schema, FileFormat::Text).unwrap();
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Int(i / 100),
                    Value::Float(i as f64),
                ]
            })
            .collect();
        ctx.load_rows(&tab, &rows, 3).unwrap();
        (t, ctx, tab)
    }

    fn build(ctx: &Arc<HiveContext>, tab: &TableRef) -> Arc<AggregateIndex> {
        let (idx, report) = AggregateIndex::build(
            Arc::clone(ctx),
            Arc::clone(tab),
            vec!["region_id".into(), "day".into()],
            "agg_idx",
        )
        .unwrap();
        assert!(report.index_entries > 0);
        Arc::new(idx)
    }

    #[test]
    fn group_by_count_rewrite_matches_scan() {
        let (_t, ctx, tab) = setup();
        let q = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all()
                .and("day", ColumnRange::half_open(Value::Int(1), Value::Int(4))),
        };
        let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
            .run(&q)
            .unwrap();
        let idx = build(&ctx, &tab);
        let run = AggregateIndexEngine::new(idx).run(&q).unwrap();
        assert_eq!(
            run.result.normalized(),
            scan.result.normalized()
        );
        // The whole point: no base data read at all.
        assert_eq!(run.stats.data_records_read, 0);
    }

    #[test]
    fn scalar_count_rewrite_matches_scan() {
        let (_t, ctx, tab) = setup();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and("region_id", ColumnRange::eq(Value::Int(2))),
        };
        let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
            .run(&q)
            .unwrap();
        let idx = build(&ctx, &tab);
        let run = AggregateIndexEngine::new(idx).run(&q).unwrap();
        assert_eq!(run.result, scan.result);
    }

    #[test]
    fn restrictions_are_enforced() {
        let (_t, ctx, tab) = setup();
        let idx = build(&ctx, &tab);
        // sum(power) is not pre-computed.
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("power".into())],
            predicate: Predicate::all(),
        };
        assert!(!idx.eligible(&q));
        assert!(AggregateIndexEngine::new(Arc::clone(&idx)).run(&q).is_err());
        // Predicate on a non-indexed column.
        let q = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all()
                .and("user_id", ColumnRange::eq(Value::Int(1))),
        };
        assert!(!idx.eligible(&q));
        // Group key not indexed.
        let q = Query::GroupBy {
            key: "user_id".into(),
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        assert!(!idx.eligible(&q));
    }

    #[test]
    fn empty_match_counts_zero() {
        let (_t, ctx, tab) = setup();
        let idx = build(&ctx, &tab);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and("region_id", ColumnRange::eq(Value::Int(99))),
        };
        let run = AggregateIndexEngine::new(idx).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(0));
    }
}

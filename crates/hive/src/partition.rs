//! Hive-style partitioning (paper §2.2 and §6).
//!
//! A partitioned table keeps one HDFS **directory per partition value**
//! (`/warehouse/t/day=17532/...`). Partition pruning is a coarse-grained
//! index: a query constraining the partition column scans only matching
//! directories. The cost is NameNode pressure — every directory is a
//! namespace object — which is why the paper rules out multidimensional
//! partitioning (three 100-value dimensions ⇒ a million directories) and
//! why DGFIndex exists.

use std::collections::BTreeMap;
use std::sync::Arc;

use dgf_common::obs::Profiler;
use dgf_common::{DgfError, Result, Row, Value};
use dgf_format::FileFormat;
use dgf_query::{Engine, EngineRun, Query};
use dgf_storage::FileSplit;

use crate::context::{HiveContext, TableDesc, TableRef};
use crate::scan::{measured_run, ScanInput, ScanPlan};

/// A table partitioned on one column.
pub struct PartitionedTable {
    ctx: Arc<HiveContext>,
    /// Logical descriptor (schema/format); `location` is the table root.
    pub desc: TableRef,
    /// The partition column.
    pub partition_col: String,
    /// Partition value → directory.
    partitions: BTreeMap<Value, String>,
}

impl PartitionedTable {
    /// Create and load a table partitioned on `partition_col`. Rows are
    /// routed to `<root>/<col>=<value>/part-00000`.
    pub fn create(
        ctx: Arc<HiveContext>,
        name: &str,
        schema: dgf_common::SchemaRef,
        format: FileFormat,
        partition_col: &str,
        rows: &[Row],
        files_per_partition: usize,
    ) -> Result<PartitionedTable> {
        let col = schema.index_of(partition_col)?;
        let desc = ctx.create_table(name, schema, format)?;
        let mut buckets: BTreeMap<Value, Vec<Row>> = BTreeMap::new();
        for r in rows {
            if r[col].is_null() {
                return Err(DgfError::Schema(
                    "NULL partition values are not supported".into(),
                ));
            }
            buckets.entry(r[col].clone()).or_default().push(r.clone());
        }
        let mut partitions = BTreeMap::new();
        for (value, part_rows) in buckets {
            let dir = format!("{}/{partition_col}={value}", desc.location);
            ctx.hdfs.mkdirs(&dir)?;
            let part_desc = TableDesc {
                location: dir.clone(),
                ..(*desc).clone()
            };
            ctx.load_rows(&part_desc, &part_rows, files_per_partition)?;
            partitions.insert(value, dir);
        }
        Ok(PartitionedTable {
            ctx,
            desc,
            partition_col: partition_col.to_owned(),
            partitions,
        })
    }

    /// Number of partitions (directories).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Splits of the partitions surviving pruning by `query`'s predicate.
    pub fn pruned_splits(&self, query: &Query) -> (Vec<FileSplit>, u64) {
        let range = query.predicate().range_of(&self.partition_col);
        let mut splits = Vec::new();
        let mut total = 0u64;
        for (value, dir) in &self.partitions {
            let part_splits = self.ctx.hdfs.splits_for_dir(dir);
            total += part_splits.len() as u64;
            let keep = match range {
                Some(r) => r.contains(value),
                None => true,
            };
            if keep {
                splits.extend(part_splits);
            }
        }
        (splits, total)
    }
}

/// Query engine over a partitioned table: prune, then scan survivors.
pub struct PartitionEngine {
    table: Arc<PartitionedTable>,
    right: Option<TableRef>,
    profiler: Profiler,
}

impl PartitionEngine {
    /// An engine over a partitioned table. Honours `DGF_TRACE` for
    /// profiling.
    pub fn new(table: Arc<PartitionedTable>) -> Self {
        PartitionEngine {
            table,
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

impl Engine for PartitionEngine {
    fn name(&self) -> String {
        format!("Partition({})", self.table.partition_col)
    }

    fn run(&self, query: &Query) -> Result<EngineRun> {
        let (ctx, table) = (&self.table.ctx, &self.table);
        measured_run(ctx, &table.desc, self.right.as_deref(), &self.profiler, query, || {
            ScanPlan::measure(ctx, || {
                let (splits, splits_total) = table.pruned_splits(query);
                Ok((splits.into_iter().map(ScanInput::FullSplit).collect(), splits_total))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanEngine;
    use dgf_common::{Schema, TempDir, ValueType};
    use dgf_mapreduce::MrEngine;
    use dgf_query::{AggFunc, ColumnRange, Predicate};
    use dgf_storage::{HdfsConfig, SimHdfs};

    fn setup() -> (TempDir, Arc<HiveContext>, Vec<Row>) {
        let t = TempDir::new("part").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 1024,
                replication: 1,
            },
        )
        .unwrap();
        let ctx = HiveContext::new(h, MrEngine::new(4));
        let rows: Vec<Row> = (0..300)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 6), // partition column: 6 days
                    Value::Float(i as f64),
                ]
            })
            .collect();
        (t, ctx, rows)
    }

    fn schema() -> dgf_common::SchemaRef {
        Arc::new(Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("day", ValueType::Int),
            ("power", ValueType::Float),
        ]))
    }

    #[test]
    fn pruning_reads_only_matching_partitions() {
        let (_t, ctx, rows) = setup();
        let pt = PartitionedTable::create(
            Arc::clone(&ctx),
            "meter",
            schema(),
            FileFormat::Text,
            "day",
            &rows,
            1,
        )
        .unwrap();
        assert_eq!(pt.partition_count(), 6);
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all()
                .and("day", ColumnRange::half_open(Value::Int(1), Value::Int(3))),
        };
        let run = PartitionEngine::new(Arc::new(pt)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(100));
        assert_eq!(run.stats.data_records_read, 100); // only 2 of 6 partitions
        assert!(run.stats.splits_read < run.stats.splits_total);
    }

    #[test]
    fn unconstrained_query_scans_everything_and_matches_flat_table() {
        let (_t, ctx, rows) = setup();
        let flat = ctx
            .create_table("flat", schema(), FileFormat::Text)
            .unwrap();
        ctx.load_rows(&flat, &rows, 3).unwrap();
        let pt = PartitionedTable::create(
            Arc::clone(&ctx),
            "meter",
            schema(),
            FileFormat::Text,
            "day",
            &rows,
            1,
        )
        .unwrap();
        let q = Query::GroupBy {
            key: "day".into(),
            aggs: vec![AggFunc::Sum("power".into())],
            predicate: Predicate::all(),
        };
        let a = PartitionEngine::new(Arc::new(pt)).run(&q).unwrap();
        let b = ScanEngine::new(Arc::clone(&ctx), flat).run(&q).unwrap();
        assert_eq!(a.result.normalized(), b.result.normalized());
    }

    #[test]
    fn namenode_pressure_grows_with_partitions() {
        let (_t, ctx, rows) = setup();
        let before = ctx.hdfs.namenode_memory_bytes();
        PartitionedTable::create(
            Arc::clone(&ctx),
            "meter",
            schema(),
            FileFormat::Text,
            "user_id", // 300 distinct values = 300 directories
            &rows,
            1,
        )
        .unwrap();
        let after = ctx.hdfs.namenode_memory_bytes();
        let (dirs, files, _) = ctx.hdfs.namenode_objects();
        assert!(dirs > 300);
        assert!(files >= 300);
        // At 150 B per object this is the paper's §2.2 arithmetic.
        assert!(after - before >= 600 * dgf_storage::BYTES_PER_OBJECT);
    }

    #[test]
    fn null_partition_value_rejected() {
        let (_t, ctx, mut rows) = setup();
        rows[0][1] = Value::Null;
        assert!(PartitionedTable::create(
            Arc::clone(&ctx),
            "meter",
            schema(),
            FileFormat::Text,
            "day",
            &rows,
            1,
        )
        .is_err());
    }
}

//! The smart-grid laboratory: one shared setup holding the meter dataset
//! and every engine the paper compares (§5.3).

use std::sync::Arc;

use dgf_common::{Result, Row, TempDir};
use dgf_core::{DgfEngine, DgfIndex, DimPolicy, SplittingPolicy};
use dgf_format::FileFormat;
use dgf_hadoopdb::{HadoopDb, HadoopDbEngine};
use dgf_hive::{
    BuildReport, CompactEngine, CompactIndex, HiveContext, ScanEngine, TableRef,
};
use dgf_kvstore::{KvStore, LatencyKv, MemKvStore};
use dgf_mapreduce::MrEngine;
use dgf_query::AggFunc;
use dgf_storage::{HdfsConfig, SimHdfs};
use dgf_workload::{generate_meter_data, generate_user_info, meter_schema, user_info_schema};

use crate::scale::BenchScale;

/// The paper's three `userId` interval settings (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalSize {
    /// userId split into ~100 intervals.
    Large,
    /// ~1 000 intervals.
    Medium,
    /// ~10 000 intervals.
    Small,
}

impl IntervalSize {
    /// All three settings in paper order.
    pub fn all() -> [IntervalSize; 3] {
        [IntervalSize::Large, IntervalSize::Medium, IntervalSize::Small]
    }

    /// Index into per-variant arrays.
    pub fn idx(&self) -> usize {
        match self {
            IntervalSize::Large => 0,
            IntervalSize::Medium => 1,
            IntervalSize::Small => 2,
        }
    }

    /// Bench-table label.
    pub fn label(&self) -> &'static str {
        match self {
            IntervalSize::Large => "large",
            IntervalSize::Medium => "medium",
            IntervalSize::Small => "small",
        }
    }
}

/// Shared experiment state for the real-world (meter) dataset.
pub struct MeterLab {
    _tmp: TempDir,
    /// The scale this lab was built at.
    pub scale: BenchScale,
    /// Warehouse context.
    pub ctx: Arc<HiveContext>,
    /// The generated meter rows (ground truth).
    pub rows: Vec<Row>,
    /// TextFile base table (DGFIndex requires TextFile in the paper).
    pub text_table: TableRef,
    /// RCFile base table (the paper builds the Compact Index on RCFile).
    pub rc_table: TableRef,
    /// The archive user table.
    pub users: TableRef,
    /// 2-D Compact Index on (regionId, time) over the RCFile table.
    pub compact2: Arc<CompactIndex>,
    /// Build report of `compact2`.
    pub compact2_report: BuildReport,
    /// DGF indexes at Large/Medium/Small userId intervals.
    pub dgf: [Arc<DgfIndex>; 3],
    /// Build reports of the DGF variants.
    pub dgf_reports: [BuildReport; 3],
    /// The HadoopDB deployment.
    pub hadoopdb: Arc<HadoopDb>,
}

impl MeterLab {
    /// The paper's pre-compute list: `sum(powerConsumed)` (§5.3.1).
    pub fn precompute() -> Vec<AggFunc> {
        vec![AggFunc::Sum("power_consumed".into())]
    }

    /// Build the full lab (tables, indexes, deployment) at `scale`.
    pub fn build(scale: BenchScale) -> Result<MeterLab> {
        let tmp = TempDir::new("meterlab")?;
        let hdfs = SimHdfs::new(
            tmp.path().join("hdfs"),
            HdfsConfig {
                block_size: scale.block_size,
                replication: 2,
            },
        )?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(scale.threads));

        let rows = generate_meter_data(&scale.meter);
        let user_rows = generate_user_info(&scale.meter);

        let text_table = ctx.create_table("meterdata_text", meter_schema(), FileFormat::Text)?;
        ctx.load_rows(&text_table, &rows, scale.files)?;
        let rc_table = ctx.create_table("meterdata_rc", meter_schema(), FileFormat::RcFile)?;
        ctx.load_rows(&rc_table, &rows, scale.files)?;
        let users = ctx.create_table("user_info", user_info_schema(), FileFormat::Text)?;
        ctx.load_rows(&users, &user_rows, 1)?;

        // Compact Index: the paper's initial 3-D attempt produced an index
        // nearly the size of the base table, so its production setting is
        // 2-D on the two low-cardinality dimensions (regionId, time).
        let (compact2, compact2_report) = CompactIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&rc_table),
            vec!["region_id".into(), "ts".into()],
            "compact2_meter",
        )?;

        // DGF indexes: fixed intervals for regionId (1) and time (1 day);
        // userId interval varies Large/Medium/Small (§5.3.1).
        let intervals = scale.user_intervals();
        let mut dgf_vec = Vec::with_capacity(3);
        let mut report_vec = Vec::with_capacity(3);
        for (i, label) in ["large", "medium", "small"].iter().enumerate() {
            let policy = SplittingPolicy::new(vec![
                DimPolicy::int("user_id", 0, intervals[i]),
                DimPolicy::int("region_id", 0, 1),
                DimPolicy::date("ts", scale.meter.start_day, 1),
            ])?;
            let kv: Arc<dyn KvStore> = Arc::new(LatencyKv::new(
                MemKvStore::new(),
                scale.kv_latency,
            ));
            let (idx, report) = DgfIndex::build(
                Arc::clone(&ctx),
                Arc::clone(&text_table),
                policy,
                Self::precompute(),
                kv,
                &format!("dgf_{label}"),
            )?;
            dgf_vec.push(Arc::new(idx));
            report_vec.push(report);
        }
        let dgf: [Arc<DgfIndex>; 3] = dgf_vec
            .try_into()
            .unwrap_or_else(|_| unreachable!("three variants"));
        let dgf_reports: [BuildReport; 3] = report_vec
            .try_into()
            .unwrap_or_else(|_| unreachable!("three variants"));

        let mut hdb = HadoopDb::load(
            tmp.path().join("hadoopdb"),
            (*meter_schema()).clone(),
            &rows,
            "user_id",
            &["region_id", "ts"],
            scale.hadoopdb.clone(),
        )?;
        hdb.replicate_right((*user_info_schema()).clone(), user_rows);

        Ok(MeterLab {
            _tmp: tmp,
            scale,
            ctx,
            rows,
            text_table,
            rc_table,
            users,
            compact2: Arc::new(compact2),
            compact2_report,
            dgf,
            dgf_reports,
            hadoopdb: Arc::new(hdb),
        })
    }

    /// A scan engine over the text table.
    pub fn scan_engine(&self) -> ScanEngine {
        ScanEngine::new(Arc::clone(&self.ctx), Arc::clone(&self.text_table))
            .with_right(Arc::clone(&self.users))
    }

    /// The Compact Index engine.
    pub fn compact_engine(&self) -> CompactEngine {
        CompactEngine::new(Arc::clone(&self.compact2)).with_right(Arc::clone(&self.users))
    }

    /// A DGF engine at the given interval size.
    pub fn dgf_engine(&self, size: IntervalSize) -> DgfEngine {
        DgfEngine::new(Arc::clone(&self.dgf[size.idx()])).with_right(Arc::clone(&self.users))
    }

    /// The HadoopDB engine.
    pub fn hadoopdb_engine(&self) -> HadoopDbEngine {
        HadoopDbEngine::new(Arc::clone(&self.hadoopdb))
    }

    /// Exact matching-row count for a predicate (ground truth for the
    /// paper's "Accurate" table rows).
    pub fn accurate_count(&self, predicate: &dgf_query::Predicate) -> Result<u64> {
        let schema = meter_schema();
        let bound = predicate.bind(&schema)?;
        Ok(self.rows.iter().filter(|r| bound.matches(r)).count() as u64)
    }

    /// Build the 3-D Compact Index the paper attempted first (§5.3.1) —
    /// expensive by design, so callers opt in.
    pub fn build_compact3(&self) -> Result<(Arc<CompactIndex>, BuildReport)> {
        let (idx, report) = CompactIndex::build(
            Arc::clone(&self.ctx),
            Arc::clone(&self.rc_table),
            vec!["user_id".into(), "region_id".into(), "ts".into()],
            "compact3_meter",
        )?;
        Ok((Arc::new(idx), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_query::{Engine, QueryResult};
    use dgf_workload::{aggregation_query, Selectivity};

    #[test]
    fn lab_builds_and_all_engines_agree() {
        let mut scale = BenchScale::small();
        scale.meter.users = 300;
        scale.meter.days = 10;
        scale.kv_latency = dgf_kvstore::LatencyModel::ZERO;
        scale.hadoopdb.per_chunk_overhead = std::time::Duration::ZERO;
        let lab = MeterLab::build(scale).unwrap();
        let q = aggregation_query(&lab.scale.meter, Selectivity::Frac(0.08));
        let truth: QueryResult = lab.scan_engine().run(&q).unwrap().result;
        for size in IntervalSize::all() {
            let r = lab.dgf_engine(size).run(&q).unwrap().result;
            assert_eq!(r, truth, "dgf {}", size.label());
        }
        let r = lab.compact_engine().run(&q).unwrap().result;
        assert_eq!(r, truth, "compact");
        let r = lab.hadoopdb_engine().run(&q).unwrap().result;
        assert_eq!(r, truth, "hadoopdb");
    }
}

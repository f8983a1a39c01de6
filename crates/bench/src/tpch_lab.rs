//! The TPC-H laboratory (§5.4): lineitem tables, the DGF grid on
//! (l_discount, l_quantity, l_shipdate), and the 2-D/3-D Compact Indexes.

use std::sync::Arc;

use dgf_common::{Result, Row, TempDir};
use dgf_core::{DgfEngine, DgfIndex, DimPolicy, SplittingPolicy};
use dgf_format::FileFormat;
use dgf_hive::{BuildReport, CompactEngine, CompactIndex, HiveContext, ScanEngine, TableRef};
use dgf_kvstore::{KvStore, LatencyKv, MemKvStore};
use dgf_mapreduce::MrEngine;
use dgf_storage::{HdfsConfig, SimHdfs};
use dgf_workload::tpch::{generate_lineitem, lineitem_schema, q6_revenue_agg, ship_min_day};

use crate::scale::BenchScale;

/// Shared experiment state for the TPC-H dataset.
pub struct TpchLab {
    _tmp: TempDir,
    /// The scale this lab was built at.
    pub scale: BenchScale,
    /// Warehouse context.
    pub ctx: Arc<HiveContext>,
    /// Generated lineitem rows.
    pub rows: Vec<Row>,
    /// TextFile base (DGFIndex).
    pub text_table: TableRef,
    /// RCFile base (Compact Indexes).
    pub rc_table: TableRef,
    /// DGFIndex with the paper's intervals: discount 0.01, quantity 1.0,
    /// shipdate 100 days.
    pub dgf: Arc<DgfIndex>,
    /// DGF build report.
    pub dgf_report: BuildReport,
    /// 2-D Compact Index on (l_discount, l_quantity).
    pub compact2: Arc<CompactIndex>,
    /// Its build report.
    pub compact2_report: BuildReport,
    /// 3-D Compact Index on (l_discount, l_quantity, l_shipdate).
    pub compact3: Arc<CompactIndex>,
    /// Its build report.
    pub compact3_report: BuildReport,
}

impl TpchLab {
    /// Build the lab at `scale`.
    pub fn build(scale: BenchScale) -> Result<TpchLab> {
        let tmp = TempDir::new("tpchlab")?;
        let hdfs = SimHdfs::new(
            tmp.path().join("hdfs"),
            HdfsConfig {
                block_size: scale.block_size,
                replication: 2,
            },
        )?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(scale.threads));
        let rows = generate_lineitem(&scale.tpch);

        let text_table = ctx.create_table("lineitem_text", lineitem_schema(), FileFormat::Text)?;
        ctx.load_rows(&text_table, &rows, scale.files)?;
        let rc_table = ctx.create_table("lineitem_rc", lineitem_schema(), FileFormat::RcFile)?;
        ctx.load_rows(&rc_table, &rows, scale.files)?;

        // Paper §5.4: "we set the interval size of l_discount, l_quantity
        // and l_shipdate to 0.01, 1.0 and 100 days respectively".
        let policy = SplittingPolicy::new(vec![
            DimPolicy::float("l_discount", 0.0, 0.01),
            DimPolicy::float("l_quantity", 1.0, 1.0),
            DimPolicy::date("l_shipdate", ship_min_day(), 100),
        ])?;
        let kv: Arc<dyn KvStore> =
            Arc::new(LatencyKv::new(MemKvStore::new(), scale.kv_latency));
        let (dgf, dgf_report) = DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&text_table),
            policy,
            vec![q6_revenue_agg()],
            kv,
            "dgf_lineitem",
        )?;

        let (compact2, compact2_report) = CompactIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&rc_table),
            vec!["l_discount".into(), "l_quantity".into()],
            "compact2_lineitem",
        )?;
        let (compact3, compact3_report) = CompactIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&rc_table),
            vec![
                "l_discount".into(),
                "l_quantity".into(),
                "l_shipdate".into(),
            ],
            "compact3_lineitem",
        )?;

        Ok(TpchLab {
            _tmp: tmp,
            scale,
            ctx,
            rows,
            text_table,
            rc_table,
            dgf: Arc::new(dgf),
            dgf_report,
            compact2: Arc::new(compact2),
            compact2_report,
            compact3: Arc::new(compact3),
            compact3_report,
        })
    }

    /// Scan baseline over the text table.
    pub fn scan_engine(&self) -> ScanEngine {
        ScanEngine::new(Arc::clone(&self.ctx), Arc::clone(&self.text_table))
    }

    /// DGF engine.
    pub fn dgf_engine(&self) -> DgfEngine {
        DgfEngine::new(Arc::clone(&self.dgf))
    }

    /// 2-D Compact engine.
    pub fn compact2_engine(&self) -> CompactEngine {
        CompactEngine::new(Arc::clone(&self.compact2))
    }

    /// 3-D Compact engine.
    pub fn compact3_engine(&self) -> CompactEngine {
        CompactEngine::new(Arc::clone(&self.compact3))
    }

    /// Exact matching-row count for the "Accurate" row of Table 6.
    pub fn accurate_count(&self, predicate: &dgf_query::Predicate) -> Result<u64> {
        let schema = lineitem_schema();
        let bound = predicate.bind(&schema)?;
        Ok(self.rows.iter().filter(|r| bound.matches(r)).count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_query::Engine;
    use dgf_workload::tpch::q6;

    #[test]
    fn q6_agrees_across_engines() {
        let mut scale = BenchScale::small();
        scale.tpch.rows = 8_000;
        scale.kv_latency = dgf_kvstore::LatencyModel::ZERO;
        let lab = TpchLab::build(scale).unwrap();
        let q = q6(1994, 0.06, 24.0);
        let truth = lab.scan_engine().run(&q).unwrap();
        let dgf = lab.dgf_engine().run(&q).unwrap();
        assert_eq!(dgf.result, truth.result);
        let c2 = lab.compact2_engine().run(&q).unwrap();
        assert_eq!(c2.result, truth.result);
        let c3 = lab.compact3_engine().run(&q).unwrap();
        assert_eq!(c3.result, truth.result);
        // The paper's Table 6 shape: DGF reads far less than Compact,
        // which reads (nearly) everything on scattered data.
        assert!(dgf.stats.data_records_read * 4 < c2.stats.data_records_read);
        assert!(c2.stats.data_records_read as f64 >= 0.9 * lab.rows.len() as f64);
    }
}

//! Hive's Bitmap Index (paper §2.2, HIVE-1803).
//!
//! A Compact Index variant for RCFile tables: each entry stores a row-group
//! offset plus a **bitmap of matching rows inside the group**, so after
//! split filtering the reader can also skip non-matching rows within each
//! chosen group. The paper notes it "only improves the query performance
//! on RCFile format data" — on TextFile every line is its own block, so
//! the bitmap degenerates; this implementation accordingly requires an
//! RCFile base table.

use std::collections::HashMap;
use std::sync::Arc;

use dgf_common::obs::Profiler;
use dgf_common::{DgfError, Result, ValueType};
use dgf_format::{Bitmap, FileFormat};
use dgf_query::{Engine, EngineRun, Predicate, Query};

use crate::context::{HiveContext, TableRef};
use crate::index_common::{build_index_table, probe, BuildReport, Emit};
use crate::scan::{measured_run, ScanInput, ScanPlan};

/// A built Bitmap Index over an RCFile table.
pub struct BitmapIndex {
    ctx: Arc<HiveContext>,
    base: TableRef,
    dims: Vec<String>,
    index_table: TableRef,
}

fn bitmap_to_hex(b: &Bitmap) -> String {
    let bytes = b.to_bytes();
    let mut s = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{byte:02x}");
    }
    s
}

fn bitmap_from_hex(s: &str) -> Result<Bitmap> {
    if !s.len().is_multiple_of(2) {
        return Err(DgfError::Corrupt("odd-length bitmap hex".into()));
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        let b = u8::from_str_radix(&s[i..i + 2], 16)
            .map_err(|e| DgfError::Corrupt(format!("bad bitmap hex: {e}")))?;
        bytes.push(b);
    }
    Ok(Bitmap::from_bytes(&bytes))
}

impl BitmapIndex {
    /// Build the index: one entry per (dims, file, group) with the bitmap
    /// of rows in that group carrying those dimension values.
    pub fn build(
        ctx: Arc<HiveContext>,
        base: TableRef,
        dims: Vec<String>,
        index_name: &str,
    ) -> Result<(BitmapIndex, BuildReport)> {
        if base.format != FileFormat::RcFile {
            return Err(DgfError::Index(
                "Bitmap Index requires an RCFile base table".into(),
            ));
        }
        let (index_table, report) = build_index_table(
            &ctx,
            &base,
            &dims,
            index_name,
            &[("_offset", ValueType::Int), ("_bitmaps", ValueType::Str)],
            Emit::RowInBlock,
            &|rows| bitmap_to_hex(&rows.into_iter().map(|r| r as usize).collect()),
        )?;
        let index = BitmapIndex {
            ctx,
            base,
            dims,
            index_table,
        };
        Ok((index, report))
    }

    /// The index table.
    pub fn index_table(&self) -> &TableRef {
        &self.index_table
    }

    /// Plan: probe the index table, union bitmaps per (file, group),
    /// choose splits containing a matching group.
    pub fn plan(&self, predicate: &Predicate) -> Result<ScanPlan> {
        ScanPlan::measure(&self.ctx, || {
            let file_col = self.dims.len();
            let mut per_file: HashMap<String, HashMap<u64, Bitmap>> = HashMap::new();
            for row in probe(&self.ctx, &self.index_table, &self.dims, predicate)? {
                per_file
                    .entry(row[file_col].as_str()?.to_owned())
                    .or_default()
                    .entry(row[file_col + 1].as_i64()? as u64)
                    .or_default()
                    .union_with(&bitmap_from_hex(row[file_col + 2].as_str()?)?);
            }

            let splits = self.ctx.table_splits(&self.base);
            let splits_total = splits.len() as u64;
            let mut inputs = Vec::new();
            for split in splits {
                let Some(groups) = per_file.get(&split.path) else {
                    continue;
                };
                let row_filter: HashMap<u64, Bitmap> = groups
                    .iter()
                    .filter(|(o, _)| (split.start..split.end()).contains(*o))
                    .map(|(o, b)| (*o, b.clone()))
                    .collect();
                if !row_filter.is_empty() {
                    inputs.push(ScanInput::RcFiltered { split, row_filter });
                }
            }
            Ok((inputs, splits_total))
        })
    }
}

/// The Bitmap Index query engine.
pub struct BitmapEngine {
    index: Arc<BitmapIndex>,
    right: Option<TableRef>,
    profiler: Profiler,
}

impl BitmapEngine {
    /// An engine over a built index. Honours `DGF_TRACE` for profiling.
    pub fn new(index: Arc<BitmapIndex>) -> Self {
        BitmapEngine {
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

impl Engine for BitmapEngine {
    fn name(&self) -> String {
        format!("Bitmap-{}D", self.index.dims.len())
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
    use crate::scan::ScanEngine;
    use dgf_common::{Row, Schema, TempDir, Value};
    use dgf_mapreduce::MrEngine;
    use dgf_query::{AggFunc, ColumnRange};
    use dgf_storage::{HdfsConfig, SimHdfs};

    fn setup() -> (TempDir, Arc<HiveContext>, TableRef) {
        let t = TempDir::new("bmidx").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 4096,
                replication: 1,
            },
        )
        .unwrap();
        let ctx = HiveContext::new(h, MrEngine::new(4));
        let schema = Arc::new(Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let mut tab = (*ctx
            .create_table("meter", schema, FileFormat::RcFile)
            .unwrap())
        .clone();
        tab.rows_per_group = 32; // small groups so bitmaps matter
        let tab = Arc::new(tab);
        let rows: Vec<Row> = (0..400)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 8),
                    Value::Float(i as f64),
                ]
            })
            .collect();
        ctx.load_rows(&tab, &rows, 2).unwrap();
        (t, ctx, tab)
    }

    #[test]
    fn hex_round_trip() {
        let b: Bitmap = [0usize, 5, 63, 64, 130].into_iter().collect();
        let r = bitmap_from_hex(&bitmap_to_hex(&b)).unwrap();
        assert_eq!(b, r);
        assert!(bitmap_from_hex("zz").is_err());
        assert!(bitmap_from_hex("abc").is_err());
    }

    #[test]
    fn bitmap_query_matches_scan_and_reads_fewer_records() {
        let (_t, ctx, tab) = setup();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
            predicate: Predicate::all().and("region_id", ColumnRange::eq(Value::Int(3))),
        };
        let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
            .run(&q)
            .unwrap();
        let (idx, report) = BitmapIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            vec!["region_id".into()],
            "bm_idx",
        )
        .unwrap();
        assert!(report.index_entries > 0);
        let run = BitmapEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert_eq!(run.result, scan.result);
        // The bitmap filters inside groups: exactly the matching rows.
        assert_eq!(run.stats.data_records_read, 50);
        assert!(run.stats.data_records_read < scan.stats.data_records_read);
    }

    #[test]
    fn requires_rcfile() {
        let (_t, ctx, _tab) = setup();
        let schema = Arc::new(Schema::from_pairs(&[("a", ValueType::Int)]));
        let text = ctx.create_table("txt", schema, FileFormat::Text).unwrap();
        assert!(BitmapIndex::build(
            Arc::clone(&ctx),
            text,
            vec!["a".into()],
            "bm_txt"
        )
        .is_err());
    }

    #[test]
    fn range_predicate_unions_bitmaps() {
        let (_t, ctx, tab) = setup();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and(
                "region_id",
                ColumnRange::half_open(Value::Int(2), Value::Int(5)),
            ),
        };
        let (idx, _) = BitmapIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            vec!["region_id".into()],
            "bm_idx",
        )
        .unwrap();
        let run = BitmapEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(150));
        assert_eq!(run.stats.data_records_read, 150);
    }

    #[test]
    fn no_match_reads_nothing() {
        let (_t, ctx, tab) = setup();
        let (idx, _) = BitmapIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&tab),
            vec!["region_id".into()],
            "bm_idx",
        )
        .unwrap();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and("region_id", ColumnRange::eq(Value::Int(42))),
        };
        let run = BitmapEngine::new(Arc::new(idx)).run(&q).unwrap();
        assert_eq!(run.result.into_scalars()[0], Value::Int(0));
        assert_eq!(run.stats.data_records_read, 0);
        assert_eq!(run.stats.splits_read, 0);
    }
}

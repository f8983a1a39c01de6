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

use dgf_common::{DgfError, Result, Stopwatch, ValueType};
use dgf_format::{Bitmap, FileFormat, TextWriter};
use dgf_query::{Engine, EngineRun, Predicate, Query, RunStats};
use dgf_storage::FileSplit;

use crate::context::{HiveContext, TableRef};
use crate::index_common::{dims_key, dims_schema, for_each_dims_row, BuildReport, KEY_SEP};
use crate::scan::{execute, ScanInput};

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
        crate::compact::validate_dims(&base, &dims)?;
        if base.format != FileFormat::RcFile {
            return Err(DgfError::Index(
                "Bitmap Index requires an RCFile base table".into(),
            ));
        }
        let watch = Stopwatch::start();
        let mut fields: Vec<(String, ValueType)> = Vec::new();
        for d in &dims {
            fields.push((d.clone(), base.schema.type_of(d)?));
        }
        fields.push(("_bucketname".into(), ValueType::Str));
        fields.push(("_offset".into(), ValueType::Int));
        fields.push(("_bitmaps".into(), ValueType::Str));
        let pairs: Vec<(&str, ValueType)> =
            fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let index_schema = Arc::new(dgf_common::Schema::from_pairs(&pairs));
        let index_table = ctx.create_table(index_name, index_schema, FileFormat::Text)?;

        let dim_idx: Vec<usize> = dims
            .iter()
            .map(|d| base.schema.index_of(d))
            .collect::<Result<_>>()?;
        let dims_s = Arc::new(dims_schema(&base.schema, &dims)?);
        let splits = ctx.table_splits(&base);
        let num_reducers = ctx.engine.threads().min(splits.len()).max(1);
        let ctx2 = Arc::clone(&ctx);
        let base2 = Arc::clone(&base);
        let index_loc = index_table.location.clone();

        // Key: dims ++ file ++ group offset. Value: row index in the group.
        let job = ctx.engine.map_reduce(
            splits,
            num_reducers,
            &|_, split: FileSplit, e| {
                let path = split.path.clone();
                let mut cur_group = u64::MAX;
                let mut row_in_group = 0u64;
                for_each_dims_row(&ctx2, &base2, split, &dim_idx, |off, dvals| {
                    if off != cur_group {
                        cur_group = off;
                        row_in_group = 0;
                    }
                    let key = format!("{}{KEY_SEP}{off}", dims_key(&dvals, &path));
                    e.emit(key, row_in_group);
                    row_in_group += 1;
                    Ok(())
                })
            },
            None,
            &|tid, groups| {
                let path = format!("{index_loc}/part-{tid:05}");
                let mut w = TextWriter::create(&ctx2.hdfs, &path)?;
                let mut entries = 0u64;
                for (key, row_ids) in groups {
                    let mut parts = key.rsplitn(2, KEY_SEP);
                    let offset: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| DgfError::Corrupt("bad bitmap key".into()))?;
                    let rest = parts
                        .next()
                        .ok_or_else(|| DgfError::Corrupt("bad bitmap key".into()))?;
                    let (dims_part, file) = rest
                        .split_once(KEY_SEP)
                        .ok_or_else(|| DgfError::Corrupt("bad bitmap key".into()))?;
                    dgf_common::parse_row(dims_part, &dims_s)?;
                    let bitmap: Bitmap = row_ids.iter().map(|r| *r as usize).collect();
                    w.write_line(&format!(
                        "{dims_part}|{file}|{offset}|{}",
                        bitmap_to_hex(&bitmap)
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
            BitmapIndex {
                ctx,
                base,
                dims,
                index_table,
            },
            report,
        ))
    }

    /// The index table.
    pub fn index_table(&self) -> &TableRef {
        &self.index_table
    }

    /// Plan: scan the index table, union bitmaps per (file, group), choose
    /// splits containing a matching group.
    pub fn plan(&self, predicate: &Predicate) -> Result<BitmapPlan> {
        let watch = Stopwatch::start();
        let before = self.ctx.hdfs.stats().snapshot();
        let keep: Vec<&str> = self.dims.iter().map(|s| s.as_str()).collect();
        let idx_pred = predicate.project_columns(&keep);
        let bound = idx_pred.bind(&self.index_table.schema)?;
        let file_col = self.dims.len();
        let off_col = self.dims.len() + 1;
        let bm_col = self.dims.len() + 2;

        let mut per_file: HashMap<String, HashMap<u64, Bitmap>> = HashMap::new();
        self.ctx.for_each_row(&self.index_table, |row| {
            if bound.matches(row) {
                let file = row[file_col].as_str()?.to_owned();
                let off = row[off_col].as_i64()? as u64;
                let bm = bitmap_from_hex(row[bm_col].as_str()?)?;
                per_file
                    .entry(file)
                    .or_default()
                    .entry(off)
                    .or_default()
                    .union_with(&bm);
            }
            Ok(())
        })?;

        let all_splits = self.ctx.table_splits(&self.base);
        let splits_total = all_splits.len() as u64;
        let mut inputs = Vec::new();
        for split in all_splits {
            let Some(groups) = per_file.get(&split.path) else {
                continue;
            };
            let mine: HashMap<u64, Bitmap> = groups
                .iter()
                .filter(|(o, _)| **o >= split.start && **o < split.end())
                .map(|(o, b)| (*o, b.clone()))
                .collect();
            if !mine.is_empty() {
                inputs.push(ScanInput::RcFiltered {
                    split,
                    row_filter: mine,
                });
            }
        }
        let delta = self.ctx.hdfs.stats().snapshot().since(&before);
        Ok(BitmapPlan {
            inputs,
            splits_total,
            index_records_read: delta.records_read,
            index_time: watch.elapsed(),
        })
    }
}

/// Result of Bitmap Index planning.
pub struct BitmapPlan {
    /// Filtered scan inputs (split + per-group bitmaps).
    pub inputs: Vec<ScanInput>,
    /// All base-table splits.
    pub splits_total: u64,
    /// Index-table rows scanned.
    pub index_records_read: u64,
    /// Planning time.
    pub index_time: std::time::Duration,
}

/// The Bitmap Index query engine.
pub struct BitmapEngine {
    index: Arc<BitmapIndex>,
    right: Option<TableRef>,
}

impl BitmapEngine {
    /// An engine over a built index.
    pub fn new(index: Arc<BitmapIndex>) -> Self {
        BitmapEngine { index, right: None }
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
        let plan = self.index.plan(query.predicate())?;
        let ctx = &self.index.ctx;
        let before = ctx.hdfs.stats().snapshot();
        let watch = Stopwatch::start();
        let splits_read = plan.inputs.len() as u64;
        let result = execute(
            ctx,
            &self.index.base,
            query,
            self.right.as_deref(),
            plan.inputs,
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
        assert!(run.result.approx_eq(&scan.result, 1e-9));
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

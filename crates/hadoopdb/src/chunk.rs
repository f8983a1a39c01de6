//! A chunk database: the stand-in for one PostgreSQL instance.
//!
//! HadoopDB (paper §5.1–§5.2) bulk-loads each ~1 GB chunk into a separate
//! PostgreSQL database with a multi-column clustered index on
//! `(userId, regionId, time)`. This module reproduces the storage shape:
//! rows sorted by the composite key, packed into fixed-size **pages** on
//! disk, with an in-memory page directory keyed by the leading column — a
//! one-level clustered B-tree. A range query on the leading column seeks
//! to the first overlapping page and scans pages until past the range;
//! a query without a leading-column bound scans every page.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dgf_common::codec::{self, Decoder};
use dgf_common::obs::names;
use dgf_common::{counter_block, DgfError, Result, Row};
use dgf_query::{BoundPredicate, ColumnRange, RowSink};

/// Rows per page. At ~60 B per meter row this approximates an 8 KB
/// PostgreSQL heap page.
pub const ROWS_PER_PAGE: usize = 128;

counter_block! {
    /// I/O counters shared across a HadoopDB deployment.
    ///
    /// Chunk files are read with plain `File` I/O (they model local
    /// PostgreSQL storage, not HDFS), so these counters are the *only*
    /// account of HadoopDB's data traffic, on the same delta/registry
    /// scheme as `IoStats` and `KvStats`.
    pub struct ChunkStats, snapshot ChunkSnapshot {
        /// Pages fetched from disk.
        pages_read: names::HADOOPDB_PAGES_READ,
        /// Rows decoded from fetched pages.
        rows_read: names::HADOOPDB_ROWS_READ,
        /// Bytes read.
        bytes_read: names::HADOOPDB_BYTES_READ,
    }
}

/// One clustered chunk on disk.
#[derive(Debug)]
pub struct ChunkDb {
    path: PathBuf,
    /// `(first_key_of_page, byte_offset, byte_len)` per page, in order.
    directory: Vec<(i64, u64, u32)>,
    /// Column index of the clustering key (leading index column).
    key_col: usize,
    rows: u64,
}

impl ChunkDb {
    /// Bulk-load `rows` (any order) into a chunk file at `path`,
    /// clustering on `key_col` then the remaining `sort_cols`.
    pub fn bulk_load(
        path: impl Into<PathBuf>,
        mut rows: Vec<Row>,
        key_col: usize,
        sort_cols: &[usize],
    ) -> Result<ChunkDb> {
        let path = path.into();
        rows.sort_by(|a, b| {
            a[key_col]
                .cmp(&b[key_col])
                .then_with(|| {
                    for c in sort_cols {
                        let ord = a[*c].cmp(&b[*c]);
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                })
        });
        let mut w = BufWriter::new(File::create(&path)?);
        let mut directory = Vec::new();
        let mut offset = 0u64;
        let total = rows.len() as u64;
        for page_rows in rows.chunks(ROWS_PER_PAGE) {
            let first_key = page_rows[0][key_col].as_i64().map_err(|_| {
                DgfError::Schema("chunk clustering key must be an integer column".into())
            })?;
            let mut buf = Vec::new();
            codec::put_u32(&mut buf, page_rows.len() as u32);
            for r in page_rows {
                codec::put_u32(&mut buf, r.len() as u32);
                for v in r {
                    codec::put_value(&mut buf, v);
                }
            }
            w.write_all(&buf)?;
            directory.push((first_key, offset, buf.len() as u32));
            offset += buf.len() as u64;
        }
        w.flush()?;
        Ok(ChunkDb {
            path,
            directory,
            key_col,
            rows: total,
        })
    }

    /// Rows stored.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Pages stored.
    pub fn page_count(&self) -> usize {
        self.directory.len()
    }

    /// The chunk file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The page index range `[first, last)` overlapping a leading-key
    /// interval; the whole file when the interval is unbounded.
    fn page_range(&self, range: Option<&ColumnRange>) -> (usize, usize) {
        let Some(range) = range else {
            return (0, self.directory.len());
        };
        // First page that could contain the lower bound: the last page
        // whose first key <= bound (rows equal to the bound may start in
        // the previous page).
        let lo = match &range.low {
            std::ops::Bound::Unbounded => 0,
            std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v) => {
                let key = v.as_i64().unwrap_or(i64::MIN);
                self.directory
                    .partition_point(|(first, _, _)| *first <= key)
                    .saturating_sub(1)
            }
        };
        let hi = match &range.high {
            std::ops::Bound::Unbounded => self.directory.len(),
            std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v) => {
                let key = v.as_i64().unwrap_or(i64::MAX);
                // Pages whose first key > bound cannot contain matches.
                self.directory.partition_point(|(first, _, _)| *first <= key)
            }
        };
        (lo.min(hi), hi)
    }

    /// Run the predicate over the chunk via the clustered index, feeding
    /// matching rows into `sink`. Returns rows examined.
    pub fn query(
        &self,
        key_range: Option<&ColumnRange>,
        bound: &BoundPredicate,
        sink: &mut RowSink,
        stats: &ChunkStats,
    ) -> Result<u64> {
        let (first, last) = self.page_range(key_range);
        if first >= last {
            return Ok(0);
        }
        let mut f = File::open(&self.path)?;
        let start = self.directory[first].1;
        let end = self.directory[last - 1].1 + self.directory[last - 1].2 as u64;
        f.seek(SeekFrom::Start(start))?;
        let mut buf = vec![0u8; (end - start) as usize];
        f.read_exact(&mut buf)?;
        stats.pages_read.add((last - first) as u64);
        stats.bytes_read.add(buf.len() as u64);

        let mut examined = 0u64;
        let mut dec = Decoder::new(&buf);
        for _ in first..last {
            let n = dec.u32()? as usize;
            for _ in 0..n {
                let width = dec.u32()? as usize;
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(codec::get_value(&mut dec)?);
                }
                examined += 1;
                // Residual filter on the leading key (page granularity is
                // coarse) plus the rest of the predicate.
                let key_ok = key_range.is_none_or(|r| r.contains(&row[self.key_col]));
                if key_ok {
                    sink.push_if(&row, bound)?;
                }
            }
        }
        stats.rows_read.add(examined);
        Ok(examined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_query::{AggFunc, Predicate, Query};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("power", ValueType::Float),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        // Deliberately unsorted input.
        (0..n)
            .rev()
            .map(|i| {
                vec![
                    Value::Int(i % 500),
                    Value::Int(i % 7),
                    Value::Float(i as f64),
                ]
            })
            .collect()
    }

    fn count_query(pred: Predicate) -> Query {
        Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: pred,
        }
    }

    #[test]
    fn bulk_load_clusters_rows() {
        let t = TempDir::new("chunk").unwrap();
        let db = ChunkDb::bulk_load(t.path().join("c0"), rows(1000), 0, &[1]).unwrap();
        assert_eq!(db.row_count(), 1000);
        assert!(db.page_count() >= 1000 / ROWS_PER_PAGE);
        // Directory keys are nondecreasing.
        for w in db.directory.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn range_query_reads_subset_of_pages() {
        let t = TempDir::new("chunk").unwrap();
        let s = schema();
        let db = ChunkDb::bulk_load(t.path().join("c0"), rows(2000), 0, &[1]).unwrap();
        let stats = ChunkStats::default();
        let pred = Predicate::all().and(
            "user_id",
            ColumnRange::half_open(Value::Int(100), Value::Int(120)),
        );
        let q = count_query(pred.clone());
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        let bound = pred.bind(&s).unwrap();
        db.query(
            pred.range_of("user_id"),
            &bound,
            &mut sink,
            &stats,
        )
        .unwrap();
        // 2000 rows, user = i%500: users 100..120 appear 4 times each.
        assert_eq!(sink.finish().into_scalars()[0], Value::Int(80));
        let pages = stats.pages_read.get() as usize;
        assert!(pages < db.page_count(), "index must prune pages");
    }

    #[test]
    fn no_leading_bound_scans_all_pages() {
        let t = TempDir::new("chunk").unwrap();
        let s = schema();
        let db = ChunkDb::bulk_load(t.path().join("c0"), rows(1000), 0, &[1]).unwrap();
        let stats = ChunkStats::default();
        let pred = Predicate::all().and("region_id", ColumnRange::eq(Value::Int(3)));
        let q = count_query(pred.clone());
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        let bound = pred.bind(&s).unwrap();
        db.query(None, &bound, &mut sink, &stats).unwrap();
        assert_eq!(
            stats.pages_read.get() as usize,
            db.page_count()
        );
        let expected = (0..1000).filter(|i| i % 7 == 3).count() as i64;
        assert_eq!(sink.finish().into_scalars()[0], Value::Int(expected));
    }

    #[test]
    fn point_query_touches_one_or_two_pages() {
        let t = TempDir::new("chunk").unwrap();
        let s = schema();
        let db = ChunkDb::bulk_load(t.path().join("c0"), rows(5000), 0, &[1]).unwrap();
        let stats = ChunkStats::default();
        let pred = Predicate::all().and("user_id", ColumnRange::eq(Value::Int(250)));
        let q = count_query(pred.clone());
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        let bound = pred.bind(&s).unwrap();
        db.query(pred.range_of("user_id"), &bound, &mut sink, &stats)
            .unwrap();
        assert_eq!(sink.finish().into_scalars()[0], Value::Int(10));
        assert!(stats.pages_read.get() <= 2);
    }

    #[test]
    fn empty_range_reads_nothing() {
        let t = TempDir::new("chunk").unwrap();
        let s = schema();
        let db = ChunkDb::bulk_load(t.path().join("c0"), rows(100), 0, &[]).unwrap();
        let stats = ChunkStats::default();
        let pred = Predicate::all().and(
            "user_id",
            ColumnRange::half_open(Value::Int(10_000), Value::Int(20_000)),
        );
        let q = count_query(pred.clone());
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        let bound = pred.bind(&s).unwrap();
        let examined = db
            .query(pred.range_of("user_id"), &bound, &mut sink, &stats)
            .unwrap();
        // The directory may charge one boundary page, no more.
        assert!(examined <= ROWS_PER_PAGE as u64);
        assert_eq!(sink.finish().into_scalars()[0], Value::Int(0));
    }
}

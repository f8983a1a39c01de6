//! A row-group columnar format modeled on Hive's RCFile.
//!
//! Rows are buffered into **row groups**; each group stores its columns
//! contiguously, so a reader can decode only projected columns. The file
//! ends with a footer directory of group offsets (where Hadoop's RCFile
//! uses inline sync markers, this uses an ORC-style footer — equivalent
//! for split assignment, simpler to seek).
//!
//! The Compact/Bitmap index "block offset" for an RCFile table is the
//! group's start offset; the Bitmap Index additionally stores a per-group
//! row bitmap, which [`RcReader::with_row_filter`] consumes to skip
//! non-matching rows inside a chosen group (paper §2.2).

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};

use dgf_common::batch::{self, Column, ColumnBatch};
use dgf_common::codec::{self, Decoder};
use dgf_common::stats::{IoStatsRef, ScanStatsRef};
use dgf_common::{DgfError, Result, Row, SchemaRef};
use dgf_storage::{FileSplit, HdfsRef, HdfsWriter};

use crate::bitmap::Bitmap;
use crate::reader::RecordReader;

const MAGIC_HEAD: &[u8; 4] = b"DRCF";
const MAGIC_TAIL: &[u8; 4] = b"DRCX";

/// Default rows per group. Hive's RCFile targets 4 MB groups; the default
/// here keeps groups small enough that scaled-down tables still have many.
pub const DEFAULT_ROWS_PER_GROUP: usize = 4096;

/// Writes rows into column-laid-out row groups.
pub struct RcWriter {
    inner: HdfsWriter,
    schema: SchemaRef,
    rows_per_group: usize,
    /// Column buffers for the group being built.
    columns: Vec<Vec<u8>>,
    rows_in_group: u32,
    group_offsets: Vec<u64>,
    stats: IoStatsRef,
}

impl RcWriter {
    /// Create an RCFile at `path`.
    pub fn create(
        hdfs: &HdfsRef,
        path: &str,
        schema: SchemaRef,
        rows_per_group: usize,
    ) -> Result<RcWriter> {
        let stats = hdfs.stats().clone();
        let mut inner = hdfs.create(path)?;
        inner.write_all(MAGIC_HEAD)?;
        Ok(RcWriter {
            inner,
            columns: vec![Vec::new(); schema.len()],
            schema,
            rows_per_group: rows_per_group.max(1),
            rows_in_group: 0,
            group_offsets: Vec::new(),
            stats,
        })
    }

    /// Offset of the row group the next row will be placed in.
    ///
    /// This is the "block offset" a Compact Index records for RCFile
    /// tables: all rows of a group share it.
    pub fn group_offset(&self) -> u64 {
        if self.rows_in_group == 0 {
            self.inner.position()
        } else {
            *self.group_offsets.last().expect("open group has an offset")
        }
    }

    /// Append a row; returns the offset of its row group.
    pub fn write_row(&mut self, row: &Row) -> Result<u64> {
        if row.len() != self.schema.len() {
            return Err(DgfError::Schema(format!(
                "row arity {} != schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        if self.rows_in_group == 0 {
            self.group_offsets.push(self.inner.position());
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            codec::put_value(col, v);
        }
        self.rows_in_group += 1;
        self.stats.records_written.inc();
        let at = *self.group_offsets.last().expect("group open");
        if self.rows_in_group as usize >= self.rows_per_group {
            self.flush_group()?;
        }
        Ok(at)
    }

    /// Force the open row group to disk so the next row starts a new
    /// group at a fresh offset. DGFIndex's RCFile mode calls this at
    /// every GFU boundary so each Slice is a whole number of groups.
    pub fn finish_group(&mut self) -> Result<()> {
        self.flush_group()
    }

    fn flush_group(&mut self) -> Result<()> {
        if self.rows_in_group == 0 {
            return Ok(());
        }
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, self.rows_in_group);
        codec::put_u32(&mut payload, self.columns.len() as u32);
        for col in &mut self.columns {
            codec::put_bytes(&mut payload, col);
            col.clear();
        }
        self.inner.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.inner.write_all(&payload)?;
        self.rows_in_group = 0;
        Ok(())
    }

    /// Flush the open group, write the footer, and close the file.
    pub fn close(mut self) -> Result<u64> {
        self.flush_group()?;
        let footer_start = self.inner.position();
        let mut footer = Vec::new();
        codec::put_u32(&mut footer, self.group_offsets.len() as u32);
        for off in &self.group_offsets {
            codec::put_u64(&mut footer, *off);
        }
        codec::put_u64(&mut footer, footer_start);
        footer.extend_from_slice(MAGIC_TAIL);
        self.inner.write_all(&footer)?;
        self.inner.close()
    }
}

/// Load the footer directory of group offsets.
pub fn read_group_offsets(hdfs: &HdfsRef, path: &str) -> Result<Vec<u64>> {
    Ok(read_footer(hdfs, path)?.0)
}

/// The footer directory plus the offset it starts at — the end of the
/// last row group, which bounds every frame a reader may fetch.
fn read_footer(hdfs: &HdfsRef, path: &str) -> Result<(Vec<u64>, u64)> {
    let len = hdfs.file_len(path)?;
    if len < 16 {
        return Err(DgfError::Corrupt(format!("{path}: too short for an RCFile")));
    }
    let mut r = hdfs.open_reader(path)?;
    let mut tail = [0u8; 12];
    r.seek(SeekFrom::Start(len - 12))?;
    r.read_exact(&mut tail)?;
    if &tail[8..12] != MAGIC_TAIL {
        return Err(DgfError::Corrupt(format!("{path}: bad RCFile tail magic")));
    }
    let footer_start = u64::from_le_bytes(tail[..8].try_into().unwrap());
    if footer_start >= len {
        return Err(DgfError::Corrupt(format!("{path}: footer offset out of range")));
    }
    r.seek(SeekFrom::Start(footer_start))?;
    let mut footer = vec![0u8; (len - footer_start) as usize];
    r.read_exact(&mut footer)?;
    let mut dec = Decoder::new(&footer);
    let n = dec.u32()? as usize;
    // Each offset takes eight footer bytes: a count beyond what the
    // footer can hold is corruption, not an allocation request.
    if n > dec.remaining() / 8 {
        return Err(DgfError::Corrupt(format!(
            "{path}: footer claims {n} row groups in {} bytes",
            dec.remaining()
        )));
    }
    let mut offsets = Vec::with_capacity(n);
    for _ in 0..n {
        offsets.push(dec.u64()?);
    }
    Ok((offsets, footer_start))
}

/// A decoded batch held while its rows are handed out one at a time.
struct BatchCursor {
    batch: ColumnBatch,
    pos: usize,
}

/// Reads the row groups of one input split.
///
/// Each group is decoded **once** into a [`ColumnBatch`] — typed per-column
/// vectors plus null bitmaps — honoring [`Self::with_projection`] (skipped
/// columns are never decoded) and [`Self::with_row_filter`] (the batch is
/// compacted to surviving rows) at the batch level. Vectorized consumers
/// drain whole batches via [`Self::next_batch`]; the row-at-a-time
/// [`RecordReader`] interface remains and hands out rows from the same
/// decoded batches (DESIGN.md §12).
pub struct RcReader {
    hdfs: HdfsRef,
    path: String,
    schema: SchemaRef,
    group_offsets: std::vec::IntoIter<u64>,
    /// Where the footer starts: no group frame may end past it.
    footer_start: u64,
    current: Option<BatchCursor>,
    /// Decode only these column indexes; others become `Value::Null`.
    projection: Option<Vec<usize>>,
    /// Per-group row bitmaps: only set rows are returned.
    row_filter: Option<HashMap<u64, Bitmap>>,
    stats: IoStatsRef,
    /// Columnar-scan accounting, when the caller wants it attributed.
    scan_stats: Option<ScanStatsRef>,
}

impl RcReader {
    /// Open a reader over the groups whose start offset lies in `split`.
    pub fn open(hdfs: &HdfsRef, schema: SchemaRef, split: &FileSplit) -> Result<RcReader> {
        let (all, footer_start) = read_footer(hdfs, &split.path)?;
        let mine: Vec<u64> = all
            .into_iter()
            .filter(|o| *o >= split.start && *o < split.end())
            .collect();
        Ok(RcReader {
            hdfs: hdfs.clone(),
            path: split.path.clone(),
            schema,
            group_offsets: mine.into_iter(),
            footer_start,
            current: None,
            projection: None,
            row_filter: None,
            stats: hdfs.stats().clone(),
            scan_stats: None,
        })
    }

    /// Restrict decoding to the given column indexes.
    pub fn with_projection(mut self, cols: Vec<usize>) -> Self {
        self.projection = Some(cols);
        self
    }

    /// Keep only row groups whose start offset lies inside one of the
    /// given byte ranges (the RCFile analogue of the slice-skipping text
    /// reader: DGFIndex slices over RCFile data are group-aligned).
    pub fn with_group_ranges(mut self, ranges: &[crate::reader::ByteRange]) -> Self {
        let keep: Vec<u64> = self
            .group_offsets
            .clone()
            .filter(|o| ranges.iter().any(|r| *o >= r.start && *o < r.end))
            .collect();
        self.group_offsets = keep.into_iter();
        self
    }

    /// Only return rows whose bit is set in their group's bitmap; groups
    /// absent from the map are skipped entirely.
    pub fn with_row_filter(mut self, filter: HashMap<u64, Bitmap>) -> Self {
        self.row_filter = Some(filter);
        self
    }

    /// Attribute decode time and batch counts to `stats`.
    pub fn with_scan_stats(mut self, stats: ScanStatsRef) -> Self {
        self.scan_stats = Some(stats);
        self
    }

    /// The next group's payload bytes. A filtered-out group is never
    /// fetched from disk.
    fn fetch_payload(&mut self) -> Result<Option<(u64, Vec<u8>)>> {
        loop {
            let Some(offset) = self.group_offsets.next() else {
                return Ok(None);
            };
            if let Some(filter) = &self.row_filter {
                if !filter.contains_key(&offset) {
                    continue;
                }
            }
            let mut r = self.hdfs.open_reader(&self.path)?;
            r.seek(SeekFrom::Start(offset))?;
            let mut len_buf = [0u8; 4];
            r.read_exact(&mut len_buf)?;
            let n = u32::from_le_bytes(len_buf) as usize;
            // The file carries no checksum: a frame length that runs
            // into the footer is corruption, not an allocation request.
            if offset.saturating_add(4 + n as u64) > self.footer_start {
                return Err(DgfError::Corrupt(format!(
                    "{}: group at {offset} claims {n} bytes, footer starts at {}",
                    self.path, self.footer_start
                )));
            }
            let mut payload = vec![0u8; n];
            r.read_exact(&mut payload)?;
            return Ok(Some((offset, payload)));
        }
    }

    /// Decode one group payload into a batch, applying projection while
    /// decoding and the row filter by compaction afterwards.
    fn decode_group(&self, offset: u64, payload: &[u8]) -> Result<ColumnBatch> {
        let start = std::time::Instant::now();
        let mut dec = Decoder::new(payload);
        let n_rows = dec.u32()? as usize;
        let n_cols = dec.u32()? as usize;
        if n_cols != self.schema.len() {
            return Err(DgfError::Corrupt(format!(
                "{}: group has {n_cols} columns, schema has {}",
                self.path,
                self.schema.len()
            )));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for c in 0..n_cols {
            let col_bytes = dec.bytes()?;
            let decode = match &self.projection {
                Some(p) => p.contains(&c),
                None => true,
            };
            if decode {
                columns.push(batch::decode_column(col_bytes, n_rows)?);
            } else {
                columns.push(Column::skipped());
            }
        }
        let mut batch = ColumnBatch::new(columns, n_rows, offset);
        if let Some(filter) = &self.row_filter {
            let keep: Vec<u32> = match filter.get(&offset) {
                Some(b) => (0..n_rows as u32).filter(|i| b.get(*i as usize)).collect(),
                None => Vec::new(),
            };
            // An all-ones bitmap (sidecar admitted the whole group) keeps
            // the decoded batch as-is rather than copying every column.
            if keep.len() < n_rows {
                batch = batch.take(&keep);
            }
        }
        if let Some(scan) = &self.scan_stats {
            scan.batches.inc();
            scan.rows_decoded.add(batch.len() as u64);
            scan.decode_us.add(start.elapsed().as_micros() as u64);
        }
        Ok(batch)
    }

    /// Fetch and decode the next group without charging `records_read`
    /// (the hand-out points charge, so row and batch consumers agree).
    fn fetch_batch(&mut self) -> Result<Option<ColumnBatch>> {
        match self.fetch_payload()? {
            Some((offset, payload)) => Ok(Some(self.decode_group(offset, &payload)?)),
            None => Ok(None),
        }
    }

    /// The next decoded row group as a [`ColumnBatch`], or `None` at the
    /// end of the split.
    ///
    /// A batch may be empty when the row filter rejected every row of its
    /// group. `IoStats::records_read` is charged `batch.len()` per returned
    /// batch — the same total a row-at-a-time drain would charge. Do not
    /// interleave with the [`RecordReader`] interface on the same reader.
    pub fn next_batch(&mut self) -> Result<Option<ColumnBatch>> {
        let batch = self.fetch_batch()?;
        if let Some(b) = &batch {
            self.stats.records_read.add(b.len() as u64);
        }
        Ok(batch)
    }

    /// Position the cursor on a batch with at least one unread row.
    fn refill(&mut self) -> Result<bool> {
        loop {
            if let Some(cur) = &self.current {
                if cur.pos < cur.batch.len() {
                    return Ok(true);
                }
            }
            match self.fetch_batch()? {
                Some(batch) => self.current = Some(BatchCursor { batch, pos: 0 }),
                None => return Ok(false),
            }
        }
    }

    /// Next `(group_offset, row)`.
    pub fn next_with_offset(&mut self) -> Result<Option<(u64, Row)>> {
        if !self.refill()? {
            return Ok(None);
        }
        let cur = self.current.as_mut().expect("cursor refilled");
        let mut row = Row::with_capacity(cur.batch.num_columns());
        cur.batch.read_row_into(cur.pos, &mut row);
        let offset = cur.batch.group_offset();
        cur.pos += 1;
        self.stats.records_read.inc();
        Ok(Some((offset, row)))
    }
}

impl RecordReader for RcReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        Ok(self.next_with_offset()?.map(|(_, r)| r))
    }

    fn next_row_into(&mut self, row: &mut Row) -> Result<bool> {
        if !self.refill()? {
            return Ok(false);
        }
        let cur = self.current.as_mut().expect("cursor refilled");
        cur.batch.read_row_into(cur.pos, row);
        cur.pos += 1;
        self.stats.records_read.inc();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::collect_rows;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_storage::{HdfsConfig, SimHdfs};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("name", ValueType::Str),
            ("v", ValueType::Float),
        ]))
    }

    fn cluster() -> (TempDir, HdfsRef) {
        let t = TempDir::new("rc").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 256,
                replication: 1,
            },
        )
        .unwrap();
        (t, h)
    }

    fn row(i: i64) -> Row {
        vec![
            Value::Int(i),
            Value::Str(format!("n{i}")),
            Value::Float(i as f64 * 0.5),
        ]
    }

    fn write(h: &HdfsRef, path: &str, n: i64, per_group: usize) -> Vec<u64> {
        let mut w = RcWriter::create(h, path, schema(), per_group).unwrap();
        let mut group_offsets = Vec::new();
        for i in 0..n {
            group_offsets.push(w.write_row(&row(i)).unwrap());
        }
        w.close().unwrap();
        group_offsets
    }

    #[test]
    fn whole_file_round_trip() {
        let (_t, h) = cluster();
        write(&h, "/t/f", 25, 10);
        let split = FileSplit::new("/t/f", 0, h.file_len("/t/f").unwrap());
        let rows = collect_rows(RcReader::open(&h, schema(), &split).unwrap()).unwrap();
        assert_eq!(rows.len(), 25);
        assert_eq!(rows[7], row(7));
        assert_eq!(h.stats().records_read.get(), 25);
    }

    #[test]
    fn groups_share_offsets() {
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 25, 10);
        // Rows 0..10 share a group offset, 10..20 the next, 20..25 the last.
        assert_eq!(offs[0], offs[9]);
        assert_ne!(offs[9], offs[10]);
        assert_eq!(offs[10], offs[19]);
        assert_eq!(offs[20], offs[24]);
        let footer = read_group_offsets(&h, "/t/f").unwrap();
        assert_eq!(footer, vec![offs[0], offs[10], offs[20]]);
    }

    #[test]
    fn splits_partition_groups_exactly_once() {
        let (_t, h) = cluster();
        write(&h, "/t/f", 200, 7);
        let splits = h.splits_for_dir("/t");
        assert!(splits.len() > 2);
        let mut ids = Vec::new();
        for s in &splits {
            for r in collect_rows(RcReader::open(&h, schema(), s).unwrap()).unwrap() {
                ids.push(r[0].as_i64().unwrap());
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn projection_nulls_unread_columns() {
        let (_t, h) = cluster();
        write(&h, "/t/f", 5, 10);
        let split = FileSplit::new("/t/f", 0, h.file_len("/t/f").unwrap());
        let r = RcReader::open(&h, schema(), &split)
            .unwrap()
            .with_projection(vec![0, 2]);
        let rows = collect_rows(r).unwrap();
        assert_eq!(rows[2][0], Value::Int(2));
        assert_eq!(rows[2][1], Value::Null);
        assert_eq!(rows[2][2], Value::Float(1.0));
    }

    #[test]
    fn row_filter_skips_rows_and_groups() {
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 30, 10);
        let split = FileSplit::new("/t/f", 0, h.file_len("/t/f").unwrap());
        // Group 0: rows 2 and 4; group 2 omitted entirely.
        let mut filter = HashMap::new();
        filter.insert(offs[0], [2usize, 4].into_iter().collect::<Bitmap>());
        filter.insert(offs[10], [0usize].into_iter().collect::<Bitmap>());
        let before = h.stats().bytes_read.get();
        let r = RcReader::open(&h, schema(), &split)
            .unwrap()
            .with_row_filter(filter);
        let ids: Vec<i64> = collect_rows(r)
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![2, 4, 10]);
        // The third group was never fetched: bytes read stay well below file size.
        let read = h.stats().bytes_read.get() - before;
        assert!(read < h.file_len("/t/f").unwrap());
    }

    #[test]
    fn next_with_offset_reports_group_offsets() {
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 12, 5);
        let split = FileSplit::new("/t/f", 0, h.file_len("/t/f").unwrap());
        let mut r = RcReader::open(&h, schema(), &split).unwrap();
        let mut got = Vec::new();
        while let Some((o, _)) = r.next_with_offset().unwrap() {
            got.push(o);
        }
        assert_eq!(got, offs);
    }

    #[test]
    fn corrupt_tail_is_rejected() {
        let (_t, h) = cluster();
        write(&h, "/t/f", 5, 10);
        // Not an RCFile.
        let mut w = h.create("/t/plain").unwrap();
        use std::io::Write as _;
        w.write_all(b"this is just text, long enough to pass length checks")
            .unwrap();
        w.close().unwrap();
        assert!(read_group_offsets(&h, "/t/plain").is_err());
    }

    #[test]
    fn huge_group_count_is_corrupt_not_an_allocation() {
        let (_t, h) = cluster();
        // A well-formed tail pointing at a footer whose count is absurd.
        let mut file = MAGIC_HEAD.to_vec();
        let footer_start = file.len() as u64;
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&[0u8; 16]);
        file.extend_from_slice(&footer_start.to_le_bytes());
        file.extend_from_slice(MAGIC_TAIL);
        let mut w = h.create("/t/huge").unwrap();
        use std::io::Write as _;
        w.write_all(&file).unwrap();
        w.close().unwrap();
        assert!(matches!(
            read_group_offsets(&h, "/t/huge"),
            Err(DgfError::Corrupt(_))
        ));
    }

    /// One flipped count in a checksum-less file must surface as
    /// `Corrupt` from the check that precedes the allocation ("claims"),
    /// on both drain paths — not as a multi-GiB `vec!`, and not as the
    /// EOF a reader would hit only after allocating.
    #[test]
    fn flipped_frame_length_or_row_count_is_corrupt_not_an_allocation() {
        let (_t, h) = cluster();
        let group = write(&h, "/t/f", 5, 10)[0] as usize;
        let good = h.read_file("/t/f").unwrap();
        let split = |path: &str| FileSplit::new(path, 0, h.file_len(path).unwrap());
        // (case, offset of the trusted u32 within the group frame, poison)
        for (case, at, poison) in [
            ("frame-length", 0usize, 0xFFFF_FFF0u32),
            ("n-rows", 4, 0xFFFF_FFFF),
        ] {
            let path = format!("/t/{case}");
            let mut bad = good.clone();
            bad[group + at..group + at + 4].copy_from_slice(&poison.to_le_bytes());
            let mut w = h.create(&path).unwrap();
            use std::io::Write as _;
            w.write_all(&bad).unwrap();
            w.close().unwrap();

            let batch = RcReader::open(&h, schema(), &split(&path))
                .unwrap()
                .next_batch();
            let row = RcReader::open(&h, schema(), &split(&path))
                .unwrap()
                .next_row_into(&mut Row::new());
            for (drain, err) in [("next_batch", batch.err()), ("next_row_into", row.err())] {
                assert!(
                    matches!(&err, Some(DgfError::Corrupt(m)) if m.contains("claims")),
                    "{case} via {drain}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn empty_file_round_trips() {
        let (_t, h) = cluster();
        let w = RcWriter::create(&h, "/t/e", schema(), 10).unwrap();
        w.close().unwrap();
        assert!(read_group_offsets(&h, "/t/e").unwrap().is_empty());
        let split = FileSplit::new("/t/e", 0, h.file_len("/t/e").unwrap());
        assert!(collect_rows(RcReader::open(&h, schema(), &split).unwrap())
            .unwrap()
            .is_empty());
    }
}

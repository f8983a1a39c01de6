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

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgf_common::batch::{self, Column, ColumnBatch};
use dgf_common::codec::{self, Decoder};
use dgf_common::stats::{IoStatsRef, ScanStatsRef};
use dgf_common::{DgfError, Result, Row, SchemaRef};
use dgf_storage::{FileSplit, HdfsReader, HdfsRef, HdfsWriter};

use crate::bitmap::Bitmap;

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
    ///
    /// A row of the wrong arity, or with a cell its column cannot hold
    /// ([`ValueType::admits`]), is a [`DgfError::Schema`] and leaves
    /// nothing behind: every cell is checked before any is buffered.
    ///
    /// [`ValueType::admits`]: dgf_common::ValueType::admits
    pub fn write_row(&mut self, row: &Row) -> Result<u64> {
        if row.len() != self.schema.len() {
            return Err(DgfError::Schema(format!(
                "row arity {} != schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        let fields = self.schema.fields().iter();
        if let Some((f, v)) = fields.zip(row).find(|(f, v)| !f.vtype.admits(v)) {
            return Err(DgfError::Schema(format!(
                "column {:?} ({}) cannot hold {v:?}",
                f.name, f.vtype
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

/// The footer directory of an RCFile: where each row group's frame
/// starts and where the frames end. Frames are written back to back, so
/// group `i` runs from its offset to the next group's (the footer's own
/// start for the last): a frame's length is known before it is read, and
/// groups adjacent in the directory are adjacent on disk.
#[derive(Debug, PartialEq, Eq)]
pub struct RcFooter {
    offsets: Vec<u64>,
    footer_start: u64,
}

impl RcFooter {
    /// Start offset of every row group, ascending.
    pub fn group_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Where the last group's frame ends and the footer starts.
    pub fn frames_end(&self) -> u64 {
        self.footer_start
    }

    /// Where group `i`'s frame ends.
    fn frame_end(&self, i: usize) -> u64 {
        self.offsets.get(i + 1).copied().unwrap_or(self.footer_start)
    }

    /// Read and check the footer through an open handle on `path`.
    fn read_from(r: &mut HdfsReader, path: &str) -> Result<RcFooter> {
        let len = r.len();
        if len < 16 {
            return Err(DgfError::Corrupt(format!("{path}: too short for an RCFile")));
        }
        let mut tail = [0u8; 12];
        r.seek(SeekFrom::Start(len - 12))?;
        r.read_exact(&mut tail)?;
        if &tail[8..12] != MAGIC_TAIL {
            return Err(DgfError::Corrupt(format!("{path}: bad RCFile tail magic")));
        }
        let footer_start = u64::from_le_bytes(tail[..8].try_into().expect("eight bytes"));
        if footer_start >= len {
            return Err(DgfError::Corrupt(format!("{path}: footer offset out of range")));
        }
        r.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; (len - footer_start) as usize];
        r.read_exact(&mut footer)?;
        let mut dec = Decoder::new(&footer);
        let n = dec.u32()? as usize;
        // The footer is the count, eight bytes per offset and the tail: a
        // count that does not fill it exactly is corruption, not an
        // allocation request.
        if footer.len() != 4 + 8 * n + 12 {
            return Err(DgfError::Corrupt(format!(
                "{path}: footer claims {n} row groups in {} bytes",
                footer.len()
            )));
        }
        let mut offsets = Vec::with_capacity(n);
        // Frame lengths are differences of neighbours, so the directory
        // must ascend from the head magic to the footer.
        let head = MAGIC_HEAD.len() as u64;
        let mut floor = head;
        for _ in 0..n {
            let off = dec.u64()?;
            if off < floor || off >= footer_start {
                return Err(DgfError::Corrupt(format!(
                    "{path}: group offset {off} outside {floor}..{footer_start}"
                )));
            }
            floor = off + 1;
            offsets.push(off);
        }
        // Frames are written back to back from the head magic on: a first
        // frame (or, with none, a footer) anywhere else leaves bytes no
        // group accounts for.
        if offsets.first().copied().unwrap_or(footer_start) != head {
            return Err(DgfError::Corrupt(format!(
                "{path}: the first frame does not follow the head magic"
            )));
        }
        Ok(RcFooter {
            offsets,
            footer_start,
        })
    }
}

/// Load the footer of the RCFile at `path`: one handle, two seeks, two
/// reads. A warehouse loads it once per version of the file and shares
/// it with every reader it opens on the file
/// ([`RcReader::open_with_footer`]).
pub fn read_footer(hdfs: &HdfsRef, path: &str) -> Result<RcFooter> {
    RcFooter::read_from(&mut hdfs.open_reader(path)?, path)
}

/// Reads the row groups of one input split.
///
/// The unit of I/O is the **run**: kept groups that are neighbours in the
/// footer directory are fetched with one seek and one read into a frame
/// buffer the reader owns for its lifetime, through the one file handle
/// it opened (DESIGN.md §12). Each frame is then decoded **once** into
/// the one [`ColumnBatch`] the reader owns — typed per-column vectors plus
/// null bitmaps, refilled in place group after group — honoring
/// [`Self::with_projection`] (skipped columns are never decoded) and
/// [`Self::with_row_filter`] (the batch is compacted to surviving rows) at
/// the batch level. [`Self::next_batch`] is the reader's one drain and
/// lends that batch: a consumer that wants rows copies them out of it.
pub struct RcReader {
    file: HdfsReader,
    /// Where `file` stands after the last fetch: a run longer than one
    /// fetch continues from there without a seek.
    file_at: Option<u64>,
    path: String,
    schema: SchemaRef,
    footer: Arc<RcFooter>,
    /// Kept groups as spans of footer indexes, ascending and apart: each
    /// span is one contiguous stretch of the file.
    runs: VecDeque<Range<usize>>,
    /// The fetched part of the front run: frames `fetched`, back to back
    /// in `frames` from position `frame_at`.
    fetched: Range<usize>,
    frames: Vec<u8>,
    frame_at: usize,
    /// Longest stretch one fetch reads (a group longer than this is still
    /// read whole).
    fetch_cap: u64,
    /// Per column: decode it, or leave a `Value::Null` placeholder.
    decode: Vec<bool>,
    /// Per-group row bitmaps: only set rows are returned.
    row_filter: Option<HashMap<u64, Bitmap>>,
    stats: IoStatsRef,
    /// Columnar-scan accounting, when the caller wants it attributed.
    scan_stats: Option<ScanStatsRef>,
    /// Decode time not yet charged to `scan.decode_us` (under 1 µs).
    decode_carry: Duration,
    /// The batch every group is decoded into and [`Self::next_batch`]
    /// lends: its column vectors and null masks outlive the group.
    batch: ColumnBatch,
}

impl RcReader {
    /// Open a reader over the groups whose start offset lies in `split`.
    pub fn open(hdfs: &HdfsRef, schema: SchemaRef, split: &FileSplit) -> Result<RcReader> {
        let mut file = hdfs.open_reader(&split.path)?;
        let footer = Arc::new(RcFooter::read_from(&mut file, &split.path)?);
        Ok(RcReader::assemble(hdfs, file, schema, split, footer))
    }

    /// [`Self::open`] with a footer some earlier [`read_footer`] of the
    /// same file returned, which is then not read again.
    pub fn open_with_footer(
        hdfs: &HdfsRef,
        schema: SchemaRef,
        split: &FileSplit,
        footer: Arc<RcFooter>,
    ) -> Result<RcReader> {
        let file = hdfs.open_reader(&split.path)?;
        Ok(RcReader::assemble(hdfs, file, schema, split, footer))
    }

    fn assemble(
        hdfs: &HdfsRef,
        file: HdfsReader,
        schema: SchemaRef,
        split: &FileSplit,
        footer: Arc<RcFooter>,
    ) -> RcReader {
        let mine = index_span(&footer.offsets, split.start, split.end());
        RcReader {
            file,
            file_at: None,
            path: split.path.clone(),
            decode: vec![true; schema.len()],
            batch: ColumnBatch::new(vec![Column::skipped(); schema.len()], 0, 0),
            schema,
            footer,
            runs: VecDeque::from_iter((!mine.is_empty()).then_some(mine)),
            fetched: 0..0,
            frames: Vec::new(),
            frame_at: 0,
            fetch_cap: hdfs.block_size(),
            row_filter: None,
            stats: hdfs.stats().clone(),
            scan_stats: None,
            decode_carry: Duration::ZERO,
        }
    }

    /// Restrict decoding to the given column indexes.
    pub fn with_projection(mut self, cols: Vec<usize>) -> Self {
        for (c, decode) in self.decode.iter_mut().enumerate() {
            *decode = cols.contains(&c);
        }
        self
    }

    /// Keep only row groups whose start offset lies inside one of the
    /// given byte ranges (the RCFile analogue of the slice-skipping text
    /// reader: DGFIndex slices over RCFile data are group-aligned). Each
    /// range is two binary searches of the footer directory.
    pub fn with_group_ranges(mut self, ranges: &[crate::reader::ByteRange]) -> Self {
        let offsets = &self.footer.offsets;
        let mut kept: Vec<Range<usize>> = Vec::new();
        for run in &self.runs {
            for r in ranges {
                let at = index_span(&offsets[run.clone()], r.start, r.end);
                if !at.is_empty() {
                    kept.push(run.start + at.start..run.start + at.end);
                }
            }
        }
        // Sorted, coalesced ranges (what a plan carries) arrive in order;
        // any others are put in order, and touching spans become one run.
        kept.sort_unstable_by_key(|r| r.start);
        self.runs.clear();
        for r in kept {
            push_span(&mut self.runs, r);
        }
        self
    }

    /// Only return rows whose bit is set in their group's bitmap; groups
    /// absent from the map are skipped entirely.
    pub fn with_row_filter(mut self, filter: HashMap<u64, Bitmap>) -> Self {
        let offsets = &self.footer.offsets;
        let mut kept = VecDeque::new();
        for i in self.runs.iter().flat_map(|run| run.clone()) {
            if filter.contains_key(&offsets[i]) {
                push_span(&mut kept, i..i + 1);
            }
        }
        self.runs = kept;
        self.row_filter = Some(filter);
        self
    }

    /// Attribute decode time and batch counts to `stats`.
    pub fn with_scan_stats(mut self, stats: ScanStatsRef) -> Self {
        self.scan_stats = Some(stats);
        self
    }

    /// Make the next kept group's frame the one at `frame_at`, fetching
    /// the next stretch of its run when the buffer is used up: one seek
    /// per run, one read per stretch of as many whole frames as fit under
    /// the cap. A group that was filtered out is never fetched from disk.
    /// Returns the group's footer index.
    fn next_frame(&mut self) -> Result<Option<usize>> {
        if self.fetched.is_empty() {
            let Some(run) = self.runs.front().cloned() else {
                return Ok(None);
            };
            let start = self.footer.offsets[run.start];
            let mut upto = run.start + 1;
            while upto < run.end && self.footer.frame_end(upto) - start <= self.fetch_cap {
                upto += 1;
            }
            let len = (self.footer.frame_end(upto - 1) - start) as usize;
            self.frames.resize(len, 0);
            if self.file_at != Some(start) {
                self.file.seek(SeekFrom::Start(start))?;
            }
            self.file_at = None;
            self.file.read_exact(&mut self.frames)?;
            self.file_at = Some(start + len as u64);
            self.frame_at = 0;
            self.fetched = run.start..upto;
            if upto == run.end {
                self.runs.pop_front();
            } else {
                self.runs[0].start = upto;
            }
        }
        let group = self.fetched.start;
        self.fetched.start += 1;
        Ok(Some(group))
    }

    /// Decode the frame at `frame_at` (group `group` of the footer) into
    /// the reader's batch, applying projection while decoding and the row
    /// filter by compacting it in place afterwards.
    fn decode_group(&mut self, group: usize) -> Result<()> {
        let offset = self.footer.offsets[group];
        let frame_len = (self.footer.frame_end(group) - offset) as usize;
        let frame = &self.frames[self.frame_at..self.frame_at + frame_len];
        self.frame_at += frame_len;
        // The file carries no checksum: the footer says how long the
        // frame is, and a length prefix that says otherwise is corruption.
        let claimed = frame
            .first_chunk::<4>()
            .map_or(0, |b| u32::from_le_bytes(*b) as usize);
        if frame_len < 4 || claimed != frame_len - 4 {
            return Err(DgfError::Corrupt(format!(
                "{}: group at {offset} claims {claimed} bytes, the footer gives it {}",
                self.path,
                frame_len.saturating_sub(4)
            )));
        }
        let start = Instant::now();
        let mut dec = Decoder::new(&frame[4..]);
        let n_rows = dec.u32()? as usize;
        let n_cols = dec.u32()? as usize;
        if n_cols != self.schema.len() {
            return Err(DgfError::Corrupt(format!(
                "{}: group has {n_cols} columns, schema has {}",
                self.path,
                self.schema.len()
            )));
        }
        let (decode, schema) = (&self.decode, &self.schema);
        self.batch.refill(n_rows, offset, |c, col| {
            let col_bytes = dec.bytes()?;
            if decode[c] {
                return batch::decode_column(col_bytes, n_rows, schema.field(c).vtype, col);
            }
            *col = Column::skipped();
            Ok(())
        })?;
        if let Some(filter) = &self.row_filter {
            match filter.get(&offset) {
                Some(b) => self.batch.retain(|i| b.get(i)),
                None => self.batch.retain(|_| false),
            }
        }
        if let Some(scan) = &self.scan_stats {
            scan.batches.inc();
            scan.rows_decoded.add(self.batch.len() as u64);
            scan.decode_us
                .add_micros(&mut self.decode_carry, start.elapsed());
        }
        Ok(())
    }

    /// The next decoded row group, or `None` at the end of the split.
    ///
    /// The batch is lent: the reader decodes every group into the same
    /// column vectors and null masks, so a drain allocates them once, not
    /// per group, and a consumer that keeps anything past the next call
    /// copies it out. A batch may be empty when the row filter rejected
    /// every row of its group. `IoStats::records_read` is charged
    /// `batch.len()` per returned batch — one per row handed out, the
    /// measurement behind the paper's Tables 3, 4 and 6.
    pub fn next_batch(&mut self) -> Result<Option<&ColumnBatch>> {
        let Some(group) = self.next_frame()? else {
            return Ok(None);
        };
        self.decode_group(group)?;
        self.stats.records_read.add(self.batch.len() as u64);
        Ok(Some(&self.batch))
    }
}

/// The indexes of the sorted `offsets` that lie in `start..end`.
fn index_span(offsets: &[u64], start: u64, end: u64) -> Range<usize> {
    let lo = offsets.partition_point(|o| *o < start);
    lo..lo + offsets[lo..].partition_point(|o| *o < end)
}

/// Append a span of group indexes that starts at or after every span in
/// `runs`: one that touches or overlaps the last extends it.
fn push_span(runs: &mut VecDeque<Range<usize>>, span: Range<usize>) {
    match runs.back_mut() {
        Some(last) if span.start <= last.end => last.end = last.end.max(span.end),
        _ => runs.push_back(span),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ByteRange;
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

    /// Every row `r` hands out, copied out of its batches.
    fn try_drain(mut r: RcReader) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        while let Some(b) = r.next_batch()? {
            for i in 0..b.len() {
                let mut row = Row::new();
                b.read_row_into(i, &mut row);
                rows.push(row);
            }
        }
        Ok(rows)
    }

    fn drain(r: RcReader) -> Vec<Row> {
        try_drain(r).unwrap()
    }

    fn offsets(h: &HdfsRef, path: &str) -> Result<Vec<u64>> {
        Ok(read_footer(h, path)?.group_offsets().to_vec())
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
        let rows = drain(RcReader::open(&h, schema(), &split).unwrap());
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
        assert_eq!(offsets(&h, "/t/f").unwrap(), vec![offs[0], offs[10], offs[20]]);
    }

    #[test]
    fn splits_partition_groups_exactly_once() {
        let (_t, h) = cluster();
        write(&h, "/t/f", 200, 7);
        let splits = h.splits_for_dir("/t");
        assert!(splits.len() > 2);
        let mut ids = Vec::new();
        for s in &splits {
            for r in drain(RcReader::open(&h, schema(), s).unwrap()) {
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
        let rows = drain(r);
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
        let ids: Vec<i64> = drain(r).iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 4, 10]);
        // The third group was never fetched: bytes read stay well below file size.
        let read = h.stats().bytes_read.get() - before;
        assert!(read < h.file_len("/t/f").unwrap());
    }

    #[test]
    fn batches_carry_their_group_offsets() {
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 12, 5);
        let split = FileSplit::new("/t/f", 0, h.file_len("/t/f").unwrap());
        let mut r = RcReader::open(&h, schema(), &split).unwrap();
        let mut got = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            got.extend(std::iter::repeat_n(b.group_offset(), b.len()));
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
        assert!(offsets(&h, "/t/plain").is_err());
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
            offsets(&h, "/t/huge"),
            Err(DgfError::Corrupt(_))
        ));
    }

    /// One flipped count in a checksum-less file must surface as
    /// `Corrupt` from the check that precedes the allocation ("claims") —
    /// not as a multi-GiB `vec!`, and not as the EOF a reader would hit
    /// only after allocating.
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

            let err = RcReader::open(&h, schema(), &split(&path))
                .unwrap()
                .next_batch()
                .err();
            assert!(
                matches!(&err, Some(DgfError::Corrupt(m)) if m.contains("claims")),
                "{case}: {err:?}"
            );
        }
    }

    /// Seeded truncations and bit flips over a small file of several
    /// groups: no mutant panics, one that cuts or flips the footer
    /// directory or the tail is `Corrupt`, and one that flips a frame's
    /// length prefix or column payload is `Corrupt` or reads rows of the
    /// schema's width whose every cell its column admits.
    #[test]
    fn mutated_files_are_corrupt_or_read_schema_wide_rows() {
        use rand::{Rng, SeedableRng};
        use std::io::Write as _;
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 13, 4);
        let good = h.read_file("/t/f").unwrap();
        let footer_start = read_footer(&h, "/t/f").unwrap().frames_end() as usize;
        assert_eq!(offs[0], MAGIC_HEAD.len() as u64);
        // (mutant, whether it touches the footer directory or the tail)
        let mut mutants: Vec<(Vec<u8>, bool)> =
            (0..good.len()).map(|cut| (good[..cut].to_vec(), true)).collect();
        // Every bit of the directory and the tail; one seeded bit of
        // every frame byte.
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        for at in MAGIC_HEAD.len()..good.len() {
            let bits: Vec<u32> = match at >= footer_start {
                true => (0..8).collect(),
                false => vec![rng.random_range(0..8u32)],
            };
            for bit in bits {
                let mut m = good.clone();
                m[at] ^= 1 << bit;
                mutants.push((m, at >= footer_start));
            }
        }
        // A tail pointing at the directory's last four bytes, the high
        // half of the last offset: a zero count in a footer of the right
        // length for it.
        let mut m = good.clone();
        let tail = good.len() - 12;
        m[tail..tail + 8].copy_from_slice(&(good.len() as u64 - 16).to_le_bytes());
        mutants.push((m, true));
        for _ in 0..300 {
            let mut m = good.clone();
            let mut footer = false;
            for _ in 0..rng.random_range(2..5usize) {
                let at = rng.random_range(MAGIC_HEAD.len()..m.len());
                m[at] ^= 1 << rng.random_range(0..8u32);
                footer |= at >= footer_start;
            }
            mutants.push((m, footer));
        }
        let fields = schema().fields().to_vec();
        let fits = |r: &Row| {
            r.len() == fields.len() && fields.iter().zip(r).all(|(f, v)| f.vtype.admits(v))
        };
        for (n, (bytes, footer)) in mutants.iter().enumerate() {
            let path = format!("/t/m{n}");
            let mut w = h.create(&path).unwrap();
            w.write_all(bytes).unwrap();
            w.close().unwrap();
            let split = FileSplit::new(path.as_str(), 0, bytes.len() as u64);
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                RcReader::open(&h, schema(), &split).and_then(try_drain)
            }));
            let label = format!("mutant {n} of {} bytes", bytes.len());
            match read.unwrap_or_else(|_| panic!("{label} panicked")) {
                Err(DgfError::Corrupt(_)) => {}
                Ok(rows) if !footer => assert!(rows.iter().all(&fits), "{label}: {rows:?}"),
                other => panic!("{label}: {other:?}"),
            }
        }
    }

    /// A row with a cell its column cannot hold is refused before any of
    /// it is buffered: the file closes holding exactly the accepted rows,
    /// byte for byte the file written without the refused ones.
    #[test]
    fn writer_refuses_a_cell_its_column_cannot_hold() {
        let (_t, h) = cluster();
        let refused = [
            vec![Value::Int(1), Value::Str("a".into()), Value::Int(2)],
            vec![Value::Int(1), Value::Str("a".into()), Value::Float(f64::NAN)],
            vec![Value::Str("1".into()), Value::Str("a".into()), Value::Float(2.0)],
        ];
        let mut w = RcWriter::create(&h, "/t/mixed", schema(), 4).unwrap();
        for i in 0..10 {
            w.write_row(&row(i)).unwrap();
            let bad = &refused[i as usize % refused.len()];
            assert!(matches!(w.write_row(bad), Err(DgfError::Schema(_))), "{bad:?}");
        }
        w.close().unwrap();
        write(&h, "/t/clean", 10, 4);
        assert_eq!(h.read_file("/t/mixed").unwrap(), h.read_file("/t/clean").unwrap());
        let split = FileSplit::new("/t/mixed", 0, h.file_len("/t/mixed").unwrap());
        let rows = drain(RcReader::open(&h, schema(), &split).unwrap());
        assert_eq!(rows, (0..10).map(row).collect::<Vec<_>>());
    }

    /// The footer says how long each frame is; a prefix that still lands
    /// inside the file but disagrees with it is corruption too.
    #[test]
    fn length_prefix_that_disagrees_with_the_footer_is_corrupt() {
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 20, 10);
        let mut bad = h.read_file("/t/f").unwrap();
        let at = offs[0] as usize;
        let n = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
        bad[at..at + 4].copy_from_slice(&(n - 1).to_le_bytes());
        let mut w = h.create("/t/short").unwrap();
        use std::io::Write as _;
        w.write_all(&bad).unwrap();
        w.close().unwrap();
        let split = FileSplit::new("/t/short", 0, bad.len() as u64);
        let mut r = RcReader::open(&h, schema(), &split).unwrap();
        let err = r.next_batch();
        assert!(
            matches!(&err, Err(DgfError::Corrupt(m)) if m.contains("claims")),
            "{err:?}"
        );
        // A directory that does not ascend cannot give frame lengths.
        let mut bad = h.read_file("/t/f").unwrap();
        let dir = bad.len() - 12 - 16;
        bad.copy_within(dir + 8..dir + 16, dir);
        let mut w = h.create("/t/flat").unwrap();
        w.write_all(&bad).unwrap();
        w.close().unwrap();
        assert!(matches!(offsets(&h, "/t/flat"), Err(DgfError::Corrupt(_))));
    }

    /// One handle per reader, one seek per run of neighbouring kept
    /// groups, and exactly the kept frames' bytes — however the ranges
    /// arrive, and with a row filter breaking a run in two.
    #[test]
    fn neighbouring_kept_groups_are_one_seek_and_no_stray_byte() {
        let (_t, h) = cluster();
        let offs = write(&h, "/t/f", 80, 2);
        let footer = Arc::new(read_footer(&h, "/t/f").unwrap());
        let g = footer.group_offsets().to_vec();
        assert_eq!(g.len(), 40);
        let frame = |i: usize| g.get(i + 1).copied().unwrap_or(footer.frames_end()) - g[i];
        let split = FileSplit::new("/t/f", 0, h.file_len("/t/f").unwrap());
        let ids =
            |r: RcReader| -> Vec<i64> { drain(r).iter().map(|r| r[0].as_i64().unwrap()).collect() };
        // Groups 3..6 and 10..12, the first as two touching ranges given
        // out of order; a range boundary inside group 11 keeps it (its
        // start is inside), one inside group 12 does not.
        let ranges = [
            ByteRange::new(g[10], g[11] + 1),
            ByteRange::new(g[4], g[6]),
            ByteRange::new(g[3], g[4]),
        ];
        let before = h.stats().snapshot();
        let r = RcReader::open_with_footer(&h, schema(), &split, footer.clone())
            .unwrap()
            .with_group_ranges(&ranges);
        assert_eq!(ids(r), vec![6, 7, 8, 9, 10, 11, 20, 21, 22, 23]);
        let d = h.stats().snapshot().since(&before);
        assert_eq!((d.opens, d.seeks), (1, 2));
        assert_eq!(d.bytes_read, (3..6).chain(10..12).map(frame).sum::<u64>());

        // Dropping group 4 by row filter splits the first run.
        let filter: HashMap<u64, Bitmap> = [3usize, 5, 10, 11]
            .into_iter()
            .map(|i| (g[i], [1usize].into_iter().collect()))
            .collect();
        let before = h.stats().snapshot();
        let r = RcReader::open_with_footer(&h, schema(), &split, footer.clone())
            .unwrap()
            .with_row_filter(filter)
            .with_group_ranges(&ranges);
        assert_eq!(ids(r), vec![7, 11, 21, 23]);
        let d = h.stats().snapshot().since(&before);
        assert_eq!((d.opens, d.seeks), (1, 3));
        assert_eq!(d.bytes_read, [3, 5, 10, 11].into_iter().map(frame).sum::<u64>());
        assert_eq!(offs[6], g[3]);
    }

    /// A whole-file drain is one run, read a block at a time: the buffer
    /// never outgrows the block, the handle never seeks again, and the
    /// rows are the file's.
    #[test]
    fn a_run_longer_than_a_block_is_fetched_in_pieces_and_decodes_identically() {
        let (_t, h) = cluster();
        write(&h, "/t/f", 200, 2);
        let len = h.file_len("/t/f").unwrap();
        assert!(len > 8 * h.block_size());
        let before = h.stats().snapshot();
        let mut r = RcReader::open(&h, schema(), &FileSplit::new("/t/f", 0, len)).unwrap();
        let mut fetches = std::collections::BTreeSet::new();
        let mut rows = Vec::new();
        let mut scratch = Row::new();
        while let Some(b) = r.next_batch().unwrap() {
            for i in 0..b.len() {
                b.read_row_into(i, &mut scratch);
                rows.push(scratch.clone());
            }
            assert!(r.frames.len() as u64 <= h.block_size());
            fetches.insert(r.file_at);
        }
        assert_eq!(rows, (0..200).map(row).collect::<Vec<_>>());
        assert!(fetches.len() > 8, "{} fetches", fetches.len());
        let d = h.stats().snapshot().since(&before);
        // Footer tail, footer, and the one run.
        assert_eq!((d.opens, d.seeks), (1, 3));
    }

    #[test]
    fn empty_file_round_trips() {
        let (_t, h) = cluster();
        let w = RcWriter::create(&h, "/t/e", schema(), 10).unwrap();
        w.close().unwrap();
        assert!(offsets(&h, "/t/e").unwrap().is_empty());
        let split = FileSplit::new("/t/e", 0, h.file_len("/t/e").unwrap());
        assert!(drain(RcReader::open(&h, schema(), &split).unwrap()).is_empty());
    }
}

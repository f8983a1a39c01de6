//! The TextFile format: newline-delimited rows of `|`-separated fields.
//!
//! This is Hive's plain-text storage and the only format DGFIndex supports
//! in the paper ("for now, our DGFIndex only supports TextFile table").
//! Offsets are byte offsets of line starts — the
//! `BLOCK_OFFSET_INSIDE_FILE` a Compact Index records for text tables.
//!
//! Split semantics follow Hadoop's `TextInputFormat`: a reader assigned
//! `[start, end)` skips the partial line at `start` (unless `start` falls on
//! a line boundary) and keeps reading any line that *starts* before `end`,
//! even if it finishes past `end`. [`TextReader`] applies the rule to every
//! byte range it reads, split or Slice, which is what lets a Slice straddle
//! two splits and be processed by two different mappers (paper §4.3).

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};

use dgf_common::stats::IoStatsRef;
use dgf_common::{format_row, parse_row, Result, Row, SchemaRef};
use dgf_storage::{HdfsReader, HdfsRef, HdfsWriter};

use crate::reader::ByteRange;

/// Writes rows as delimited text lines, tracking the offset of the next row.
#[derive(Debug)]
pub struct TextWriter {
    inner: HdfsWriter,
    stats: IoStatsRef,
}

impl TextWriter {
    /// Create a new text file at `path`.
    pub fn create(hdfs: &HdfsRef, path: &str) -> Result<TextWriter> {
        let stats = hdfs.stats().clone();
        Ok(TextWriter {
            inner: hdfs.create(path)?,
            stats,
        })
    }

    /// Byte offset where the next row will start.
    pub fn offset(&self) -> u64 {
        self.inner.position()
    }

    /// Append one row; returns the offset at which it was written.
    pub fn write_row(&mut self, row: &Row) -> Result<u64> {
        let at = self.offset();
        let mut line = format_row(row);
        line.push('\n');
        self.inner.write_all(line.as_bytes())?;
        self.stats.records_written.inc();
        Ok(at)
    }

    /// Append a pre-formatted line (no trailing newline expected).
    pub fn write_line(&mut self, line: &str) -> Result<u64> {
        let at = self.offset();
        self.inner.write_all(line.as_bytes())?;
        self.inner.write_all(b"\n")?;
        self.stats.records_written.inc();
        Ok(at)
    }

    /// Flush and register the file; returns its final length.
    pub fn close(self) -> Result<u64> {
        self.inner.close()
    }
}

/// Reads the lines of one or more byte ranges of a text file: a whole
/// input split is one range, and DGFIndex's stage-3 reader, which skips
/// the margin between adjacent Slices (paper Figure 7), is several. Each
/// range follows the Hadoop boundary rules of the module docs, so ranges
/// cut anywhere read every line once. The file is opened once, at the
/// first range, and each range past offset 0 costs one seek.
pub struct TextReader {
    hdfs: HdfsRef,
    path: String,
    schema: SchemaRef,
    ranges: std::vec::IntoIter<ByteRange>,
    reader: Option<BufReader<HdfsReader>>,
    /// Offset of the next unread byte of the current range.
    pos: u64,
    /// Lines starting at or past this offset belong to the next range's
    /// reader; `pos >= end` once the current range is done.
    end: u64,
    line: String,
    stats: IoStatsRef,
}

impl TextReader {
    /// A reader over `ranges` of `path`, which must be sorted and apart —
    /// see [`coalesce_ranges`](crate::reader::coalesce_ranges).
    pub fn open(
        hdfs: &HdfsRef,
        schema: SchemaRef,
        path: &str,
        ranges: Vec<ByteRange>,
    ) -> TextReader {
        TextReader {
            hdfs: hdfs.clone(),
            path: path.to_owned(),
            schema,
            ranges: ranges.into_iter(),
            reader: None,
            pos: 0,
            end: 0,
            line: String::new(),
            stats: hdfs.stats().clone(),
        }
    }

    /// Position the reader at the first line `range` owns.
    fn start(&mut self, range: ByteRange) -> Result<()> {
        let reader = match &mut self.reader {
            Some(reader) => reader,
            None => self.reader.insert(BufReader::new(self.hdfs.open_reader(&self.path)?)),
        };
        let len = reader.get_ref().len();
        (self.pos, self.end) = (range.start.min(len), range.end.min(len));
        // Look one byte back: if it is not a newline, the line started in
        // the previous range and is that reader's responsibility.
        if self.pos > 0 {
            reader.seek(SeekFrom::Start(self.pos - 1))?;
            let mut b = [0u8; 1];
            reader.get_mut().read_exact(&mut b)?;
            if b[0] != b'\n' {
                self.pos += reader.read_line(&mut String::new())? as u64;
            }
        }
        Ok(())
    }

    /// The next `(line_offset, row)`, or `None` after the last range.
    /// Each row charges `IoStats::records_read` once — the measurement
    /// behind the paper's Tables 3, 4 and 6.
    pub fn next_with_offset(&mut self) -> Result<Option<(u64, Row)>> {
        loop {
            if self.pos < self.end {
                let reader = self.reader.as_mut().expect("opened at the range's start");
                self.line.clear();
                let n = reader.read_line(&mut self.line)? as u64;
                if n > 0 {
                    let at = self.pos;
                    self.pos += n;
                    let row = parse_row(self.line.trim_end_matches('\n'), &self.schema)?;
                    self.stats.records_read.inc();
                    return Ok(Some((at, row)));
                }
                self.end = self.pos;
            }
            match self.ranges.next() {
                Some(range) => self.start(range)?,
                None => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_storage::{HdfsConfig, SimHdfs};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("v", ValueType::Float),
        ]))
    }

    fn cluster(block: u64) -> (TempDir, HdfsRef) {
        let t = TempDir::new("text").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: block,
                replication: 1,
            },
        )
        .unwrap();
        (t, h)
    }

    fn write_rows(hdfs: &HdfsRef, path: &str, n: i64) -> Vec<u64> {
        let mut w = TextWriter::create(hdfs, path).unwrap();
        let mut offsets = Vec::new();
        for i in 0..n {
            offsets.push(w.write_row(&vec![Value::Int(i), Value::Float(i as f64 / 2.0)]).unwrap());
        }
        w.close().unwrap();
        offsets
    }

    /// `(offset, row)` of every line `ranges` of `/t/f` hold.
    fn read(h: &HdfsRef, ranges: Vec<ByteRange>) -> Vec<(u64, Row)> {
        let mut r = TextReader::open(h, schema(), "/t/f", ranges);
        std::iter::from_fn(|| r.next_with_offset().unwrap()).collect()
    }

    fn ids(lines: &[(u64, Row)]) -> Vec<i64> {
        lines.iter().map(|(_, r)| r[0].as_i64().unwrap()).collect()
    }

    #[test]
    fn whole_file_round_trip() {
        let (_t, h) = cluster(1 << 20);
        let offsets = write_rows(&h, "/t/f", 10);
        let lines = read(&h, vec![ByteRange::new(0, h.file_len("/t/f").unwrap())]);
        assert_eq!(ids(&lines), (0..10).collect::<Vec<_>>());
        assert_eq!(lines[3].1[1], Value::Float(1.5));
        assert_eq!(lines.iter().map(|(at, _)| *at).collect::<Vec<_>>(), offsets);
        assert_eq!(h.stats().records_read.get(), 10);
    }

    #[test]
    fn splits_partition_lines_exactly_once() {
        // Tiny blocks so lines straddle split boundaries.
        let (_t, h) = cluster(17);
        write_rows(&h, "/t/f", 50);
        let splits = h.splits_for_dir("/t");
        assert!(splits.len() > 3, "want several splits, got {}", splits.len());
        let mut all = Vec::new();
        for s in &splits {
            all.extend(ids(&read(&h, vec![ByteRange::new(s.start, s.end())])));
        }
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn skipping_ranges_read_only_requested_lines() {
        let (_t, h) = cluster(1 << 20);
        let offsets = write_rows(&h, "/t/f", 20);
        let len = h.file_len("/t/f").unwrap();
        // Rows 3..5 and 10..12 (ranges end at the next row's offset).
        let ranges = vec![
            ByteRange::new(offsets[3], offsets[5]),
            ByteRange::new(offsets[10], offsets[12]),
        ];
        assert_eq!(ids(&read(&h, ranges)), vec![3, 4, 10, 11]);
        // A full range to file end also works.
        assert_eq!(read(&h, vec![ByteRange::new(offsets[18], len)]).len(), 2);
    }

    #[test]
    fn range_with_unaligned_start_skips_partial_record() {
        let (_t, h) = cluster(1 << 20);
        let offsets = write_rows(&h, "/t/f", 10);
        // Start mid-record 2: the partial record is skipped, record 3 is first.
        let lines = read(&h, vec![ByteRange::new(offsets[2] + 1, offsets[5])]);
        assert_eq!(ids(&lines), vec![3, 4]);
        assert_eq!(lines[0].0, offsets[3]);
    }

    #[test]
    fn slice_straddling_split_boundary_read_exactly_once() {
        // Mimic the paper's "a Slice may stretch across two splits": clip a
        // slice range at an arbitrary boundary and read both halves with
        // separate readers — every record appears exactly once.
        let (_t, h) = cluster(1 << 20);
        let offsets = write_rows(&h, "/t/f", 30);
        let len = h.file_len("/t/f").unwrap();
        let slice = ByteRange::new(offsets[5], offsets[25]);
        for boundary in [offsets[9] + 2, offsets[10], offsets[17] + 5, len / 2] {
            if boundary <= slice.start || boundary >= slice.end {
                continue;
            }
            let mut all = ids(&read(&h, vec![ByteRange::new(slice.start, boundary)]));
            all.extend(ids(&read(&h, vec![ByteRange::new(boundary, slice.end)])));
            all.sort_unstable();
            assert_eq!(all, (5..25).collect::<Vec<_>>(), "boundary {boundary}");
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let (_t, h) = cluster(1 << 20);
        write_rows(&h, "/t/f", 3);
        assert!(read(&h, vec![ByteRange::new(0, 0)]).is_empty());
        assert!(read(&h, Vec::new()).is_empty());
    }
}

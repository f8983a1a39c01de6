//! # dgf-format
//!
//! Hive-style file formats over [`dgf_storage`]:
//!
//! * [`text`] — newline-delimited TextFile with Hadoop split semantics; its
//!   one reader reads a split or the Slices of DGFIndex's third query
//!   stage, both as byte ranges.
//! * [`rcfile`] — a row-group columnar RCFile analogue with a footer
//!   directory, column projection, and per-group row-bitmap filtering for
//!   the Bitmap Index; its one reader hands out decoded batches.
//! * [`bitmap`] — the row bitmap itself.
//! * [`sidecar`] — the per-slice sidecar index: zone maps plus
//!   hierarchical compressed bitmaps for sub-slice skipping.
//! * [`reader`] — [`ByteRange`] and range coalescing.
//!
//! Offsets follow Hive's `BLOCK_OFFSET_INSIDE_FILE`: line start for text,
//! row-group start for RCFile (paper §2.2).

#![warn(missing_docs)]

pub mod bitmap;
pub mod rcfile;
pub mod reader;
pub mod sidecar;
pub mod text;

pub use bitmap::Bitmap;
pub use rcfile::{read_footer, RcFooter, RcReader, RcWriter, DEFAULT_ROWS_PER_GROUP};
pub use reader::{coalesce_ranges, ByteRange};
pub use sidecar::{
    is_sidecar_path, sidecar_path, CompressedBitmap, SidecarBuilder, SliceSidecar,
};
pub use text::{TextReader, TextWriter};

/// The on-disk layout of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileFormat {
    /// Newline-delimited text (`|` field separator).
    Text,
    /// Row-group columnar binary.
    RcFile,
}

impl std::fmt::Display for FileFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FileFormat::Text => "TextFile",
            FileFormat::RcFile => "RCFile",
        })
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_storage::{HdfsConfig, SimHdfs};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Reading a text file through arbitrary split boundaries yields
        /// every row exactly once, in file order within each split.
        #[test]
        fn text_splits_are_a_partition(
            n_rows in 1i64..120,
            block in 8u64..200,
        ) {
            let t = TempDir::new("fmt-prop").unwrap();
            let h = SimHdfs::new(t.path(), HdfsConfig { block_size: block, replication: 1 }).unwrap();
            let schema = Arc::new(Schema::from_pairs(&[("id", ValueType::Int)]));
            let mut w = TextWriter::create(&h, "/t/f").unwrap();
            for i in 0..n_rows {
                w.write_row(&vec![Value::Int(i)]).unwrap();
            }
            w.close().unwrap();
            let mut ids = Vec::new();
            for s in h.splits_for_dir("/t") {
                let ranges = vec![ByteRange::new(s.start, s.end())];
                let mut r = TextReader::open(&h, schema.clone(), &s.path, ranges);
                while let Some((_, row)) = r.next_with_offset().unwrap() {
                    ids.push(row[0].as_i64().unwrap());
                }
            }
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..n_rows).collect::<Vec<_>>());
        }

        /// RCFile round-trips arbitrary rows through arbitrary group sizes
        /// and split boundaries.
        #[test]
        fn rcfile_round_trips(
            n_rows in 0i64..150,
            per_group in 1usize..40,
            block in 32u64..300,
        ) {
            let t = TempDir::new("fmt-prop").unwrap();
            let h = SimHdfs::new(t.path(), HdfsConfig { block_size: block, replication: 1 }).unwrap();
            let schema = Arc::new(Schema::from_pairs(&[
                ("id", ValueType::Int),
                ("f", ValueType::Float),
            ]));
            let mut w = RcWriter::create(&h, "/t/f", schema.clone(), per_group).unwrap();
            for i in 0..n_rows {
                w.write_row(&vec![Value::Int(i), Value::Float(i as f64)]).unwrap();
            }
            w.close().unwrap();
            let mut ids = Vec::new();
            for s in h.splits_for_dir("/t") {
                let mut r = RcReader::open(&h, schema.clone(), &s).unwrap();
                while let Some(b) = r.next_batch().unwrap() {
                    ids.extend((0..b.len()).map(|i| b.value(i, 0).as_i64().unwrap()));
                }
            }
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..n_rows).collect::<Vec<_>>());
        }

        /// The text reader over ranges covering rows [a, b) returns
        /// exactly those rows, regardless of where ranges are cut.
        #[test]
        fn skipping_reader_matches_requested_rows(
            n_rows in 10i64..80,
            a_frac in 0.0f64..1.0,
            b_frac in 0.0f64..1.0,
            cuts in prop::collection::vec(0.0f64..1.0, 0..4),
        ) {
            let t = TempDir::new("fmt-prop").unwrap();
            let h = SimHdfs::open(t.path()).unwrap();
            let schema = Arc::new(Schema::from_pairs(&[("id", ValueType::Int)]));
            let mut w = TextWriter::create(&h, "/t/f").unwrap();
            let mut offsets = Vec::new();
            for i in 0..n_rows {
                offsets.push(w.write_row(&vec![Value::Int(i)]).unwrap());
            }
            let file_len = w.offset();
            w.close().unwrap();
            offsets.push(file_len);

            let a = ((a_frac * n_rows as f64) as usize).min(n_rows as usize);
            let b = ((b_frac * n_rows as f64) as usize).min(n_rows as usize);
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            let full = ByteRange::new(offsets[a], offsets[b]);
            // Cut the range at arbitrary byte positions: the per-range
            // boundary rules must keep the union exact.
            let mut bounds: Vec<u64> = cuts
                .iter()
                .map(|f| full.start + (*f * full.len() as f64) as u64)
                .collect();
            bounds.push(full.start);
            bounds.push(full.end);
            bounds.sort_unstable();
            bounds.dedup();
            let mut ids = Vec::new();
            for w in bounds.windows(2) {
                let ranges = vec![ByteRange::new(w[0], w[1])];
                let mut r = TextReader::open(&h, schema.clone(), "/t/f", ranges);
                while let Some((_, row)) = r.next_with_offset().unwrap() {
                    ids.push(row[0].as_i64().unwrap());
                }
            }
            ids.sort_unstable();
            prop_assert_eq!(ids, (a as i64..b as i64).collect::<Vec<_>>());
        }
    }
}

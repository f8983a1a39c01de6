//! Grid File Units: keys, values, and their key-value store encoding.
//!
//! A GFU is one grid cell (paper §4.1). Its key is the standardized
//! coordinate vector (the paper prints it as `"7_13"`; here it is the
//! order-preserving binary encoding of the cell indexes, so time-prefix
//! range scans work). Its value is the **header** (pre-computed additive
//! aggregate states) plus the **locations of its Slices** — contiguous
//! byte ranges of reorganized data files holding exactly this cell's
//! records, each named by the [`FileId`] of its data file. A freshly
//! built index has one slice per GFU; incremental appends (paper §4.2,
//! time-extension) add more.

use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result};

/// Key prefix for GFU entries in the key-value store.
pub const GFU_PREFIX: &[u8] = b"g:";
/// Key of the deferred file-reclamation list: data files retired by a
/// maintenance compaction that are no longer referenced by the current
/// [`ReadView`](crate::view::ReadView) but may still be pinned by
/// in-flight readers holding the previous view. The maintenance daemon
/// deletes them at the *start of its next run* (one full round of
/// grace), so a reader never loses a file out from under a pinned view.
pub const META_GC_KEY: &[u8] = b"m:gc";
/// Key of the persisted [`ReadView`](crate::view::ReadView), the root
/// record of the store: everything about an index that is not a GFU or a
/// pyramid node — generation, extents, split list, ingest watermark,
/// splitting policy, pre-computed aggregates, pyramid height. Query
/// planning pins it with a single `get`, every commit replaces it with a
/// single `put`, and beside it only [`META_GC_KEY`] exists under `m:`.
pub const META_VIEW_KEY: &[u8] = b"m:view";

/// A GFU key: the cell index per dimension, in policy order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GfuKey {
    /// Standardized coordinates.
    pub cells: Vec<i64>,
}

impl GfuKey {
    /// Construct from coordinates.
    pub fn new(cells: Vec<i64>) -> GfuKey {
        GfuKey { cells }
    }

    /// Order-preserving store key: `g:` + big-endian sign-flipped cells.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(GFU_PREFIX.len() + self.cells.len() * 8);
        buf.extend_from_slice(GFU_PREFIX);
        for c in &self.cells {
            codec::encode_key_i64(&mut buf, *c);
        }
        buf
    }

    /// Decode a store key produced by [`encode`](Self::encode).
    pub fn decode(mut bytes: &[u8], arity: usize) -> Result<GfuKey> {
        bytes = bytes
            .strip_prefix(GFU_PREFIX)
            .ok_or_else(|| DgfError::Corrupt("GFU key missing prefix".into()))?;
        let mut cells = Vec::with_capacity(arity);
        for _ in 0..arity {
            let (c, rest) = codec::decode_key_i64(bytes)?;
            cells.push(c);
            bytes = rest;
        }
        if !bytes.is_empty() {
            return Err(DgfError::Corrupt("GFU key has trailing bytes".into()));
        }
        Ok(GfuKey { cells })
    }

    /// The paper's display form, e.g. `7_13`.
    pub fn display(&self) -> String {
        self.cells
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("_")
    }
}

/// Identity of one Slice data file. Every file a writer creates is named
/// `part-r-{generation:05}-{part:05}`: the transaction's generation and
/// the reducer (or, for a compaction, 0) that wrote it. Generations are
/// strictly monotonic, so an id is never reused; [`FileId::path`] is the
/// one place an id becomes a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId {
    /// Generation of the transaction that wrote the file.
    pub generation: u64,
    /// Writer of the file within that transaction.
    pub part: u32,
}

impl FileId {
    /// Construct a file id.
    pub fn new(generation: u64, part: u32) -> FileId {
        FileId { generation, part }
    }

    /// The file's path under directory `dir` (the data directory, or a
    /// transaction's staging directory before publication).
    pub fn path(self, dir: &str) -> String {
        format!("{dir}/part-r-{:05}-{:05}", self.generation, self.part)
    }

    /// Append the id as two varints: generation, then part.
    pub(crate) fn encode(self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.generation);
        codec::put_varint(buf, self.part as u64);
    }

    /// Read an id written by [`encode`](Self::encode).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<FileId> {
        let generation = dec.varint()?;
        let part = u32::try_from(dec.varint()?)
            .map_err(|_| DgfError::Corrupt("file id part overflows u32".into()))?;
        Ok(FileId { generation, part })
    }
}

/// Location of one Slice: a half-open byte range of a data file.
///
/// The paper's Figure 6 records the file and an inclusive `[start, end]`
/// where `end` is the offset of the slice's last record; this codebase
/// names the file by [`FileId`] and uses half-open `[start, end)` byte
/// ranges, which compose directly with split clipping (see `DESIGN.md`
/// §5). Stored as `start` and the length `end - start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceLoc {
    /// Data file.
    pub file: FileId,
    /// First byte.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl SliceLoc {
    /// Construct a slice location.
    pub fn new(file: FileId, start: u64, end: u64) -> SliceLoc {
        SliceLoc { file, start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The value stored per GFU, and per pyramid node (which carries no
/// slice).
#[derive(Debug, Clone, PartialEq)]
pub struct GfuValue {
    /// Encoded aggregate states (see `dgf_query::AggSet::encode_states`)
    /// for the index's pre-computed aggregate list.
    pub header: Vec<u8>,
    /// Slices holding this cell's records (one per construction run that
    /// saw the cell).
    pub slices: Vec<SliceLoc>,
    /// Number of records in the cell (used for reporting and planning).
    pub record_count: u64,
}

impl GfuValue {
    /// Serialize: the length-prefixed header, then varints — the record
    /// count, the slice count, and per slice the file id's generation
    /// and part, the start offset and the length.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + self.header.len() + 2 + 8 * self.slices.len());
        codec::put_bytes(&mut buf, &self.header);
        codec::put_varint(&mut buf, self.record_count);
        codec::put_varint(&mut buf, self.slices.len() as u64);
        for s in &self.slices {
            s.file.encode(&mut buf);
            codec::put_varint(&mut buf, s.start);
            codec::put_varint(&mut buf, s.len());
        }
        buf
    }

    /// Deserialize; anything but the one layout is `Corrupt`.
    pub fn decode(bytes: &[u8]) -> Result<GfuValue> {
        let mut dec = Decoder::new(bytes);
        let header = dec.bytes()?.to_vec();
        let record_count = dec.varint()?;
        // Per slice: four varints of at least one byte each.
        let n = dec.varint_count(4)?;
        let mut slices = Vec::with_capacity(n);
        for _ in 0..n {
            let file = FileId::decode(&mut dec)?;
            let start = dec.varint()?;
            let end = start
                .checked_add(dec.varint()?)
                .ok_or_else(|| DgfError::Corrupt("slice end overflows u64".into()))?;
            slices.push(SliceLoc { file, start, end });
        }
        if dec.remaining() != 0 {
            return Err(DgfError::Corrupt("GFU value has trailing bytes".into()));
        }
        Ok(GfuValue {
            header,
            slices,
            record_count,
        })
    }
}

/// Per-dimension cell extents `[min_cell, max_cell]` observed in the data;
/// persisted so partially-specified queries can complete missing
/// dimensions (paper §5.3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extents {
    /// One inclusive `(min, max)` pair per dimension, in policy order.
    pub dims: Vec<(i64, i64)>,
}

impl Extents {
    /// Extents covering nothing (before any data is indexed).
    pub fn empty(arity: usize) -> Extents {
        Extents {
            dims: vec![(i64::MAX, i64::MIN); arity],
        }
    }

    /// Fold one observed key into the extents.
    pub fn observe(&mut self, key: &GfuKey) {
        for (d, c) in key.cells.iter().enumerate() {
            let (lo, hi) = &mut self.dims[d];
            *lo = (*lo).min(*c);
            *hi = (*hi).max(*c);
        }
    }

    /// Merge extents from another construction run.
    pub fn merge(&mut self, other: &Extents) {
        for (d, (olo, ohi)) in other.dims.iter().enumerate() {
            let (lo, hi) = &mut self.dims[d];
            *lo = (*lo).min(*olo);
            *hi = (*hi).max(*ohi);
        }
    }

    /// Whether any data has been observed.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(|(lo, hi)| lo > hi)
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, self.dims.len() as u32);
        for (lo, hi) in &self.dims {
            codec::put_i64(&mut buf, *lo);
            codec::put_i64(&mut buf, *hi);
        }
        buf
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Result<Extents> {
        let mut dec = Decoder::new(bytes);
        let n = dec.count(16)?;
        let mut dims = Vec::with_capacity(n);
        for _ in 0..n {
            dims.push((dec.i64()?, dec.i64()?));
        }
        Ok(Extents { dims })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encode_is_order_preserving_lexicographically() {
        let keys = [
            GfuKey::new(vec![-5, 0]),
            GfuKey::new(vec![-5, 3]),
            GfuKey::new(vec![0, -10]),
            GfuKey::new(vec![0, 0]),
            GfuKey::new(vec![7, 13]),
        ];
        let encoded: Vec<Vec<u8>> = keys.iter().map(|k| k.encode()).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (k, e) in keys.iter().zip(&encoded) {
            assert_eq!(&GfuKey::decode(e, 2).unwrap(), k);
        }
    }

    #[test]
    fn key_display_matches_paper_form() {
        assert_eq!(GfuKey::new(vec![7, 13]).display(), "7_13");
    }

    #[test]
    fn key_decode_validates() {
        let k = GfuKey::new(vec![1, 2]).encode();
        assert!(GfuKey::decode(&k, 3).is_err()); // wrong arity
        assert!(GfuKey::decode(b"x:junk", 1).is_err()); // wrong prefix
    }

    #[test]
    fn value_round_trip() {
        let v = GfuValue {
            header: vec![1, 2, 3],
            slices: vec![
                SliceLoc::new(FileId::new(3, 0), 0, 90),
                SliceLoc::new(FileId::new(41, 7), 1000, 1450),
                SliceLoc::new(FileId::new(u64::MAX, u32::MAX), u64::MAX - 1, u64::MAX),
            ],
            record_count: 60,
        };
        assert_eq!(GfuValue::decode(&v.encode()).unwrap(), v);
    }

    /// A freshly built cell with one pre-computed `SUM` of 1.5 over 29
    /// values: its 13-byte header (state count, tag, the exact sum's
    /// flags, digit count, digit index and one digit, then the varint
    /// non-null count) behind a length prefix, then one byte each for the
    /// record count, the slice count, the generation and the part, and
    /// two each for the start offset and the length.
    #[test]
    fn one_slice_one_sum_value_is_twenty_five_bytes() {
        let mut sum = dgf_query::ExactSum::new();
        sum.add(1.5);
        let states = dgf_query::AggSet::encode_states(&[dgf_query::AggState::Sum {
            sum,
            non_null: 29,
        }]);
        let v = GfuValue {
            header: states,
            slices: vec![SliceLoc::new(FileId::new(1, 3), 4096, 4096 + 200)],
            record_count: 29,
        };
        assert_eq!(v.header.len(), 13);
        assert_eq!(v.encode().len(), 25);
        assert_eq!(GfuValue::decode(&v.encode()).unwrap(), v);
        // A pyramid node or tombstone: the header and two bytes.
        let node = GfuValue { slices: Vec::new(), ..v };
        assert_eq!(node.encode().len(), 4 + 13 + 2);
    }

    #[test]
    fn file_ids_name_their_files() {
        assert_eq!(FileId::new(12, 3).path("/w/data"), "/w/data/part-r-00012-00003");
        // Id order is name order wherever both fit five digits.
        assert!(FileId::new(9, 99) < FileId::new(10, 0));
        assert!(FileId::new(9, 99).path("") < FileId::new(10, 0).path(""));
    }

    #[test]
    fn malformed_values_are_corrupt() {
        let v = GfuValue {
            header: vec![9],
            slices: vec![SliceLoc::new(FileId::new(2, 1), 10, 20)],
            record_count: 4,
        };
        let enc = v.encode();
        let corrupt = |bytes: &[u8]| {
            assert!(matches!(GfuValue::decode(bytes), Err(DgfError::Corrupt(_))), "{bytes:02x?}")
        };
        for cut in 0..enc.len() {
            corrupt(&enc[..cut]);
        }
        corrupt(&[&enc[..], &[0]].concat());
        // A part beyond u32, and a length that runs past u64::MAX.
        let mut big_part = enc[..enc.len() - 4].to_vec();
        codec::put_varint(&mut big_part, 1 << 32);
        big_part.extend_from_slice(&[10, 10]);
        corrupt(&big_part);
        let mut past_end = enc[..enc.len() - 2].to_vec();
        codec::put_varint(&mut past_end, u64::MAX);
        codec::put_varint(&mut past_end, 1);
        corrupt(&past_end);
    }

    #[test]
    fn empty_value_round_trip() {
        let v = GfuValue {
            header: vec![],
            slices: vec![],
            record_count: 0,
        };
        assert_eq!(GfuValue::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn extents_observe_and_merge() {
        let mut e = Extents::empty(2);
        assert!(e.is_empty());
        e.observe(&GfuKey::new(vec![3, -1]));
        e.observe(&GfuKey::new(vec![1, 5]));
        assert_eq!(e.dims, vec![(1, 3), (-1, 5)]);
        let mut f = Extents::empty(2);
        f.observe(&GfuKey::new(vec![10, 0]));
        e.merge(&f);
        assert_eq!(e.dims, vec![(1, 10), (-1, 5)]);
        assert!(!e.is_empty());
        assert_eq!(Extents::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn slice_len() {
        let f = FileId::new(1, 0);
        let s = SliceLoc::new(f, 10, 25);
        assert_eq!(s.len(), 15);
        assert!(!s.is_empty());
        assert!(SliceLoc::new(f, 5, 5).is_empty());
    }
}

//! Binary codecs.
//!
//! Two codecs live here:
//!
//! * A length-prefixed little-endian **frame codec** (the `put_*`
//!   writers and [`Decoder`]) used for row-group files, key-value store
//!   logs, and persisted index metadata. Its LEB128 varints
//!   ([`put_varint`], [`Decoder::varint`]) carry the small integers of
//!   GFU values: record counts, slice lists, file ids and offsets. A log
//!   record is one checksummed frame ([`write_frame`], read back by
//!   [`FrameReader`]).
//! * An **order-preserving key codec** used for grid-file unit keys so the
//!   key-value store can range-scan cells in coordinate order (`encode_key_i64`
//!   encodes sign-flipped big-endian).

use std::io::{Read, Write};

use crate::error::{DgfError, Result};
use crate::value::Value;

// ---------------------------------------------------------------------------
// Frame codec: little-endian primitives with explicit lengths.
// ---------------------------------------------------------------------------

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` little-endian.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` little-endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// Append an unsigned LEB128 varint: seven bits a byte, least
/// significant group first, the high bit set on every byte but the last.
/// Values below 128 take one byte, `u64::MAX` takes ten.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// A cursor over an encoded frame, returning typed reads with bounds checks.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DgfError::Corrupt(format!(
                "frame truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a varint written by [`put_varint`]. Only the shortest
    /// encoding of a value is accepted: a truncated varint, one longer
    /// than ten bytes, one whose bits overflow `u64` and one with a
    /// redundant zero final byte are all `Corrupt`, so every value has
    /// exactly one encoding.
    pub fn varint(&mut self) -> Result<u64> {
        let start = self.pos;
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = (b & 0x7F) as u64;
            if bits << shift >> shift != bits {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(DgfError::Corrupt(format!(
            "overlong varint at offset {start}"
        )))
    }

    /// Read the `u32` entry count of a list whose entries each encode to
    /// at least `min_entry_bytes`. A count the remaining bytes cannot
    /// hold is corruption, never an allocation request: decoders size
    /// their `Vec` from the returned value.
    pub fn count(&mut self, min_entry_bytes: usize) -> Result<usize> {
        let n = self.u32()? as u64;
        self.check_count(n, min_entry_bytes)
    }

    /// [`count`](Self::count) for a list whose count is a varint.
    pub fn varint_count(&mut self, min_entry_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        self.check_count(n, min_entry_bytes)
    }

    fn check_count(&self, n: u64, min_entry_bytes: usize) -> Result<usize> {
        if n > (self.remaining() / min_entry_bytes.max(1)) as u64 {
            return Err(DgfError::Corrupt(format!(
                "frame claims {n} entries of at least {min_entry_bytes} bytes in {} bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| DgfError::Corrupt(format!("invalid utf-8 in frame: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Value codec: rows inside binary row groups and aggregate headers.
// ---------------------------------------------------------------------------

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_INT: u8 = 1;
pub(crate) const TAG_FLOAT: u8 = 2;
pub(crate) const TAG_STR: u8 = 3;
pub(crate) const TAG_DATE: u8 = 4;

/// Append a tagged [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Int(x) => {
            buf.push(TAG_INT);
            put_i64(buf, *x);
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
        Value::Date(x) => {
            buf.push(TAG_DATE);
            put_i64(buf, *x);
        }
    }
}

/// Read a tagged [`Value`].
pub fn get_value(dec: &mut Decoder<'_>) -> Result<Value> {
    let tag = dec.take(1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(dec.i64()?),
        TAG_FLOAT => Value::Float(dec.f64()?),
        TAG_STR => Value::Str(dec.str()?.to_owned()),
        TAG_DATE => Value::Date(dec.i64()?),
        other => return Err(DgfError::Corrupt(format!("unknown value tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Order-preserving key codec.
// ---------------------------------------------------------------------------

/// Encode an `i64` so that byte-wise lexicographic order equals numeric
/// order: flip the sign bit, write big-endian.
pub fn encode_key_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&((v as u64) ^ (1u64 << 63)).to_be_bytes());
}

/// Decode one key-encoded `i64` from the front of `buf`, returning the rest.
pub fn decode_key_i64(buf: &[u8]) -> Result<(i64, &[u8])> {
    if buf.len() < 8 {
        return Err(DgfError::Corrupt("key truncated".into()));
    }
    let raw = u64::from_be_bytes(buf[..8].try_into().unwrap());
    Ok(((raw ^ (1u64 << 63)) as i64, &buf[8..]))
}

// ---------------------------------------------------------------------------
// Checksums and stream helpers.
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash, used as a log-record checksum and as the default
/// shuffle partitioner hash. Deterministic across runs (unlike `RandomState`),
/// which keeps MapReduce output placement reproducible.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A word-at-a-time multiply-rotate [`Hasher`](std::hash::Hasher) for
/// in-memory maps keyed by the program's own fixed-width keys (the
/// header cache's `g:` and `p:` keys): eight bytes a step, one multiply
/// and one rotate each, so a 27-byte key costs five steps (its length
/// and four words) where SipHash costs dozens of rounds. It is not keyed and not collision-resistant:
/// never use it on input a client controls. Deterministic across runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn step(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K).rotate_left(26);
    }
}

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if tail.is_empty() {
            return;
        }
        // The last eight bytes, overlapping the last whole word, where
        // there are eight: one load instead of a copy of the tail. A
        // slice's `Hash` writes its length first, so this stays
        // injective.
        let last = match bytes.len().checked_sub(8) {
            Some(at) => u64::from_le_bytes(bytes[at..].try_into().expect("8 bytes")),
            None => tail.iter().rev().fold(0, |w, b| w << 8 | u64::from(*b)),
        };
        self.step(last);
    }

    fn write_usize(&mut self, n: usize) {
        self.step(n as u64);
    }

    /// One more multiply, then the high half folded onto the low: a
    /// last word's high bytes reach the low bits a table indexes by.
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(Self::K);
        h ^ (h >> 32)
    }
}

// ---------------------------------------------------------------------------
// Checksummed frames: the records of the append-only logs (the key-value
// store's log and the ingest WAL).
// ---------------------------------------------------------------------------

/// Bytes one frame of a `payload_len`-byte payload takes on disk.
pub fn frame_len(payload_len: usize) -> u64 {
    4 + payload_len as u64 + 8
}

/// Append one checksummed frame, `[u32 len][payload][u64 fnv1a(payload)]`;
/// returns the bytes written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<u64> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a(payload).to_le_bytes())?;
    Ok(frame_len(payload.len()))
}

/// The payloads of a log of [`write_frame`] frames, in order, up to the
/// first torn or corrupt frame: one cut short, one whose checksum does
/// not match, or one whose length prefix claims more bytes than the log
/// has left. A log is only ever appended to, so what follows such a
/// frame was never acknowledged and is not read.
pub struct FrameReader<R> {
    inner: R,
    /// Bytes of the log not yet read.
    left: u64,
}

impl<R: Read> FrameReader<R> {
    /// Frames of the `len`-byte log `inner` reads.
    pub fn new(inner: R, len: u64) -> FrameReader<R> {
        FrameReader { inner, left: len }
    }

    fn read_frame(&mut self) -> Option<Vec<u8>> {
        let mut len = [0u8; 4];
        self.inner.read_exact(&mut len).ok()?;
        let n = u32::from_le_bytes(len) as usize;
        // Checked before the allocation: a flipped length byte is a torn
        // frame, not a request for gigabytes.
        if frame_len(n) > self.left {
            return None;
        }
        let mut payload = vec![0u8; n];
        self.inner.read_exact(&mut payload).ok()?;
        let mut sum = [0u8; 8];
        self.inner.read_exact(&mut sum).ok()?;
        if u64::from_le_bytes(sum) != fnv1a(&payload) {
            return None;
        }
        self.left -= frame_len(n);
        Some(payload)
    }
}

impl<R: Read> Iterator for FrameReader<R> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let frame = self.read_frame();
        if frame.is_none() {
            self.left = 0;
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_i64(&mut buf, -9);
        put_f64(&mut buf, 2.5);
        put_str(&mut buf, "hello");
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -9);
        assert_eq!(d.f64().unwrap(), 2.5);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut d = Decoder::new(&buf[..6]);
        assert!(d.str().is_err());
    }

    #[test]
    fn counts_the_frame_cannot_hold_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(Decoder::new(&buf).count(8).unwrap(), 2);
        assert!(Decoder::new(&buf).count(9).is_err());
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut samples = vec![0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        samples.extend((0..64).map(|b| 1u64 << b));
        for v in samples {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(
                buf.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut d = Decoder::new(&buf);
            assert_eq!(d.varint().unwrap(), v);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn malformed_varints_are_corrupt() {
        let corrupt = |bytes: &[u8]| {
            assert!(
                matches!(Decoder::new(bytes).varint(), Err(DgfError::Corrupt(_))),
                "{bytes:02x?}"
            )
        };
        corrupt(&[]);
        corrupt(&[0x80]); // truncated
        corrupt(&[0xFF; 9]); // truncated after nine bytes
        corrupt(&[0x80, 0x00]); // zero with a redundant byte
        corrupt(&[0xFF, 0x00]); // 127 with a redundant byte
        corrupt(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02]); // 2^64
        corrupt(&[0x80; 11]); // longer than any u64
                              // Ten bytes is the widest legal varint: `u64::MAX`.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(Decoder::new(&max).varint().unwrap(), u64::MAX);
    }

    #[test]
    fn varint_counts_the_frame_cannot_hold_are_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Decoder::new(&buf).varint_count(2).unwrap(), 3);
        assert!(Decoder::new(&buf).varint_count(3).is_err());
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert!(Decoder::new(&huge).varint_count(1).is_err());
    }

    #[test]
    fn value_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Int(-1),
            Value::Float(3.25),
            Value::Str("x|y".into()),
            Value::Date(15706),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut d = Decoder::new(&buf);
        for v in &vals {
            assert_eq!(&get_value(&mut d).unwrap(), v);
        }
    }

    /// Grid keys differ only in the low bytes of their big-endian
    /// coordinates, which land in the high bytes of the hasher's words:
    /// the finished hash must still spread them over a table's low
    /// index bits and over the top bits a table tags slots with.
    #[test]
    fn word_hasher_spreads_grid_keys() {
        use std::collections::HashSet;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<WordHasher>::default();
        let mut low = HashSet::new();
        let mut top = HashSet::new();
        let mut all = HashSet::new();
        for a in 0..64i64 {
            for b in 0..64i64 {
                let mut key = b"g:".to_vec();
                for c in [7, a, b] {
                    encode_key_i64(&mut key, c);
                }
                let h = build.hash_one(key.as_slice());
                low.insert(h & 0xfff);
                top.insert(h >> 57);
                all.insert(h);
            }
        }
        assert_eq!(all.len(), 4096, "distinct keys collided");
        // 4096 uniform draws over 4096 buckets fill 63 % of them.
        assert!(low.len() > 2400, "{} of 4096 low buckets", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn key_i64_preserves_order() {
        let samples = [i64::MIN, -100, -1, 0, 1, 99, i64::MAX];
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for v in samples {
            let mut b = Vec::new();
            encode_key_i64(&mut b, v);
            encoded.push(b);
        }
        for w in encoded.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (i, v) in samples.iter().enumerate() {
            let (got, rest) = decode_key_i64(&encoded[i]).unwrap();
            assert_eq!(got, *v);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn frames_read_back_until_the_first_torn_or_corrupt_one() {
        let mut log = Vec::new();
        for payload in [&b"one"[..], b"", b"three"] {
            assert_eq!(write_frame(&mut log, payload).unwrap(), frame_len(payload.len()));
        }
        let read = |log: &[u8]| -> Vec<Vec<u8>> {
            FrameReader::new(log, log.len() as u64).collect()
        };
        assert_eq!(read(&log), [b"one".to_vec(), Vec::new(), b"three".to_vec()]);
        // Torn third frame; a checksum mismatch in the second.
        assert_eq!(read(&log[..log.len() - 1]).len(), 2);
        let mut flipped = log.clone();
        flipped[frame_len(3) as usize + 4] ^= 1;
        assert_eq!(read(&flipped).len(), 1);
        // A length prefix past the log's end ends it before allocating.
        let mut huge = log.clone();
        huge[..4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        assert!(read(&huge).is_empty());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}

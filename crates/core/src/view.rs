//! The read view: the root record of a DGFIndex store.
//!
//! The paper keeps one small piece of state beside the `GFUKey →
//! GFUValue` pairs — the splitting policy and the per-dimension min/max
//! that partially-specified queries fall back to (§4.2, §5.3.4). Here
//! that state, and everything else about an index that is not a GFU or
//! a pyramid node, is one [`ReadView`] under
//! [`META_VIEW_KEY`](crate::gfu::META_VIEW_KEY): a reader
//! resolves it with a **single** KV `get`, a commit replaces it with a
//! single `put`, and it has one layout: a store that holds anything else
//! there is `Corrupt`, to be rebuilt.
//!
//! The paper's load path extends the grid in place (`append` updates
//! existing GFU entries rather than rebuilding, §5), so header mutation
//! and query reads race by design. The view makes that race safe: new
//! GFU values are staged under generation-qualified keys until the view
//! that references them is published, so a reader pinned to one view
//! can never observe a blend of two index epochs (`DESIGN.md` §11).

use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result};

use crate::gfu::{Extents, FileId};

/// The committed snapshot a plan pins at the start of assembly, and the
/// whole of a store's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadView {
    /// Index generation this view describes. Strictly monotonic across
    /// commits; header-cache entries are keyed by it, and a reopened
    /// handle resumes from it.
    pub generation: u64,
    /// `true` while the committing transaction is still publishing:
    /// readers must overlay the transaction's staged keys over the live
    /// keyspace (staged-first, so a concurrent cleanup is harmless).
    pub pending: bool,
    /// Ingest watermark at commit: the highest streaming-ingest batch
    /// sequence whose rows are in Slices, so WAL replay after a crash
    /// knows exactly which batches are already indexed.
    pub watermark: u64,
    /// Number of indexed base-table files at commit (staleness check).
    pub files: u64,
    /// Per-dimension cell extents at commit.
    pub extents: Extents,
    /// The exact data files (id, length) the view's Slices point into,
    /// in id order. Slice files are immutable once renamed into place, so
    /// the pinned list stays valid even while a later transaction adds
    /// files. Each commit derives its list from the previous view's, so a
    /// file a transaction retired never re-enters one. A Slice naming a
    /// file outside the list is `Corrupt` to the planner.
    pub data_files: Vec<(FileId, u64)>,
    /// The encoded [`SplittingPolicy`](crate::policy::SplittingPolicy)
    /// this view's cells were produced under. Riding the view is what
    /// keeps a pinned reader's extents and cell geometry from ever
    /// coming from two different grid epochs: a regrid publishes both
    /// through the same single `m:view` put.
    pub policy: Vec<u8>,
    /// Canonical keys of the pre-computed aggregates the headers hold,
    /// fixed at build; `open` checks the supplied list against them.
    pub agg_keys: Vec<String>,
    /// Levels of the aggregate pyramid above the `g:` leaves (see
    /// [`crate::pyramid`]), fixed at build; `0` for a store without one
    /// — it never grows one in place, because absent ancestor nodes
    /// would silently read as "no data".
    pub pyramid: u8,
}

impl ReadView {
    /// Serialize: every field, in declaration order, unconditionally.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, self.generation);
        codec::put_u32(&mut buf, self.pending as u32);
        codec::put_u64(&mut buf, self.watermark);
        codec::put_u64(&mut buf, self.files);
        codec::put_bytes(&mut buf, &self.extents.encode());
        codec::put_u32(&mut buf, self.data_files.len() as u32);
        for (id, len) in &self.data_files {
            id.encode(&mut buf);
            codec::put_varint(&mut buf, *len);
        }
        codec::put_bytes(&mut buf, &self.policy);
        codec::put_u32(&mut buf, self.agg_keys.len() as u32);
        for key in &self.agg_keys {
            codec::put_str(&mut buf, key);
        }
        buf.push(self.pyramid);
        buf
    }

    /// Decode a stored view; anything but the one layout is `Corrupt`.
    pub fn decode(bytes: &[u8]) -> Result<ReadView> {
        let mut d = Decoder::new(bytes);
        let generation = d.u64()?;
        let pending = match d.u32()? {
            0 => false,
            1 => true,
            n => return Err(DgfError::Corrupt(format!("bad view pending flag {n}"))),
        };
        let watermark = d.u64()?;
        let files = d.u64()?;
        let extents = Extents::decode(d.bytes()?)?;
        // Per file: three varints — the id's generation and part, and
        // the file length.
        let n = d.count(3)?;
        let mut data_files = Vec::with_capacity(n);
        for _ in 0..n {
            let id = FileId::decode(&mut d)?;
            data_files.push((id, d.varint()?));
        }
        let policy = d.bytes()?.to_vec();
        let n = d.count(4)?;
        let mut agg_keys = Vec::with_capacity(n);
        for _ in 0..n {
            agg_keys.push(d.str()?.to_owned());
        }
        let pyramid = d.u8()?;
        if d.remaining() != 0 {
            return Err(DgfError::Corrupt("read view has trailing bytes".into()));
        }
        Ok(ReadView {
            generation,
            pending,
            watermark,
            files,
            extents,
            data_files,
            policy,
            agg_keys,
            pyramid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfu::{GfuKey, GfuValue, SliceLoc};
    use crate::policy::SplittingPolicy;
    use crate::write::decode_gc_list;

    fn sample() -> ReadView {
        let mut extents = Extents::empty(2);
        extents.observe(&GfuKey::new(vec![3, -1]));
        ReadView {
            generation: 9,
            pending: true,
            watermark: 41,
            files: 4,
            extents,
            data_files: vec![(FileId::new(0, 0), 512), (FileId::new(9, 1), 90)],
            policy: vec![0xC0, 0xFF, 0xEE],
            agg_keys: vec!["sum(power)".into(), "count(*)".into()],
            pyramid: 12,
        }
    }

    #[test]
    fn view_round_trips() {
        let v = sample();
        assert_eq!(ReadView::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn corrupt_views_are_rejected() {
        assert!(ReadView::decode(b"").is_err());
        let mut enc = sample().encode();
        enc.push(0x77);
        assert!(ReadView::decode(&enc).is_err());
        enc.truncate(enc.len() - 2);
        assert!(ReadView::decode(&enc).is_err());
        // The earlier layout, these fields with a `u32` Slice-placement
        // code (0 for the key hash) before the pyramid byte, is not read:
        // such a store is rebuilt.
        let enc = sample().encode();
        let (head, pyramid) = enc.split_at(enc.len() - 1);
        for code in [0u32, 2] {
            let old = [head, &code.to_le_bytes()[..], pyramid].concat();
            assert!(matches!(ReadView::decode(&old), Err(DgfError::Corrupt(_))), "code {code}");
        }
    }

    /// Every list decoded from the store sizes its `Vec` from a count it
    /// read there: a count the value cannot hold is `Corrupt`, not a
    /// 64 GiB allocation.
    #[test]
    fn huge_counts_are_corrupt_not_allocations() {
        fn corrupt<T>(what: &str, decoded: Result<T>) {
            assert!(matches!(decoded, Err(DgfError::Corrupt(_))), "{what}");
        }
        // `prefix` is a valid encoding up to the count; 64 zero bytes
        // follow so a decoder that trusted the count would start reading.
        let zeros = [0u8; 64];
        let with_count = |prefix: &[u8]| [prefix, &u32::MAX.to_le_bytes()[..], &zeros].concat();
        let with_varint = |prefix: &[u8], n: u64| {
            let mut buf = prefix.to_vec();
            codec::put_varint(&mut buf, n);
            [&buf[..], &zeros].concat()
        };
        // With both lists empty each count is a lone u32: the file count
        // follows generation, pending, watermark, files and the extents
        // frame; the key count precedes only the one-byte pyramid height.
        let view = ReadView { data_files: Vec::new(), agg_keys: Vec::new(), ..sample() };
        let files_at = 28 + 4 + view.extents.encode().len();
        let view = view.encode();
        // A slice-less value ends in its one-byte slice count.
        let value = GfuValue { header: vec![1, 2], slices: Vec::new(), record_count: 5 }.encode();
        let slices_at = value.len() - 1;
        corrupt("gc list", decode_gc_list(&with_count(&[])));
        corrupt("extents", Extents::decode(&with_count(&[])));
        corrupt("policy", SplittingPolicy::decode(&with_count(&[])));
        for n in [17, u32::MAX as u64, u64::MAX] {
            corrupt("gfu slices", GfuValue::decode(&with_varint(&value[..slices_at], n)));
        }
        corrupt("gfu header", GfuValue::decode(&with_count(&[])));
        corrupt("view data files", ReadView::decode(&with_count(&view[..files_at])));
        corrupt("view agg keys", ReadView::decode(&with_count(&view[..view.len() - 5])));
        corrupt("gc list tail", decode_gc_list(&[&0u32.to_le_bytes()[..], &[7]].concat()));
    }

    /// Seeded byte mutation of every encoding a reader decodes from the
    /// store: truncations, bit flips, and ten-byte varints spliced in at
    /// every offset. Each mutant is `Corrupt` or decodes to a value that
    /// round-trips through its encoder — never a panic.
    #[test]
    fn mutated_encodings_are_corrupt_or_round_trip() {
        use rand::{Rng, SeedableRng};

        fn check<T: PartialEq + std::fmt::Debug>(
            what: &str,
            bytes: &[u8],
            decode: impl Fn(&[u8]) -> Result<T>,
            encode: impl Fn(&T) -> Vec<u8>,
        ) {
            match decode(bytes) {
                Ok(v) => assert_eq!(decode(&encode(&v)).unwrap(), v, "{what}: {bytes:02x?}"),
                Err(DgfError::Corrupt(_)) => {}
                Err(e) => panic!("{what}: {e} on {bytes:02x?}"),
            }
        }
        fn mutants(seed: u64, good: &[u8]) -> Vec<Vec<u8>> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut out: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
            for _ in 0..400 {
                let mut m = good.to_vec();
                for _ in 0..rng.random_range(1..4usize) {
                    let at = rng.random_range(0..m.len());
                    m[at] ^= 1 << rng.random_range(0..8u32);
                }
                out.push(m);
            }
            let wide = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
            for at in 0..=good.len() {
                out.push([&good[..at], &wide[..], &good[at..]].concat());
                let end = (at + wide.len()).min(good.len());
                out.push([&good[..at], &wide[..], &good[end..]].concat());
            }
            out
        }

        let value = GfuValue {
            header: vec![3, 1, 4, 1, 5],
            slices: vec![
                SliceLoc::new(FileId::new(7, 0), 0, 300),
                SliceLoc::new(FileId::new(70_000, 3), 1 << 40, (1 << 40) + 5),
            ],
            record_count: 1234,
        };
        for (seed, m) in mutants(1, &value.encode()).into_iter().enumerate() {
            check(&format!("gfu value #{seed}"), &m, GfuValue::decode, GfuValue::encode);
        }
        for m in mutants(2, &sample().encode()) {
            check("read view", &m, ReadView::decode, ReadView::encode);
        }
        let mut varints = Vec::new();
        for v in [0, 1, 127, 128, 1 << 35, u64::MAX] {
            codec::put_varint(&mut varints, v);
        }
        let decode_all = |bytes: &[u8]| -> Result<Vec<u64>> {
            let mut d = Decoder::new(bytes);
            let mut out = Vec::new();
            while d.remaining() > 0 {
                out.push(d.varint()?);
            }
            Ok(out)
        };
        let encode_all = |vs: &Vec<u64>| {
            let mut buf = Vec::new();
            for v in vs {
                codec::put_varint(&mut buf, *v);
            }
            buf
        };
        for m in mutants(3, &varints) {
            check("varints", &m, decode_all, encode_all);
            // The one encoding of a value is the one it decodes from.
            if let Ok(vs) = decode_all(&m) {
                assert_eq!(encode_all(&vs), m);
            }
        }
    }
}

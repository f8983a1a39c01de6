//! Versioned read views: the snapshot a query plans against.
//!
//! The paper's load path extends the grid in place (`append` updates
//! existing GFU entries rather than rebuilding, §5), so header mutation
//! and query reads race by design. A [`ReadView`] makes that race safe:
//! it is the committed snapshot of everything plan assembly needs —
//! generation, per-dimension extents, the exact split list, the ingest
//! watermark — resolved from a **single** KV `get` of
//! [`META_VIEW_KEY`](crate::gfu::META_VIEW_KEY). The commit protocol
//! publishes a new view as part of the staged transaction, and new GFU
//! values are staged under generation-qualified keys until the view that
//! references them is visible, so a reader pinned to one view can never
//! observe a blend of two index epochs (see `DESIGN.md` §11).

use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result};

use crate::gfu::Extents;

/// The committed snapshot a plan pins at the start of assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadView {
    /// Index generation this view describes. Strictly monotonic across
    /// commits; header-cache entries are keyed by it.
    pub generation: u64,
    /// `true` while the committing transaction is still publishing:
    /// readers must overlay the transaction's staged keys over the live
    /// keyspace (staged-first, so a concurrent cleanup is harmless).
    pub pending: bool,
    /// Ingest watermark at commit (highest flushed batch sequence).
    pub watermark: u64,
    /// Number of indexed base-table files at commit (staleness check).
    pub files: u64,
    /// Per-dimension cell extents at commit.
    pub extents: Extents,
    /// The exact data files (path, length) the view's Slices point into.
    /// Slice files are immutable once renamed into place, so the pinned
    /// list stays valid even while a later transaction adds files.
    pub data_files: Vec<(String, u64)>,
    /// The encoded [`SplittingPolicy`](crate::policy::SplittingPolicy)
    /// this view's cells were produced under. Riding the view — rather
    /// than a side-channel revision counter — is what keeps a pinned
    /// reader's extents and cell geometry from ever coming from two
    /// different grid epochs: a regrid publishes both through the same
    /// single `m:view` put.
    pub policy: Vec<u8>,
}

/// The parts of a view that records published by older builds may lack
/// (each sits behind a presence flag in the encoding), as read from live
/// state by the open-time upgrade in
/// [`DgfIndex::open_with_options`](crate::index::DgfIndex::open_with_options).
pub(crate) struct LiveParts {
    pub files: u64,
    pub data_files: Vec<(String, u64)>,
    pub policy: Vec<u8>,
}

impl ReadView {
    /// Serialize. Every presence flag is written set, so the bytes are
    /// the ones every build since the policy joined the view has
    /// published: one on-disk format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, self.generation);
        codec::put_u32(&mut buf, self.pending as u32);
        codec::put_u64(&mut buf, self.watermark);
        codec::put_u32(&mut buf, 1);
        codec::put_u64(&mut buf, self.files);
        codec::put_bytes(&mut buf, &self.extents.encode());
        codec::put_u32(&mut buf, 1);
        codec::put_u32(&mut buf, self.data_files.len() as u32);
        for (path, len) in &self.data_files {
            codec::put_str(&mut buf, path);
            codec::put_u64(&mut buf, *len);
        }
        codec::put_u32(&mut buf, 1);
        codec::put_bytes(&mut buf, &self.policy);
        buf
    }

    /// Decode a stored view. A record that lacks a part is `Corrupt`
    /// here: [`DgfIndex::open_with_options`](crate::index::DgfIndex::open_with_options)
    /// completes such records once, before any reader can pin them.
    pub fn decode(bytes: &[u8]) -> Result<ReadView> {
        let lacking = || Err(DgfError::Corrupt("read view lacks its file list or policy".into()));
        Ok(Self::decode_or_complete(bytes, lacking)?.0)
    }

    /// [`decode`](Self::decode), taking any part the record predates
    /// from `live` (consulted at most once, and only then). Also returns
    /// whether `live` supplied anything, i.e. whether the record needs
    /// re-publishing.
    pub(crate) fn decode_or_complete(
        bytes: &[u8],
        live: impl FnOnce() -> Result<LiveParts>,
    ) -> Result<(ReadView, bool)> {
        let mut d = Decoder::new(bytes);
        let generation = d.u64()?;
        let pending = match d.u32()? {
            0 => false,
            1 => true,
            n => return Err(DgfError::Corrupt(format!("bad view pending flag {n}"))),
        };
        let watermark = d.u64()?;
        let files = match d.u32()? {
            0 => None,
            _ => Some(d.u64()?),
        };
        let extents = Extents::decode(d.bytes()?)?;
        let data_files = match d.u32()? {
            0 => None,
            _ => {
                let n = d.u32()? as usize;
                // Every entry takes at least its two length prefixes:
                // a count beyond what the bytes can hold is corruption,
                // not an allocation request.
                if n > d.remaining() / 12 {
                    return Err(DgfError::Corrupt(format!(
                        "read view lists {n} data files in {} bytes",
                        d.remaining()
                    )));
                }
                let mut files = Vec::with_capacity(n);
                for _ in 0..n {
                    let path = d.str()?.to_owned();
                    let len = d.u64()?;
                    files.push((path, len));
                }
                Some(files)
            }
        };
        let policy = match d.remaining() {
            0 => None,
            _ => match d.u32()? {
                0 => None,
                _ => Some(d.bytes()?.to_vec()),
            },
        };
        if d.remaining() != 0 {
            return Err(DgfError::Corrupt("read view has trailing bytes".into()));
        }
        let completed = files.is_none() || data_files.is_none() || policy.is_none();
        let (files, data_files, policy) = match (files, data_files, policy) {
            (Some(files), Some(data_files), Some(policy)) => (files, data_files, policy),
            (files, data_files, policy) => {
                let live = live()?;
                (
                    files.unwrap_or(live.files),
                    data_files.unwrap_or(live.data_files),
                    policy.unwrap_or(live.policy),
                )
            }
        };
        let view = ReadView {
            generation,
            pending,
            watermark,
            files,
            extents,
            data_files,
            policy,
        };
        Ok((view, completed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfu::GfuKey;

    fn sample() -> ReadView {
        let mut extents = Extents::empty(2);
        extents.observe(&GfuKey::new(vec![3, -1]));
        ReadView {
            generation: 9,
            pending: true,
            watermark: 41,
            files: 4,
            extents,
            data_files: vec![
                ("/warehouse/idx/data/part-r-00000-00000".into(), 512),
                ("/warehouse/idx/data/part-r-00009-00001".into(), 90),
            ],
            policy: vec![0xC0, 0xFF, 0xEE],
        }
    }

    /// `v` as a build from before the file list and the policy rode the
    /// view would have stored it: both presence flags clear, no tail.
    fn encode_without_parts(v: &ReadView) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, v.generation);
        codec::put_u32(&mut buf, v.pending as u32);
        codec::put_u64(&mut buf, v.watermark);
        codec::put_u32(&mut buf, 0);
        codec::put_bytes(&mut buf, &v.extents.encode());
        codec::put_u32(&mut buf, 0);
        buf
    }

    #[test]
    fn view_round_trips() {
        let v = sample();
        assert_eq!(ReadView::decode(&v.encode()).unwrap(), v);
        let never = || -> Result<LiveParts> { panic!("a complete record consults nothing") };
        assert_eq!(ReadView::decode_or_complete(&v.encode(), never).unwrap(), (v, false));
    }

    #[test]
    fn records_lacking_parts_are_completed_from_live_state_only() {
        let v = sample();
        let old = encode_without_parts(&v);
        assert!(matches!(ReadView::decode(&old), Err(DgfError::Corrupt(_))));
        let live = || {
            Ok(LiveParts {
                files: v.files,
                data_files: v.data_files.clone(),
                policy: v.policy.clone(),
            })
        };
        assert_eq!(ReadView::decode_or_complete(&old, live).unwrap(), (v.clone(), true));
    }

    #[test]
    fn corrupt_views_are_rejected() {
        assert!(ReadView::decode(b"").is_err());
        let mut enc = sample().encode();
        enc.push(0x77);
        assert!(ReadView::decode(&enc).is_err());
    }

    #[test]
    fn huge_data_file_count_is_corrupt_not_an_allocation() {
        let v = sample();
        let mut enc = encode_without_parts(&v);
        // Flip the file-list flag on and claim u32::MAX entries.
        let at = enc.len() - 4;
        enc[at..].copy_from_slice(&1u32.to_le_bytes());
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        enc.extend_from_slice(&[0u8; 24]);
        assert!(matches!(ReadView::decode(&enc), Err(DgfError::Corrupt(_))));
    }
}

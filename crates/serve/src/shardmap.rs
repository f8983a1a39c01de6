//! Shard-map construction: where to split the GFU keyspace.
//!
//! The split function is the same odometer order the planner's
//! prefix-scan runs exploit: GFU keys are order-preserving encodings of
//! cell coordinate vectors, so ranking cells in odometer order and
//! cutting the rank space into `N` near-equal stretches yields
//! boundaries that keep every run of consecutive cells contiguous
//! within a shard — a cross-shard run splits into at most one sub-range
//! per shard. Metadata keys (`m:*`), pyramid nodes (`p:*`, see
//! [`dgf_core::pyramid`]), staged keys (`s:*`), and the transaction
//! manifest (`t:*`) all sort *above* the `g:` GFU prefix, so the whole
//! commit protocol — and every aggregate-pyramid read — lands on the
//! last shard: the `m:view` visibility switch stays a single-key,
//! single-shard atomic put, and the pyramid delta publishes atomically
//! with it at no router change.

use std::sync::Arc;

use dgf_core::Extents;
use dgf_core::GfuKey;
use dgf_kvstore::{KvStore, MemKvStore, ShardedKv};

use dgf_common::Result;

/// Split keys partitioning the keyspace of `extents` into `shards`
/// near-equal stretches of odometer rank (returns `shards - 1` strictly
/// increasing keys). Grids smaller than the shard count get synthetic
/// boundaries past the last cell, leaving the surplus shards empty —
/// an explicitly supported (and tested) topology.
pub fn shard_boundaries(extents: &Extents, shards: usize) -> Vec<Vec<u8>> {
    if shards <= 1 {
        return Vec::new();
    }
    let sizes: Vec<u64> = extents
        .dims
        .iter()
        .map(|(lo, hi)| (hi - lo + 1).max(1) as u64)
        .collect();
    let total: u64 = sizes.iter().product();
    let rank_to_key = |rank: u64| -> Vec<u8> {
        let mut coords = vec![0i64; sizes.len()];
        let mut r = rank;
        for d in (0..sizes.len()).rev() {
            coords[d] = extents.dims[d].0 + (r % sizes[d]) as i64;
            r /= sizes[d];
        }
        GfuKey::new(coords).encode()
    };
    let mut boundaries = Vec::with_capacity(shards - 1);
    let mut prev_rank: Option<u64> = None;
    let mut overflow = 0i64;
    for i in 1..shards as u64 {
        let ideal = i * total / shards as u64;
        let rank = match prev_rank {
            Some(p) => ideal.max(p + 1),
            None => ideal.max(1),
        };
        if rank < total {
            boundaries.push(rank_to_key(rank));
            prev_rank = Some(rank);
        } else {
            // Past the last cell: synthesize keys beyond the grid by
            // walking dimension 0 past its extent. Order-preserving
            // encoding keeps them strictly increasing and greater than
            // every real key, so the shards they bound stay empty.
            overflow += 1;
            let mut coords: Vec<i64> = extents.dims.iter().map(|(lo, _)| *lo).collect();
            coords[0] = extents.dims[0].1 + overflow;
            boundaries.push(GfuKey::new(coords).encode());
            prev_rank = Some(total + overflow as u64);
        }
    }
    boundaries
}

/// A router over `shards` fresh in-memory stores split for `extents`.
///
/// ```
/// use dgf_core::{Extents, GfuKey};
/// use dgf_serve::sharded_mem;
///
/// let extents = Extents { dims: vec![(0, 9)] };
/// let router = sharded_mem(&extents, 4).unwrap();
/// // GFU keys spread across the shards; everything above the `g:`
/// // prefix — metadata, pyramid nodes, staged keys, the manifest —
/// // routes to the last shard, so the commit protocol and the
/// // aggregate pyramid stay single-shard atomic.
/// assert_eq!(router.shard_of(&GfuKey::new(vec![0]).encode()), 0);
/// assert_eq!(router.shard_of(b"m:view"), 3);
/// assert_eq!(router.shard_of(&dgf_core::pyramid::pyramid_key(2, &[1])), 3);
/// ```
pub fn sharded_mem(extents: &Extents, shards: usize) -> Result<ShardedKv> {
    let stores: Vec<Arc<dyn KvStore>> = (0..shards)
        .map(|_| Arc::new(MemKvStore::new()) as Arc<dyn KvStore>)
        .collect();
    ShardedKv::new(stores, shard_boundaries(extents, shards))
}

/// Copy every pair of `src` into `dst` (routed writes), returning the
/// pair count. This is how a serving tier is stood up next to an
/// existing single-node index: mirror the GFU store into the router,
/// then open the index over the router.
pub fn mirror_kv(src: &dyn KvStore, dst: &dyn KvStore) -> Result<u64> {
    let pairs = src.scan_prefix(b"")?;
    let n = pairs.len() as u64;
    for (k, v) in pairs {
        dst.put(&k, &v)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extents(dims: &[(i64, i64)]) -> Extents {
        Extents {
            dims: dims.to_vec(),
        }
    }

    #[test]
    fn boundaries_are_strictly_increasing_and_counted() {
        let e = extents(&[(0, 7), (0, 3)]); // 32 cells
        for shards in [1usize, 2, 4, 7] {
            let b = shard_boundaries(&e, shards);
            assert_eq!(b.len(), shards.saturating_sub(1));
            assert!(b.windows(2).all(|w| w[0] < w[1]), "{shards} shards");
        }
    }

    #[test]
    fn tiny_grid_yields_empty_tail_shards() {
        // 2 cells across 7 shards: boundaries must still be strictly
        // increasing, with the synthetic tail past the last cell.
        let e = extents(&[(0, 1)]);
        let b = shard_boundaries(&e, 7);
        assert_eq!(b.len(), 6);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        let kv = sharded_mem(&e, 7).unwrap();
        kv.put(&GfuKey::new(vec![0]).encode(), b"a").unwrap();
        kv.put(&GfuKey::new(vec![1]).encode(), b"b").unwrap();
        let occupied = kv.shards().iter().filter(|s| !s.is_empty()).count();
        assert!(occupied <= 2);
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn split_load_is_near_uniform_on_the_grid() {
        let e = extents(&[(0, 9), (0, 9)]); // 100 cells
        let kv = sharded_mem(&e, 4).unwrap();
        for x in 0..10 {
            for y in 0..10 {
                kv.put(&GfuKey::new(vec![x, y]).encode(), b"v").unwrap();
            }
        }
        for s in kv.shards() {
            assert_eq!(s.len(), 25);
        }
    }

    #[test]
    fn metadata_lands_on_the_last_shard() {
        let e = extents(&[(0, 9)]);
        let kv = sharded_mem(&e, 4).unwrap();
        for key in [&b"m:view"[..], b"m:gc", b"s:0001", b"t:manifest"] {
            assert_eq!(kv.shard_of(key), 3, "{}", String::from_utf8_lossy(key));
        }
        // Pyramid nodes route with the metadata, at every level and
        // coordinate — the whole `p:` prefix sorts above every `g:` key.
        for node in [
            dgf_core::pyramid::pyramid_key(1, &[0]),
            dgf_core::pyramid::pyramid_key(3, &[1]),
            dgf_core::pyramid::pyramid_key(12, &[-5]),
        ] {
            assert_eq!(kv.shard_of(&node), 3, "{}", String::from_utf8_lossy(&node));
        }
        // GFU keys spread below the metadata.
        assert_eq!(kv.shard_of(&GfuKey::new(vec![0]).encode()), 0);
    }

    #[test]
    fn mirror_copies_everything() {
        let src = MemKvStore::new();
        src.put(b"g:a", b"1").unwrap();
        src.put(b"m:view", b"2").unwrap();
        let e = extents(&[(0, 3)]);
        let dst = sharded_mem(&e, 2).unwrap();
        assert_eq!(mirror_kv(&src, &dst).unwrap(), 2);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.get(b"m:view").unwrap().unwrap(), b"2");
    }
}

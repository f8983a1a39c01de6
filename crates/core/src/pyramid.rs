//! Hierarchical aggregate pyramid over the grid (k²-treap-style).
//!
//! Inner-region aggregation over a fine grid is O(cells in region) when
//! every inner GFU header is read individually — fatal on the 10⁶–10⁸
//! cell grids a million-user space needs. Following "Aggregated 2D Range
//! Queries on Clustered Points" (Brisaboa et al.), the store keeps a
//! **pyramid** of coarser aggregate headers above the `g:` leaves: the
//! level-`k` node at coordinates `c` summarizes the axis-aligned box of
//! cells `[c·2ᵏ, (c+1)·2ᵏ − 1]` per dimension, i.e. the 2^d level-`k−1`
//! children obtained by halving each coordinate. A fully-inner query
//! region then [`decompose`]s into O(surface × levels) maximal canonical
//! nodes instead of per-cell reads, and the planner descends to `g:`
//! headers only at the fringe.
//!
//! ## Key layout
//!
//! A node lives under [`PYRAMID_PREFIX`]: `p:` + one level byte + the
//! order-preserving coordinate encoding (the same
//! [`codec::encode_key_i64`] the `g:` keys use). `p:` (0x70) sorts
//! between `m:` (0x6D) and `s:` (0x73), so on a
//! [`ShardedKv`](../../dgf_kvstore/struct.ShardedKv.html) whose
//! boundaries partition the `g:` space every pyramid key routes to the
//! *last* shard together with `m:view`, staged `s:` keys, and the
//! transaction manifest — the single-shard commit-point atomicity of
//! DESIGN.md §13 is preserved with no router change. Level 0 is not
//! stored separately: [`level_key`] maps a level-0 node to its `g:`
//! leaf key.
//!
//! ## Node states
//!
//! The state of node `(k, c)` is the merge of its *present* children's
//! states ([`fold_node`]); the state of a leaf is its decoded header.
//! Aggregate states merge in any order to the same bits (sums are
//! exact), so a node's stored state is exactly the merge of the leaves
//! under it, and reading a pre-computed `p:` node yields the same bits
//! as merging those leaves on the fly, in any order.
//!
//! ```
//! use dgf_core::pyramid::{decompose, NodeRef};
//!
//! // A 2-d inner box of 8×8 cells aligned to the level-2 grid of a
//! // two-level pyramid decomposes into four level-2 nodes — not 64
//! // leaf reads. (A taller pyramid would cover it with one node.)
//! let items = decompose(&[(0, 7), (8, 15)], 2);
//! assert_eq!(items.len(), 4);
//! assert!(items.iter().all(|n| n.level == 2));
//! assert_eq!(items[0], NodeRef { level: 2, coords: vec![0, 2] });
//! // A misaligned box keeps coarse nodes in its interior and descends
//! // to finer levels (ultimately `g:` leaves) only at the fringe.
//! let fringe = decompose(&[(1, 8), (1, 8)], 4);
//! assert!(fringe.iter().any(|n| n.level == 2));
//! assert!(fringe.iter().any(|n| n.level == 0));
//! assert_eq!(
//!     fringe.iter().map(|n| n.cell_count()).sum::<u128>(),
//!     64
//! );
//! ```

use dgf_common::codec;
use dgf_common::Result;
use dgf_query::{AggSet, AggState};

use crate::gfu::GFU_PREFIX;

/// Key prefix for pyramid node entries in the key-value store. Sorts
/// above every `g:` leaf and below the staged `s:` keys, so range
/// partitions built over the leaf space route all pyramid traffic to
/// the metadata shard.
pub const PYRAMID_PREFIX: &[u8] = b"p:";

/// Default pyramid height above the leaves. Each level halves every
/// coordinate, so 12 levels summarize up to 4096 cells per dimension
/// under one root-level node — enough for the 10⁶–10⁸ cell grids the
/// ROADMAP targets while keeping maintenance's dirty-parent chains
/// short.
pub const DEFAULT_PYRAMID_LEVELS: u8 = 12;

/// Dimensionalities above this would fan out `2^d` children per node;
/// the pyramid is disabled (never built, never consulted) for wider
/// grids.
pub const MAX_PYRAMID_ARITY: usize = 16;

/// Store key of the level-`level` pyramid node at `coords`:
/// `p:` + level byte + order-preserving coordinate encoding. Callers
/// use [`level_key`] for level 0, which lives at the `g:` leaf key
/// instead.
pub fn pyramid_key(level: u8, coords: &[i64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PYRAMID_PREFIX.len() + 1 + 8 * coords.len());
    buf.extend_from_slice(PYRAMID_PREFIX);
    buf.push(level);
    for c in coords {
        codec::encode_key_i64(&mut buf, *c);
    }
    buf
}

/// Store key of the node at (`level`, `coords`): the `g:` leaf key for
/// level 0, the `p:` node key otherwise.
pub fn level_key(level: u8, coords: &[i64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PYRAMID_PREFIX.len() + 1 + 8 * coords.len());
    push_level_key(&mut buf, level, coords);
    buf
}

/// Append [`level_key`]`(level, coords)` to `buf`, so a caller encoding
/// many keys fills one buffer. The level-0 key is the cell's
/// [`GfuKey`](crate::gfu::GfuKey) encoding.
pub(crate) fn push_level_key(buf: &mut Vec<u8>, level: u8, coords: &[i64]) {
    if level == 0 {
        buf.extend_from_slice(GFU_PREFIX);
    } else {
        buf.extend_from_slice(PYRAMID_PREFIX);
        buf.push(level);
    }
    for c in coords {
        codec::encode_key_i64(buf, *c);
    }
}

/// Level-`(k+1)` coordinates of the node containing a level-`k` node at
/// `coords`: floor-halve every coordinate (`div_euclid`, so negative
/// grids nest correctly).
pub fn parent_coords(coords: &[i64]) -> Vec<i64> {
    coords.iter().map(|c| c.div_euclid(2)).collect()
}

/// The 2^d level-`(k-1)` children of a level-`k` node at `coords`, in
/// **odometer order**: ascending offset bitmask with dimension 0 most
/// significant (the children's key order).
pub fn child_coords(coords: &[i64]) -> Vec<Vec<i64>> {
    (0..1usize << coords.len())
        .map(|mask| {
            let mut child = vec![0; coords.len()];
            write_child(coords, mask, &mut child);
            child
        })
        .collect()
}

/// Write the `mask`-th child of the node at `coords`, in
/// [`child_coords`] order, into `out`.
fn write_child(coords: &[i64], mask: usize, out: &mut [i64]) {
    let d = coords.len();
    for (j, (o, c)) in out.iter_mut().zip(coords).enumerate() {
        *o = 2 * c + ((mask >> (d - 1 - j)) & 1) as i64;
    }
}

/// One node of the decomposition: a level and its coordinates. Level 0
/// is a single grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRef {
    /// Pyramid level; 0 is the `g:` leaf layer.
    pub level: u8,
    /// Node coordinates at that level.
    pub coords: Vec<i64>,
}

impl NodeRef {
    /// Number of leaf cells this node summarizes: `2^(level·d)`.
    pub fn cell_count(&self) -> u128 {
        cell_count(self.level, self.coords.len())
    }
}

/// Number of leaf cells a level-`level` node of a `d`-dimensional
/// pyramid summarizes: `2^(level·d)`.
pub(crate) fn cell_count(level: u8, d: usize) -> u128 {
    1u128 << (level as u32 * d as u32)
}

/// Inclusive per-dimension leaf-cell box of the node at (`level`, `c`),
/// in i128 to dodge overflow at the top levels.
fn node_box(level: u8, c: i64) -> (i128, i128) {
    let w = 1i128 << level;
    let lo = c as i128 * w;
    (lo, lo + w - 1)
}

/// Decompose an inclusive inner box (`(lo, hi)` leaf cells per
/// dimension) into maximal canonical nodes of a pyramid `top` levels
/// high. The result partitions the box exactly: every cell is under
/// exactly one returned node. Nodes are emitted in depth-first odometer
/// order. An empty box (any `lo > hi`) decomposes to nothing.
pub fn decompose(inner: &[(i64, i64)], top: u8) -> Vec<NodeRef> {
    let mut out = Vec::new();
    decompose_each(inner, top, |level, coords| {
        out.push(NodeRef {
            level,
            coords: coords.to_vec(),
        })
    });
    out
}

/// [`decompose`] without building its items: `emit(level, coords)` is
/// called once per item, in [`decompose`]'s order. The recursion writes
/// each level's coordinates into one row of a single buffer, so a
/// decomposition allocates once, however many nodes it visits.
pub(crate) fn decompose_each(inner: &[(i64, i64)], top: u8, mut emit: impl FnMut(u8, &[i64])) {
    if inner.iter().any(|(lo, hi)| lo > hi) {
        return;
    }
    let d = inner.len();
    // Row `k` holds the coordinates of the level-`k` node being visited.
    let mut rows = vec![0i64; d * (top as usize + 1)];
    // Odometer over the top-level nodes overlapping the box, in the top
    // row itself: visits write only the rows below it.
    let w = 1i64 << top;
    let top_row = top as usize * d;
    for (c, (l, _)) in rows[top_row..].iter_mut().zip(inner) {
        *c = l.div_euclid(w);
    }
    loop {
        visit(&mut emit, inner, top, &mut rows);
        let coord = &mut rows[top_row..];
        let Some(j) = (0..d).rev().find(|j| coord[*j] < inner[*j].1.div_euclid(w)) else {
            break;
        };
        coord[j] += 1;
        for (c, (l, _)) in coord[j + 1..].iter_mut().zip(&inner[j + 1..]) {
            *c = l.div_euclid(w);
        }
    }
}

/// Visit the level-`level` node whose coordinates are the last row of
/// `rows`: emit it when the box contains it, recurse into its children
/// (written into the row below, in [`child_coords`] order) when it
/// straddles the box's edge, drop it when disjoint.
fn visit(emit: &mut impl FnMut(u8, &[i64]), inner: &[(i64, i64)], level: u8, rows: &mut [i64]) {
    let d = inner.len();
    let (below, coords) = rows.split_at_mut(level as usize * d);
    let mut contained = true;
    for (c, (ql, qh)) in coords.iter().zip(inner) {
        let (lo, hi) = node_box(level, *c);
        if hi < *ql as i128 || lo > *qh as i128 {
            return; // disjoint
        }
        if lo < *ql as i128 || hi > *qh as i128 {
            contained = false;
        }
    }
    if contained {
        emit(level, coords);
        return;
    }
    // A level-0 node is one cell: always contained or disjoint, so the
    // recursion bottoms out before reaching here with level == 0.
    debug_assert!(level > 0, "partial overlap on a single cell");
    for mask in 0..1usize << d {
        write_child(coords, mask, &mut below[(level as usize - 1) * d..]);
        visit(emit, inner, level - 1, below);
    }
}

/// Merge one node's children into a fresh accumulator. `children`
/// yields `Ok(None)` for absent children, which are skipped; a node with
/// no present children does not exist (`Ok(None)`). This is the single
/// definition of a stored node's value — every staged pyramid write
/// calls it.
pub fn fold_node(
    set: &AggSet,
    children: impl IntoIterator<Item = Result<Option<(Vec<AggState>, u64)>>>,
) -> Result<Option<(Vec<AggState>, u64)>> {
    let mut states = set.new_states();
    let mut count = 0u64;
    let mut present = false;
    for child in children {
        if let Some((cs, cc)) = child? {
            set.merge(&mut states, &cs)?;
            count += cc;
            present = true;
        }
    }
    Ok(present.then_some((states, count)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfu::GfuKey;

    #[test]
    fn pyramid_keys_sort_between_meta_and_staged() {
        let p = pyramid_key(3, &[1, 2]);
        assert!(p.as_slice() > &b"m:view"[..]);
        assert!(p.as_slice() < &b"s:"[..]);
        assert!(p.as_slice() > GfuKey::new(vec![i64::MAX, i64::MAX]).encode().as_slice());
    }

    #[test]
    fn level_zero_key_is_the_leaf_key() {
        assert_eq!(level_key(0, &[7, 13]), GfuKey::new(vec![7, 13]).encode());
        assert_ne!(level_key(1, &[7, 13]), GfuKey::new(vec![7, 13]).encode());
        // Pushed keys land end to end, byte for byte what `level_key` returns.
        let mut buf = Vec::new();
        push_level_key(&mut buf, 0, &[7, -13]);
        push_level_key(&mut buf, 3, &[7, -13]);
        assert_eq!(buf, [level_key(0, &[7, -13]), level_key(3, &[7, -13])].concat());
    }

    #[test]
    fn children_are_odometer_ordered_and_invert_parent() {
        let kids = child_coords(&[1, -2]);
        assert_eq!(kids.len(), 4);
        assert_eq!(kids[0], vec![2, -4]);
        assert_eq!(kids[1], vec![2, -3]);
        assert_eq!(kids[2], vec![3, -4]);
        assert_eq!(kids[3], vec![3, -3]);
        for k in &kids {
            assert_eq!(parent_coords(k), vec![1, -2]);
        }
        // Odometer order == lexicographic order of the child coords.
        let mut sorted = kids.clone();
        sorted.sort();
        assert_eq!(sorted, kids);
    }

    #[test]
    fn negative_coordinates_nest_with_floor_division() {
        assert_eq!(parent_coords(&[-1]), vec![-1]);
        assert_eq!(parent_coords(&[-2]), vec![-1]);
        assert!(child_coords(&[-1]).contains(&vec![-1]));
        assert!(child_coords(&[-1]).contains(&vec![-2]));
    }

    /// The decomposition as first written: a fresh [`child_coords`]
    /// vector at every visited node. The canonical item order is this
    /// recursion's.
    fn reference_decompose(inner: &[(i64, i64)], top: u8) -> Vec<NodeRef> {
        fn visit(out: &mut Vec<NodeRef>, inner: &[(i64, i64)], level: u8, coords: &[i64]) {
            let mut contained = true;
            for (d, c) in coords.iter().enumerate() {
                let (lo, hi) = node_box(level, *c);
                let (ql, qh) = (inner[d].0 as i128, inner[d].1 as i128);
                if hi < ql || lo > qh {
                    return;
                }
                if lo < ql || hi > qh {
                    contained = false;
                }
            }
            if contained {
                out.push(NodeRef {
                    level,
                    coords: coords.to_vec(),
                });
                return;
            }
            for child in child_coords(coords) {
                visit(out, inner, level - 1, &child);
            }
        }
        if inner.iter().any(|(lo, hi)| lo > hi) {
            return Vec::new();
        }
        let w = 1i64 << top;
        let mut tops = Vec::new();
        let bounds: Vec<(i64, i64)> =
            inner.iter().map(|(l, h)| (l.div_euclid(w), h.div_euclid(w))).collect();
        let mut coord: Vec<i64> = bounds.iter().map(|b| b.0).collect();
        'odometer: loop {
            tops.push(coord.clone());
            for d in (0..coord.len()).rev() {
                if coord[d] < bounds[d].1 {
                    coord[d] += 1;
                    for j in d + 1..coord.len() {
                        coord[j] = bounds[j].0;
                    }
                    continue 'odometer;
                }
            }
            break;
        }
        let mut out = Vec::new();
        for c in &tops {
            visit(&mut out, inner, top, c);
        }
        out
    }

    /// Every leaf cell of `node`, as coordinate vectors.
    fn cells_of(node: &NodeRef) -> Vec<Vec<i64>> {
        let mut cells = vec![Vec::new()];
        for c in &node.coords {
            let (lo, hi) = node_box(node.level, *c);
            cells = cells
                .into_iter()
                .flat_map(|prefix| {
                    (lo..=hi).map(move |x| {
                        let mut cell = prefix.clone();
                        cell.push(x as i64);
                        cell
                    })
                })
                .collect();
        }
        cells
    }

    #[test]
    fn decompose_partitions_the_box_exactly() {
        // Misaligned 2-, 3- and 4-d boxes, negative coordinates included,
        // under pyramids 0 to 6 levels high: every cell is covered exactly
        // once, and the items are the reference recursion's, in its order.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut boxes: Vec<Vec<(i64, i64)>> = vec![
            vec![(0, 15), (0, 15)],
            vec![(1, 14), (3, 9)],
            vec![(-5, 6), (-8, -1)],
            vec![(2, 2), (5, 5)],
            vec![(-9, 4), (1, 6), (-3, -3)],
            vec![(-2, 5), (-7, 0), (3, 8), (-1, 1)],
        ];
        for _ in 0..24 {
            let d = rng.random_range(2..=4usize);
            let span = if d == 4 { 7 } else { 12 };
            boxes.push(
                (0..d)
                    .map(|_| {
                        let lo = rng.random_range(-20..20i64);
                        (lo, lo + rng.random_range(0..span))
                    })
                    .collect(),
            );
        }
        for inner in &boxes {
            for top in 0..=6u8 {
                let items = decompose(inner, top);
                assert_eq!(items, reference_decompose(inner, top), "{inner:?}, top {top}");
                let mut seen = std::collections::HashSet::new();
                for n in &items {
                    for cell in cells_of(n) {
                        let inside = cell.iter().zip(inner).all(|(x, (lo, hi))| lo <= x && x <= hi);
                        assert!(inside, "{n:?} leaks outside {inner:?}");
                        assert!(seen.insert(cell), "{inner:?}, top {top}: cell covered twice");
                    }
                }
                let want: usize = inner.iter().map(|(lo, hi)| (hi - lo + 1) as usize).product();
                assert_eq!(seen.len(), want, "{inner:?}, top {top}: not fully covered");
            }
        }
    }

    #[test]
    fn decompose_is_polylog_on_aligned_boxes() {
        // 4096 cells decompose into 1 node when perfectly aligned...
        assert_eq!(decompose(&[(0, 63), (0, 63)], 6).len(), 1);
        // ...and into O(surface · levels) nodes when shifted by one.
        let shifted = decompose(&[(1, 64), (1, 64)], 6);
        assert!(shifted.len() < 400, "got {}", shifted.len());
        assert_eq!(shifted.iter().map(|n| n.cell_count()).sum::<u128>(), 4096);
    }

    #[test]
    fn decompose_empty_box_is_empty() {
        assert!(decompose(&[(3, 2)], 4).is_empty());
        assert!(decompose(&[(0, 5), (7, 1)], 4).is_empty());
    }
}

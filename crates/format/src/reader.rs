//! Byte ranges: what a skipping reader of either format is told to read.

/// A byte range of one file that a skipping reader should materialize.
///
/// Half-open `[start, end)`. The paper's Figure 6 uses inclusive
/// `[start, last_record_start]` slice bounds; this codebase uses half-open
/// byte ranges throughout, which compose with split clipping without
/// special cases (the conversion is done where slices are recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl ByteRange {
    /// Construct a range; `start <= end` is required.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "byte range reversed: {start}..{end}");
        ByteRange { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Intersection with another range, if non-empty.
    pub fn intersect(&self, other: &ByteRange) -> Option<ByteRange> {
        let s = self.start.max(other.start);
        let e = self.end.min(other.end);
        (s < e).then(|| ByteRange::new(s, e))
    }
}

/// Merge overlapping or adjacent ranges into a minimal sorted list.
///
/// The DGFIndex planner produces one range per query-related slice; adjacent
/// slices in the same file coalesce so the skipping reader issues fewer
/// seeks.
pub fn coalesce_ranges(mut ranges: Vec<ByteRange>) -> Vec<ByteRange> {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_by_key(|r| (r.start, r.end));
    let mut out: Vec<ByteRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_ranges() {
        let a = ByteRange::new(0, 10);
        let b = ByteRange::new(5, 15);
        assert_eq!(a.intersect(&b), Some(ByteRange::new(5, 10)));
        assert_eq!(a.intersect(&ByteRange::new(10, 20)), None);
        assert_eq!(a.intersect(&ByteRange::new(2, 3)), Some(ByteRange::new(2, 3)));
    }

    #[test]
    fn coalesce_merges_overlaps_and_adjacency() {
        let got = coalesce_ranges(vec![
            ByteRange::new(10, 20),
            ByteRange::new(0, 5),
            ByteRange::new(5, 10),
            ByteRange::new(40, 50),
            ByteRange::new(45, 60),
            ByteRange::new(30, 30), // empty, dropped
        ]);
        assert_eq!(
            got,
            vec![ByteRange::new(0, 20), ByteRange::new(40, 60)]
        );
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_range_panics() {
        ByteRange::new(5, 1);
    }
}

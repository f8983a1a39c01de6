//! The grid-file splitting policy (paper §4.2).
//!
//! Before constructing a DGFIndex the user specifies, per indexed
//! dimension, a minimum value and an interval size (Listing 3:
//! `IDXPROPERTIES ('A'='1_3', 'B'='11_2', …)`). The policy "standardizes"
//! a value to the left-closed right-open cell it falls into; the vector of
//! standardized coordinates is the GFUKey.
//!
//! Integer and date dimensions use exact integer arithmetic; float
//! dimensions standardize in `f64` (interval sizes like TPC-H's
//! `l_discount` 0.01 are exact enough at the scales involved, and the
//! boundary region is always re-checked against the exact predicate, so a
//! borderline cell assignment can never change query results).

use std::ops::Bound;

use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result, Value, ValueType};
use dgf_query::ColumnRange;

/// Scale of one dimension: minimum + interval in the dimension's units.
#[derive(Debug, Clone, PartialEq)]
pub enum DimScale {
    /// Integer or date dimension (dates are epoch days; "1 day" ⇒ 1).
    Int {
        /// Left edge of cell 0.
        min: i64,
        /// Cell width (> 0).
        interval: i64,
    },
    /// Floating-point dimension.
    Float {
        /// Left edge of cell 0.
        min: f64,
        /// Cell width (> 0).
        interval: f64,
    },
}

/// Policy for one indexed dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimPolicy {
    /// Column name in the base table.
    pub name: String,
    /// Column type (must match the schema at bind time).
    pub vtype: ValueType,
    /// Standardization scale.
    pub scale: DimScale,
}

impl DimPolicy {
    /// An integer dimension.
    pub fn int(name: impl Into<String>, min: i64, interval: i64) -> DimPolicy {
        assert!(interval > 0, "interval must be positive");
        DimPolicy {
            name: name.into(),
            vtype: ValueType::Int,
            scale: DimScale::Int { min, interval },
        }
    }

    /// A date dimension; `interval_days` is the paper's "unit of interval"
    /// for date types.
    pub fn date(name: impl Into<String>, min_day: i64, interval_days: i64) -> DimPolicy {
        assert!(interval_days > 0, "interval must be positive");
        DimPolicy {
            name: name.into(),
            vtype: ValueType::Date,
            scale: DimScale::Int {
                min: min_day,
                interval: interval_days,
            },
        }
    }

    /// A float dimension.
    pub fn float(name: impl Into<String>, min: f64, interval: f64) -> DimPolicy {
        assert!(interval > 0.0, "interval must be positive");
        DimPolicy {
            name: name.into(),
            vtype: ValueType::Float,
            scale: DimScale::Float { min, interval },
        }
    }

    /// The paper's `standard(value)`: the cell index whose left-closed
    /// right-open interval contains `value`.
    pub fn cell_of(&self, v: &Value) -> Result<i64> {
        if v.is_null() {
            return Err(DgfError::Index(format!(
                "NULL in index dimension {:?}",
                self.name
            )));
        }
        match &self.scale {
            DimScale::Int { min, interval } => {
                let x = v.as_i64()?;
                Ok((x - min).div_euclid(*interval))
            }
            DimScale::Float { min, interval } => {
                let x = v.as_f64()?;
                Ok(((x - min) / interval).floor() as i64)
            }
        }
    }

    /// Left edge of cell `c`, as a value of the dimension's type.
    pub fn cell_low(&self, c: i64) -> Value {
        match &self.scale {
            DimScale::Int { min, interval } => {
                let x = min + c * interval;
                match self.vtype {
                    ValueType::Date => Value::Date(x),
                    _ => Value::Int(x),
                }
            }
            DimScale::Float { min, interval } => Value::Float(min + c as f64 * interval),
        }
    }

    /// Exclusive right edge of cell `c` (= left edge of cell `c + 1`).
    pub fn cell_high(&self, c: i64) -> Value {
        self.cell_low(c + 1)
    }

    /// The inclusive cell span `[lo, hi]` that may contain values matching
    /// `range`, and whether the range fully covers the edge cells.
    ///
    /// Unbounded sides are clamped to the supplied data extent
    /// `(min_cell, max_cell)` and count as covered — every value ever
    /// indexed lies inside the extent (paper §5.3.4: missing dimensions
    /// are completed from the stored min/max).
    pub fn cell_span(
        &self,
        range: Option<&ColumnRange>,
        extent: (i64, i64),
    ) -> Result<DimSpan> {
        let (ext_lo, ext_hi) = extent;
        let Some(range) = range else {
            return Ok(DimSpan {
                lo: ext_lo,
                hi: ext_hi,
                lo_covered: true,
                hi_covered: true,
            });
        };
        // On integer/date scales the bound kinds are interconvertible
        // (`x > v` ≡ `x >= v+1`, `x <= v` ≡ `x < v+1`); canonicalizing to
        // the closed-low/open-high form lets aligned point and inclusive
        // ranges be recognized as fully covering their cells.
        let is_integral = matches!(self.scale, DimScale::Int { .. });
        let low = match (&range.low, is_integral) {
            (Bound::Excluded(v), true) => {
                Bound::Included(bump_integral(self.vtype, v.as_i64()?, 1))
            }
            (other, _) => other.clone(),
        };
        let high = match (&range.high, is_integral) {
            (Bound::Included(v), true) => {
                Bound::Excluded(bump_integral(self.vtype, v.as_i64()?, 1))
            }
            (other, _) => other.clone(),
        };
        // Lower side.
        let (mut lo, mut lo_covered) = match &low {
            Bound::Unbounded => (ext_lo, true),
            Bound::Included(v) => {
                let c = self.cell_of(v)?;
                // Covered iff the bound sits exactly on the cell edge.
                (c, *v == self.cell_low(c))
            }
            Bound::Excluded(v) => {
                let c = self.cell_of(v)?;
                (c, false)
            }
        };
        // Upper side.
        let (mut hi, mut hi_covered) = match &high {
            Bound::Unbounded => (ext_hi, true),
            Bound::Included(v) => {
                let c = self.cell_of(v)?;
                (c, false) // an inclusive float bound never covers its cell
            }
            Bound::Excluded(v) => {
                let c = self.cell_of(v)?;
                if *v == self.cell_low(c) {
                    // `x < cell edge`: the edge cell itself is excluded.
                    (c - 1, true)
                } else {
                    (c, false)
                }
            }
        };
        // Clamp to the data extent; clamped sides are covered by definition.
        if lo < ext_lo {
            lo = ext_lo;
            lo_covered = true;
        }
        if hi > ext_hi {
            hi = ext_hi;
            hi_covered = true;
        }
        Ok(DimSpan {
            lo,
            hi,
            lo_covered,
            hi_covered,
        })
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_str(buf, &self.name);
        match (&self.scale, self.vtype) {
            (DimScale::Int { min, interval }, t) => {
                buf.push(if t == ValueType::Date { 1 } else { 0 });
                codec::put_i64(buf, *min);
                codec::put_i64(buf, *interval);
            }
            (DimScale::Float { min, interval }, _) => {
                buf.push(2);
                codec::put_f64(buf, *min);
                codec::put_f64(buf, *interval);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<DimPolicy> {
        let name = dec.str()?.to_owned();
        Ok(match dec.u8()? {
            0 => DimPolicy::int(name, dec.i64()?, dec.i64()?),
            1 => DimPolicy::date(name, dec.i64()?, dec.i64()?),
            2 => DimPolicy::float(name, dec.f64()?, dec.f64()?),
            t => return Err(DgfError::Corrupt(format!("unknown dim policy tag {t}"))),
        })
    }
}

/// `v + delta` as a value of the given integral type.
fn bump_integral(vtype: ValueType, v: i64, delta: i64) -> Value {
    let x = v.saturating_add(delta);
    match vtype {
        ValueType::Date => Value::Date(x),
        _ => Value::Int(x),
    }
}

/// The cell span of a query range on one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimSpan {
    /// First cell (inclusive).
    pub lo: i64,
    /// Last cell (inclusive). `hi < lo` means the span is empty.
    pub hi: i64,
    /// Whether the first cell is entirely inside the query range.
    pub lo_covered: bool,
    /// Whether the last cell is entirely inside the query range.
    pub hi_covered: bool,
}

impl DimSpan {
    /// Whether the span contains no cells.
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// Whether cell `c` of this span is fully covered by the query range.
    pub fn covered(&self, c: i64) -> bool {
        (c > self.lo || self.lo_covered) && (c < self.hi || self.hi_covered)
    }
}

/// The full grid: an ordered list of dimension policies.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingPolicy {
    dims: Vec<DimPolicy>,
}

impl SplittingPolicy {
    /// Build a policy; at least one dimension, unique names.
    pub fn new(dims: Vec<DimPolicy>) -> Result<SplittingPolicy> {
        if dims.is_empty() {
            return Err(DgfError::Index("a grid needs at least one dimension".into()));
        }
        for (i, d) in dims.iter().enumerate() {
            if dims[..i].iter().any(|e| e.name == d.name) {
                return Err(DgfError::Index(format!("duplicate dimension {:?}", d.name)));
            }
        }
        Ok(SplittingPolicy { dims })
    }

    /// The dimensions, in key order.
    pub fn dims(&self) -> &[DimPolicy] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Dimension names in key order.
    pub fn dim_names(&self) -> Vec<&str> {
        self.dims.iter().map(|d| d.name.as_str()).collect()
    }

    /// Serialize for the key-value store's metadata entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, self.dims.len() as u32);
        for d in &self.dims {
            d.encode(&mut buf);
        }
        buf
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Result<SplittingPolicy> {
        let mut dec = Decoder::new(bytes);
        // Per dimension: a name length prefix, a tag, min and interval.
        let n = dec.count(21)?;
        let mut dims = Vec::with_capacity(n);
        for _ in 0..n {
            dims.push(DimPolicy::decode(&mut dec)?);
        }
        SplittingPolicy::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_standardization_matches_paper_example() {
        // Paper Figure 5: A divided with min 1, interval 3: [1,4), [4,7)…
        let d = DimPolicy::int("A", 1, 3);
        assert_eq!(d.cell_of(&Value::Int(1)).unwrap(), 0);
        assert_eq!(d.cell_of(&Value::Int(3)).unwrap(), 0);
        assert_eq!(d.cell_of(&Value::Int(4)).unwrap(), 1);
        assert_eq!(d.cell_of(&Value::Int(7)).unwrap(), 2);
        assert_eq!(d.cell_low(2), Value::Int(7));
        assert_eq!(d.cell_high(2), Value::Int(10));
        // Values below min standardize to negative cells, not errors.
        assert_eq!(d.cell_of(&Value::Int(0)).unwrap(), -1);
    }

    #[test]
    fn float_standardization() {
        let d = DimPolicy::float("disc", 0.0, 0.01);
        assert_eq!(d.cell_of(&Value::Float(0.0)).unwrap(), 0);
        assert_eq!(d.cell_of(&Value::Float(0.045)).unwrap(), 4);
        assert_eq!(d.cell_low(4), Value::Float(0.04));
    }

    #[test]
    fn date_standardization() {
        let d = DimPolicy::date("ts", 15706, 1); // 2013-01-01, 1-day cells
        assert_eq!(d.cell_of(&Value::Date(15706)).unwrap(), 0);
        assert_eq!(d.cell_of(&Value::Date(15708)).unwrap(), 2);
        assert_eq!(d.cell_low(2), Value::Date(15708));
    }

    #[test]
    fn null_in_dimension_is_an_error() {
        let d = DimPolicy::int("A", 0, 1);
        assert!(d.cell_of(&Value::Null).is_err());
    }

    #[test]
    fn span_of_half_open_range_on_cell_edges_is_fully_covered() {
        let d = DimPolicy::int("A", 0, 10);
        // [20, 50): cells 2,3,4, all covered.
        let r = ColumnRange::half_open(Value::Int(20), Value::Int(50));
        let s = d.cell_span(Some(&r), (0, 100)).unwrap();
        assert_eq!((s.lo, s.hi), (2, 4));
        assert!(s.lo_covered && s.hi_covered);
        assert!(s.covered(2) && s.covered(3) && s.covered(4));
    }

    #[test]
    fn span_of_misaligned_range_has_boundary_cells() {
        let d = DimPolicy::int("A", 0, 10);
        // [25, 45): cells 2..4; 2 and 4 are boundary, 3 is inner.
        let r = ColumnRange::half_open(Value::Int(25), Value::Int(45));
        let s = d.cell_span(Some(&r), (0, 100)).unwrap();
        assert_eq!((s.lo, s.hi), (2, 4));
        assert!(!s.covered(2));
        assert!(s.covered(3));
        assert!(!s.covered(4));
    }

    #[test]
    fn span_with_exclusive_bounds() {
        let d = DimPolicy::int("A", 0, 10);
        // (20, 40): cell 2 is boundary (20 itself excluded), cell 3 covered
        // up to 40? No: x < 40 exclusive on edge 40 ⇒ cell 3 covered, hi=3.
        let r = ColumnRange::open(Value::Int(20), Value::Int(40));
        let s = d.cell_span(Some(&r), (0, 100)).unwrap();
        assert_eq!((s.lo, s.hi), (2, 3));
        assert!(!s.covered(2));
        assert!(s.covered(3));
    }

    #[test]
    fn missing_range_spans_full_extent_covered() {
        let d = DimPolicy::int("A", 0, 10);
        let s = d.cell_span(None, (3, 9)).unwrap();
        assert_eq!((s.lo, s.hi), (3, 9));
        assert!(s.covered(3) && s.covered(9));
    }

    #[test]
    fn span_clamps_to_extent() {
        let d = DimPolicy::int("A", 0, 10);
        let r = ColumnRange::half_open(Value::Int(-100), Value::Int(1000));
        let s = d.cell_span(Some(&r), (2, 5)).unwrap();
        assert_eq!((s.lo, s.hi), (2, 5));
        assert!(s.lo_covered && s.hi_covered);
    }

    #[test]
    fn empty_span_when_range_below_extent() {
        let d = DimPolicy::int("A", 0, 10);
        let r = ColumnRange::half_open(Value::Int(0), Value::Int(10));
        let s = d.cell_span(Some(&r), (5, 9)).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn point_query_is_single_boundary_cell() {
        let d = DimPolicy::int("A", 0, 10);
        let r = ColumnRange::eq(Value::Int(25));
        let s = d.cell_span(Some(&r), (0, 100)).unwrap();
        assert_eq!((s.lo, s.hi), (2, 2));
        assert!(!s.covered(2)); // the paper: point queries have no inner GFU
    }

    #[test]
    fn integral_point_on_unit_cell_is_fully_covered() {
        // regionId with interval 1: `region = 10` covers cell 10 exactly
        // (x <= 10 ≡ x < 11 on integers), so the cell is inner and the
        // pre-computed header can answer it (Figure 17's query shape).
        let d = DimPolicy::int("region_id", 0, 1);
        let r = ColumnRange::eq(Value::Int(10));
        let s = d.cell_span(Some(&r), (0, 20)).unwrap();
        assert_eq!((s.lo, s.hi), (10, 10));
        assert!(s.covered(10));
        // Same for dates with 1-day cells.
        let d = DimPolicy::date("ts", 15706, 1);
        let r = ColumnRange::eq(Value::Date(15710));
        let s = d.cell_span(Some(&r), (0, 30)).unwrap();
        assert!(s.covered(4));
        // Exclusive integral low bound: x > 19 ≡ x >= 20 — cell [10,20)
        // holds no matching integers, so the span starts at cell 2,
        // which is fully covered.
        let d = DimPolicy::int("A", 0, 10);
        let r = ColumnRange::open(Value::Int(19), Value::Int(40));
        let s = d.cell_span(Some(&r), (0, 100)).unwrap();
        assert_eq!((s.lo, s.hi), (2, 3));
        assert!(s.covered(2)); // [20,30) fully inside (20..=39)
        assert!(s.covered(3));
        // Float inclusive bounds stay boundary (no successor value).
        let d = DimPolicy::float("f", 0.0, 1.0);
        let r = ColumnRange::eq(Value::Float(3.0));
        let s = d.cell_span(Some(&r), (0, 10)).unwrap();
        assert!(!s.covered(3));
    }

    #[test]
    fn policy_encode_decode() {
        let p = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, 1000),
            DimPolicy::date("ts", 15706, 1),
            DimPolicy::float("power", 0.0, 0.5),
        ])
        .unwrap();
        let decoded = SplittingPolicy::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn policy_rejects_empty_and_duplicates() {
        assert!(SplittingPolicy::new(vec![]).is_err());
        assert!(SplittingPolicy::new(vec![
            DimPolicy::int("a", 0, 1),
            DimPolicy::int("a", 0, 2),
        ])
        .is_err());
    }
}

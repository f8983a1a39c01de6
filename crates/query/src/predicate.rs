//! Conjunctive range predicates — the paper's MDRQ `WHERE` clauses.
//!
//! A multidimensional range query constrains several columns with interval
//! conditions joined by `AND` (paper Listing 2/4/5/6). [`Predicate`] models
//! exactly that: one optional interval per column. This is not a general
//! expression tree on purpose: the index planners (DGFIndex, Compact Index)
//! consume intervals per dimension, which is what HiveQL's index handlers
//! extract from the predicate as well.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use dgf_common::batch::{Column, ColumnBatch, ColumnData, Selection};
use dgf_common::{DgfError, Result, Row, Schema, Value};

/// An interval condition on one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRange {
    /// Lower bound.
    pub low: Bound<Value>,
    /// Upper bound.
    pub high: Bound<Value>,
}

impl ColumnRange {
    /// The unconstrained interval.
    pub fn all() -> Self {
        ColumnRange {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
        }
    }

    /// `column = v`.
    pub fn eq(v: Value) -> Self {
        ColumnRange {
            low: Bound::Included(v.clone()),
            high: Bound::Included(v),
        }
    }

    /// `low <= column < high` (the paper's left-closed right-open GFU form).
    pub fn half_open(low: Value, high: Value) -> Self {
        ColumnRange {
            low: Bound::Included(low),
            high: Bound::Excluded(high),
        }
    }

    /// `low < column < high` (the paper's query listings use strict bounds).
    pub fn open(low: Value, high: Value) -> Self {
        ColumnRange {
            low: Bound::Excluded(low),
            high: Bound::Excluded(high),
        }
    }

    /// Whether `v` satisfies the interval. `Null` never matches a bounded
    /// interval (SQL comparison semantics).
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return matches!((&self.low, &self.high), (Bound::Unbounded, Bound::Unbounded));
        }
        let lo_ok = match &self.low {
            Bound::Unbounded => true,
            Bound::Included(b) => v >= b,
            Bound::Excluded(b) => v > b,
        };
        let hi_ok = match &self.high {
            Bound::Unbounded => true,
            Bound::Included(b) => v <= b,
            Bound::Excluded(b) => v < b,
        };
        lo_ok && hi_ok
    }

    /// Conjunction of two intervals on the same column.
    pub fn intersect(&self, other: &ColumnRange) -> ColumnRange {
        ColumnRange {
            low: tighter_low(&self.low, &other.low),
            high: tighter_high(&self.high, &other.high),
        }
    }
}

fn tighter_low(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
    match (a, b) {
        (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
        (Bound::Included(x), Bound::Included(y)) => Bound::Included(x.clone().max(y.clone())),
        (Bound::Excluded(x), Bound::Excluded(y)) => Bound::Excluded(x.clone().max(y.clone())),
        (Bound::Included(x), Bound::Excluded(y)) | (Bound::Excluded(y), Bound::Included(x)) => {
            if y >= x {
                Bound::Excluded(y.clone())
            } else {
                Bound::Included(x.clone())
            }
        }
    }
}

fn tighter_high(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
    match (a, b) {
        (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
        (Bound::Included(x), Bound::Included(y)) => Bound::Included(x.clone().min(y.clone())),
        (Bound::Excluded(x), Bound::Excluded(y)) => Bound::Excluded(x.clone().min(y.clone())),
        (Bound::Included(x), Bound::Excluded(y)) | (Bound::Excluded(y), Bound::Included(x)) => {
            if y <= x {
                Bound::Excluded(y.clone())
            } else {
                Bound::Included(x.clone())
            }
        }
    }
}

/// A conjunction of per-column interval conditions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Predicate {
    ranges: BTreeMap<String, ColumnRange>,
}

impl Predicate {
    /// The always-true predicate (full scan).
    pub fn all() -> Self {
        Predicate::default()
    }

    /// Add (AND) a condition on `column`; multiple conditions on the same
    /// column intersect.
    pub fn and(mut self, column: impl Into<String>, range: ColumnRange) -> Self {
        let column = column.into();
        let merged = match self.ranges.get(&column) {
            Some(existing) => existing.intersect(&range),
            None => range,
        };
        self.ranges.insert(column, merged);
        self
    }

    /// The interval on `column`, if constrained.
    pub fn range_of(&self, column: &str) -> Option<&ColumnRange> {
        self.ranges.get(column)
    }

    /// Constrained columns in name order.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.ranges.keys().map(|s| s.as_str())
    }

    /// Number of constrained columns.
    pub fn arity(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the predicate constrains nothing.
    pub fn is_trivial(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Resolve column names to indexes for fast row evaluation.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate> {
        let mut terms = Vec::with_capacity(self.ranges.len());
        for (col, range) in &self.ranges {
            terms.push((schema.index_of(col)?, range.clone()));
        }
        Ok(BoundPredicate { terms })
    }

    /// Drop conditions on columns not in `keep` (used when an index only
    /// understands a subset of the predicate, paper §5.3.4).
    pub fn project_columns(&self, keep: &[&str]) -> Predicate {
        Predicate {
            ranges: self
                .ranges
                .iter()
                .filter(|(c, _)| keep.contains(&c.as_str()))
                .map(|(c, r)| (c.clone(), r.clone()))
                .collect(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ranges.is_empty() {
            return f.write_str("TRUE");
        }
        let mut first = true;
        for (c, r) in &self.ranges {
            if !first {
                f.write_str(" AND ")?;
            }
            first = false;
            match &r.low {
                Bound::Unbounded => {}
                Bound::Included(v) => write!(f, "{c} >= {v} AND ")?,
                Bound::Excluded(v) => write!(f, "{c} > {v} AND ")?,
            }
            match &r.high {
                Bound::Unbounded => write!(f, "{c} IS CONSTRAINED")?,
                Bound::Included(v) => write!(f, "{c} <= {v}")?,
                Bound::Excluded(v) => write!(f, "{c} < {v}")?,
            }
        }
        Ok(())
    }
}

/// A predicate resolved against a schema.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    terms: Vec<(usize, ColumnRange)>,
}

impl BoundPredicate {
    /// Evaluate against one row.
    pub fn matches(&self, row: &Row) -> bool {
        self.terms.iter().all(|(idx, range)| {
            row.get(*idx).is_some_and(|v| range.contains(v))
        })
    }

    /// Number of bound terms.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Selection-vector kernel: evaluate the predicate over a whole batch.
    ///
    /// Each term filters the selection in turn, reading the column's typed
    /// vector directly instead of materializing a [`Row`] per record. Row
    /// indexes come out ascending, and every per-cell decision delegates to
    /// [`ColumnRange::contains`] semantics (via stack-allocated `Value`s for
    /// primitives and an allocation-free mirror for strings), so the
    /// surviving set is exactly the set of rows [`Self::matches`] would
    /// accept — the property the columnar/row-wise equivalence suite pins.
    pub fn select(&self, batch: &ColumnBatch) -> Selection {
        let mut sel = Selection::All(batch.len());
        for (idx, range) in &self.terms {
            if sel.is_empty() {
                break;
            }
            sel = filter_column(batch.column(*idx), range, &sel);
        }
        sel
    }
}

/// Keep the selected rows of `col` that satisfy `range`.
fn filter_column(col: &Column, range: &ColumnRange, sel: &Selection) -> Selection {
    // The row path sees `Null` for null cells and unprojected columns alike.
    let null_ok = range.contains(&Value::Null);
    let mut out: Vec<u32> = Vec::with_capacity(sel.len());
    let nulls = &col.nulls;
    match &col.data {
        ColumnData::Int(v) => out.extend(sel.iter().filter_map(|i| {
            let ok = if nulls.is_null(i) {
                null_ok
            } else {
                range.contains(&Value::Int(v[i]))
            };
            ok.then_some(i as u32)
        })),
        ColumnData::Date(v) => out.extend(sel.iter().filter_map(|i| {
            let ok = if nulls.is_null(i) {
                null_ok
            } else {
                range.contains(&Value::Date(v[i]))
            };
            ok.then_some(i as u32)
        })),
        ColumnData::Float(v) => out.extend(sel.iter().filter_map(|i| {
            let ok = if nulls.is_null(i) {
                null_ok
            } else {
                range.contains(&Value::Float(v[i]))
            };
            ok.then_some(i as u32)
        })),
        ColumnData::Str(v) => out.extend(sel.iter().filter_map(|i| {
            let ok = if nulls.is_null(i) {
                null_ok
            } else {
                contains_str(range, &v[i])
            };
            ok.then_some(i as u32)
        })),
        ColumnData::Skipped => {
            if null_ok {
                return sel.clone();
            }
        }
    }
    Selection::Rows(out)
}

/// `range.contains(&Value::Str(s))` without cloning `s` into a `Value`:
/// mirrors `Value::cmp_value` for a string on the left-hand side.
fn contains_str(range: &ColumnRange, s: &str) -> bool {
    let cmp = |b: &Value| -> Ordering {
        match b {
            // Null sorts below everything; mixed string/number orders by
            // type rank, where strings sort above numerics.
            Value::Null => Ordering::Greater,
            Value::Str(t) => s.cmp(t.as_str()),
            Value::Int(_) | Value::Float(_) | Value::Date(_) => Ordering::Greater,
        }
    };
    let lo_ok = match &range.low {
        Bound::Unbounded => true,
        Bound::Included(b) => cmp(b) != Ordering::Less,
        Bound::Excluded(b) => cmp(b) == Ordering::Greater,
    };
    let hi_ok = match &range.high {
        Bound::Unbounded => true,
        Bound::Included(b) => cmp(b) != Ordering::Greater,
        Bound::Excluded(b) => cmp(b) == Ordering::Less,
    };
    lo_ok && hi_ok
}

/// Error helper used by engines that require a constrained column.
pub fn require_range<'p>(pred: &'p Predicate, column: &str) -> Result<&'p ColumnRange> {
    pred.range_of(column)
        .ok_or_else(|| DgfError::Query(format!("predicate does not constrain {column:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("power", ValueType::Float),
        ])
    }

    #[test]
    fn contains_respects_bound_kinds() {
        let r = ColumnRange::half_open(Value::Int(10), Value::Int(20));
        assert!(r.contains(&Value::Int(10)));
        assert!(r.contains(&Value::Int(19)));
        assert!(!r.contains(&Value::Int(20)));
        assert!(!r.contains(&Value::Int(9)));

        let r = ColumnRange::open(Value::Int(10), Value::Int(20));
        assert!(!r.contains(&Value::Int(10)));
        assert!(r.contains(&Value::Int(11)));

        let r = ColumnRange::eq(Value::Int(5));
        assert!(r.contains(&Value::Int(5)));
        assert!(!r.contains(&Value::Int(6)));
    }

    #[test]
    fn null_never_matches_bounded_interval() {
        let r = ColumnRange::half_open(Value::Int(0), Value::Int(10));
        assert!(!r.contains(&Value::Null));
        assert!(ColumnRange::all().contains(&Value::Null));
    }

    #[test]
    fn predicate_eval_is_conjunctive() {
        let s = schema();
        let p = Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(100), Value::Int(200)))
            .and("power", ColumnRange::open(Value::Float(1.0), Value::Float(2.0)));
        let b = p.bind(&s).unwrap();
        assert!(b.matches(&vec![Value::Int(150), Value::Int(1), Value::Float(1.5)]));
        assert!(!b.matches(&vec![Value::Int(50), Value::Int(1), Value::Float(1.5)]));
        assert!(!b.matches(&vec![Value::Int(150), Value::Int(1), Value::Float(2.0)]));
    }

    #[test]
    fn repeated_column_conditions_intersect() {
        let p = Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(0), Value::Int(100)))
            .and("user_id", ColumnRange::half_open(Value::Int(50), Value::Int(200)));
        let r = p.range_of("user_id").unwrap();
        assert!(r.contains(&Value::Int(50)));
        assert!(r.contains(&Value::Int(99)));
        assert!(!r.contains(&Value::Int(100)));
        assert!(!r.contains(&Value::Int(49)));
    }

    #[test]
    fn intersect_mixed_bound_kinds() {
        let a = ColumnRange {
            low: Bound::Included(Value::Int(5)),
            high: Bound::Excluded(Value::Int(10)),
        };
        let b = ColumnRange {
            low: Bound::Excluded(Value::Int(5)),
            high: Bound::Included(Value::Int(10)),
        };
        let i = a.intersect(&b);
        assert!(!i.contains(&Value::Int(5)));
        assert!(i.contains(&Value::Int(6)));
        assert!(!i.contains(&Value::Int(10)));
    }

    #[test]
    fn binding_unknown_column_fails() {
        let p = Predicate::all().and("nope", ColumnRange::eq(Value::Int(1)));
        assert!(p.bind(&schema()).is_err());
    }

    #[test]
    fn projection_drops_columns() {
        let p = Predicate::all()
            .and("user_id", ColumnRange::eq(Value::Int(1)))
            .and("region_id", ColumnRange::eq(Value::Int(2)));
        let q = p.project_columns(&["region_id"]);
        assert_eq!(q.arity(), 1);
        assert!(q.range_of("user_id").is_none());
        assert!(q.range_of("region_id").is_some());
    }

    #[test]
    fn trivial_predicate_matches_everything() {
        let b = Predicate::all().bind(&schema()).unwrap();
        assert!(b.matches(&vec![Value::Null, Value::Null, Value::Null]));
        assert!(Predicate::all().is_trivial());
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::all().and(
            "user_id",
            ColumnRange::open(Value::Int(1), Value::Int(9)),
        );
        assert_eq!(p.to_string(), "user_id > 1 AND user_id < 9");
        assert_eq!(Predicate::all().to_string(), "TRUE");
    }
}

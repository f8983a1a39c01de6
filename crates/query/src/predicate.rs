//! Conjunctive range predicates — the paper's MDRQ `WHERE` clauses.
//!
//! A multidimensional range query constrains several columns with interval
//! conditions joined by `AND` (paper Listing 2/4/5/6). [`Predicate`] models
//! exactly that: one optional interval per column. This is not a general
//! expression tree on purpose: the index planners (DGFIndex, Compact Index)
//! consume intervals per dimension, which is what HiveQL's index handlers
//! extract from the predicate as well.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use dgf_common::batch::{Column, ColumnBatch, ColumnData, NullMask, Selection};
use dgf_common::{DgfError, Result, Row, Schema, Value, ValueType};

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
            return self.is_unbounded();
        }
        meets_low(&self.low, v) && meets_high(&self.high, v)
    }

    /// Whether neither end is bounded: every cell, NULL included, passes.
    fn is_unbounded(&self) -> bool {
        self.low == Bound::Unbounded && self.high == Bound::Unbounded
    }

    /// Conjunction of two intervals on the same column.
    pub fn intersect(&self, other: &ColumnRange) -> ColumnRange {
        ColumnRange {
            low: tighter_low(&self.low, &other.low),
            high: tighter_high(&self.high, &other.high),
        }
    }
}

/// Whether `v` is at or above the lower bound, in [`Value`]'s order.
fn meets_low(low: &Bound<Value>, v: &Value) -> bool {
    match low {
        Bound::Unbounded => true,
        Bound::Included(b) => v >= b,
        Bound::Excluded(b) => v > b,
    }
}

/// Whether `v` is at or below the upper bound, in [`Value`]'s order.
fn meets_high(high: &Bound<Value>, v: &Value) -> bool {
    match high {
        Bound::Unbounded => true,
        Bound::Included(b) => v <= b,
        Bound::Excluded(b) => v < b,
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

    /// Resolve column names to indexes for fast row evaluation, and
    /// compile each term, once, into the typed test the batch kernel
    /// ([`BoundPredicate::select`]) runs over its column.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate> {
        let mut terms = Vec::with_capacity(self.ranges.len());
        let mut kernels = Vec::with_capacity(self.ranges.len());
        for (col, range) in &self.ranges {
            let idx = schema.index_of(col)?;
            if !range.is_unbounded() {
                kernels.push((idx, Kernel::compile(range, schema.field(idx).vtype)));
            }
            terms.push((idx, range.clone()));
        }
        Ok(BoundPredicate { terms, kernels })
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
    /// Every term as written: the row path's reference.
    terms: Vec<(usize, ColumnRange)>,
    /// Every bounded term compiled against its column's type: the batch
    /// path's. An unbounded term passes every cell and has no kernel.
    kernels: Vec<(usize, Kernel)>,
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
    /// `rows` is the caller's selection buffer, reused from batch to
    /// batch: it is refilled with the batch's row indexes and each
    /// compiled term refines it in one loop over its column's typed
    /// slice, keeping the rows whose cell passes. No [`Value`] is built
    /// per cell. Row indexes come out ascending, and the kernels were
    /// compiled at [`Predicate::bind`] with [`Value::cmp_value`]'s rules
    /// (NULL cells and bounds of another type decided there), so the
    /// surviving set is exactly the set of rows [`Self::matches`] would
    /// accept — the property the columnar/row-wise equivalence suite
    /// pins.
    ///
    /// # Panics
    ///
    /// If a column of `batch` holds another type than the one its term
    /// was compiled for: a batch is decoded by the schema the predicate
    /// was bound to.
    pub fn select<'s>(&self, batch: &ColumnBatch, rows: &'s mut Vec<u32>) -> Selection<'s> {
        let n = batch.len();
        rows.clear();
        if self.kernels.is_empty() {
            return Selection::All(n);
        }
        rows.extend(0..n as u32);
        for (idx, kernel) in &self.kernels {
            kernel.refine(batch.column(*idx), rows);
            if rows.is_empty() {
                break;
            }
        }
        match rows.len() == n {
            true => Selection::All(n),
            false => Selection::Rows(rows),
        }
    }
}

/// One bounded term compiled against its column's schema type: the test
/// a non-null cell passes. A NULL cell passes no bounded term. A NULL
/// bound, a string bound on a number column and a number bound on a
/// string column each hold for every cell or for none, and a number
/// bound of another numeric type becomes an interval of the column's own
/// type, so all of them are decided at bind.
#[derive(Debug, Clone)]
enum Kernel {
    /// No cell passes.
    Never,
    /// `lo <= x <= hi` over an `Int` or `Date` column.
    Int { lo: i64, hi: i64 },
    /// An interval of a `Float` column.
    Float { lo: Bound<f64>, hi: Bound<f64> },
    /// An interval of a `Str` column.
    Str {
        lo: Bound<String>,
        hi: Bound<String>,
    },
}

impl Kernel {
    /// Compile the bounded `range` for a column of type `vtype`.
    fn compile(range: &ColumnRange, vtype: ValueType) -> Kernel {
        match vtype {
            ValueType::Int | ValueType::Date => {
                let cell = |x| match vtype {
                    ValueType::Int => Value::Int(x),
                    _ => Value::Date(x),
                };
                // Whatever a bound's type, `Value`'s order of a cell
                // against it is monotone in the cell's number, so each
                // bound cuts the i64 line once: the cells a lower bound
                // passes run from some least one up, the cells an upper
                // bound passes up to some greatest one.
                let lo = first_passing(|x| meets_low(&range.low, &cell(x)));
                let hi = match first_passing(|x| !meets_high(&range.high, &cell(x))) {
                    None => Some(i64::MAX),
                    Some(first_failing) => first_failing.checked_sub(1),
                };
                match (lo, hi) {
                    (Some(lo), Some(hi)) if lo <= hi => Kernel::Int { lo, hi },
                    _ => Kernel::Never,
                }
            }
            ValueType::Float => {
                let lo = float_bound(&range.low, true);
                match (lo, float_bound(&range.high, false)) {
                    (Some(lo), Some(hi)) => Kernel::Float { lo, hi },
                    _ => Kernel::Never,
                }
            }
            ValueType::Str => match (str_bound(&range.low, true), str_bound(&range.high, false)) {
                (Some(lo), Some(hi)) => Kernel::Str { lo, hi },
                _ => Kernel::Never,
            },
        }
    }

    /// Keep the rows of `rows` whose cell of `col` passes, in order.
    fn refine(&self, col: &Column, rows: &mut Vec<u32>) {
        let nulls = &col.nulls;
        match (self, &col.data) {
            (Kernel::Int { lo, hi }, ColumnData::Int(v) | ColumnData::Date(v)) => {
                keep(rows, nulls, |i| (*lo..=*hi).contains(&v[i]))
            }
            (Kernel::Float { lo, hi }, ColumnData::Float(v)) => {
                keep(rows, nulls, |i| within(&v[i], lo.as_ref(), hi.as_ref()))
            }
            (Kernel::Str { lo, hi }, ColumnData::Str(v)) => {
                let lo = lo.as_ref().map(String::as_str);
                let hi = hi.as_ref().map(String::as_str);
                keep(rows, nulls, |i| within(v[i].as_str(), lo, hi))
            }
            // An unprojected column reads as NULL, which no bounded term
            // passes.
            (Kernel::Never, _) | (_, ColumnData::Skipped) => rows.clear(),
            (_, _) => panic!("a predicate term ran over a column of another type than its own"),
        }
    }
}

/// Keep the rows of `rows` whose cell is not NULL and passes `pass`.
fn keep(rows: &mut Vec<u32>, nulls: &NullMask, pass: impl Fn(usize) -> bool) {
    rows.retain(|&i| !nulls.is_null(i as usize) && pass(i as usize));
}

/// Whether `x` lies in the interval `lo`..`hi`.
fn within<T: PartialOrd + ?Sized>(x: &T, lo: Bound<&T>, hi: Bound<&T>) -> bool {
    let lo_ok = match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => x >= b,
        Bound::Excluded(b) => x > b,
    };
    lo_ok
        && match hi {
            Bound::Unbounded => true,
            Bound::Included(b) => x <= b,
            Bound::Excluded(b) => x < b,
        }
}

/// The least `x` for which `pass` holds, where `pass` is false up to
/// some point of the i64 line and true from there on; `None` when it
/// holds nowhere.
fn first_passing(pass: impl Fn(i64) -> bool) -> Option<i64> {
    if !pass(i64::MAX) {
        return None;
    }
    if pass(i64::MIN) {
        return Some(i64::MIN);
    }
    let (mut fails, mut passes) = (i64::MIN, i64::MAX);
    while passes.abs_diff(fails) > 1 {
        let mid = fails + (passes.abs_diff(fails) / 2) as i64;
        match pass(mid) {
            true => passes = mid,
            false => fails = mid,
        }
    }
    Some(passes)
}

/// A bound on a `Float` column as an `f64` bound (`Unbounded` when every
/// cell meets it), or `None` when no cell does. `Value`'s order compares
/// every number as an `f64`, and a NaN bound as equal to every cell.
fn float_bound(bound: &Bound<Value>, low: bool) -> Option<Bound<f64>> {
    let (b, inclusive) = match bound {
        Bound::Unbounded => return Some(Bound::Unbounded),
        Bound::Included(b) => (b, true),
        Bound::Excluded(b) => (b, false),
    };
    match b.as_f64() {
        // NULL sorts below every number and a string above every one.
        Err(_) => (b.is_null() == low).then_some(Bound::Unbounded),
        Ok(f) if f.is_nan() => inclusive.then_some(Bound::Unbounded),
        Ok(f) if inclusive => Some(Bound::Included(f)),
        Ok(f) => Some(Bound::Excluded(f)),
    }
}

/// A bound on a `Str` column as a string bound (`Unbounded` when every
/// cell meets it), or `None` when no cell does: NULL and every number
/// sort below every string.
fn str_bound(bound: &Bound<Value>, low: bool) -> Option<Bound<String>> {
    match bound {
        Bound::Unbounded => Some(Bound::Unbounded),
        Bound::Included(Value::Str(t)) => Some(Bound::Included(t.clone())),
        Bound::Excluded(Value::Str(t)) => Some(Bound::Excluded(t.clone())),
        Bound::Included(_) | Bound::Excluded(_) => low.then_some(Bound::Unbounded),
    }
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

    /// Every column type against a bound of every type, NULL and NaN
    /// included, at every bound kind: the compiled kernel keeps exactly
    /// the rows the row path matches, NULL cells and an unprojected
    /// column included.
    #[test]
    fn select_is_matches_for_every_type_pairing() {
        use dgf_common::batch::decode_column;
        use dgf_common::codec::put_value;
        let s = Schema::from_pairs(&[
            ("i", ValueType::Int),
            ("f", ValueType::Float),
            ("s", ValueType::Str),
            ("d", ValueType::Date),
        ]);
        let big = 1i64 << 53;
        let ints = [i64::MIN, -3, 0, 2, 3, big, big + 1, i64::MAX];
        let rows: Vec<Row> = (0..ints.len() + 1)
            .map(|r| match ints.get(r) {
                Some(&x) => vec![
                    Value::Int(x),
                    Value::Float(x as f64 + 0.5),
                    Value::Str(format!("{x}")),
                    Value::Date(x),
                ],
                None => vec![Value::Null; 4],
            })
            .collect();
        let columns: Vec<Column> = (0..4)
            .map(|c| {
                let mut bytes = Vec::new();
                rows.iter().for_each(|r| put_value(&mut bytes, &r[c]));
                let mut col = Column::skipped();
                decode_column(&bytes, rows.len(), s.field(c).vtype, &mut col).unwrap();
                col
            })
            .collect();
        let values = [
            Value::Null,
            Value::Int(2),
            Value::Int(big + 1),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Str("2".into()),
            Value::Str("".into()),
            Value::Date(3),
        ];
        let ends: Vec<Bound<Value>> = values
            .iter()
            .flat_map(|v| [Bound::Included(v.clone()), Bound::Excluded(v.clone())])
            .chain([Bound::Unbounded])
            .collect();
        let (mut buf, mut row) = (Vec::new(), Row::new());
        for skip in [None, Some(0), Some(1), Some(2), Some(3)] {
            let mut columns = columns.clone();
            if let Some(c) = skip {
                columns[c] = Column::skipped();
            }
            let batch = ColumnBatch::new(columns, rows.len(), 0);
            for col in ["i", "f", "s", "d"] {
                for (low, high) in ends.iter().flat_map(|l| ends.iter().map(move |h| (l, h))) {
                    let range = ColumnRange {
                        low: low.clone(),
                        high: high.clone(),
                    };
                    let b = Predicate::all().and(col, range.clone()).bind(&s).unwrap();
                    let want: Vec<usize> = (0..rows.len())
                        .filter(|&r| {
                            batch.read_row_into(r, &mut row);
                            b.matches(&row)
                        })
                        .collect();
                    let got: Vec<usize> = b.select(&batch, &mut buf).iter().collect();
                    assert_eq!(got, want, "{col}: {range:?} (column skipped: {skip:?})");
                }
            }
        }
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

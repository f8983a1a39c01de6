//! Additive aggregate functions and their mergeable states.
//!
//! DGFIndex pre-computes per-GFU aggregation headers; the paper requires
//! these to be **additive functions** ("max, min, sum, count, and other
//! UDFs (need to be additive functions) supported by Hive", §4.1). An
//! additive function is one whose partial states merge associatively, so
//! the same [`AggState`] type serves three roles:
//!
//! 1. map-side partial aggregation in scan queries,
//! 2. the pre-computed GFU header (serialized with
//!    [`AggSet::encode_states`]),
//! 3. combining inner-region headers with boundary-region scan results.
//!
//! Every state merges in any order to the same bits: counts and extremes
//! are order-free by nature, and SUM, AVG and UDF states add doubles
//! into an [`ExactSum`], which rounds once, at [`AggSet::finalize`].

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use dgf_common::batch::{Column, ColumnBatch, ColumnData, Selection};
use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result, Row, Schema, Value};

use crate::exact::ExactSum;

/// A user-defined additive aggregate.
///
/// State is a fixed number of exact sums — enough for products, weighted
/// sums, sums of squares, counts and other additive statistics. The UDF
/// only adds into its slots; [`AggSet`] merges two states slot by slot
/// and serializes them into GFU headers.
pub trait AdditiveUdf: Send + Sync {
    /// Unique name, used for header compatibility checks (e.g.
    /// `"sum_product(num,price)"`).
    fn name(&self) -> String;
    /// Number of exact-sum slots in the state.
    fn slots(&self) -> usize;
    /// Fold one row into the state.
    fn update(&self, state: &mut [ExactSum], row: &Row, schema: &Schema) -> Result<()>;
    /// Produce the final value.
    fn finalize(&self, state: &[ExactSum]) -> Value;
}

/// The paper's example UDF: `sum(a * b)` over two numeric columns
/// (§4.1 pre-computes `sum(num * price)`).
#[derive(Debug, Clone)]
pub struct SumProductUdf {
    /// First factor column.
    pub a: String,
    /// Second factor column.
    pub b: String,
}

impl AdditiveUdf for SumProductUdf {
    fn name(&self) -> String {
        format!("sum_product({},{})", self.a, self.b)
    }

    fn slots(&self) -> usize {
        2 // [sum of products, non-null row count]
    }

    fn update(&self, state: &mut [ExactSum], row: &Row, schema: &Schema) -> Result<()> {
        let a = &row[schema.index_of(&self.a)?];
        let b = &row[schema.index_of(&self.b)?];
        if a.is_null() || b.is_null() {
            return Ok(());
        }
        state[0].add(a.as_f64()? * b.as_f64()?);
        state[1].add(1.0);
        Ok(())
    }

    fn finalize(&self, state: &[ExactSum]) -> Value {
        if state[1].value() == 0.0 {
            Value::Null
        } else {
            Value::Float(state[0].value())
        }
    }
}

/// An aggregate function specification.
#[derive(Clone)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(column)` (NULLs ignored; all-NULL input yields NULL).
    Sum(String),
    /// `MIN(column)`.
    Min(String),
    /// `MAX(column)`.
    Max(String),
    /// `AVG(column)`.
    Avg(String),
    /// A user-defined additive aggregate.
    Udf(Arc<dyn AdditiveUdf>),
}

impl AggFunc {
    /// Canonical key, used to match query aggregates against the
    /// aggregates pre-computed in an index header.
    pub fn key(&self) -> String {
        match self {
            AggFunc::Count => "count(*)".to_owned(),
            AggFunc::Sum(c) => format!("sum({c})"),
            AggFunc::Min(c) => format!("min({c})"),
            AggFunc::Max(c) => format!("max({c})"),
            AggFunc::Avg(c) => format!("avg({c})"),
            AggFunc::Udf(u) => format!("udf:{}", u.name()),
        }
    }
}

impl fmt::Debug for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

impl PartialEq for AggFunc {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

/// SUM/AVG kernel: add a column's selected non-null cells to `sum`,
/// counting them in `n`. Exact addition is order-free, so the result is
/// the row path's to the bit.
fn fold_sum(col: &Column, sel: &Selection, sum: &mut ExactSum, n: &mut u64) -> Result<()> {
    let rows = || sel.iter().filter(|i| !col.nulls.is_null(*i));
    match &col.data {
        ColumnData::Float(v) if !col.nulls.any_nulls() => {
            match *sel {
                Selection::All(len) => v[..len].iter().for_each(|x| sum.add(*x)),
                Selection::Rows(rows) => rows.iter().for_each(|i| sum.add(v[*i as usize])),
            }
            *n += sel.len() as u64;
        }
        ColumnData::Float(v) => rows().for_each(|i| {
            sum.add(v[i]);
            *n += 1;
        }),
        ColumnData::Int(v) | ColumnData::Date(v) => rows().for_each(|i| {
            sum.add(v[i] as f64);
            *n += 1;
        }),
        // An unprojected column reads as Null in the row path: nothing to
        // fold (and nothing the row path would have errored on).
        ColumnData::Skipped => {}
        // Strings go through `as_f64` so a non-null cell produces exactly
        // the row path's error.
        ColumnData::Str(_) => {
            for i in rows() {
                sum.add(col.value_at(i).as_f64()?);
                *n += 1;
            }
        }
    }
    Ok(())
}

/// Whether `a` beats `b` as a MIN (`want` = `Less`) or a MAX
/// (`Greater`): `Value` order, with −0.0 below +0.0, so neither row
/// order nor merge order picks the sign of a zero extreme.
fn beats(a: &Value, b: &Value, want: Ordering) -> bool {
    let ord = match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        _ => a.cmp_value(b),
    };
    ord == want
}

/// Merge the candidate extreme `v` into the running one.
fn merge_extreme(m: &mut Option<Value>, v: &Value, want: Ordering) {
    if m.as_ref().is_none_or(|cur| beats(v, cur, want)) {
        *m = Some(v.clone());
    }
}

/// Index of the best (per `want`) selected non-null cell, first-wins on
/// ties (tied cells are equal values).
fn best_index<T, F>(col: &Column, sel: &Selection, v: &[T], cmp: F, want: Ordering) -> Option<usize>
where
    F: Fn(&T, &T) -> Ordering,
{
    let mut best: Option<usize> = None;
    for i in sel.iter() {
        if col.nulls.is_null(i) {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if cmp(&v[i], &v[b]) == want => best = Some(i),
            _ => {}
        }
    }
    best
}

/// MIN/MAX kernel: pick the column's best selected cell with native
/// comparisons, then merge it into the running state. Native comparisons
/// agree with [`beats`] within a typed column, and min/max folds are
/// associative over a total order, so the result is the value the row
/// path would hold.
fn fold_extreme(col: &Column, sel: &Selection, m: &mut Option<Value>, want: Ordering) {
    let best: Option<Value> = match &col.data {
        ColumnData::Int(v) => {
            best_index(col, sel, v, |a, b| a.cmp(b), want).map(|i| Value::Int(v[i]))
        }
        ColumnData::Date(v) => {
            best_index(col, sel, v, |a, b| a.cmp(b), want).map(|i| Value::Date(v[i]))
        }
        ColumnData::Float(v) => best_index(
            col,
            sel,
            v,
            // NaN is rejected at construction; −0.0 sorts below +0.0.
            |a, b| a.total_cmp(b),
            want,
        )
        .map(|i| Value::Float(v[i])),
        ColumnData::Str(v) => {
            best_index(col, sel, v, |a: &String, b| a.cmp(b), want).map(|i| Value::Str(v[i].clone()))
        }
        ColumnData::Skipped => None,
    };
    if let Some(v) = best {
        merge_extreme(m, &v, want);
    }
}

/// A mergeable partial aggregation state.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Row count.
    Count(u64),
    /// Running sum and non-null count (to distinguish 0 from NULL).
    Sum {
        /// Exact sum of non-null values.
        sum: ExactSum,
        /// Number of non-null values folded in.
        non_null: u64,
    },
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Running sum and count for the mean.
    Avg {
        /// Exact sum of non-null values.
        sum: ExactSum,
        /// Number of non-null values folded in.
        count: u64,
    },
    /// UDF accumulators, one per [`AdditiveUdf::slots`].
    Udf(Vec<ExactSum>),
}

/// Pre-aggregated partial states standing in for rows an engine did not
/// read — DGFIndex's inner region, merged from GFU headers — in the shape
/// of the query they answer.
#[derive(Debug, Clone, PartialEq)]
pub enum AggPartials {
    /// A plain aggregate's one state list, in query-aggregate order.
    Scalar(Vec<AggState>),
    /// A GROUP BY's `(group value, states)` pairs, sorted by value, no
    /// value twice.
    Groups(Vec<(Value, Vec<AggState>)>),
}

/// An [`AggFunc`] resolved against a schema: a column aggregate carries
/// its column's index, so folding a row neither looks the column up nor
/// can find it unresolved.
#[derive(Clone)]
enum BoundAgg {
    Count,
    Sum(usize),
    Min(usize),
    Max(usize),
    Avg(usize),
    Udf(Arc<dyn AdditiveUdf>),
}

/// A list of aggregate functions bound to a schema.
#[derive(Clone)]
pub struct AggSet {
    funcs: Vec<AggFunc>,
    bound: Vec<BoundAgg>,
}

impl fmt::Debug for AggSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.funcs).finish()
    }
}

impl AggSet {
    /// Resolve column references.
    pub fn bind(funcs: &[AggFunc], schema: &Schema) -> Result<AggSet> {
        let mut bound = Vec::with_capacity(funcs.len());
        for f in funcs {
            bound.push(match f {
                AggFunc::Count => BoundAgg::Count,
                AggFunc::Sum(c) => BoundAgg::Sum(schema.index_of(c)?),
                AggFunc::Min(c) => BoundAgg::Min(schema.index_of(c)?),
                AggFunc::Max(c) => BoundAgg::Max(schema.index_of(c)?),
                AggFunc::Avg(c) => BoundAgg::Avg(schema.index_of(c)?),
                AggFunc::Udf(u) => BoundAgg::Udf(Arc::clone(u)),
            });
        }
        Ok(AggSet {
            funcs: funcs.to_vec(),
            bound,
        })
    }

    /// The bound functions.
    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    /// Number of aggregates.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether there are no aggregates.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Identity states, one per function.
    pub fn new_states(&self) -> Vec<AggState> {
        self.funcs
            .iter()
            .map(|f| match f {
                AggFunc::Count => AggState::Count(0),
                AggFunc::Sum(_) => AggState::Sum { sum: ExactSum::new(), non_null: 0 },
                AggFunc::Min(_) => AggState::Min(None),
                AggFunc::Max(_) => AggState::Max(None),
                AggFunc::Avg(_) => AggState::Avg { sum: ExactSum::new(), count: 0 },
                AggFunc::Udf(u) => AggState::Udf(vec![ExactSum::new(); u.slots()]),
            })
            .collect()
    }

    /// Fold one row into the states.
    pub fn update(&self, states: &mut [AggState], row: &Row, schema: &Schema) -> Result<()> {
        for (agg, st) in self.bound.iter().zip(states.iter_mut()) {
            match (agg, st) {
                (BoundAgg::Count, AggState::Count(n)) => *n += 1,
                (BoundAgg::Sum(col), AggState::Sum { sum, non_null: n })
                | (BoundAgg::Avg(col), AggState::Avg { sum, count: n }) => {
                    let v = &row[*col];
                    if !v.is_null() {
                        sum.add(v.as_f64()?);
                        *n += 1;
                    }
                }
                (BoundAgg::Min(col), AggState::Min(m)) => {
                    let v = &row[*col];
                    if !v.is_null() {
                        merge_extreme(m, v, Ordering::Less);
                    }
                }
                (BoundAgg::Max(col), AggState::Max(m)) => {
                    let v = &row[*col];
                    if !v.is_null() {
                        merge_extreme(m, v, Ordering::Greater);
                    }
                }
                (BoundAgg::Udf(u), AggState::Udf(s)) => u.update(s, row, schema)?,
                _ => return Err(DgfError::Query("agg state/function mismatch".into())),
            }
        }
        Ok(())
    }

    /// Fold every selected row of a batch into the states — the vectorized
    /// counterpart of calling [`Self::update`] once per selected row.
    ///
    /// The kernels add the same values as the row path into the same
    /// exact states, so the resulting states are **bit-identical** to a
    /// row-at-a-time fold of the same rows. UDF aggregates have no slice
    /// form; they fold through one reused scratch row.
    pub fn update_batch(
        &self,
        states: &mut [AggState],
        batch: &ColumnBatch,
        sel: &Selection,
        schema: &Schema,
    ) -> Result<()> {
        let mut scratch: Option<Row> = None;
        for (agg, st) in self.bound.iter().zip(states.iter_mut()) {
            match (agg, st) {
                (BoundAgg::Count, AggState::Count(n)) => *n += sel.len() as u64,
                (BoundAgg::Sum(col), AggState::Sum { sum, non_null: n })
                | (BoundAgg::Avg(col), AggState::Avg { sum, count: n }) => {
                    fold_sum(batch.column(*col), sel, sum, n)?;
                }
                (BoundAgg::Min(col), AggState::Min(m)) => {
                    fold_extreme(batch.column(*col), sel, m, Ordering::Less);
                }
                (BoundAgg::Max(col), AggState::Max(m)) => {
                    fold_extreme(batch.column(*col), sel, m, Ordering::Greater);
                }
                (BoundAgg::Udf(u), AggState::Udf(s)) => {
                    let row = scratch.get_or_insert_with(Row::new);
                    for i in sel.iter() {
                        batch.read_row_into(i, row);
                        u.update(s, row, schema)?;
                    }
                }
                _ => return Err(DgfError::Query("agg state/function mismatch".into())),
            }
        }
        Ok(())
    }

    /// Merge `other` into `states` (both produced by this set). Merges
    /// commute and associate exactly: any order of any grouping of the
    /// same partials reaches the same states.
    pub fn merge(&self, states: &mut [AggState], other: &[AggState]) -> Result<()> {
        for (st, o) in states.iter_mut().zip(other) {
            match (st, o) {
                (AggState::Count(a), AggState::Count(b)) => *a += b,
                (AggState::Sum { sum: a, non_null: an }, AggState::Sum { sum: b, non_null: bn })
                | (AggState::Avg { sum: a, count: an }, AggState::Avg { sum: b, count: bn }) => {
                    a.merge(b);
                    *an += bn;
                }
                (AggState::Min(a), AggState::Min(Some(b))) => merge_extreme(a, b, Ordering::Less),
                (AggState::Max(a), AggState::Max(Some(b))) => {
                    merge_extreme(a, b, Ordering::Greater)
                }
                (AggState::Min(_), AggState::Min(None)) | (AggState::Max(_), AggState::Max(None)) => {}
                (AggState::Udf(a), AggState::Udf(b)) if a.len() == b.len() => {
                    a.iter_mut().zip(b).for_each(|(a, b)| a.merge(b));
                }
                _ => return Err(DgfError::Query("merging mismatched agg states".into())),
            }
        }
        Ok(())
    }

    /// Produce final values.
    pub fn finalize(&self, states: &[AggState]) -> Vec<Value> {
        self.funcs
            .iter()
            .zip(states)
            .map(|(f, st)| match st {
                AggState::Count(n) => Value::Int(*n as i64),
                AggState::Sum { sum, non_null } => {
                    if *non_null == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum.value())
                    }
                }
                AggState::Min(m) | AggState::Max(m) => m.clone().unwrap_or(Value::Null),
                AggState::Avg { sum, count } => {
                    if *count == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum.value() / *count as f64)
                    }
                }
                AggState::Udf(s) => match f {
                    AggFunc::Udf(u) => u.finalize(s),
                    _ => Value::Null,
                },
            })
            .collect()
    }

    /// Serialize states (GFU header payload): a `u32` state count, then
    /// per state its tag and body. Sums are [`ExactSum`] encodings and
    /// counts are varints, so equal states encode to equal bytes.
    pub fn encode_states(states: &[AggState]) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, states.len() as u32);
        for st in states {
            buf.push(match st {
                AggState::Count(_) => TAG_COUNT,
                AggState::Min(_) => TAG_MIN,
                AggState::Max(_) => TAG_MAX,
                AggState::Sum { .. } => TAG_SUM,
                AggState::Avg { .. } => TAG_AVG,
                AggState::Udf(_) => TAG_UDF,
            });
            match st {
                AggState::Count(n) => codec::put_u64(&mut buf, *n),
                AggState::Min(m) | AggState::Max(m) => {
                    codec::put_value(&mut buf, m.as_ref().unwrap_or(&Value::Null))
                }
                AggState::Sum { sum, non_null: n } | AggState::Avg { sum, count: n } => {
                    sum.encode(&mut buf);
                    codec::put_varint(&mut buf, *n);
                }
                AggState::Udf(slots) => {
                    codec::put_varint(&mut buf, slots.len() as u64);
                    for slot in slots {
                        slot.encode(&mut buf);
                    }
                }
            }
        }
        buf
    }

    /// Deserialize states from [`encode_states`](Self::encode_states)
    /// output. The decoded state kinds must match this set's functions.
    pub fn decode_states(&self, bytes: &[u8]) -> Result<Vec<AggState>> {
        let mut out = Vec::with_capacity(self.funcs.len());
        self.decode_states_into(bytes, &mut out)?;
        Ok(out)
    }

    /// [`decode_states`](Self::decode_states) into `out`, replacing what
    /// it held: a caller decoding many headers reuses one buffer. Every
    /// length is checked against the bytes that remain before anything
    /// is sized by it, and bytes after the last state are `Corrupt`.
    pub fn decode_states_into(&self, bytes: &[u8], out: &mut Vec<AggState>) -> Result<()> {
        out.clear();
        let mut dec = Decoder::new(bytes);
        let n = dec.u32()? as usize;
        if n != self.funcs.len() {
            return Err(DgfError::Corrupt(format!(
                "header has {n} agg states, query needs {}",
                self.funcs.len()
            )));
        }
        let mismatch = || DgfError::Corrupt("header agg state does not match query aggregate".into());
        for f in &self.funcs {
            let tag = dec.u8()?;
            let st = match (f, tag) {
                (AggFunc::Count, TAG_COUNT) => AggState::Count(dec.u64()?),
                (AggFunc::Min(_), TAG_MIN) => AggState::Min(none_if_null(codec::get_value(&mut dec)?)),
                (AggFunc::Max(_), TAG_MAX) => AggState::Max(none_if_null(codec::get_value(&mut dec)?)),
                (AggFunc::Sum(_), TAG_SUM) => AggState::Sum {
                    sum: ExactSum::decode(&mut dec)?,
                    non_null: dec.varint()?,
                },
                (AggFunc::Avg(_), TAG_AVG) => AggState::Avg {
                    sum: ExactSum::decode(&mut dec)?,
                    count: dec.varint()?,
                },
                (AggFunc::Udf(u), TAG_UDF) => {
                    // An encoded slot is at least its flags and its digit count.
                    let k = dec.varint_count(2)?;
                    if k != u.slots() {
                        return Err(mismatch());
                    }
                    let mut slots = Vec::with_capacity(k);
                    for _ in 0..k {
                        slots.push(ExactSum::decode(&mut dec)?);
                    }
                    AggState::Udf(slots)
                }
                (_, TAG_ROUNDED_SUM | TAG_ROUNDED_AVG | TAG_ROUNDED_UDF) => {
                    return Err(DgfError::Corrupt(format!(
                        "agg state tag {tag} holds a rounded sum from before exact sums: \
                         rebuild the index"
                    )))
                }
                (_, TAG_COUNT..=TAG_UDF) => return Err(mismatch()),
                (_, t) => return Err(DgfError::Corrupt(format!("unknown agg state tag {t}"))),
            };
            out.push(st);
        }
        if dec.remaining() != 0 {
            return Err(DgfError::Corrupt(format!(
                "{} bytes after the last agg state",
                dec.remaining()
            )));
        }
        Ok(())
    }
}

/// State tags of the header encoding.
const TAG_COUNT: u8 = 0;
const TAG_MIN: u8 = 2;
const TAG_MAX: u8 = 3;
const TAG_SUM: u8 = 6;
const TAG_AVG: u8 = 7;
const TAG_UDF: u8 = 8;
/// Tags of the rounded (compensated `f64` pair) sums headers held
/// before: such a header is refused, never read as a wrong sum.
const TAG_ROUNDED_SUM: u8 = 1;
const TAG_ROUNDED_AVG: u8 = 4;
const TAG_ROUNDED_UDF: u8 = 5;

fn none_if_null(v: Value) -> Option<Value> {
    if v.is_null() {
        None
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("power", ValueType::Float),
            ("price", ValueType::Float),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Float(2.0), Value::Float(10.0)],
            vec![Value::Int(2), Value::Float(4.0), Value::Float(20.0)],
            vec![Value::Int(3), Value::Null, Value::Float(30.0)],
            vec![Value::Int(4), Value::Float(-1.0), Value::Float(40.0)],
        ]
    }

    fn all_funcs() -> Vec<AggFunc> {
        vec![
            AggFunc::Count,
            AggFunc::Sum("power".into()),
            AggFunc::Min("power".into()),
            AggFunc::Max("power".into()),
            AggFunc::Avg("power".into()),
            AggFunc::Udf(Arc::new(SumProductUdf {
                a: "power".into(),
                b: "price".into(),
            })),
        ]
    }

    #[test]
    fn full_fold_produces_sql_answers() {
        let s = schema();
        let set = AggSet::bind(&all_funcs(), &s).unwrap();
        let mut states = set.new_states();
        for r in rows() {
            set.update(&mut states, &r, &s).unwrap();
        }
        let out = set.finalize(&states);
        assert_eq!(out[0], Value::Int(4)); // count(*) counts null rows too
        assert_eq!(out[1], Value::Float(5.0)); // sum ignores null
        assert_eq!(out[2], Value::Float(-1.0)); // min
        assert_eq!(out[3], Value::Float(4.0)); // max
        assert_eq!(out[4], Value::Float(5.0 / 3.0)); // avg over non-null
        assert_eq!(out[5], Value::Float(2.0 * 10.0 + 4.0 * 20.0 + -40.0));
    }

    #[test]
    fn empty_input_yields_nulls_except_count() {
        let s = schema();
        let set = AggSet::bind(&all_funcs(), &s).unwrap();
        let out = set.finalize(&set.new_states());
        assert_eq!(out[0], Value::Int(0));
        for v in &out[1..] {
            assert_eq!(*v, Value::Null);
        }
    }

    #[test]
    fn merge_of_partials_equals_full_fold() {
        let s = schema();
        let set = AggSet::bind(&all_funcs(), &s).unwrap();
        let rs = rows();
        // Full fold.
        let mut full = set.new_states();
        for r in &rs {
            set.update(&mut full, r, &s).unwrap();
        }
        // Two partials merged.
        let mut a = set.new_states();
        let mut b = set.new_states();
        for r in &rs[..2] {
            set.update(&mut a, r, &s).unwrap();
        }
        for r in &rs[2..] {
            set.update(&mut b, r, &s).unwrap();
        }
        set.merge(&mut a, &b).unwrap();
        assert_eq!(set.finalize(&a), set.finalize(&full));
    }

    #[test]
    fn states_round_trip_through_encoding() {
        let s = schema();
        let set = AggSet::bind(&all_funcs(), &s).unwrap();
        let mut states = set.new_states();
        for r in rows() {
            set.update(&mut states, &r, &s).unwrap();
        }
        let bytes = AggSet::encode_states(&states);
        let decoded = set.decode_states(&bytes).unwrap();
        assert_eq!(decoded, states);
    }

    #[test]
    fn decode_rejects_wrong_shape() {
        let s = schema();
        let set = AggSet::bind(&[AggFunc::Count], &s).unwrap();
        let other = AggSet::bind(&[AggFunc::Sum("power".into())], &s).unwrap();
        let bytes = AggSet::encode_states(&other.new_states());
        assert!(set.decode_states(&bytes).is_err());
        let two = AggSet::bind(&[AggFunc::Count, AggFunc::Count], &s).unwrap();
        let bytes = AggSet::encode_states(&two.new_states());
        assert!(set.decode_states(&bytes).is_err());
    }

    #[test]
    fn exact_sum_survives_catastrophic_cancellation() {
        // A naive fold of [1e16, 1.0, -1e16] loses the 1.0 entirely
        // (1e16 + 1.0 == 1e16 in f64); the exact sum keeps it, through
        // update, merge and the UDF path alike, and every grouping of the
        // values gives the same states.
        let s = Schema::from_pairs(&[("id", ValueType::Int), ("power", ValueType::Float)]);
        let set = AggSet::bind(
            &[AggFunc::Sum("power".into()), AggFunc::Avg("power".into())],
            &s,
        )
        .unwrap();
        let vals = [1e16, 1.0, -1e16];
        let mut full = set.new_states();
        for v in vals {
            set.update(&mut full, &vec![Value::Int(0), Value::Float(v)], &s)
                .unwrap();
        }
        let out = set.finalize(&full);
        assert_eq!(out[0], Value::Float(1.0));
        assert_eq!(out[1], Value::Float(1.0 / 3.0));

        // One-row partials merged in reverse reach the same states.
        let mut acc = set.new_states();
        for v in vals.iter().rev() {
            let mut part = set.new_states();
            set.update(&mut part, &vec![Value::Int(0), Value::Float(*v)], &s)
                .unwrap();
            set.merge(&mut acc, &part).unwrap();
        }
        assert_eq!(acc, full);
        assert_eq!(AggSet::encode_states(&acc), AggSet::encode_states(&full));

        // The sum-product UDF is exact too (b == 1.0 ⇒ plain sum).
        let s2 = Schema::from_pairs(&[("a", ValueType::Float), ("b", ValueType::Float)]);
        let udf = SumProductUdf {
            a: "a".into(),
            b: "b".into(),
        };
        let mut st = vec![ExactSum::new(); udf.slots()];
        for v in vals {
            udf.update(&mut st, &vec![Value::Float(v), Value::Float(1.0)], &s2)
                .unwrap();
        }
        assert_eq!(udf.finalize(&st), Value::Float(1.0));
    }

    /// A `Float` column admits ±∞: SUM and AVG answer the infinity (NaN
    /// only when both signs were added), and so does a sum that
    /// overflows, through rows, batches, merges and headers alike.
    #[test]
    fn sums_over_infinities_and_overflow_are_infinite() {
        let s = Schema::from_pairs(&[("v", ValueType::Float)]);
        let set = AggSet::bind(&[AggFunc::Sum("v".into()), AggFunc::Avg("v".into())], &s).unwrap();
        let answer = |vals: &[f64]| {
            let mut rows = set.new_states();
            for v in vals {
                set.update(&mut rows, &vec![Value::Float(*v)], &s).unwrap();
            }
            let col = Column {
                data: ColumnData::Float(vals.to_vec()),
                nulls: Default::default(),
            };
            let batch = ColumnBatch::new(vec![col], vals.len(), 0);
            let mut batched = set.new_states();
            set.update_batch(&mut batched, &batch, &Selection::All(vals.len()), &s).unwrap();
            assert_eq!(batched, rows);
            let mut merged = set.decode_states(&AggSet::encode_states(&set.new_states())).unwrap();
            for v in vals.iter().rev() {
                let mut one = set.new_states();
                set.update(&mut one, &vec![Value::Float(*v)], &s).unwrap();
                let one = set.decode_states(&AggSet::encode_states(&one)).unwrap();
                set.merge(&mut merged, &one).unwrap();
            }
            assert_eq!(AggSet::encode_states(&merged), AggSet::encode_states(&rows));
            set.finalize(&merged)
        };
        let inf = f64::INFINITY;
        assert_eq!(answer(&[1.0, inf, 2.0]), [Value::Float(inf), Value::Float(inf)]);
        assert_eq!(answer(&[-inf, 1.0]), [Value::Float(-inf), Value::Float(-inf)]);
        assert_eq!(answer(&[1e308, 1e308]), [Value::Float(inf), Value::Float(inf)]);
        assert_eq!(answer(&[1e308, 1e308, -1e308]), [Value::Float(1e308), Value::Float(1e308 / 3.0)]);
        let both = answer(&[inf, 5.0, -inf]);
        assert!(both.iter().all(|v| matches!(v, Value::Float(x) if x.is_nan())), "{both:?}");
    }

    /// A MIN or MAX over ±0 keeps the same zero whatever order the rows
    /// and partials come in.
    #[test]
    fn zero_extremes_do_not_depend_on_order() {
        let s = Schema::from_pairs(&[("v", ValueType::Float)]);
        let set = AggSet::bind(&[AggFunc::Min("v".into()), AggFunc::Max("v".into())], &s).unwrap();
        let fold = |vals: &[f64]| {
            let mut st = set.new_states();
            for v in vals {
                let mut one = set.new_states();
                set.update(&mut one, &vec![Value::Float(*v)], &s).unwrap();
                set.merge(&mut st, &one).unwrap();
            }
            let bits: Vec<u64> = set
                .finalize(&st)
                .iter()
                .map(|v| v.as_f64().unwrap().to_bits())
                .collect();
            bits
        };
        assert_eq!(fold(&[0.0, -0.0]), fold(&[-0.0, 0.0]));
        assert_eq!(fold(&[0.0, -0.0]), [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    /// One header per state kind, and a UDF's.
    fn every_kind() -> (AggSet, Vec<u8>) {
        let s = schema();
        let set = AggSet::bind(&all_funcs(), &s).unwrap();
        let mut states = set.new_states();
        for r in rows() {
            set.update(&mut states, &r, &s).unwrap();
        }
        let mut big = set.new_states();
        set.update(&mut big, &vec![Value::Int(9), Value::Float(-1e-300), Value::Float(1e300)], &s)
            .unwrap();
        set.merge(&mut states, &big).unwrap();
        (set, AggSet::encode_states(&states))
    }

    /// Every byte flipped and every truncation of a header holding each
    /// state kind decodes to `Ok` or `Corrupt`, never a panic, and never
    /// sizes anything by a length the bytes cannot hold.
    #[test]
    fn mutated_headers_decode_or_are_corrupt() {
        let (set, bytes) = every_kind();
        assert!(set.decode_states(&bytes).is_ok());
        let check = |b: &[u8], what: &str| match set.decode_states(b) {
            Ok(_) | Err(DgfError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: {e:?}"),
        };
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[i] ^= flip;
                check(&b, &format!("byte {i} ^ {flip:#x}"));
            }
            check(&bytes[..i], &format!("truncated at {i}"));
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(set.decode_states(&trailing), Err(DgfError::Corrupt(_))));
    }

    /// A UDF header claiming `u32::MAX` slots is corrupt before anything
    /// is sized by the claim.
    #[test]
    fn a_udf_header_claiming_u32_max_slots_is_corrupt() {
        let s = schema();
        let udf = AggFunc::Udf(Arc::new(SumProductUdf { a: "power".into(), b: "price".into() }));
        let set = AggSet::bind(&[udf], &s).unwrap();
        let mut bytes = Vec::new();
        codec::put_u32(&mut bytes, 1);
        bytes.push(TAG_UDF);
        codec::put_varint(&mut bytes, u32::MAX as u64);
        bytes.extend_from_slice(&[0; 16]);
        assert!(matches!(set.decode_states(&bytes), Err(DgfError::Corrupt(_))));
        // The same claim in the layout before exact sums: a `u32` count.
        let mut old = Vec::new();
        codec::put_u32(&mut old, 1);
        old.push(TAG_ROUNDED_UDF);
        codec::put_u32(&mut old, u32::MAX);
        assert!(matches!(set.decode_states(&old), Err(DgfError::Corrupt(_))));
    }

    /// Headers written before exact sums (`sum`, `comp` and the count as
    /// fixed-width fields) are refused, never read as a wrong sum.
    #[test]
    fn rounded_sum_headers_are_refused() {
        let s = schema();
        let one = |f: AggFunc, body: &[u8], tag: u8| {
            let set = AggSet::bind(&[f], &s).unwrap();
            let mut bytes = Vec::new();
            codec::put_u32(&mut bytes, 1);
            bytes.push(tag);
            bytes.extend_from_slice(body);
            let r = set.decode_states(&bytes);
            assert!(matches!(r, Err(DgfError::Corrupt(_))), "tag {tag}: {r:?}");
        };
        // sum 5.0, comp 0.0, 3 values.
        let mut pair = Vec::new();
        codec::put_f64(&mut pair, 5.0);
        codec::put_f64(&mut pair, 0.0);
        codec::put_u64(&mut pair, 3);
        one(AggFunc::Sum("power".into()), &pair, 1);
        one(AggFunc::Avg("power".into()), &pair, 4);
        // sum_product: [sum, comp, rows] as a u32-counted f64 list.
        let mut udf = Vec::new();
        codec::put_u32(&mut udf, 3);
        for x in [60.0, 0.0, 2.0] {
            codec::put_f64(&mut udf, x);
        }
        let f = AggFunc::Udf(Arc::new(SumProductUdf { a: "power".into(), b: "price".into() }));
        one(f, &udf, 5);
    }

    #[test]
    fn agg_func_keys_identify_functions() {
        assert_eq!(AggFunc::Count.key(), "count(*)");
        assert_eq!(AggFunc::Sum("x".into()).key(), "sum(x)");
        assert_eq!(
            AggFunc::Udf(Arc::new(SumProductUdf {
                a: "n".into(),
                b: "p".into()
            }))
            .key(),
            "udf:sum_product(n,p)"
        );
        assert_eq!(AggFunc::Sum("x".into()), AggFunc::Sum("x".into()));
        assert_ne!(AggFunc::Sum("x".into()), AggFunc::Sum("y".into()));
    }

    #[test]
    fn binding_unknown_column_fails() {
        assert!(AggSet::bind(&[AggFunc::Sum("nope".into())], &schema()).is_err());
    }
}

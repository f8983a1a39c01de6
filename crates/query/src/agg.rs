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

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use dgf_common::batch::{Column, ColumnBatch, ColumnData, Selection};
use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result, Row, Schema, Value};

/// A user-defined additive aggregate.
///
/// State is a fixed vector of `f64` accumulators — enough for products,
/// weighted sums, sums of squares, and other additive statistics, while
/// staying trivially serializable into GFU headers.
pub trait AdditiveUdf: Send + Sync {
    /// Unique name, used for header compatibility checks (e.g.
    /// `"sum_product(num,price)"`).
    fn name(&self) -> String;
    /// The identity state.
    fn init(&self) -> Vec<f64>;
    /// Fold one row into the state.
    fn update(&self, state: &mut [f64], row: &Row, schema: &Schema) -> Result<()>;
    /// Merge another partial state into `state` (must be associative and
    /// commutative).
    fn merge(&self, state: &mut [f64], other: &[f64]);
    /// Produce the final value.
    fn finalize(&self, state: &[f64]) -> Value;
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

    fn init(&self) -> Vec<f64> {
        vec![0.0, 0.0, 0.0] // [sum, Neumaier error term, non-null row count]
    }

    fn update(&self, state: &mut [f64], row: &Row, schema: &Schema) -> Result<()> {
        let a = &row[schema.index_of(&self.a)?];
        let b = &row[schema.index_of(&self.b)?];
        if a.is_null() || b.is_null() {
            return Ok(());
        }
        let x = a.as_f64()? * b.as_f64()?;
        let (sum, rest) = state.split_at_mut(1);
        kahan_add(&mut sum[0], &mut rest[0], x);
        state[2] += 1.0;
        Ok(())
    }

    fn merge(&self, state: &mut [f64], other: &[f64]) {
        let (sum, rest) = state.split_at_mut(1);
        kahan_add(&mut sum[0], &mut rest[0], other[0]);
        state[1] += other[1];
        state[2] += other[2];
    }

    fn finalize(&self, state: &[f64]) -> Value {
        if state[2] == 0.0 {
            Value::Null
        } else {
            Value::Float(state[0] + state[1])
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

/// One step of Neumaier's compensated summation: fold `x` into the
/// running `sum`, accumulating the rounding error into `comp`. The true
/// total is `sum + comp` (added once, at finalize). Plain `+=` folds
/// make the low-order bits of a float sum depend on merge order; the
/// compensated form keeps the error term explicit so partial states
/// merge without drifting, and repeated runs of the same fold are
/// bit-identical regardless of how partials were grouped.
fn kahan_add(sum: &mut f64, comp: &mut f64, x: f64) {
    let t = *sum + x;
    *comp += if sum.abs() >= x.abs() {
        (*sum - t) + x
    } else {
        (x - t) + *sum
    };
    *sum = t;
}

/// SUM/AVG kernel: compensated fold of a column's selected non-null cells,
/// in ascending row order — the same values through the same [`kahan_add`]
/// steps as the row path, hence bit-identical.
fn fold_sum(
    col: &Column,
    sel: &Selection,
    sum: &mut f64,
    comp: &mut f64,
    n: &mut u64,
) -> Result<()> {
    match &col.data {
        ColumnData::Float(v) => {
            if col.nulls.any_nulls() {
                for i in sel.iter() {
                    if !col.nulls.is_null(i) {
                        kahan_add(sum, comp, v[i]);
                        *n += 1;
                    }
                }
            } else {
                match *sel {
                    Selection::All(len) => {
                        for &x in &v[..len] {
                            kahan_add(sum, comp, x);
                        }
                    }
                    Selection::Rows(rows) => {
                        for &i in rows {
                            kahan_add(sum, comp, v[i as usize]);
                        }
                    }
                }
                *n += sel.len() as u64;
            }
        }
        ColumnData::Int(v) | ColumnData::Date(v) => {
            if col.nulls.any_nulls() {
                for i in sel.iter() {
                    if !col.nulls.is_null(i) {
                        kahan_add(sum, comp, v[i] as f64);
                        *n += 1;
                    }
                }
            } else {
                match *sel {
                    Selection::All(len) => {
                        for &x in &v[..len] {
                            kahan_add(sum, comp, x as f64);
                        }
                    }
                    Selection::Rows(rows) => {
                        for &i in rows {
                            kahan_add(sum, comp, v[i as usize] as f64);
                        }
                    }
                }
                *n += sel.len() as u64;
            }
        }
        // An unprojected column reads as Null in the row path: nothing to
        // fold (and nothing the row path would have errored on).
        ColumnData::Skipped => {}
        // Strings go through `as_f64` so a non-null cell produces exactly
        // the row path's error.
        ColumnData::Str(_) => {
            for i in sel.iter() {
                let v = col.value_at(i);
                if !v.is_null() {
                    kahan_add(sum, comp, v.as_f64()?);
                    *n += 1;
                }
            }
        }
    }
    Ok(())
}

/// Index of the best (per `want`) selected non-null cell, first-wins on
/// ties — the tie-break the evolving row-path fold has.
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
/// comparisons, then merge it into the running state under `Value`
/// ordering. Native and `Value` orderings agree within a typed column, and
/// min/max folds are associative over a total order, so the result is the
/// value the row path would hold.
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
            // NaN is rejected at construction, so this is a total order.
            |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal),
            want,
        )
        .map(|i| Value::Float(v[i])),
        ColumnData::Str(v) => {
            best_index(col, sel, v, |a: &String, b| a.cmp(b), want).map(|i| Value::Str(v[i].clone()))
        }
        ColumnData::Skipped => None,
    };
    if let Some(v) = best {
        let replace = match m {
            None => true,
            Some(cur) => v.cmp_value(cur) == want,
        };
        if replace {
            *m = Some(v);
        }
    }
}

/// A mergeable partial aggregation state.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Row count.
    Count(u64),
    /// Running sum and non-null count (to distinguish 0 from NULL).
    Sum {
        /// Compensated sum of non-null values.
        sum: f64,
        /// Neumaier error term; the true sum is `sum + comp`.
        comp: f64,
        /// Number of non-null values folded in.
        non_null: u64,
    },
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Running sum and count for the mean.
    Avg {
        /// Compensated sum of non-null values.
        sum: f64,
        /// Neumaier error term; the true sum is `sum + comp`.
        comp: f64,
        /// Number of non-null values folded in.
        count: u64,
    },
    /// UDF accumulators.
    Udf(Vec<f64>),
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
                AggFunc::Sum(_) => AggState::Sum { sum: 0.0, comp: 0.0, non_null: 0 },
                AggFunc::Min(_) => AggState::Min(None),
                AggFunc::Max(_) => AggState::Max(None),
                AggFunc::Avg(_) => AggState::Avg { sum: 0.0, comp: 0.0, count: 0 },
                AggFunc::Udf(u) => AggState::Udf(u.init()),
            })
            .collect()
    }

    /// Fold one row into the states.
    pub fn update(&self, states: &mut [AggState], row: &Row, schema: &Schema) -> Result<()> {
        for (agg, st) in self.bound.iter().zip(states.iter_mut()) {
            match (agg, st) {
                (BoundAgg::Count, AggState::Count(n)) => *n += 1,
                (BoundAgg::Sum(col), AggState::Sum { sum, comp, non_null }) => {
                    let v = &row[*col];
                    if !v.is_null() {
                        kahan_add(sum, comp, v.as_f64()?);
                        *non_null += 1;
                    }
                }
                (BoundAgg::Min(col), AggState::Min(m)) => {
                    let v = &row[*col];
                    if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                        *m = Some(v.clone());
                    }
                }
                (BoundAgg::Max(col), AggState::Max(m)) => {
                    let v = &row[*col];
                    if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                        *m = Some(v.clone());
                    }
                }
                (BoundAgg::Avg(col), AggState::Avg { sum, comp, count }) => {
                    let v = &row[*col];
                    if !v.is_null() {
                        kahan_add(sum, comp, v.as_f64()?);
                        *count += 1;
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
    /// Selected rows are folded in ascending row order through the same
    /// compensated-summation step as the row path, so the resulting states
    /// are **bit-identical** to a row-at-a-time fold of the same rows.
    /// UDF aggregates have no slice form; they fold through one reused
    /// scratch row.
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
                (BoundAgg::Sum(col), AggState::Sum { sum, comp, non_null }) => {
                    fold_sum(batch.column(*col), sel, sum, comp, non_null)?;
                }
                (BoundAgg::Avg(col), AggState::Avg { sum, comp, count }) => {
                    fold_sum(batch.column(*col), sel, sum, comp, count)?;
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

    /// Merge `other` into `states` (both produced by this set).
    pub fn merge(&self, states: &mut [AggState], other: &[AggState]) -> Result<()> {
        for ((f, st), o) in self.funcs.iter().zip(states.iter_mut()).zip(other) {
            match (st, o) {
                (AggState::Count(a), AggState::Count(b)) => *a += b,
                (
                    AggState::Sum { sum: a, comp: ac, non_null: an },
                    AggState::Sum { sum: b, comp: bc, non_null: bn },
                ) => {
                    kahan_add(a, ac, *b);
                    *ac += bc;
                    *an += bn;
                }
                (AggState::Min(a), AggState::Min(b)) => {
                    if let Some(bv) = b {
                        if a.as_ref().is_none_or(|av| bv < av) {
                            *a = Some(bv.clone());
                        }
                    }
                }
                (AggState::Max(a), AggState::Max(b)) => {
                    if let Some(bv) = b {
                        if a.as_ref().is_none_or(|av| bv > av) {
                            *a = Some(bv.clone());
                        }
                    }
                }
                (
                    AggState::Avg { sum: a, comp: ac, count: an },
                    AggState::Avg { sum: b, comp: bc, count: bn },
                ) => {
                    kahan_add(a, ac, *b);
                    *ac += bc;
                    *an += bn;
                }
                (AggState::Udf(a), AggState::Udf(b)) => match f {
                    AggFunc::Udf(u) => u.merge(a, b),
                    _ => return Err(DgfError::Query("udf state under non-udf func".into())),
                },
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
                AggState::Sum { sum, comp, non_null } => {
                    if *non_null == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum + comp)
                    }
                }
                AggState::Min(m) | AggState::Max(m) => m.clone().unwrap_or(Value::Null),
                AggState::Avg { sum, comp, count } => {
                    if *count == 0 {
                        Value::Null
                    } else {
                        Value::Float((sum + comp) / *count as f64)
                    }
                }
                AggState::Udf(s) => match f {
                    AggFunc::Udf(u) => u.finalize(s),
                    _ => Value::Null,
                },
            })
            .collect()
    }

    /// Serialize states (GFU header payload).
    pub fn encode_states(states: &[AggState]) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, states.len() as u32);
        for st in states {
            match st {
                AggState::Count(n) => {
                    buf.push(0);
                    codec::put_u64(&mut buf, *n);
                }
                AggState::Sum { sum, comp, non_null } => {
                    buf.push(1);
                    codec::put_f64(&mut buf, *sum);
                    codec::put_f64(&mut buf, *comp);
                    codec::put_u64(&mut buf, *non_null);
                }
                AggState::Min(m) => {
                    buf.push(2);
                    codec::put_value(&mut buf, &m.clone().unwrap_or(Value::Null));
                }
                AggState::Max(m) => {
                    buf.push(3);
                    codec::put_value(&mut buf, &m.clone().unwrap_or(Value::Null));
                }
                AggState::Avg { sum, comp, count } => {
                    buf.push(4);
                    codec::put_f64(&mut buf, *sum);
                    codec::put_f64(&mut buf, *comp);
                    codec::put_u64(&mut buf, *count);
                }
                AggState::Udf(s) => {
                    buf.push(5);
                    codec::put_u32(&mut buf, s.len() as u32);
                    for x in s {
                        codec::put_f64(&mut buf, *x);
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
    /// it held: a caller decoding many headers reuses one buffer.
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
        for f in &self.funcs {
            let st = match dec.u8()? {
                0 => AggState::Count(dec.u64()?),
                1 => AggState::Sum {
                    sum: dec.f64()?,
                    comp: dec.f64()?,
                    non_null: dec.u64()?,
                },
                2 => AggState::Min(none_if_null(codec::get_value(&mut dec)?)),
                3 => AggState::Max(none_if_null(codec::get_value(&mut dec)?)),
                4 => AggState::Avg {
                    sum: dec.f64()?,
                    comp: dec.f64()?,
                    count: dec.u64()?,
                },
                5 => {
                    let k = dec.u32()? as usize;
                    let mut s = Vec::with_capacity(k);
                    for _ in 0..k {
                        s.push(dec.f64()?);
                    }
                    AggState::Udf(s)
                }
                t => return Err(DgfError::Corrupt(format!("unknown agg state tag {t}"))),
            };
            let compatible = matches!(
                (f, &st),
                (AggFunc::Count, AggState::Count(_))
                    | (AggFunc::Sum(_), AggState::Sum { .. })
                    | (AggFunc::Min(_), AggState::Min(_))
                    | (AggFunc::Max(_), AggState::Max(_))
                    | (AggFunc::Avg(_), AggState::Avg { .. })
                    | (AggFunc::Udf(_), AggState::Udf(_))
            );
            if !compatible {
                return Err(DgfError::Corrupt(
                    "header agg state does not match query aggregate".into(),
                ));
            }
            out.push(st);
        }
        Ok(())
    }
}

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
    fn compensated_sum_survives_catastrophic_cancellation() {
        // A naive fold of [1e16, 1.0, -1e16] loses the 1.0 entirely
        // (1e16 + 1.0 == 1e16 in f64); Neumaier keeps it in the error
        // term. Exercised through update, merge, and the UDF path.
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

        // One-row partials merged pairwise reach the same answer.
        let mut acc = set.new_states();
        for v in vals {
            let mut part = set.new_states();
            set.update(&mut part, &vec![Value::Int(0), Value::Float(v)], &s)
                .unwrap();
            set.merge(&mut acc, &part).unwrap();
        }
        assert_eq!(set.finalize(&acc), out);

        // The sum-product UDF compensates too (b == 1.0 ⇒ plain sum).
        let s2 = Schema::from_pairs(&[("a", ValueType::Float), ("b", ValueType::Float)]);
        let udf = SumProductUdf {
            a: "a".into(),
            b: "b".into(),
        };
        let mut st = udf.init();
        for v in vals {
            udf.update(&mut st, &vec![Value::Float(v), Value::Float(1.0)], &s2)
                .unwrap();
        }
        assert_eq!(udf.finalize(&st), Value::Float(1.0));
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

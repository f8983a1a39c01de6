//! Columnar batches — one decoded row group as typed per-column vectors.
//!
//! The row-at-a-time read path materializes a boxed [`Value`] per cell and a
//! [`Row`] per record, which makes the post-pruning scan CPU-bound on enum
//! dispatch and allocation. A [`ColumnBatch`] instead holds each column of a
//! row group as one primitive vector (`Vec<i64>`, `Vec<f64>`, …) plus a null
//! bitmap, so predicate and aggregate kernels can run as tight loops over
//! slices (DESIGN.md §12). Columns excluded by a projection are kept as
//! [`ColumnData::Skipped`] placeholders so row indexes stay schema-aligned.
//!
//! Batches are produced by the RCFile reader (`dgf-format`) and consumed by
//! the kernels in `dgf-query`; this module lives in `dgf-common` because it
//! is the one crate both depend on.

use crate::codec::{Decoder, TAG_DATE, TAG_FLOAT, TAG_INT, TAG_NULL, TAG_STR};
use crate::{DgfError, Result, Row, Value, ValueType};

/// Typed storage for one column of a batch.
///
/// A column is its schema type's vector ([`decode_column`]): `Int`, `Float`
/// and `Date` columns store raw primitives, `Str` one `String` per row, and
/// null slots hold a placeholder flagged in the column's [`NullMask`].
/// Unprojected columns are [`ColumnData::Skipped`]: they occupy a slot so
/// column indexes match the schema, but hold no data.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dates as day numbers (same representation as [`Value::Date`]).
    Date(Vec<i64>),
    /// Strings.
    Str(Vec<String>),
    /// Column not materialized (excluded by the projection).
    Skipped,
}

/// A per-row null bitmap (one bit per row, 64 rows per word).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    words: Vec<u64>,
    any: bool,
}

impl NullMask {
    /// An all-valid mask covering `len` rows.
    pub fn new(len: usize) -> Self {
        NullMask {
            words: vec![0; len.div_ceil(64)],
            any: false,
        }
    }

    /// Mark row `i` null.
    pub fn set_null(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        self.any = true;
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.any && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether any row is null (fast-path guard for kernels).
    #[inline]
    pub fn any_nulls(&self) -> bool {
        self.any
    }
}

/// One column of a [`ColumnBatch`]: typed data plus its null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The cell values.
    pub data: ColumnData,
    /// Which rows are null.
    pub nulls: NullMask,
}

impl Column {
    /// A skipped (unprojected) column placeholder.
    pub fn skipped() -> Self {
        Column {
            data: ColumnData::Skipped,
            nulls: NullMask::default(),
        }
    }

    /// The cell at row `i` as an owned [`Value`] (allocates for strings;
    /// `Null` for null rows and skipped columns).
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Skipped => Value::Null,
        }
    }
}

/// One decoded row group: all (projected) columns of `len` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    len: usize,
    group_offset: u64,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// Assemble a batch from decoded columns.
    ///
    /// Every non-skipped column must hold exactly `len` rows.
    pub fn new(columns: Vec<Column>, len: usize, group_offset: u64) -> Self {
        #[cfg(debug_assertions)]
        for c in &columns {
            match &c.data {
                ColumnData::Int(v) | ColumnData::Date(v) => debug_assert_eq!(v.len(), len),
                ColumnData::Float(v) => debug_assert_eq!(v.len(), len),
                ColumnData::Str(v) => debug_assert_eq!(v.len(), len),
                ColumnData::Skipped => {}
            }
        }
        ColumnBatch {
            len,
            group_offset,
            columns,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File offset of the row group this batch was decoded from.
    pub fn group_offset(&self) -> u64 {
        self.group_offset
    }

    /// The column at schema index `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// The cell at (`row`, `col`) as an owned [`Value`].
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Materialize row `idx` into `out`, reusing its allocation.
    ///
    /// Skipped columns yield `Null`, so `out` always ends up schema-width.
    pub fn read_row_into(&self, idx: usize, out: &mut Row) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c.value_at(idx)));
    }

    /// Gather the given rows (in order) into a new, compacted batch.
    ///
    /// Used to apply a row filter at the batch level: the surviving batch
    /// has no holes, so kernels never re-check the filter.
    pub fn take(&self, rows: &[u32]) -> ColumnBatch {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut nulls = NullMask::new(rows.len());
                for (j, &i) in rows.iter().enumerate() {
                    if c.nulls.is_null(i as usize) {
                        nulls.set_null(j);
                    }
                }
                let data = match &c.data {
                    ColumnData::Int(v) => {
                        ColumnData::Int(rows.iter().map(|&i| v[i as usize]).collect())
                    }
                    ColumnData::Float(v) => {
                        ColumnData::Float(rows.iter().map(|&i| v[i as usize]).collect())
                    }
                    ColumnData::Date(v) => {
                        ColumnData::Date(rows.iter().map(|&i| v[i as usize]).collect())
                    }
                    ColumnData::Str(v) => {
                        ColumnData::Str(rows.iter().map(|&i| v[i as usize].clone()).collect())
                    }
                    ColumnData::Skipped => ColumnData::Skipped,
                };
                Column { data, nulls }
            })
            .collect();
        ColumnBatch::new(columns, rows.len(), self.group_offset)
    }
}

/// The rows of a batch chosen by a predicate kernel.
///
/// `All` avoids materializing an index vector for the common full-match
/// case; `Rows` lists surviving row indexes in ascending order, so folding
/// a selection visits rows in exactly the order the row-at-a-time path
/// would — the property that keeps batch aggregation bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Every row of a batch of the given length survives.
    All(usize),
    /// Exactly these row indexes survive (ascending).
    Rows(Vec<u32>),
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(r) => r.len(),
        }
    }

    /// Whether nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate selected row indexes in ascending order.
    pub fn iter(&self) -> SelectionIter<'_> {
        match self {
            Selection::All(n) => SelectionIter::All(0..*n),
            Selection::Rows(r) => SelectionIter::Rows(r.iter()),
        }
    }
}

/// Iterator over the row indexes of a [`Selection`].
pub enum SelectionIter<'a> {
    /// Counting through a full batch.
    All(std::ops::Range<usize>),
    /// Walking an explicit index list.
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for SelectionIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelectionIter::All(r) => r.next(),
            SelectionIter::Rows(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelectionIter::All(r) => r.size_hint(),
            SelectionIter::Rows(it) => it.size_hint(),
        }
    }
}

/// Decode one column's tagged value stream (`codec::put_value` repeated
/// `n_rows` times) into the typed storage of `vtype`, the column's schema
/// type.
///
/// A null tag leaves a placeholder flagged in the null mask; any other
/// tag that is not `vtype`'s, and a NaN float, is [`DgfError::Corrupt`]:
/// no writer puts such a cell in a column ([`ValueType::admits`]).
pub fn decode_column(bytes: &[u8], n_rows: usize, vtype: ValueType) -> Result<Column> {
    // Every cell encodes to at least its tag byte, so a row count the
    // stream cannot hold is corruption — reject it before sizing the
    // null mask and the typed vector from it.
    if n_rows > bytes.len() {
        return Err(DgfError::Corrupt(format!(
            "column claims {n_rows} rows in {} bytes",
            bytes.len()
        )));
    }
    let mut dec = Decoder::new(bytes);
    let mut nulls = NullMask::new(n_rows);
    let (d, m) = (&mut dec, &mut nulls);
    let data = match vtype {
        ValueType::Int => ColumnData::Int(decode_cells(d, m, n_rows, vtype, 0, Decoder::i64)?),
        ValueType::Date => ColumnData::Date(decode_cells(d, m, n_rows, vtype, 0, Decoder::i64)?),
        ValueType::Float => ColumnData::Float(decode_cells(d, m, n_rows, vtype, 0.0, |d| {
            let x = d.f64()?;
            match x.is_nan() {
                true => Err(DgfError::Corrupt("a float column holds a NaN".into())),
                false => Ok(x),
            }
        })?),
        ValueType::Str => ColumnData::Str(decode_cells(d, m, n_rows, vtype, String::new(), |d| {
            Ok(d.str()?.to_owned())
        })?),
    };
    Ok(Column { data, nulls })
}

/// `n_rows` cells, each tagged as a `vtype` cell and read by `cell`, or
/// NULL: flagged in `nulls` and stored as `placeholder`.
fn decode_cells<'a, T: Clone>(
    dec: &mut Decoder<'a>,
    nulls: &mut NullMask,
    n_rows: usize,
    vtype: ValueType,
    placeholder: T,
    cell: impl Fn(&mut Decoder<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let tag = match vtype {
        ValueType::Int => TAG_INT,
        ValueType::Float => TAG_FLOAT,
        ValueType::Str => TAG_STR,
        ValueType::Date => TAG_DATE,
    };
    let mut out = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        match dec.u8()? {
            TAG_NULL => {
                nulls.set_null(i);
                out.push(placeholder.clone());
            }
            t if t == tag => out.push(cell(dec)?),
            other => {
                return Err(DgfError::Corrupt(format!(
                    "a {vtype} column holds a cell tagged {other}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

    fn encode(vals: &[Value]) -> Vec<u8> {
        let mut buf = Vec::new();
        for v in vals {
            codec::put_value(&mut buf, v);
        }
        buf
    }

    #[test]
    fn typed_decode_round_trips_with_nulls() {
        let vals = vec![
            Value::Null,
            Value::Int(7),
            Value::Null,
            Value::Int(-3),
            Value::Int(0),
        ];
        let col = decode_column(&encode(&vals), vals.len(), ValueType::Int).unwrap();
        assert!(matches!(col.data, ColumnData::Int(_)));
        assert!(col.nulls.any_nulls());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.value_at(i), v);
        }
    }

    /// A column holds NULLs and cells of its own type: a cell of any
    /// other type, an unknown tag or a NaN float is corruption.
    #[test]
    fn a_cell_of_another_type_is_corrupt() {
        let cells = [
            (ValueType::Int, Value::Int(1)),
            (ValueType::Float, Value::Float(2.5)),
            (ValueType::Str, Value::Str("x".into())),
            (ValueType::Date, Value::Date(3)),
        ];
        for (vtype, own) in &cells {
            let vals = [Value::Null, own.clone(), Value::Null];
            let col = decode_column(&encode(&vals), 3, *vtype).unwrap();
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(&col.value_at(i), v, "{vtype}");
            }
            for (other, stray) in &cells {
                if other != vtype {
                    let bytes = encode(&[own.clone(), Value::Null, stray.clone()]);
                    let err = decode_column(&bytes, 3, *vtype);
                    assert!(matches!(err, Err(DgfError::Corrupt(_))), "{stray:?} in {vtype}: {err:?}");
                }
            }
            let mut unknown = encode(std::slice::from_ref(own));
            unknown[0] = 0xEE;
            assert!(matches!(decode_column(&unknown, 1, *vtype), Err(DgfError::Corrupt(_))));
        }
        let nan = encode(&[Value::Float(f64::NAN)]);
        assert!(matches!(decode_column(&nan, 1, ValueType::Float), Err(DgfError::Corrupt(_))));
    }

    #[test]
    fn all_null_column_decodes() {
        let vals = vec![Value::Null; 4];
        let col = decode_column(&encode(&vals), 4, ValueType::Str).unwrap();
        assert_eq!(col.data, ColumnData::Str(vec![String::new(); 4]));
        for i in 0..4 {
            assert_eq!(col.value_at(i), Value::Null);
        }
    }

    #[test]
    fn take_compacts_rows_and_nulls() {
        let vals = vec![
            Value::Float(1.0),
            Value::Null,
            Value::Float(3.0),
            Value::Float(4.0),
        ];
        let col = decode_column(&encode(&vals), 4, ValueType::Float).unwrap();
        let batch = ColumnBatch::new(vec![col], 4, 0);
        let kept = batch.take(&[1, 3]);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.value(0, 0), Value::Null);
        assert_eq!(kept.value(1, 0), Value::Float(4.0));
    }

    #[test]
    fn selection_iterates_in_row_order() {
        let all: Vec<usize> = Selection::All(3).iter().collect();
        assert_eq!(all, vec![0, 1, 2]);
        let some: Vec<usize> = Selection::Rows(vec![1, 4]).iter().collect();
        assert_eq!(some, vec![1, 4]);
        assert!(Selection::Rows(vec![]).is_empty());
    }

    #[test]
    fn read_row_into_reuses_allocation() {
        let vals = vec![Value::Int(5), Value::Int(6)];
        let col = decode_column(&encode(&vals), 2, ValueType::Int).unwrap();
        let batch = ColumnBatch::new(vec![col, Column::skipped()], 2, 9);
        assert_eq!(batch.group_offset(), 9);
        let mut row = Row::new();
        batch.read_row_into(1, &mut row);
        assert_eq!(row, vec![Value::Int(6), Value::Null]);
        batch.read_row_into(0, &mut row);
        assert_eq!(row, vec![Value::Int(5), Value::Null]);
    }
}

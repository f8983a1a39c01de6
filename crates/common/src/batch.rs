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

impl ColumnData {
    /// Rows held, or `None` for a skipped column.
    fn len(&self) -> Option<usize> {
        match self {
            ColumnData::Int(v) | ColumnData::Date(v) => Some(v.len()),
            ColumnData::Float(v) => Some(v.len()),
            ColumnData::Str(v) => Some(v.len()),
            ColumnData::Skipped => None,
        }
    }
}

/// A per-row null bitmap (one bit per row, 64 rows per word).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    words: Vec<u64>,
    any: bool,
}

impl NullMask {
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

    /// Make this an all-valid mask covering `len` rows, keeping its
    /// allocation.
    fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.any = false;
    }

    /// Give row `to` row `from`'s bit (`to <= from`).
    fn move_bit(&mut self, from: usize, to: usize) {
        let null = self.is_null(from);
        let (word, bit) = (&mut self.words[to / 64], 1u64 << (to % 64));
        *word = if null { *word | bit } else { *word & !bit };
    }

    /// Keep the first `len` rows' bits.
    fn truncate(&mut self, len: usize) {
        self.words.truncate(len.div_ceil(64));
        // Rows past `len` in the last word are gone.
        let past = (self.words.len() * 64).saturating_sub(len);
        if let Some(last) = self.words.last_mut() {
            *last &= u64::MAX >> past;
        }
        self.any = self.words.iter().any(|w| *w != 0);
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
        debug_assert!(columns
            .iter()
            .all(|c| c.data.len().is_none_or(|n| n == len)));
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

    /// Refill this batch with group `group_offset`'s `len` rows, keeping
    /// every column's allocation: `fill` is called once per column, in
    /// schema order, to decode that column in place ([`decode_column`]) or
    /// make it [`Column::skipped`]. On an error the batch is left empty.
    pub fn refill(
        &mut self,
        len: usize,
        group_offset: u64,
        mut fill: impl FnMut(usize, &mut Column) -> Result<()>,
    ) -> Result<()> {
        self.len = 0;
        self.group_offset = group_offset;
        for (c, col) in self.columns.iter_mut().enumerate() {
            fill(c, col)?;
            debug_assert!(
                col.data.len().is_none_or(|n| n == len),
                "column {c} of {len} rows"
            );
        }
        self.len = len;
        Ok(())
    }

    /// Keep the rows for which `keep` holds, in order, compacting every
    /// column in place: the batch a row filter leaves has no holes, so
    /// kernels never re-check the filter.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let len = self.len;
        self.len = (0..len).filter(|&i| keep(i)).count();
        if self.len == len {
            return;
        }
        for c in &mut self.columns {
            let nulls = &mut c.nulls;
            match &mut c.data {
                ColumnData::Int(v) | ColumnData::Date(v) => compact(v, nulls, &keep),
                ColumnData::Float(v) => compact(v, nulls, &keep),
                ColumnData::Str(v) => compact(v, nulls, &keep),
                ColumnData::Skipped => {}
            }
        }
    }
}

/// Move the cells and null bits of the rows `keep` holds for to the
/// front, in order, and cut the rest.
fn compact<T>(cells: &mut Vec<T>, nulls: &mut NullMask, keep: impl Fn(usize) -> bool) {
    let mut kept = 0;
    for i in 0..cells.len() {
        if keep(i) {
            cells.swap(kept, i);
            if nulls.any_nulls() {
                nulls.move_bit(i, kept);
            }
            kept += 1;
        }
    }
    cells.truncate(kept);
    nulls.truncate(kept);
}

/// The rows of a batch chosen by a predicate kernel.
///
/// `All` avoids materializing an index vector for the common full-match
/// case; `Rows` lists surviving row indexes in ascending order, so folding
/// a selection visits rows in exactly the order the row-at-a-time path
/// would — the property that keeps batch aggregation bit-identical. The
/// index list is borrowed: a scan refines one buffer for every batch it
/// reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection<'a> {
    /// Every row of a batch of the given length survives.
    All(usize),
    /// Exactly these row indexes survive (ascending).
    Rows(&'a [u32]),
}

impl<'a> Selection<'a> {
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
    pub fn iter(&self) -> SelectionIter<'a> {
        match *self {
            Selection::All(n) => SelectionIter::All(0..n),
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
/// `n_rows` times) into `col`, as the typed storage of `vtype`, the
/// column's schema type. `col`'s vector and null mask are refilled in
/// place, so a reader that decodes every group into the same columns
/// allocates only while a group is longer than any before it.
///
/// A null tag leaves a placeholder flagged in the null mask; any other
/// tag that is not `vtype`'s, and a NaN float, is [`DgfError::Corrupt`]:
/// no writer puts such a cell in a column ([`ValueType::admits`]).
pub fn decode_column(
    bytes: &[u8],
    n_rows: usize,
    vtype: ValueType,
    col: &mut Column,
) -> Result<()> {
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
    let (d, m) = (&mut dec, &mut col.nulls);
    m.reset(n_rows);
    // The vector the column already holds, if it is of this type's
    // storage, else a new one; on an error the column is left skipped.
    let data = std::mem::replace(&mut col.data, ColumnData::Skipped);
    col.data = match vtype {
        ValueType::Int | ValueType::Date => {
            let mut v = match data {
                ColumnData::Int(v) | ColumnData::Date(v) => v,
                _ => Vec::new(),
            };
            decode_cells(d, m, n_rows, vtype, &mut v, 0, |d, x| {
                *x = d.i64()?;
                Ok(())
            })?;
            match vtype {
                ValueType::Int => ColumnData::Int(v),
                _ => ColumnData::Date(v),
            }
        }
        ValueType::Float => {
            let mut v = match data {
                ColumnData::Float(v) => v,
                _ => Vec::new(),
            };
            decode_cells(d, m, n_rows, vtype, &mut v, 0.0, |d, x| {
                *x = d.f64()?;
                match x.is_nan() {
                    true => Err(DgfError::Corrupt("a float column holds a NaN".into())),
                    false => Ok(()),
                }
            })?;
            ColumnData::Float(v)
        }
        ValueType::Str => {
            let mut v = match data {
                ColumnData::Str(v) => v,
                _ => Vec::new(),
            };
            decode_cells(d, m, n_rows, vtype, &mut v, String::new(), |d, s| {
                s.clear();
                s.push_str(d.str()?);
                Ok(())
            })?;
            ColumnData::Str(v)
        }
    };
    Ok(())
}

/// Refill `out` with `n_rows` cells, each tagged as a `vtype` cell and
/// read into its slot by `cell`, or NULL: flagged in `nulls` and stored
/// as `placeholder`.
fn decode_cells<'a, T: Clone>(
    dec: &mut Decoder<'a>,
    nulls: &mut NullMask,
    n_rows: usize,
    vtype: ValueType,
    out: &mut Vec<T>,
    placeholder: T,
    cell: impl Fn(&mut Decoder<'a>, &mut T) -> Result<()>,
) -> Result<()> {
    let tag = match vtype {
        ValueType::Int => TAG_INT,
        ValueType::Float => TAG_FLOAT,
        ValueType::Str => TAG_STR,
        ValueType::Date => TAG_DATE,
    };
    out.resize(n_rows, placeholder.clone());
    for (i, slot) in out.iter_mut().enumerate() {
        match dec.u8()? {
            TAG_NULL => {
                nulls.set_null(i);
                *slot = placeholder.clone();
            }
            t if t == tag => cell(dec, slot)?,
            other => {
                return Err(DgfError::Corrupt(format!(
                    "a {vtype} column holds a cell tagged {other}"
                )))
            }
        }
    }
    Ok(())
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

    /// [`decode_column`] into a fresh column.
    fn decode(bytes: &[u8], n_rows: usize, vtype: ValueType) -> Result<Column> {
        let mut col = Column::skipped();
        decode_column(bytes, n_rows, vtype, &mut col).map(|()| col)
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
        let col = decode(&encode(&vals), vals.len(), ValueType::Int).unwrap();
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
            let col = decode(&encode(&vals), 3, *vtype).unwrap();
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(&col.value_at(i), v, "{vtype}");
            }
            for (other, stray) in &cells {
                if other != vtype {
                    let bytes = encode(&[own.clone(), Value::Null, stray.clone()]);
                    let err = decode(&bytes, 3, *vtype);
                    assert!(
                        matches!(err, Err(DgfError::Corrupt(_))),
                        "{stray:?} in {vtype}: {err:?}"
                    );
                }
            }
            let mut unknown = encode(std::slice::from_ref(own));
            unknown[0] = 0xEE;
            assert!(matches!(
                decode(&unknown, 1, *vtype),
                Err(DgfError::Corrupt(_))
            ));
        }
        let nan = encode(&[Value::Float(f64::NAN)]);
        assert!(matches!(
            decode(&nan, 1, ValueType::Float),
            Err(DgfError::Corrupt(_))
        ));
    }

    #[test]
    fn all_null_column_decodes() {
        let vals = vec![Value::Null; 4];
        let col = decode(&encode(&vals), 4, ValueType::Str).unwrap();
        assert_eq!(col.data, ColumnData::Str(vec![String::new(); 4]));
        for i in 0..4 {
            assert_eq!(col.value_at(i), Value::Null);
        }
    }

    /// A batch refilled group after group keeps its vectors, and a row
    /// filter compacts it in place: cells and null bits (across mask
    /// words) move to the front in order, and nothing of a longer group
    /// shows through a shorter one.
    #[test]
    fn refill_and_retain_reuse_the_columns() {
        let schema = [ValueType::Float, ValueType::Str];
        let group = |n: usize, salt: usize| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| match (i + salt) % 5 {
                    0 => vec![Value::Null, Value::Str(format!("s{i}"))],
                    1 => vec![Value::Float(i as f64), Value::Null],
                    _ => vec![Value::Float(i as f64 + 0.5), Value::Str(format!("t{i}"))],
                })
                .collect()
        };
        let mut batch = ColumnBatch::new(vec![Column::skipped(); 2], 0, 0);
        let refill = |batch: &mut ColumnBatch, rows: &[Vec<Value>], offset| {
            batch
                .refill(rows.len(), offset, |c, col| {
                    let cells: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                    decode_column(&encode(&cells), rows.len(), schema[c], col)
                })
                .unwrap()
        };
        let long = group(70, 0);
        refill(&mut batch, &long, 7);
        batch.retain(|i| i % 3 != 1);
        let kept: Vec<&Vec<Value>> = long
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 1)
            .map(|(_, r)| r)
            .collect();
        assert_eq!((batch.len(), batch.group_offset()), (kept.len(), 7));
        for (j, r) in kept.iter().enumerate() {
            assert_eq!(
                &[batch.value(j, 0), batch.value(j, 1)][..],
                &r[..],
                "row {j}"
            );
        }
        let short = group(3, 2);
        refill(&mut batch, &short, 9);
        assert_eq!((batch.len(), batch.group_offset()), (3, 9));
        for (j, r) in short.iter().enumerate() {
            assert_eq!(
                &[batch.value(j, 0), batch.value(j, 1)][..],
                &r[..],
                "row {j}"
            );
        }
        let ColumnData::Float(v) = &batch.column(0).data else {
            panic!("a float column")
        };
        assert!(v.capacity() >= 70, "the longer group's vector is kept");
        batch.retain(|_| false);
        assert!(batch.is_empty());
    }

    #[test]
    fn selection_iterates_in_row_order() {
        let all: Vec<usize> = Selection::All(3).iter().collect();
        assert_eq!(all, vec![0, 1, 2]);
        let some: Vec<usize> = Selection::Rows(&[1, 4]).iter().collect();
        assert_eq!(some, vec![1, 4]);
        assert!(Selection::Rows(&[]).is_empty());
    }

    #[test]
    fn read_row_into_reuses_allocation() {
        let vals = vec![Value::Int(5), Value::Int(6)];
        let col = decode(&encode(&vals), 2, ValueType::Int).unwrap();
        let batch = ColumnBatch::new(vec![col, Column::skipped()], 2, 9);
        assert_eq!(batch.group_offset(), 9);
        let mut row = Row::new();
        batch.read_row_into(1, &mut row);
        assert_eq!(row, vec![Value::Int(6), Value::Null]);
        batch.read_row_into(0, &mut row);
        assert_eq!(row, vec![Value::Int(5), Value::Null]);
    }
}

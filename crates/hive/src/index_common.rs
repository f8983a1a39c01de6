//! The one index table behind Hive's three indexes (paper §2.2).
//!
//! The Compact, Aggregate and Bitmap indexes are one structure: a Text
//! table of `GROUP BY dims, INPUT__FILE__NAME` rows (Listing 1) that
//! differ only in their payload columns. `build_index_table` is the one
//! MapReduce job that writes such a table and `probe` the one scan that
//! reads it back.

use std::sync::Arc;
use std::time::Duration;

use dgf_common::{
    format_row, parse_row, DgfError, Field, Result, Row, Schema, Stopwatch, Value, ValueType,
};
use dgf_format::{FileFormat, TextWriter};
use dgf_query::Predicate;
use dgf_storage::FileSplit;

use crate::context::{HiveContext, TableDesc, TableRef};
use crate::scan::{open_input, InputReader, ScanInput};

/// Report from building an index.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Wall time of the construction job.
    pub build_time: Duration,
    /// Bytes occupied by the index structure (table files or kv store).
    pub index_size_bytes: u64,
    /// Number of index entries (index table rows / GFU pairs).
    pub index_entries: u64,
}

/// Building an index on no dimension, or on a missing column, fails
/// before anything is written.
pub(crate) fn validate_dims(base: &TableDesc, dims: &[String]) -> Result<()> {
    if dims.is_empty() {
        return Err(DgfError::Index("an index needs at least one dimension".into()));
    }
    for d in dims {
        base.schema.index_of(d)?;
    }
    Ok(())
}

/// Separator between the parts of a shuffle key (chosen to never appear
/// in `format_row` output).
const KEY_SEP: char = '\u{1F}';

/// The shuffle key of an index entry: formatted dimension values plus the
/// originating file path.
fn dims_key(dim_values: &Row, path: &str) -> String {
    let mut k = format_row(dim_values);
    k.push(KEY_SEP);
    k.push_str(path);
    k
}

/// What a map task of [`build_index_table`] emits for one base row.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Emit {
    /// The row's block offset, under its `(dims, file)` key (Aggregate,
    /// which counts every row).
    BlockOffset,
    /// The same, with a combiner that drops a map task's repeated
    /// offsets before the shuffle (Compact, which keeps the set only).
    DistinctBlockOffset,
    /// The row's ordinal inside its block, under `(dims, file, block
    /// offset)` (Bitmap).
    RowInBlock,
}

/// The index table's schema: `dims ++ _bucketname ++ payload`.
fn index_schema(base: &Schema, dims: &[String], payload: &[(&str, ValueType)]) -> Result<Schema> {
    let names: Vec<&str> = dims.iter().map(String::as_str).collect();
    let mut fields = base.project(&names)?.fields().to_vec();
    fields.push(Field::new("_bucketname", ValueType::Str));
    fields.extend(payload.iter().map(|(name, vtype)| Field::new(*name, *vtype)));
    Schema::new(fields)
}

/// Build the index table `index_name` on `dims` of `base`: the paper's
/// Listing 1, for all three indexes. Each map task reads columns `dims`
/// of every base row (an RCFile decodes those only) and hands the row to
/// the shuffle as one `u64` ([`Emit`]); each reducer writes one
/// `dims|file|payload` line per key, with `render` turning the key's
/// values into the payload (a Bitmap key's block offset comes first).
pub(crate) fn build_index_table(
    ctx: &Arc<HiveContext>,
    base: &TableRef,
    dims: &[String],
    index_name: &str,
    payload: &[(&str, ValueType)],
    emit: Emit,
    render: &(dyn Fn(Vec<u64>) -> String + Sync),
) -> Result<(TableRef, BuildReport)> {
    validate_dims(base, dims)?;
    let watch = Stopwatch::start();
    let schema = index_schema(&base.schema, dims, payload)?;
    let dims_schema = Schema::new(schema.fields()[..dims.len()].to_vec())?;
    let index_table = ctx.create_table(index_name, Arc::new(schema), FileFormat::Text)?;
    let dim_idx: Vec<usize> = dims
        .iter()
        .map(|d| base.schema.index_of(d))
        .collect::<Result<_>>()?;
    let splits = ctx.table_splits(base);
    let num_reducers = ctx.engine.threads().min(splits.len()).max(1);

    let job = ctx.engine.map_reduce(
        splits,
        num_reducers,
        &|_, split: FileSplit, e| {
            let path = split.path.clone();
            let reader = match open_input(ctx, base, &ScanInput::FullSplit(split))? {
                InputReader::Rc(r) => InputReader::Rc(Box::new(r.with_projection(dim_idx.clone()))),
                text => text,
            };
            let (mut block, mut ordinal) = (u64::MAX, 0u64);
            reader.for_each_row(|off, row| {
                let dvals: Row = dim_idx.iter().map(|i| row[*i].clone()).collect();
                let key = dims_key(&dvals, &path);
                match emit {
                    Emit::BlockOffset | Emit::DistinctBlockOffset => e.emit(key, off),
                    Emit::RowInBlock => {
                        if off != block {
                            (block, ordinal) = (off, 0);
                        }
                        e.emit(format!("{key}{KEY_SEP}{off}"), ordinal);
                        ordinal += 1;
                    }
                }
                Ok(())
            })
        },
        (emit == Emit::DistinctBlockOffset).then_some(&|_, offsets| Ok(distinct(offsets))),
        &|tid, groups| {
            let path = format!("{}/part-{tid:05}", index_table.location);
            let mut w = TextWriter::create(&ctx.hdfs, &path)?;
            let mut entries = 0u64;
            for (key, values) in groups {
                let (dims_part, bucket) = key
                    .split_once(KEY_SEP)
                    .ok_or_else(|| DgfError::Corrupt(format!("malformed index key {key:?}")))?;
                parse_row(dims_part, &dims_schema)?;
                // A Bitmap bucket is `file KEY_SEP block offset`: two columns.
                let bucket = bucket.replace(KEY_SEP, "|");
                w.write_line(&format!("{dims_part}|{bucket}|{}", render(values)))?;
                entries += 1;
            }
            w.close()?;
            Ok(entries)
        },
    )?;

    let report = BuildReport {
        build_time: watch.elapsed(),
        index_size_bytes: ctx.table_size_bytes(&index_table),
        index_entries: job.outputs.iter().sum(),
    };
    Ok((index_table, report))
}

/// The one probe of an index table: its rows that match `predicate`
/// projected onto `dims`, in split order. The rest of the predicate is
/// applied when the base data is read. Hive writes these rows to a
/// temporary file from a map-only scan of the index table; this is that
/// scan.
pub(crate) fn probe(
    ctx: &HiveContext,
    index_table: &TableDesc,
    dims: &[String],
    predicate: &Predicate,
) -> Result<Vec<Row>> {
    let keep: Vec<&str> = dims.iter().map(String::as_str).collect();
    let bound = predicate.project_columns(&keep).bind(&index_table.schema)?;
    let job = ctx.engine.map_only(ctx.table_splits(index_table), &|_, split| {
        let mut hits = Vec::new();
        open_input(ctx, index_table, &ScanInput::FullSplit(split))?.for_each_row(|_, row| {
            if bound.matches(row) {
                hits.push(row.clone());
            }
            Ok(())
        })?;
        Ok(hits)
    })?;
    Ok(job.outputs.into_iter().flatten().collect())
}

/// `offsets` sorted, without repeats: the `collect_set` of an entry.
pub(crate) fn distinct(mut offsets: Vec<u64>) -> Vec<u64> {
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

/// Render an offsets array as the `_offsets` column text.
pub(crate) fn format_offsets(offsets: &[u64]) -> String {
    let mut s = String::with_capacity(offsets.len() * 8);
    for (i, o) in offsets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&o.to_string());
    }
    s
}

/// Parse the `_offsets` column text.
pub(crate) fn parse_offsets(v: &Value) -> Result<Vec<u64>> {
    let s = v.as_str()?;
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| {
            p.parse::<u64>()
                .map_err(|e| DgfError::Corrupt(format!("bad offset {p:?}: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Schema {
        Schema::from_pairs(&[
            ("a", ValueType::Int),
            ("b", ValueType::Float),
            ("c", ValueType::Str),
        ])
    }

    #[test]
    fn compact_schema_shape() {
        let offsets = [("_offsets", ValueType::Str)];
        let s = index_schema(&base(), &["b".into(), "a".into()], &offsets).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.field(0).name, "b");
        assert_eq!(s.field(2).name, "_bucketname");
        assert_eq!(s.field(3).vtype, ValueType::Str);
        assert!(index_schema(&base(), &["zzz".into()], &offsets).is_err());
    }

    #[test]
    fn offsets_round_trip() {
        let offs = vec![0u64, 9, 1234567];
        let text = format_offsets(&offs);
        assert_eq!(text, "0,9,1234567");
        assert_eq!(parse_offsets(&Value::Str(text)).unwrap(), offs);
        assert!(parse_offsets(&Value::Str("1,x".into())).is_err());
        assert!(parse_offsets(&Value::Str(String::new())).unwrap().is_empty());
    }
}

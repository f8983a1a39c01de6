//! Pieces shared by the three Hive index implementations.

use std::time::Duration;

use dgf_common::{format_row, parse_row, DgfError, Result, Row, Schema, Value, ValueType};
use dgf_storage::FileSplit;

use crate::context::{HiveContext, TableDesc};
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

/// The map side of every index build: hand `f` the block offset and the
/// values of columns `dims` of every row of `split`. An RCFile decodes
/// those columns only.
pub(crate) fn for_each_dims_row(
    ctx: &HiveContext,
    base: &TableDesc,
    split: FileSplit,
    dims: &[usize],
    mut f: impl FnMut(u64, Row) -> Result<()>,
) -> Result<()> {
    let reader = match open_input(ctx, base, &ScanInput::FullSplit(split))? {
        InputReader::Rc(r) => InputReader::Rc(Box::new(r.with_projection(dims.to_vec()))),
        text => text,
    };
    reader.for_each_row(|offset, row| f(offset, dims.iter().map(|i| row[*i].clone()).collect()))
}

/// Separator between the dimension-values part and the file path inside a
/// shuffle key (chosen to never appear in `format_row` output).
pub const KEY_SEP: char = '\u{1F}';

/// Build the shuffle key for an index entry: formatted dimension values
/// plus the originating file path.
pub fn dims_key(dim_values: &Row, path: &str) -> String {
    let mut k = format_row(dim_values);
    k.push(KEY_SEP);
    k.push_str(path);
    k
}

/// Split a shuffle key back into `(dimension row, path)`.
pub fn parse_dims_key(key: &str, dims_schema: &Schema) -> Result<(Row, String)> {
    let (dims_part, path) = key
        .split_once(KEY_SEP)
        .ok_or_else(|| DgfError::Corrupt(format!("malformed index key {key:?}")))?;
    Ok((parse_row(dims_part, dims_schema)?, path.to_owned()))
}

/// Schema of the dimension-values prefix of an index table.
pub fn dims_schema(base: &Schema, dims: &[String]) -> Result<Schema> {
    let names: Vec<&str> = dims.iter().map(|s| s.as_str()).collect();
    base.project(&names)
}

/// Schema of a Compact Index table: dims + `_bucketname` + `_offsets`
/// (paper Table 1).
pub fn compact_index_schema(base: &Schema, dims: &[String]) -> Result<Schema> {
    let mut fields: Vec<(String, ValueType)> = Vec::with_capacity(dims.len() + 2);
    for d in dims {
        fields.push((d.clone(), base.type_of(d)?));
    }
    fields.push(("_bucketname".to_owned(), ValueType::Str));
    fields.push(("_offsets".to_owned(), ValueType::Str));
    let pairs: Vec<(&str, ValueType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Ok(Schema::from_pairs(&pairs))
}

/// Render an offsets array as the `_offsets` column text.
pub fn format_offsets(offsets: &[u64]) -> String {
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
pub fn parse_offsets(v: &Value) -> Result<Vec<u64>> {
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
    fn key_round_trip() {
        let ds = dims_schema(&base(), &["a".into(), "b".into()]).unwrap();
        let dims: Row = vec![Value::Int(4), Value::Float(1.5)];
        let k = dims_key(&dims, "/warehouse/t/part-0");
        let (got, path) = parse_dims_key(&k, &ds).unwrap();
        assert_eq!(got, dims);
        assert_eq!(path, "/warehouse/t/part-0");
    }

    #[test]
    fn compact_schema_shape() {
        let s = compact_index_schema(&base(), &["b".into(), "a".into()]).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.field(0).name, "b");
        assert_eq!(s.field(2).name, "_bucketname");
        assert_eq!(s.field(3).vtype, ValueType::Str);
        assert!(compact_index_schema(&base(), &["zzz".into()]).is_err());
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

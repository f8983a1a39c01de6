//! Table schemas and rows, plus the delimited-text row codec used by the
//! TextFile format (Hive's default `'|'`-style delimited storage).

use std::fmt;
use std::sync::Arc;

use crate::error::{DgfError, Result};
use crate::value::{Value, ValueType};

/// The field delimiter used by the text row codec. Hive defaults to `\x01`;
/// we use `|` so files stay human-inspectable, matching TPC-H table dumps.
pub const FIELD_DELIM: char = '|';

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name (case sensitive).
    pub name: String,
    /// Column type.
    pub vtype: ValueType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, vtype: ValueType) -> Self {
        Field {
            name: name.into(),
            vtype,
        }
    }
}

/// An ordered list of fields describing a table's rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    fields: Vec<Field>,
}

/// A cheaply clonable shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema from fields. Field names must be unique.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(DgfError::Schema(format!("duplicate column {:?}", f.name)));
            }
        }
        Ok(Schema { fields })
    }

    /// Parse `"name:type,name:type"` (types: `int`, `float`, `string`,
    /// `date`) — the schema syntax used by the CLI and catalog files.
    pub fn parse(text: &str) -> Result<Schema> {
        let mut fields = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, ty) = part.split_once(':').ok_or_else(|| {
                DgfError::Schema(format!("expected name:type, found {part:?}"))
            })?;
            let vtype = match ty.trim().to_ascii_lowercase().as_str() {
                "int" | "bigint" | "integer" => ValueType::Int,
                "float" | "double" => ValueType::Float,
                "string" | "str" | "text" => ValueType::Str,
                "date" => ValueType::Date,
                other => {
                    return Err(DgfError::Schema(format!("unknown type {other:?}")))
                }
            };
            fields.push(Field::new(name.trim(), vtype));
        }
        Schema::new(fields)
    }

    /// Render in the [`parse`](Self::parse) syntax.
    pub fn to_parse_string(&self) -> String {
        self.fields
            .iter()
            .map(|f| format!("{}:{}", f.name, f.vtype))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, ValueType)]) -> Schema {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("static schema literals must have unique names")
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| DgfError::Schema(format!("no such column {name:?}")))
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// The type of the named column.
    pub fn type_of(&self, name: &str) -> Result<ValueType> {
        Ok(self.fields[self.index_of(name)?].vtype)
    }

    /// A new schema containing only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            fields.push(self.fields[self.index_of(n)?].clone());
        }
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for fld in &self.fields {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{} {}", fld.name, fld.vtype)?;
            first = false;
        }
        Ok(())
    }
}

/// A row of values, positionally aligned with a [`Schema`].
pub type Row = Vec<Value>;

/// Format a row as a delimited text line (no trailing newline).
pub fn format_row(row: &Row) -> String {
    let mut out = String::with_capacity(row.len() * 8);
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(FIELD_DELIM);
        }
        // Strings containing the delimiter would corrupt the line; the
        // generators never produce them, but fail loudly rather than corrupt.
        debug_assert!(
            !matches!(v, Value::Str(s) if s.contains(FIELD_DELIM)),
            "string value contains the field delimiter"
        );
        match v {
            Value::Null => {}
            other => {
                use std::fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
    out
}

/// Parse a delimited text line into a row following `schema`.
pub fn parse_row(line: &str, schema: &Schema) -> Result<Row> {
    let mut row = Vec::with_capacity(schema.len());
    let mut fields = line.split(FIELD_DELIM);
    for f in schema.fields() {
        let text = fields.next().ok_or_else(|| {
            DgfError::Schema(format!(
                "row has fewer than {} fields: {line:?}",
                schema.len()
            ))
        })?;
        row.push(Value::parse(text, f.vtype)?);
    }
    if fields.next().is_some() {
        return Err(DgfError::Schema(format!(
            "row has more than {} fields: {line:?}",
            schema.len()
        )));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter_schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("ts", ValueType::Date),
            ("power", ValueType::Float),
            ("note", ValueType::Str),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = meter_schema();
        assert_eq!(s.len(), 5);
        assert_eq!(s.index_of("ts").unwrap(), 2);
        assert!(s.index_of("missing").is_err());
        assert_eq!(s.type_of("power").unwrap(), ValueType::Float);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Field::new("a", ValueType::Int),
            Field::new("a", ValueType::Int),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn projection_orders_and_errors() {
        let s = meter_schema();
        let p = s.project(&["power", "user_id"]).unwrap();
        assert_eq!(p.field(0).name, "power");
        assert_eq!(p.field(1).name, "user_id");
        assert!(s.project(&["nope"]).is_err());
    }

    #[test]
    fn row_text_round_trip() {
        let s = meter_schema();
        let row: Row = vec![
            Value::Int(42),
            Value::Int(7),
            Value::Date(15706),
            Value::Float(12.34),
            Value::Str("ok".into()),
        ];
        let line = format_row(&row);
        assert_eq!(line, "42|7|2013-01-01|12.34|ok");
        assert_eq!(parse_row(&line, &s).unwrap(), row);
    }

    #[test]
    fn null_fields_round_trip() {
        let s = meter_schema();
        let row: Row = vec![
            Value::Int(1),
            Value::Null,
            Value::Date(0),
            Value::Null,
            Value::Null,
        ];
        let line = format_row(&row);
        assert_eq!(line, "1||1970-01-01||");
        assert_eq!(parse_row(&line, &s).unwrap(), row);
    }

    #[test]
    fn schema_parse_round_trip() {
        let s = Schema::parse("user_id:int, ts:date,power:float,note:string").unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.type_of("ts").unwrap(), ValueType::Date);
        assert_eq!(s.type_of("note").unwrap(), ValueType::Str);
        let rendered = s.to_parse_string();
        assert_eq!(Schema::parse(&rendered).unwrap(), s);
        assert!(Schema::parse("missing_type").is_err());
        assert!(Schema::parse("x:blob").is_err());
        assert!(Schema::parse("a:int,a:int").is_err()); // duplicates
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = meter_schema();
        assert!(parse_row("1|2", &s).is_err());
        assert!(parse_row("1|2|1970-01-01|0.5|x|extra", &s).is_err());
    }
}

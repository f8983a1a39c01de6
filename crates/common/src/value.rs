//! The dynamic value type used by rows, predicates, and aggregate states.
//!
//! Meter data and TPC-H rows are heterogeneous, so the engine works over a
//! small dynamic [`Value`] enum. Dates are carried as days since the Unix
//! epoch (`Date(i64)`), matching the paper's treatment of the collection
//! timestamp as an indexable dimension with a day-granularity interval.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DgfError, Result};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Days since the Unix epoch.
    Date,
}

impl ValueType {
    /// Whether a column of this type can hold `v`: NULL, or a value of
    /// this type, and a float that is not NaN. The one rule every writer
    /// checks a cell against and every reader decodes a column by.
    pub fn admits(self, v: &Value) -> bool {
        match (v, self) {
            (Value::Null, _) => true,
            (Value::Float(x), ValueType::Float) => !x.is_nan(),
            (Value::Int(_), ValueType::Int)
            | (Value::Str(_), ValueType::Str)
            | (Value::Date(_), ValueType::Date) => true,
            _ => false,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "string",
            ValueType::Date => "date",
        };
        f.write_str(s)
    }
}

/// A dynamically typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent value (empty text field).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float. NaN is rejected at parse time so `Value` forms a
    /// total order.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since the Unix epoch.
    Date(i64),
}

impl Value {
    /// Interpret the value as a number for grid standardization and
    /// arithmetic aggregates. Dates map to their day number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            Value::Date(v) => Ok(*v as f64),
            other => Err(DgfError::Query(format!("value {other} is not numeric"))),
        }
    }

    /// Interpret the value as an integer (dates map to day numbers).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Date(v) => Ok(*v),
            other => Err(DgfError::Query(format!("value {other} is not an integer"))),
        }
    }

    /// Borrow the value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DgfError::Query(format!("value {other} is not a string"))),
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parse a text field into a value of type `ty`. Empty text parses to
    /// `Null` (Hive semantics for missing fields).
    pub fn parse(text: &str, ty: ValueType) -> Result<Value> {
        if text.is_empty() {
            return Ok(Value::Null);
        }
        match ty {
            ValueType::Int => text
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| DgfError::Schema(format!("bad int {text:?}: {e}"))),
            ValueType::Float => {
                let v: f64 = text
                    .parse()
                    .map_err(|e| DgfError::Schema(format!("bad float {text:?}: {e}")))?;
                if v.is_nan() {
                    return Err(DgfError::Schema("NaN is not a valid float value".into()));
                }
                Ok(Value::Float(v))
            }
            ValueType::Str => Ok(Value::Str(text.to_owned())),
            ValueType::Date => parse_date(text).map(Value::Date),
        }
    }

    /// Compare two values of the same type. `Null` sorts before everything.
    /// Cross-type numeric comparison (int vs float vs date) compares as f64.
    pub fn cmp_value(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => {
                let (Ok(x), Ok(y)) = (a.as_f64(), b.as_f64()) else {
                    // Mixed string/number: order by type tag for determinism.
                    return type_rank(a).cmp(&type_rank(b));
                };
                // NaN is rejected at construction, so partial_cmp is total here.
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 1,
        Value::Date(_) => 1,
        Value::Str(_) => 2,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(v) => write!(f, "{v}"),
            // `{:?}` prints the shortest decimal that round-trips through
            // `parse::<f64>()`, which Display does not guarantee for
            // subnormal-range magnitudes.
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
}

const DAYS_PER_400Y: i64 = 146_097;
const DAYS_PER_100Y: i64 = 36_524;
const DAYS_PER_4Y: i64 = 1_461;

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: i64) -> i64 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Parse `YYYY-MM-DD` into days since 1970-01-01 (proleptic Gregorian).
pub fn parse_date(text: &str) -> Result<i64> {
    let bad = || DgfError::Schema(format!("bad date {text:?}, expected YYYY-MM-DD"));
    let mut parts = text.splitn(3, '-');
    let y: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let m: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let d: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
        return Err(bad());
    }
    // Days from year 1 to `y` (exclusive), then month/day offsets.
    let prev = y - 1;
    let mut days = prev * 365 + prev / 4 - prev / 100 + prev / 400;
    for mm in 1..m {
        days += days_in_month(y, mm);
    }
    days += d - 1;
    // 1970-01-01 is day 719162 from year 1.
    Ok(days - 719_162)
}

/// Format days since 1970-01-01 as `YYYY-MM-DD`.
pub fn format_date(epoch_days: i64) -> String {
    let mut days = epoch_days + 719_162; // days since year 1, day 0 = 0001-01-01
    let mut year = 1i64;
    let n400 = days.div_euclid(DAYS_PER_400Y);
    year += 400 * n400;
    days -= n400 * DAYS_PER_400Y;
    let mut n100 = days / DAYS_PER_100Y;
    if n100 == 4 {
        n100 = 3; // last day of a 400-year cycle
    }
    year += 100 * n100;
    days -= n100 * DAYS_PER_100Y;
    let n4 = days / DAYS_PER_4Y;
    year += 4 * n4;
    days -= n4 * DAYS_PER_4Y;
    let mut n1 = days / 365;
    if n1 == 4 {
        n1 = 3; // last day of a 4-year cycle
    }
    year += n1;
    days -= n1 * 365;
    let mut month = 1i64;
    while days >= days_in_month(year, month) {
        days -= days_in_month(year, month);
        month += 1;
    }
    format!("{year:04}-{month:02}-{:02}", days + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_typed_values() {
        assert_eq!(Value::parse("42", ValueType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            Value::parse("-3.5", ValueType::Float).unwrap(),
            Value::Float(-3.5)
        );
        assert_eq!(
            Value::parse("abc", ValueType::Str).unwrap(),
            Value::Str("abc".into())
        );
        assert_eq!(Value::parse("", ValueType::Int).unwrap(), Value::Null);
        assert!(Value::parse("x", ValueType::Int).is_err());
        assert!(Value::parse("NaN", ValueType::Float).is_err());
    }

    #[test]
    fn a_column_admits_null_and_its_own_type() {
        let vals = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Str("1".into()),
            Value::Date(1),
        ];
        let types = [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Date];
        for (i, ty) in types.into_iter().enumerate() {
            assert!(ty.admits(&Value::Null), "{ty}");
            for (j, v) in vals.iter().enumerate() {
                assert_eq!(ty.admits(v), i == j, "{ty} {v:?}");
            }
        }
        assert!(!ValueType::Float.admits(&Value::Float(f64::NAN)));
    }

    #[test]
    fn date_round_trips_known_values() {
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
        assert_eq!(parse_date("1969-12-31").unwrap(), -1);
        assert_eq!(parse_date("2013-01-01").unwrap(), 15706);
        assert_eq!(format_date(15706), "2013-01-01");
        assert_eq!(format_date(0), "1970-01-01");
        // Leap handling.
        assert_eq!(
            parse_date("2000-03-01").unwrap() - parse_date("2000-02-28").unwrap(),
            2
        );
        assert_eq!(
            parse_date("1900-03-01").unwrap() - parse_date("1900-02-28").unwrap(),
            1
        );
    }

    #[test]
    fn date_rejects_malformed() {
        assert!(parse_date("2013-13-01").is_err());
        assert!(parse_date("2013-02-30").is_err());
        assert!(parse_date("20130201").is_err());
    }

    #[test]
    fn ordering_is_sane() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Int(2) > Value::Float(1.5));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Date(10) < Value::Date(11));
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Date(15706).to_string(), "2013-01-01");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Date(5).as_i64().unwrap(), 5);
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
    }
}

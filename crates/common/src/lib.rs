//! # dgf-common
//!
//! Shared foundation for the DGFIndex reproduction: dynamic values and
//! schemas ([`value`], [`schema`]), error types ([`error`]), binary and
//! order-preserving codecs ([`codec`]), I/O counters ([`stats`]),
//! deterministic fault injection and retry policies ([`fault`]), the
//! observability layer — span-based tracing and the unified metrics
//! registry ([`obs`]) — and a temp-dir utility ([`tempdir`]).
//!
//! Everything downstream (`dgf-storage`, `dgf-format`, `dgf-query`,
//! `dgf-core`, …) builds on these types; nothing here knows about grids,
//! indexes, or MapReduce.
//!
//! The observability layer in one breath — spans time stages, counters
//! attach to the stage that incurred them, and the profile renders as a
//! tree (see [`obs`] for the full model):
//!
//! ```
//! use dgf_common::{MetricsRegistry, Profiler};
//!
//! let profiler = Profiler::enabled();
//! let span = profiler.span("query");
//! let child = span.child("query.scan");
//! child.add("hdfs.bytes_read", 4096);
//! child.finish();
//! span.finish();
//!
//! let profile = profiler.take_profile();
//! assert_eq!(profile.metric_total("hdfs.bytes_read"), 4096);
//! assert!(profile.check_nesting().is_empty());
//!
//! let registry = MetricsRegistry::new();
//! registry.add("hdfs.bytes_read", 4096);
//! assert_eq!(registry.get("hdfs.bytes_read"), 4096);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod error;
pub mod fault;
pub mod obs;
pub mod schema;
pub mod stats;
pub mod tempdir;
pub mod value;

pub use batch::{Column, ColumnBatch, ColumnData, NullMask, Selection};
pub use error::{run_scoped, DgfError, Result};
pub use fault::{FaultConfig, FaultPlan, RetryPolicy, TransientFault};
pub use obs::{MetricsRegistry, ProfileNode, Profiler, QueryProfile, SpanGuard, TraceFilter};
pub use schema::{format_row, parse_row, Field, Row, Schema, SchemaRef, FIELD_DELIM};
pub use stats::{
    Counter, IoSnapshot, IoStats, IoStatsRef, ScanSnapshot, ScanStats, ScanStatsRef, Stopwatch,
};
pub use tempdir::TempDir;
pub use value::{format_date, parse_date, Value, ValueType};

#[cfg(test)]
mod proptests {
    use crate::codec::{self, Decoder};
    use crate::value::{format_date, parse_date, Value};
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only: NaN is rejected by the parser on purpose.
            prop::num::f64::NORMAL.prop_map(Value::Float),
            "[a-zA-Z0-9 _.,-]{0,24}".prop_map(Value::Str),
            (-200_000i64..200_000).prop_map(Value::Date),
        ]
    }

    proptest! {
        #[test]
        fn value_codec_round_trips(vals in prop::collection::vec(arb_value(), 0..16)) {
            let mut buf = Vec::new();
            for v in &vals {
                codec::put_value(&mut buf, v);
            }
            let mut d = Decoder::new(&buf);
            for v in &vals {
                prop_assert_eq!(&codec::get_value(&mut d).unwrap(), v);
            }
            prop_assert_eq!(d.remaining(), 0);
        }

        #[test]
        fn key_i64_order_preserving(a in any::<i64>(), b in any::<i64>()) {
            let mut ka = Vec::new();
            let mut kb = Vec::new();
            codec::encode_key_i64(&mut ka, a);
            codec::encode_key_i64(&mut kb, b);
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }

        #[test]
        fn date_round_trips(d in -200_000i64..200_000) {
            prop_assert_eq!(parse_date(&format_date(d)).unwrap(), d);
        }

        #[test]
        fn row_text_round_trips(
            i in any::<i64>(),
            f in prop::num::f64::NORMAL,
            // Non-empty: an empty text field deliberately parses back as Null.
            s in "[a-zA-Z0-9 ]{1,16}",
            d in -100_000i64..100_000,
        ) {
            use crate::schema::{format_row, parse_row, Schema};
            use crate::value::ValueType;
            let schema = Schema::from_pairs(&[
                ("a", ValueType::Int),
                ("b", ValueType::Float),
                ("c", ValueType::Str),
                ("d", ValueType::Date),
            ]);
            let row = vec![Value::Int(i), Value::Float(f), Value::Str(s), Value::Date(d)];
            let parsed = parse_row(&format_row(&row), &schema).unwrap();
            prop_assert_eq!(&parsed[0], &row[0]);
            prop_assert_eq!(&parsed[2], &row[2]);
            prop_assert_eq!(&parsed[3], &row[3]);
            // Floats round-trip through shortest-display representation.
            let (Value::Float(x), Value::Float(y)) = (&parsed[1], &row[1]) else {
                return Err(TestCaseError::Fail("expected floats".into()));
            };
            prop_assert_eq!(x, y);
        }
    }
}

//! # dgf-query
//!
//! Query semantics shared by every engine in the DGFIndex reproduction:
//!
//! * [`predicate`] — conjunctive per-column range predicates (the paper's
//!   MDRQ `WHERE` clauses);
//! * [`agg`] — additive aggregate functions with mergeable, serializable
//!   states (the payload of DGFIndex's pre-computed GFU headers);
//! * [`exact`] — the exact sum behind SUM, AVG and UDF states, which
//!   merges in any order to the same bits;
//! * [`spec`] — the four query shapes of the paper's workload and their
//!   results;
//! * [`exec`] — the [`RowSink`] evaluator all engines feed rows into, so
//!   scan, Hive-index, DGFIndex and HadoopDB execution can only differ in
//!   *which rows they read*, never in what they compute.

#![warn(missing_docs)]

pub mod agg;
pub mod engine;
pub mod exact;
pub mod exec;
pub mod parse;
pub mod predicate;
pub mod spec;

pub use agg::{AdditiveUdf, AggFunc, AggPartials, AggSet, AggState, SumProductUdf};
pub use engine::{Engine, EngineRun, RunStats};
pub use exact::ExactSum;
pub use exec::{JoinTable, RowSink};
pub use parse::{parse_aggs, parse_predicate, parse_query};
pub use predicate::{require_range, BoundPredicate, ColumnRange, Predicate};
pub use spec::{Query, QueryResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use dgf_common::{Row, Schema, Value, ValueType};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Float)])
    }

    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        prop::collection::vec(
            (0i64..20, -100.0f64..100.0).prop_map(|(k, v)| {
                vec![Value::Int(k), Value::Float((v * 100.0).round() / 100.0)]
            }),
            0..60,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Aggregation over any split of the row stream, merged, equals
        /// the sequential fold — the additivity property DGFIndex relies
        /// on for its pre-computed headers.
        #[test]
        fn sink_merge_is_additive(rows in arb_rows(), cut_frac in 0.0f64..1.0) {
            let s = schema();
            let q = Query::Aggregate {
                aggs: vec![
                    AggFunc::Count,
                    AggFunc::Sum("v".into()),
                    AggFunc::Min("v".into()),
                    AggFunc::Max("v".into()),
                    AggFunc::Avg("v".into()),
                ],
                predicate: Predicate::all(),
            };
            let mut seq = RowSink::new(&q, &s, None).unwrap();
            for r in &rows {
                seq.push(r).unwrap();
            }
            let cut = ((rows.len() as f64) * cut_frac) as usize;
            let mut a = RowSink::new(&q, &s, None).unwrap();
            let mut b = RowSink::new(&q, &s, None).unwrap();
            for r in &rows[..cut] {
                a.push(r).unwrap();
            }
            for r in &rows[cut..] {
                b.push(r).unwrap();
            }
            a.merge(b).unwrap();
            prop_assert_eq!(a.finish(), seq.finish());
        }

        /// Header round trip: fold rows, encode the states, decode, merge
        /// into an empty sink — same answer as direct folding.
        #[test]
        fn header_round_trip_preserves_aggregates(rows in arb_rows()) {
            let s = schema();
            let aggs = vec![AggFunc::Count, AggFunc::Sum("v".into())];
            let q = Query::Aggregate { aggs: aggs.clone(), predicate: Predicate::all() };
            let set = AggSet::bind(&aggs, &s).unwrap();
            let mut states = set.new_states();
            for r in &rows {
                set.update(&mut states, r, &s).unwrap();
            }
            let header = AggSet::encode_states(&states);

            let mut sink = RowSink::new(&q, &s, None).unwrap();
            let decoded = sink.agg_set().unwrap().decode_states(&header).unwrap();
            sink.merge_agg_states(&AggPartials::Scalar(decoded)).unwrap();

            let mut direct = RowSink::new(&q, &s, None).unwrap();
            for r in &rows {
                direct.push(r).unwrap();
            }
            prop_assert_eq!(sink.finish(), direct.finish());
        }

        /// Predicate evaluation matches the mathematical interval.
        #[test]
        fn range_matches_interval(lo in -50i64..50, width in 0i64..40, x in -60i64..60) {
            let hi = lo + width;
            let r = ColumnRange::half_open(Value::Int(lo), Value::Int(hi));
            prop_assert_eq!(r.contains(&Value::Int(x)), x >= lo && x < hi);
        }

        /// Intersection of two intervals contains exactly the values both
        /// contain.
        #[test]
        fn intersect_is_conjunction(
            a_lo in -20i64..20, a_w in 0i64..20,
            b_lo in -20i64..20, b_w in 0i64..20,
            x in -25i64..45,
        ) {
            let a = ColumnRange::half_open(Value::Int(a_lo), Value::Int(a_lo + a_w));
            let b = ColumnRange::half_open(Value::Int(b_lo), Value::Int(b_lo + b_w));
            let i = a.intersect(&b);
            let v = Value::Int(x);
            prop_assert_eq!(i.contains(&v), a.contains(&v) && b.contains(&v));
        }
    }
}

//! Query specifications and results.
//!
//! The paper's workload is four query shapes over one fact table
//! (Listings 2, 4, 5, 6 and 7): multidimensional-range **aggregation**,
//! **GROUP BY** aggregation, **JOIN** against a small archive table, and
//! plain **selection**. Every engine in this workspace (scan, Hive indexes,
//! DGFIndex, HadoopDB) consumes the same [`Query`] type and produces the
//! same [`QueryResult`], which is what lets the test suite assert that all
//! engines agree with a full-scan ground truth.

use std::fmt;

use dgf_common::{Row, Value};

use crate::agg::AggFunc;
use crate::predicate::Predicate;

/// A query against a fact table.
#[derive(Debug, Clone)]
pub enum Query {
    /// `SELECT agg1, agg2, … FROM t WHERE <ranges>` (paper Listing 4).
    Aggregate {
        /// Aggregates to compute.
        aggs: Vec<AggFunc>,
        /// Conjunctive range predicate.
        predicate: Predicate,
    },
    /// `SELECT key, aggs… FROM t WHERE <ranges> GROUP BY key`
    /// (paper Listing 5).
    GroupBy {
        /// Grouping column.
        key: String,
        /// Aggregates per group.
        aggs: Vec<AggFunc>,
        /// Conjunctive range predicate.
        predicate: Predicate,
    },
    /// `SELECT right.proj…, left.proj… FROM t JOIN r ON t.k = r.k WHERE …`
    /// (paper Listing 6: meterdata ⋈ userInfo).
    Join {
        /// Join column on the fact table.
        left_key: String,
        /// Join column on the (small) dimension table.
        right_key: String,
        /// Columns projected from the fact table.
        left_project: Vec<String>,
        /// Columns projected from the dimension table.
        right_project: Vec<String>,
        /// Predicate on the fact table.
        predicate: Predicate,
    },
    /// `SELECT proj… FROM t WHERE <ranges>`.
    Select {
        /// Projected columns (empty = all).
        project: Vec<String>,
        /// Conjunctive range predicate.
        predicate: Predicate,
    },
}

impl Query {
    /// The predicate of any query shape.
    pub fn predicate(&self) -> &Predicate {
        match self {
            Query::Aggregate { predicate, .. }
            | Query::GroupBy { predicate, .. }
            | Query::Join { predicate, .. }
            | Query::Select { predicate, .. } => predicate,
        }
    }
}

/// The result of running a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// One value per aggregate.
    Scalars(Vec<Value>),
    /// `(group key, aggregate values)` sorted by key.
    Groups(Vec<(Value, Vec<Value>)>),
    /// Projected rows (order unspecified).
    Rows(Vec<Row>),
}

impl QueryResult {
    /// Unwrap scalars.
    pub fn into_scalars(self) -> Vec<Value> {
        match self {
            QueryResult::Scalars(v) => v,
            other => panic!("expected scalar result, got {other:?}"),
        }
    }

    /// Unwrap groups.
    pub fn into_groups(self) -> Vec<(Value, Vec<Value>)> {
        match self {
            QueryResult::Groups(g) => g,
            other => panic!("expected grouped result, got {other:?}"),
        }
    }

    /// Unwrap rows.
    pub fn into_rows(self) -> Vec<Row> {
        match self {
            QueryResult::Rows(r) => r,
            other => panic!("expected row result, got {other:?}"),
        }
    }

    /// Canonicalize for comparison across engines: sorts rows/groups.
    pub fn normalized(mut self) -> QueryResult {
        match &mut self {
            QueryResult::Rows(rows) => {
                rows.sort_by(|a, b| a.iter().cmp(b.iter()));
            }
            QueryResult::Groups(groups) => {
                groups.sort_by(|a, b| a.0.cmp(&b.0));
            }
            QueryResult::Scalars(_) => {}
        }
        self
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryResult::Scalars(v) => {
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            QueryResult::Groups(g) => write!(f, "{} groups", g.len()),
            QueryResult::Rows(r) => write!(f, "{} rows", r.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::ColumnRange;

    #[test]
    fn predicate_accessor_covers_all_shapes() {
        let p = Predicate::all().and("a", ColumnRange::eq(Value::Int(1)));
        let qs = vec![
            Query::Aggregate {
                aggs: vec![AggFunc::Count],
                predicate: p.clone(),
            },
            Query::GroupBy {
                key: "a".into(),
                aggs: vec![AggFunc::Count],
                predicate: p.clone(),
            },
            Query::Join {
                left_key: "a".into(),
                right_key: "a".into(),
                left_project: vec![],
                right_project: vec![],
                predicate: p.clone(),
            },
            Query::Select {
                project: vec![],
                predicate: p.clone(),
            },
        ];
        for q in &qs {
            assert_eq!(q.predicate(), &p);
        }
    }

    #[test]
    fn normalized_sorts() {
        let r = QueryResult::Rows(vec![vec![Value::Int(2)], vec![Value::Int(1)]]).normalized();
        assert_eq!(
            r,
            QueryResult::Rows(vec![vec![Value::Int(1)], vec![Value::Int(2)]])
        );
        let g = QueryResult::Groups(vec![
            (Value::Int(2), vec![]),
            (Value::Int(1), vec![]),
        ])
        .normalized();
        assert_eq!(g.clone().into_groups()[0].0, Value::Int(1));
    }
}

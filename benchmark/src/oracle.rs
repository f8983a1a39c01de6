//! The brute-force oracle.
//!
//! It holds compact copies of the four generated columns a query can
//! touch (plus the `user_info` names) and answers a [`QuerySpec`] by
//! testing every row, sharing no code with the program under test. Rows
//! are kept in arrival order (day-major), so "the table after `n` rows
//! have arrived" is the prefix `..n` — which is how `ingest-churn`
//! checks queries issued while rows are still streaming in.

use std::collections::BTreeMap;

use crate::gen::{Kind, QuerySpec};

/// Compact copies of the generated columns, in arrival order.
#[derive(Debug, Default)]
pub struct Columns {
    pub user_id: Vec<i64>,
    pub region_id: Vec<i64>,
    /// Day offset from the first generated day.
    pub day: Vec<i64>,
    pub power: Vec<f64>,
    /// `user_info.user_name`, indexed by user id.
    pub user_name: Vec<String>,
}

/// A query answer in the benchmark's own terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// One value per aggregate.
    Scalars(Vec<f64>),
    /// `(day offset, aggregates)`, sorted by day.
    Groups(Vec<(i64, Vec<f64>)>),
    /// `(user_name, power_consumed)` as a sorted multiset.
    Rows(Vec<(String, f64)>),
}

/// Sort join rows into the canonical multiset order.
pub fn sort_rows(rows: &mut [(String, f64)]) {
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
}

impl Columns {
    pub fn rows(&self) -> usize {
        self.user_id.len()
    }

    /// Answer `q` over the first `n_rows` rows.
    pub fn answer(&self, q: &QuerySpec, n_rows: usize) -> Answer {
        let hits = (0..n_rows).filter(|&i| {
            q.users
                .is_none_or(|(lo, hi)| lo <= self.user_id[i] && self.user_id[i] < hi)
                && q.regions.0 <= self.region_id[i]
                && self.region_id[i] < q.regions.1
                && q.days.0 <= self.day[i]
                && self.day[i] < q.days.1
        });
        match q.kind {
            Kind::Sum => Answer::Scalars(vec![hits.map(|i| self.power[i]).sum()]),
            Kind::SumCount => {
                let (sum, count) = hits.fold((0.0, 0u64), |(s, c), i| (s + self.power[i], c + 1));
                Answer::Scalars(vec![sum, count as f64])
            }
            Kind::SumByDay => {
                let mut groups: BTreeMap<i64, f64> = BTreeMap::new();
                for i in hits {
                    *groups.entry(self.day[i]).or_default() += self.power[i];
                }
                Answer::Groups(groups.into_iter().map(|(d, s)| (d, vec![s])).collect())
            }
            Kind::JoinUserName => {
                let mut rows: Vec<(String, f64)> = hits
                    .map(|i| {
                        (
                            self.user_name[self.user_id[i] as usize].clone(),
                            self.power[i],
                        )
                    })
                    .collect();
                sort_rows(&mut rows);
                Answer::Rows(rows)
            }
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

impl Answer {
    /// Oracle agreement: aggregates within 1e-6 relative (the program
    /// sums in its own order), group keys and join rows exactly.
    pub fn agrees_with(&self, oracle: &Answer) -> bool {
        let all_close = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
        };
        match (self, oracle) {
            (Answer::Scalars(a), Answer::Scalars(b)) => all_close(a, b),
            (Answer::Groups(a), Answer::Groups(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && all_close(va, vb))
            }
            (Answer::Rows(a), Answer::Rows(b)) => a == b,
            _ => false,
        }
    }

    /// Bit-for-bit equality: what two runs of the same query on the same
    /// index state must satisfy.
    pub fn same_bits(&self, other: &Answer) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match (self, other) {
            (Answer::Scalars(a), Answer::Scalars(b)) => bits(a, b),
            (Answer::Groups(a), Answer::Groups(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && bits(va, vb))
            }
            (Answer::Rows(a), Answer::Rows(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Class;

    fn columns() -> Columns {
        // 4 users x 2 regions x 3 days, power = 10·day + user.
        let mut c = Columns::default();
        for day in 0..3 {
            for user in 0..4 {
                c.user_id.push(user);
                c.region_id.push(user % 2);
                c.day.push(day);
                c.power.push((10 * day + user) as f64);
            }
        }
        c.user_name = (0..4).map(|u| format!("u{u}")).collect();
        c
    }

    fn spec(
        kind: Kind,
        users: Option<(i64, i64)>,
        regions: (i64, i64),
        days: (i64, i64),
    ) -> QuerySpec {
        QuerySpec {
            class: Class::Agg5pct,
            kind,
            users,
            regions,
            days,
        }
    }

    #[test]
    fn answers_every_kind_by_testing_every_row() {
        let c = columns();
        let q = spec(Kind::SumCount, Some((1, 3)), (0, 2), (1, 3));
        // users 1,2 on days 1,2: 11 + 12 + 21 + 22.
        assert_eq!(c.answer(&q, c.rows()), Answer::Scalars(vec![66.0, 4.0]));
        // Only the first 8 rows (days 0 and 1) have arrived.
        assert_eq!(c.answer(&q, 8), Answer::Scalars(vec![23.0, 2.0]));

        let q = spec(Kind::SumByDay, None, (1, 2), (0, 2));
        assert_eq!(
            c.answer(&q, c.rows()),
            Answer::Groups(vec![(0, vec![4.0]), (1, vec![24.0])])
        );

        let q = spec(Kind::JoinUserName, Some((2, 4)), (0, 2), (2, 3));
        assert_eq!(
            c.answer(&q, c.rows()),
            Answer::Rows(vec![("u2".into(), 22.0), ("u3".into(), 23.0)])
        );
    }

    #[test]
    fn agreement_is_tolerant_and_bit_equality_is_not() {
        let a = Answer::Scalars(vec![1_000_000.0]);
        let b = Answer::Scalars(vec![1_000_000.000_1]);
        assert!(a.agrees_with(&b));
        assert!(!a.same_bits(&b));
        assert!(!a.agrees_with(&Answer::Scalars(vec![1_000_002.0])));
        assert!(!a.agrees_with(&Answer::Groups(vec![])));
    }
}

//! Selectivity-controlled query builders for the meter workload.
//!
//! The paper evaluates every engine at three selectivities: **point**,
//! **5 %**, and **12 %** (§5.2: "In each kind of query, we change the
//! selectivity"). The queries constrain `userId`, `regionId`, and `time`
//! (Listings 4–6); the partial query (Listing 7) drops the `userId`
//! condition.

use dgf_common::Value;
use dgf_query::{AggFunc, ColumnRange, Predicate, Query};

use crate::meter::MeterConfig;

/// A query selectivity target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selectivity {
    /// One (user, region, day) point — the paper's "point query".
    Point,
    /// A fraction of the table, e.g. `0.05` or `0.12`.
    Frac(f64),
}

impl Selectivity {
    /// The paper's three settings.
    pub fn paper_settings() -> [Selectivity; 3] {
        [
            Selectivity::Point,
            Selectivity::Frac(0.05),
            Selectivity::Frac(0.12),
        ]
    }

    /// Label used in bench tables.
    pub fn label(&self) -> String {
        match self {
            Selectivity::Point => "point".to_owned(),
            Selectivity::Frac(f) => format!("{:.0}%", f * 100.0),
        }
    }
}

/// The `(userId, time)` ranges hitting a target selectivity.
///
/// Regions are left unconstrained-in-range (the paper's `regionId>r1 and
/// regionId<r2` spans most regions); selectivity is split between the
/// time window (≈ √sel of the days) and the user range (the rest), so
/// both dimensions materially constrain the query, as in the paper.
pub fn meter_ranges(cfg: &MeterConfig, sel: Selectivity) -> MeterRanges {
    match sel {
        Selectivity::Point => MeterRanges {
            user_lo: cfg.users as i64 / 2,
            user_hi: cfg.users as i64 / 2 + 1,
            day_lo: cfg.start_day + cfg.days as i64 / 2,
            day_hi: cfg.start_day + cfg.days as i64 / 2 + 1,
            point: true,
        },
        Selectivity::Frac(f) => {
            let f = f.clamp(0.0, 1.0);
            let day_frac = f.sqrt();
            let days = ((cfg.days as f64 * day_frac).ceil() as i64).clamp(1, cfg.days as i64);
            let user_frac = (f / (days as f64 / cfg.days as f64)).min(1.0);
            let users = ((cfg.users as f64 * user_frac).round() as i64).clamp(1, cfg.users as i64);
            // Center both windows so they are representative.
            let user_lo = (cfg.users as i64 - users) / 2;
            let day_lo = cfg.start_day + (cfg.days as i64 - days) / 2;
            MeterRanges {
                user_lo,
                user_hi: user_lo + users,
                day_lo,
                day_hi: day_lo + days,
                point: false,
            }
        }
    }
}

/// Concrete ranges for one selectivity setting.
#[derive(Debug, Clone, Copy)]
pub struct MeterRanges {
    /// Inclusive lower user id.
    pub user_lo: i64,
    /// Exclusive upper user id.
    pub user_hi: i64,
    /// Inclusive first day.
    pub day_lo: i64,
    /// Exclusive last day.
    pub day_hi: i64,
    /// Whether this is the point setting.
    pub point: bool,
}

impl MeterRanges {
    /// The MDRQ predicate over (userId, regionId, time).
    pub fn predicate(&self, cfg: &MeterConfig) -> Predicate {
        Predicate::all()
            .and(
                "user_id",
                ColumnRange::half_open(Value::Int(self.user_lo), Value::Int(self.user_hi)),
            )
            .and(
                "region_id",
                // The paper's regionId>r1 AND regionId<r2: nearly all regions.
                ColumnRange::half_open(Value::Int(0), Value::Int(cfg.regions as i64)),
            )
            .and(
                "ts",
                ColumnRange::half_open(Value::Date(self.day_lo), Value::Date(self.day_hi)),
            )
    }

    /// Exact fraction of rows selected (uniform users × days).
    pub fn exact_selectivity(&self, cfg: &MeterConfig) -> f64 {
        let users = (self.user_hi - self.user_lo).max(0) as f64 / cfg.users as f64;
        let days = (self.day_hi - self.day_lo).max(0) as f64 / cfg.days as f64;
        users * days
    }
}

/// Listing 4: `SELECT sum(powerConsumed) … WHERE region ∧ user ∧ time`.
pub fn aggregation_query(cfg: &MeterConfig, sel: Selectivity) -> Query {
    Query::Aggregate {
        aggs: vec![AggFunc::Sum("power_consumed".into())],
        predicate: meter_ranges(cfg, sel).predicate(cfg),
    }
}

/// Listing 5: `SELECT time, sum(powerConsumed) … GROUP BY time`.
pub fn group_by_query(cfg: &MeterConfig, sel: Selectivity) -> Query {
    Query::GroupBy {
        key: "ts".into(),
        aggs: vec![AggFunc::Sum("power_consumed".into())],
        predicate: meter_ranges(cfg, sel).predicate(cfg),
    }
}

/// Listing 6: `SELECT t2.userName, t1.powerConsumed FROM meterdata JOIN
/// userInfo …`.
pub fn join_query(cfg: &MeterConfig, sel: Selectivity) -> Query {
    Query::Join {
        left_key: "user_id".into(),
        right_key: "user_id".into(),
        left_project: vec!["power_consumed".into()],
        right_project: vec!["user_name".into()],
        predicate: meter_ranges(cfg, sel).predicate(cfg),
    }
}

/// Listing 7: the partially-specified query — `regionId = r AND time = d`
/// with no userId condition.
pub fn partial_query(cfg: &MeterConfig) -> Query {
    Query::Aggregate {
        aggs: vec![AggFunc::Sum("power_consumed".into())],
        predicate: Predicate::all()
            .and("region_id", ColumnRange::eq(Value::Int(cfg.regions as i64 - 1)))
            .and(
                "ts",
                ColumnRange::eq(Value::Date(cfg.start_day + cfg.days as i64 - 1)),
            ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{generate_meter_data, meter_schema};

    fn cfg() -> MeterConfig {
        MeterConfig {
            users: 400,
            days: 30,
            ..MeterConfig::default()
        }
    }

    #[test]
    fn fractional_selectivity_is_close_to_target() {
        let cfg = cfg();
        for target in [0.05, 0.12, 0.3] {
            let r = meter_ranges(&cfg, Selectivity::Frac(target));
            let got = r.exact_selectivity(&cfg);
            assert!(
                (got - target).abs() / target < 0.25,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn measured_selectivity_matches_computed() {
        let cfg = cfg();
        let rows = generate_meter_data(&cfg);
        let schema = meter_schema();
        let r = meter_ranges(&cfg, Selectivity::Frac(0.12));
        let bound = r.predicate(&cfg).bind(&schema).unwrap();
        let hits = rows.iter().filter(|row| bound.matches(row)).count() as f64;
        let measured = hits / rows.len() as f64;
        assert!(
            (measured - r.exact_selectivity(&cfg)).abs() < 1e-9,
            "measured {measured}"
        );
    }

    #[test]
    fn point_query_selects_one_row_per_reading() {
        let cfg = cfg();
        let rows = generate_meter_data(&cfg);
        let schema = meter_schema();
        let r = meter_ranges(&cfg, Selectivity::Point);
        assert!(r.point);
        let bound = r.predicate(&cfg).bind(&schema).unwrap();
        assert_eq!(rows.iter().filter(|row| bound.matches(row)).count(), 1);
    }

    #[test]
    fn query_builders_produce_expected_shapes() {
        let cfg = cfg();
        assert!(matches!(
            aggregation_query(&cfg, Selectivity::Point),
            Query::Aggregate { .. }
        ));
        assert!(matches!(
            group_by_query(&cfg, Selectivity::Frac(0.05)),
            Query::GroupBy { .. }
        ));
        assert!(matches!(
            join_query(&cfg, Selectivity::Frac(0.05)),
            Query::Join { .. }
        ));
        let partial = partial_query(&cfg);
        assert!(partial.predicate().range_of("user_id").is_none());
        assert!(partial.predicate().range_of("ts").is_some());
    }

    #[test]
    fn labels() {
        assert_eq!(Selectivity::Point.label(), "point");
        assert_eq!(Selectivity::Frac(0.05).label(), "5%");
        assert_eq!(Selectivity::paper_settings().len(), 3);
    }
}

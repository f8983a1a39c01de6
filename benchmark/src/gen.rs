//! Seeded query generation.
//!
//! A query is plain data here ([`QuerySpec`]): the program under test
//! only ever sees what `sut.rs` turns it into. Windows keep the paper's
//! shape — `days = ceil(D·√f)` of the `D` loaded days, users filling the
//! rest of selectivity `f`, every region (Listing 4) — but are placed
//! uniformly at random, and both ends of every user window fall strictly
//! inside a grid cell, so every range query has a boundary region to
//! scan as well as an inner region answered from headers. Within one list
//! the windows of a class are stratified: the `k`-th of `n` starts in a
//! randomly assigned `n`-th of the user range and of the day range, so
//! every seed spreads its windows over the whole table and how much they
//! overlap — which decides what a cache keeps — differs little from seed
//! to seed.

/// SplitMix64: the benchmark's own generator, so query lists depend on
/// nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform in the `k`-th of `n` equal slices of `lo..hi`.
    fn stratum(&mut self, (k, n): (usize, usize), lo: i64, hi: i64) -> i64 {
        let (k, n, span) = (k as i64, n as i64, hi - lo);
        let from = lo + span * k / n;
        self.range(from, (lo + span * (k + 1) / n).max(from + 1))
    }

    /// A random order of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as i64 + 1) as usize);
        }
    }
}

/// The query classes of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    AggPoint,
    Agg5pct,
    Agg12pct,
    Partial,
    Groupby5pct,
    Groupby12pct,
    Join5pct,
    ChurnRecent,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::AggPoint,
        Class::Agg5pct,
        Class::Agg12pct,
        Class::Partial,
        Class::Groupby5pct,
        Class::Groupby12pct,
        Class::Join5pct,
        Class::ChurnRecent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::AggPoint => "agg_point",
            Class::Agg5pct => "agg_5pct",
            Class::Agg12pct => "agg_12pct",
            Class::Partial => "partial",
            Class::Groupby5pct => "groupby_5pct",
            Class::Groupby12pct => "groupby_12pct",
            Class::Join5pct => "join_5pct",
            Class::ChurnRecent => "churn_recent",
        }
    }
}

/// What a query computes over the rows its window selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SUM(power_consumed)` (Listings 4 and 7).
    Sum,
    /// `SUM(power_consumed), COUNT(*)`.
    SumCount,
    /// `SUM(power_consumed) GROUP BY ts` (Listing 5).
    SumByDay,
    /// `user_name, power_consumed` joined on `user_id` (Listing 6).
    JoinUserName,
}

/// One query: half-open windows over the three grid dimensions. Days
/// are offsets from the first loaded day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub class: Class,
    pub kind: Kind,
    /// `None` leaves `user_id` unconstrained (Listing 7).
    pub users: Option<(i64, i64)>,
    pub regions: (i64, i64),
    pub days: (i64, i64),
}

/// The table and grid a query list is generated for.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub users: i64,
    pub regions: i64,
    pub days: i64,
    /// Users per grid cell on the `user_id` dimension.
    pub user_cell: i64,
}

impl Shape {
    /// A user window of `width` users, starting in stratum `of`, whose
    /// ends both fall strictly inside a grid cell: a low end drawn on a
    /// cell edge moves one user up, and a width that would put the high
    /// end on a cell edge is widened by one user.
    fn user_window(&self, rng: &mut Rng, of: (usize, usize), width: i64) -> (i64, i64) {
        assert!(self.user_cell >= 3, "cells too narrow to stay unaligned");
        let width = width.clamp(1, self.users - self.user_cell - 3);
        let mut lo = rng.stratum(of, 1, self.users - width - 2);
        if lo % self.user_cell == 0 {
            lo += 1;
        }
        let mut hi = lo + width;
        if hi % self.user_cell == 0 {
            hi += 1;
        }
        (lo, hi)
    }

    /// The paper-shaped window at selectivity `f`, its user range
    /// starting in stratum `of.0` and its day range in stratum `of.1`.
    fn frac_window(
        &self,
        rng: &mut Rng,
        of: ((usize, usize), (usize, usize)),
        f: f64,
    ) -> ((i64, i64), (i64, i64)) {
        let span = ((self.days as f64 * f.sqrt()).ceil() as i64).clamp(1, self.days);
        let user_frac = (f / (span as f64 / self.days as f64)).min(1.0);
        let width = (self.users as f64 * user_frac).round() as i64;
        let day_lo = rng.stratum(of.1, 0, self.days - span + 1);
        (self.user_window(rng, of.0, width), (day_lo, day_lo + span))
    }

    fn query(
        &self,
        rng: &mut Rng,
        class: Class,
        of: ((usize, usize), (usize, usize)),
    ) -> QuerySpec {
        let all_regions = (0, self.regions);
        let ranged = |rng: &mut Rng, f: f64, kind: Kind| {
            let (users, days) = self.frac_window(rng, of, f);
            QuerySpec {
                class,
                kind,
                users: Some(users),
                regions: all_regions,
                days,
            }
        };
        match class {
            Class::AggPoint => {
                let user = rng.range(0, self.users);
                let day = rng.range(0, self.days);
                QuerySpec {
                    class,
                    kind: Kind::Sum,
                    users: Some((user, user + 1)),
                    regions: all_regions,
                    days: (day, day + 1),
                }
            }
            Class::Agg5pct => ranged(rng, 0.05, Kind::Sum),
            Class::Agg12pct => ranged(rng, 0.12, Kind::Sum),
            Class::Groupby5pct => ranged(rng, 0.05, Kind::SumByDay),
            Class::Groupby12pct => ranged(rng, 0.12, Kind::SumByDay),
            Class::Join5pct => ranged(rng, 0.05, Kind::JoinUserName),
            Class::Partial => {
                let region = rng.range(0, self.regions);
                let day = rng.range(0, self.days);
                QuerySpec {
                    class,
                    kind: Kind::Sum,
                    users: None,
                    regions: (region, region + 1),
                    days: (day, day + 1),
                }
            }
            Class::ChurnRecent => unreachable!("churn queries follow the stream: see churn_query"),
        }
    }

    /// `per_class` queries of each class, in one seeded shuffle.
    pub fn op_list(&self, seed: u64, classes: &[Class], per_class: usize) -> Vec<QuerySpec> {
        // The query stream is seeded apart from the data (which takes
        // `seed` as it is), so the two never share draws.
        let mut rng = Rng::new(seed ^ 0x51CE_D0C5_0000_0001);
        let mut ops = Vec::with_capacity(classes.len() * per_class);
        for &class in classes {
            let (users, days) = (rng.permutation(per_class), rng.permutation(per_class));
            for k in 0..per_class {
                let of = ((users[k], per_class), (days[k], per_class));
                ops.push(self.query(&mut rng, class, of));
            }
        }
        rng.shuffle(&mut ops);
        ops
    }

    /// The `ingest-churn` query issued while day `newest_day` is
    /// arriving: SUM and COUNT over the newest seven days (the arriving,
    /// still unflushed day included) for a random eighth of the users.
    pub fn churn_query(&self, rng: &mut Rng, newest_day: i64) -> QuerySpec {
        QuerySpec {
            class: Class::ChurnRecent,
            kind: Kind::SumCount,
            users: Some(self.user_window(rng, (0, 1), self.users / 8)),
            regions: (0, self.regions),
            days: ((newest_day - 6).max(0), newest_day + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        users: 24_000,
        regions: 11,
        days: 30,
        user_cell: 480,
    };
    const READ_CLASSES: [Class; 7] = [
        Class::AggPoint,
        Class::Agg5pct,
        Class::Agg12pct,
        Class::Partial,
        Class::Groupby5pct,
        Class::Groupby12pct,
        Class::Join5pct,
    ];

    #[test]
    fn same_seed_gives_identical_lists_and_another_seed_differs() {
        let a = SHAPE.op_list(7, &READ_CLASSES, 20);
        let b = SHAPE.op_list(7, &READ_CLASSES, 20);
        let c = SHAPE.op_list(8, &READ_CLASSES, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 140);
        for class in READ_CLASSES {
            assert_eq!(a.iter().filter(|q| q.class == class).count(), 20);
        }
    }

    #[test]
    fn range_windows_are_never_cell_aligned_and_stay_in_the_table() {
        for seed in 0..50 {
            for q in SHAPE.op_list(seed, &READ_CLASSES, 8) {
                assert!(q.days.0 >= 0 && q.days.0 < q.days.1 && q.days.1 <= SHAPE.days);
                let Some((lo, hi)) = q.users else {
                    assert_eq!(q.class, Class::Partial);
                    continue;
                };
                assert!(0 <= lo && lo < hi && hi <= SHAPE.users, "{q:?}");
                if q.class != Class::AggPoint {
                    assert_ne!(lo % SHAPE.user_cell, 0, "{q:?}");
                    assert_ne!(hi % SHAPE.user_cell, 0, "{q:?}");
                }
            }
        }
    }

    #[test]
    fn fractional_windows_hit_their_selectivity() {
        for (class, f) in [(Class::Agg5pct, 0.05), (Class::Agg12pct, 0.12)] {
            for q in SHAPE.op_list(3, &[class], 30) {
                let (lo, hi) = q.users.unwrap();
                let got = (hi - lo) as f64 / SHAPE.users as f64 * (q.days.1 - q.days.0) as f64
                    / SHAPE.days as f64;
                assert!((got - f).abs() / f < 0.02, "{class:?}: {got}");
            }
        }
    }

    #[test]
    fn windows_of_a_class_are_stratified_over_the_table() {
        // A 12 % window spans 11 of 30 days, so it can start on 20 days:
        // twenty windows start on twenty different days, whatever the seed.
        for seed in 0..20 {
            let mut starts: Vec<i64> = SHAPE
                .op_list(seed, &[Class::Agg12pct], 20)
                .iter()
                .map(|q| q.days.0)
                .collect();
            starts.sort_unstable();
            assert_eq!(starts, (0..20).collect::<Vec<i64>>());
        }
        // And their user ranges start in twenty different twentieths.
        let width = SHAPE.op_list(1, &[Class::Agg12pct], 20)[0].users.unwrap();
        let slice = (SHAPE.users - (width.1 - width.0) - 3) / 20;
        let mut slices: Vec<i64> = SHAPE
            .op_list(1, &[Class::Agg12pct], 20)
            .iter()
            .map(|q| (q.users.unwrap().0 - 2).max(0) / slice)
            .collect();
        slices.sort_unstable();
        slices.dedup();
        assert!(slices.len() >= 19, "{slices:?}");
    }

    #[test]
    fn churn_windows_follow_the_newest_day() {
        let mut rng = Rng::new(5);
        let early = SHAPE.churn_query(&mut rng, 3);
        assert_eq!(early.days, (0, 4));
        let late = SHAPE.churn_query(&mut rng, 19);
        assert_eq!(late.days, (13, 20));
        let (lo, hi) = late.users.unwrap();
        assert!(hi - lo >= SHAPE.users / 8 && hi - lo <= SHAPE.users / 8 + 1);
    }
}

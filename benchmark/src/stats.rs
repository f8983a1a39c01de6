//! Order statistics used for every reported timing.
//!
//! A timing is reported as a median and one upper percentile. The
//! percentile is nearest-rank (`sorted[ceil(p·n) − 1]`), so it is always
//! a latency that was actually observed, and [`samples_beyond`] says how
//! many observations lie above it: a percentile is only reported when at
//! least ten do.

/// Nearest-rank percentile of `values` (`0 < p <= 1`). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Arithmetic mean. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_observed() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.9), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn p90_of_120_samples_leaves_twelve_beyond() {
        assert_eq!(samples_beyond(120, 0.9), 12);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}

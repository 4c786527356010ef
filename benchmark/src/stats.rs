//! Order statistics over timing samples.
//!
//! Every timed number the benchmark reports is a median with its
//! quartiles and sample count; tails are nearest-rank percentiles, so a
//! reported p90 is always a value that was actually measured.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is in
/// `(0, 100]`; an empty slice yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice; the mean of the two middle samples when
/// the count is even. An empty slice yields 0.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median, quartiles, upper tail and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// 25th percentile (nearest rank).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (nearest rank).
    pub q3: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (any order). An empty set is all zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            q1: percentile(&s, 25.0),
            median: median(&s),
            q3: percentile(&s, 75.0),
            p90: percentile(&s, 90.0),
            p99: percentile(&s, 99.0),
            max: s.last().copied().unwrap_or(0.0),
        }
    }
}

/// Median of `samples` in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((s.n, s.median, s.max), (5, 5.0, 9.0));
        assert_eq!((s.q1, s.q3), (3.0, 7.0));
        // With five samples p90 and p99 are both the largest one.
        assert_eq!((s.p90, s.p99), (9.0, 9.0));
    }
}

//! Order statistics for timing samples: percentile, median, quartiles,
//! and the quiet decile the end-to-end metrics are reported as.
//!
//! Every sample series is printed with its median, quartiles and count
//! so a reader can see the noise next to the number.

/// Sorts a sample in place (NaN-free by construction: all inputs are
/// durations or counts).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// The `p`-th percentile (`0.0..=100.0`) of an ascending-sorted sample,
/// linearly interpolated between closest ranks (the "inclusive" method
/// — `percentile(s, 50.0)` is the usual median). Empty samples give 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes an unsorted sample.
    pub fn of(sample: &[f64]) -> Summary {
        let mut v = sample.to_vec();
        sort(&mut v);
        Summary {
            n: v.len(),
            q1: percentile(&v, 25.0),
            median: percentile(&v, 50.0),
            q3: percentile(&v, 75.0),
        }
    }

    /// Interquartile range as a share of the median (0 for an empty or
    /// zero-median sample) — the spread figure the noise protocol uses.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` computes
/// them (the "exclusive" method) — what the benchmark driver uses when
/// it judges run-to-run spread, so the self-check must match it. Needs
/// at least two samples.
pub fn quartiles_exclusive(sample: &[f64]) -> [f64; 3] {
    let mut v = sample.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Median of an unsorted sample (0 when empty).
pub fn median(sample: &[f64]) -> f64 {
    Summary::of(sample).median
}

/// The **quiet decile** of a sample of repetitions of identical work:
/// the 10th percentile when lower is better, the 90th when higher is.
///
/// On a shared host the other tenants only ever make a repetition
/// slower, in bursts of seconds to tens of seconds, so the disturbance
/// is one-sided. The median of a run's repetitions flips to the
/// disturbed value as soon as a burst covers half the run; the quiet
/// decile still reads the undisturbed cost until nine tenths of the run
/// are covered, and unlike the minimum it does not hang on one lucky
/// repetition. It estimates "what this costs when the host lets the
/// program run", the same way on both sides of a comparison.
pub fn quiet_decile(sample: &[f64], higher_is_better: bool) -> f64 {
    let mut v = sample.to_vec();
    sort(&mut v);
    percentile(&v, if higher_is_better { 90.0 } else { 10.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert!((percentile(&s, 99.0) - 39.7).abs() < 1e-9);
        // Out-of-range requests clamp instead of indexing out of bounds.
        assert_eq!(percentile(&s, 250.0), 40.0);
        assert_eq!(percentile(&s, -3.0), 10.0);
    }

    #[test]
    fn percentile_of_degenerate_samples() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn summary_matches_inclusive_quartiles() {
        // Unsorted on purpose; 1..=9 has quartiles 3, 5, 7.
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!(
            s,
            Summary {
                n: 9,
                q1: 3.0,
                median: 5.0,
                q3: 7.0
            }
        );
        assert!((s.rel_iqr() - 0.8).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn exclusive_quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4)
        assert_eq!(
            quartiles_exclusive(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            [1.25, 3.5, 5.75]
        );
        // statistics.quantiles([1, 2], n=4): extrapolates past the ends.
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn quiet_decile_ignores_a_burst_covering_most_of_the_run() {
        // 40 repetitions of a 10 ms op; a co-tenant slows 30 of them by
        // 35 %. The median reads the disturbed value, the decile does not.
        let mut times = vec![13.5; 30];
        times.extend([10.0, 10.1, 9.9, 10.2, 10.0, 10.1, 9.95, 10.05, 10.0, 10.1]);
        assert!(median(&times) > 13.0);
        assert!((quiet_decile(&times, false) - 10.0).abs() < 0.11);
        let rates: Vec<f64> = times.iter().map(|t| 1000.0 / t).collect();
        assert!((quiet_decile(&rates, true) - 100.0).abs() < 1.1);
        assert_eq!(quiet_decile(&[], false), 0.0);
        assert_eq!(quiet_decile(&[7.0], true), 7.0);
    }

    #[test]
    fn rel_iqr_of_empty_or_zero_median_is_zero() {
        assert_eq!(Summary::of(&[]).rel_iqr(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).rel_iqr(), 0.0);
    }
}

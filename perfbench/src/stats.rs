//! Sample summaries: the median, and the one tail percentile the sample
//! count supports.

/// Fewest samples that must lie beyond a percentile before it is
/// reported: below this a tail percentile is mostly one outlier.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in [0, 1] of `samples` (the
/// "inclusive" method: q = 0 is the minimum, q = 1 the maximum).
/// Panics on an empty sample: every caller times at least one rep.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99/p95/p90 that has at least [`MIN_BEYOND`] of `n`
/// samples beyond it, if any (n = 300 gives p95, n = 50 gives none).
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| n * (100 - *p as usize) / 100 >= MIN_BEYOND)
}

/// A timing as reported: median, sample count, and the supported tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub n: usize,
    /// `(percentile, value)` when the sample count supports one.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples),
            n: samples.len(),
            tail: tail_percentile(samples.len()).map(|p| (p, quantile(samples, p as f64 / 100.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(300), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn summary_reports_a_tail_only_when_supported() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((few.median, few.n, few.tail), (2.0, 3, None));
        let many: Vec<f64> = (0..300).map(f64::from).collect();
        let s = Summary::of(&many);
        assert_eq!(s.n, 300);
        let (p, v) = s.tail.expect("300 samples support p95");
        assert_eq!(p, 95);
        assert!((v - 284.05).abs() < 1e-9, "{v}");
    }
}

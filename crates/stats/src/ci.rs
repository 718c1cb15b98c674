//! Confidence intervals for noisy measurements.
//!
//! PrivCount counts carry Gaussian noise of known σ, so a 95% CI is
//! `value ± 1.96σ` (§3.3). Network-wide inference divides the value and
//! the interval by the measuring relays' weight fraction.

use pm_dp::mechanism::normal_quantile;
use std::fmt;

/// A closed interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Constructs an interval, normalizing the endpoint order.
    pub fn new(a: f64, b: f64) -> Interval {
        if a <= b {
            Interval { lo: a, hi: b }
        } else {
            Interval { lo: b, hi: a }
        }
    }

    /// A degenerate point interval.
    pub fn point(x: f64) -> Interval {
        Interval { lo: x, hi: x }
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// True if `x` lies inside.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Intersection, or `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Scales both endpoints by `k > 0`.
    pub fn scale(&self, k: f64) -> Interval {
        assert!(k > 0.0);
        Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}; {:.4}]", self.lo, self.hi)
    }
}

/// A measured value with a 95% confidence interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Point estimate.
    pub value: f64,
    /// 95% confidence interval.
    pub ci: Interval,
}

impl Estimate {
    /// From a Gaussian-noised observation with known σ, at confidence
    /// level `conf` (0.95 for the paper's intervals).
    fn from_gaussian(value: f64, sigma: f64, conf: f64) -> Estimate {
        assert!(sigma >= 0.0);
        assert!(conf > 0.0 && conf < 1.0);
        let z = normal_quantile(0.5 + conf / 2.0);
        Estimate {
            value,
            ci: Interval::new(value - z * sigma, value + z * sigma),
        }
    }

    /// The paper's standard 95% interval.
    pub fn gaussian95(value: f64, sigma: f64) -> Estimate {
        Estimate::from_gaussian(value, sigma, 0.95)
    }

    /// An exact estimate (no noise).
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            value,
            ci: Interval::point(value),
        }
    }

    /// With an explicit interval.
    pub fn with_ci(value: f64, ci: Interval) -> Estimate {
        Estimate { value, ci }
    }

    /// Shifts the value and both CI endpoints by `delta` — removing
    /// (or restoring) a known, noiseless component before rescaling,
    /// e.g. the always-observed promiscuous clients in a unique-IP
    /// count.
    pub fn shift(&self, delta: f64) -> Estimate {
        Estimate {
            value: self.value + delta,
            ci: Interval::new(self.ci.lo + delta, self.ci.hi + delta),
        }
    }

    /// Network-wide inference: divides by the fraction of observations
    /// the measuring relays make (§3.3: `(x ± zσ)/p`).
    pub fn scale_to_network(&self, fraction: f64) -> Estimate {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0, 1]");
        Estimate {
            value: self.value / fraction,
            ci: self.ci.scale(1.0 / fraction),
        }
    }

    /// Most-likely value clamped at zero (for counters driven negative
    /// by noise; §4.2 reports these as zero).
    pub fn most_likely_nonnegative(&self) -> f64 {
        self.value.max(0.0)
    }

    /// The ratio of this estimate to another, with a conservative CI
    /// (interval arithmetic; fine for the paper's percentage
    /// breakdowns where denominators are huge relative to their noise).
    /// `None` when the denominator's CI reaches 0: dividing by it would
    /// put no bound on the ratio, which happens once a run is small
    /// enough for the noise to swamp the denominator.
    pub fn ratio(&self, denom: &Estimate) -> Option<Estimate> {
        (denom.ci.lo > 0.0).then(|| Estimate {
            value: self.value / denom.value,
            ci: Interval::new(self.ci.lo / denom.ci.hi, self.ci.hi / denom.ci.lo),
        })
    }

    /// Sum of independent estimates (CIs add in quadrature under
    /// Gaussian noise; here we use conservative interval addition).
    pub fn sum(&self, other: &Estimate) -> Estimate {
        Estimate {
            value: self.value + other.value,
            ci: Interval::new(self.ci.lo + other.ci.lo, self.ci.hi + other.ci.hi),
        }
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} (CI: {})", self.value, self.ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian95_matches_paper_example() {
        // §3.3: 32 million streams, σ = 3.1 million, 1.5% exit weight
        // → 2.1e9 ± 4.1e8 network-wide.
        let local = Estimate::gaussian95(3.2e7, 3.1e6);
        let network = local.scale_to_network(0.015);
        assert!((network.value - 2.133e9).abs() < 5e7);
        let half_width = (network.ci.hi - network.ci.lo) / 2.0;
        assert!(
            (half_width - 4.05e8).abs() < 2e7,
            "half width {half_width:e}"
        );
    }

    #[test]
    fn interval_ops() {
        let a = Interval::new(1.0, 5.0);
        let b = Interval::new(3.0, 8.0);
        assert_eq!(a.intersect(&b), Some(Interval::new(3.0, 5.0)));
        assert_eq!(a.hull(&b), Interval::new(1.0, 8.0));
        assert!(a.contains(2.0));
        assert!(!a.contains(6.0));
        let c = Interval::new(9.0, 10.0);
        assert_eq!(a.intersect(&c), None);
        assert_eq!(Interval::new(5.0, 1.0), a); // normalized
    }

    #[test]
    fn shift_moves_value_and_interval() {
        let e = Estimate::gaussian95(100.0, 10.0);
        let s = e.shift(-40.0);
        assert_eq!(s.value, 60.0);
        assert!((s.ci.width() - e.ci.width()).abs() < 1e-12);
        assert_eq!(s.shift(40.0), e);
    }

    #[test]
    fn negative_counter_most_likely_zero() {
        // §4.2: IPv4/IPv6 initial-stream counters measured negative ⇒
        // most likely value is zero.
        let e = Estimate::gaussian95(-1.2e5, 2e5);
        assert_eq!(e.most_likely_nonnegative(), 0.0);
    }

    #[test]
    fn ci_width_scales_with_confidence() {
        let e90 = Estimate::from_gaussian(0.0, 1.0, 0.90);
        let e95 = Estimate::from_gaussian(0.0, 1.0, 0.95);
        let e99 = Estimate::from_gaussian(0.0, 1.0, 0.99);
        assert!(e90.ci.width() < e95.ci.width());
        assert!(e95.ci.width() < e99.ci.width());
        assert!((e95.ci.hi - 1.96).abs() < 1e-3);
    }

    #[test]
    fn ratio_percentages() {
        // 40.1% of primary domains: numerator noise small vs denominator.
        let num = Estimate::gaussian95(40.1e6, 0.1e6);
        let den = Estimate::gaussian95(100e6, 0.1e6);
        let pct = num.ratio(&den).expect("denominator CI is far from 0");
        assert!((pct.value - 0.401).abs() < 1e-6);
        assert!(pct.ci.lo < 0.401 && 0.401 < pct.ci.hi);
        assert!(pct.ci.width() < 0.01);
        // A denominator whose CI reaches 0 bounds nothing: no ratio.
        assert_eq!(num.ratio(&Estimate::gaussian95(10.0, 20.0)), None);
        assert_eq!(num.ratio(&Estimate::exact(0.0)), None);
    }

    #[test]
    fn sum_conservative() {
        let a = Estimate::gaussian95(10.0, 1.0);
        let b = Estimate::gaussian95(20.0, 2.0);
        let s = a.sum(&b);
        assert_eq!(s.value, 30.0);
        assert!(s.ci.contains(30.0));
        assert!(s.ci.width() >= a.ci.width().max(b.ci.width()));
    }

    #[test]
    fn exact_estimates() {
        let e = Estimate::exact(42.0);
        assert_eq!(e.ci.width(), 0.0);
        assert!(e.ci.contains(42.0));
    }
}

//! Balls-into-bins occupancy distribution.
//!
//! PSC stores items by hashing into a table of `b` cells, so the number
//! of *marked cells* undercounts the number of *distinct items* whenever
//! two items collide. Correcting for this requires the distribution of
//! the number of occupied cells after throwing `u` balls uniformly into
//! `b` bins. This module computes it two ways:
//!
//! * **Exact dynamic program** (the paper's "exact algorithm based on
//!   dynamic programming"): `P(t, m) = P(t-1, m)·m/b + P(t-1, m-1)·(b-m+1)/b`,
//!   tracked over a pruned probability window so it stays tractable.
//!   Each step (one more ball, `throw`) costs O(window), so the
//!   distributions for every `u` up to some bound come out of one run
//!   of the DP: the PSC interval ([`crate::psc_ci`]) sweeps `u` that
//!   way instead of rerunning it from ball 0 for each probe.
//! * **Moment-based normal approximation** for very large inputs, using
//!   the exact mean and variance of the occupancy count.

/// The distribution of occupied cells after `balls` throws into `bins`.
#[derive(Clone, Debug)]
pub struct OccupancyDist {
    /// Number of bins `b`.
    pub bins: u64,
    /// Number of balls `u`.
    pub balls: u64,
    /// `pmf[i]` = P[occupied == offset + i]; pruned below `PRUNE_EPS`.
    pmf: Vec<f64>,
    /// Value of the first pmf entry.
    offset: u64,
}

/// Probability mass below which tails are pruned in the DP.
const PRUNE_EPS: f64 = 1e-15;

impl OccupancyDist {
    /// Runs the exact DP: one-ball `throw` steps, `balls` of them, from
    /// the empty table. Complexity is O(balls × window) where the window
    /// is the retained support (≈ O(√balls) for balls ≪ bins).
    pub fn exact(bins: u64, balls: u64) -> OccupancyDist {
        assert!(bins > 0);
        // pmf over occupied counts; start: 0 balls -> 0 occupied.
        let mut dist = OccupancyDist {
            bins,
            balls: 0,
            pmf: vec![1.0f64],
            offset: 0,
        };
        for _ in 0..balls {
            dist.throw();
        }
        dist
    }

    /// One step of the DP: the distribution after one more ball. A
    /// sweep over `u` (the PSC interval's) takes every `u`'s
    /// distribution from one run of `exact`'s loop; each step costs
    /// O(window) and gives the same bits as [`OccupancyDist::exact`] at
    /// that many balls.
    pub(crate) fn throw(&mut self) {
        let b = self.bins as f64;
        // One throw: occupied stays m w.p. m/b, becomes m+1 w.p. (b-m)/b.
        let mut next = vec![0.0f64; self.pmf.len() + 1];
        for (i, &p) in self.pmf.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let m = self.offset + i as u64;
            let stay = m as f64 / b;
            next[i] += p * stay;
            next[i + 1] += p * (1.0 - stay);
        }
        // Prune tails to keep the window small.
        let mut lo = 0;
        while lo < next.len() && next[lo] < PRUNE_EPS {
            lo += 1;
        }
        let mut hi = next.len();
        while hi > lo && next[hi - 1] < PRUNE_EPS {
            hi -= 1;
        }
        self.offset += lo as u64;
        next.truncate(hi);
        next.drain(..lo);
        self.pmf = next;
        // Renormalize the tiny pruned mass away.
        let total: f64 = self.pmf.iter().sum();
        if total > 0.0 {
            for p in self.pmf.iter_mut() {
                *p /= total;
            }
        }
        self.balls += 1;
    }

    /// Exact mean of the occupancy count: `b(1 − (1−1/b)^u)`.
    pub fn mean_exact(bins: u64, balls: u64) -> f64 {
        let b = bins as f64;
        let u = balls as f64;
        b * (1.0 - (1.0 - 1.0 / b).powf(u))
    }

    /// Exact variance of the occupancy count:
    /// `b(b−1)(1−2/b)^u + b(1−1/b)^u − b²(1−1/b)^{2u}`.
    pub fn variance_exact(bins: u64, balls: u64) -> f64 {
        let b = bins as f64;
        let u = balls as f64;
        let p1 = (1.0 - 1.0 / b).powf(u);
        let p2 = (1.0 - 2.0 / b).powf(u);
        (b * (b - 1.0) * p2 + b * p1 - b * b * p1 * p1).max(0.0)
    }

    /// P[occupied == m].
    pub fn pmf(&self, m: u64) -> f64 {
        if m < self.offset {
            return 0.0;
        }
        let i = (m - self.offset) as usize;
        self.pmf.get(i).copied().unwrap_or(0.0)
    }

    /// Mean from the computed pmf (the test oracle for the DP against
    /// [`OccupancyDist::mean_exact`]).
    #[cfg(test)]
    fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, p)| (self.offset + i as u64) as f64 * p)
            .sum()
    }

    /// Variance from the computed pmf.
    #[cfg(test)]
    fn variance(&self) -> f64 {
        let mean = self.mean();
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let x = (self.offset + i as u64) as f64;
                (x - mean).powi(2) * p
            })
            .sum()
    }

    /// Support of the retained pmf: `(min, max)` occupied counts.
    pub fn support(&self) -> (u64, u64) {
        (self.offset, self.offset + self.pmf.len() as u64 - 1)
    }

    /// Inverts the mean map: given an observed occupied count, the
    /// maximum-likelihood-ish estimate of the number of distinct balls,
    /// `u ≈ ln(1 − m/b) / ln(1 − 1/b)` (the standard collision
    /// correction).
    pub fn invert_mean(bins: u64, occupied: f64) -> f64 {
        let b = bins as f64;
        assert!(occupied >= 0.0);
        if occupied >= b {
            // Saturated table: any huge u is possible; return a large
            // sentinel based on the coupon-collector scale.
            return b * b.ln() * 2.0;
        }
        (1.0 - occupied / b).ln() / (1.0 - 1.0 / b).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn trivial_cases() {
        let d = OccupancyDist::exact(10, 0);
        assert_eq!(d.pmf(0), 1.0);
        let d = OccupancyDist::exact(10, 1);
        assert!((d.pmf(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_balls_two_bins() {
        // P[1 occupied] = 1/2, P[2 occupied] = 1/2.
        let d = OccupancyDist::exact(2, 2);
        assert!((d.pmf(1) - 0.5).abs() < 1e-12);
        assert!((d.pmf(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        for (b, u) in [(10, 5), (100, 50), (1000, 2000), (64, 64)] {
            let d = OccupancyDist::exact(b, u);
            let total: f64 = (0..=b.min(u)).map(|m| d.pmf(m)).sum();
            assert!((total - 1.0).abs() < 1e-9, "b={b} u={u}: {total}");
        }
    }

    #[test]
    fn dp_matches_exact_moments() {
        for (b, u) in [(50, 20), (200, 300), (1000, 100)] {
            let d = OccupancyDist::exact(b, u);
            assert!(
                (d.mean() - OccupancyDist::mean_exact(b, u)).abs() < 1e-6,
                "mean b={b} u={u}"
            );
            assert!(
                (d.variance() - OccupancyDist::variance_exact(b, u)).abs() < 1e-4,
                "var b={b} u={u}: {} vs {}",
                d.variance(),
                OccupancyDist::variance_exact(b, u)
            );
        }
    }

    #[test]
    fn dp_matches_simulation() {
        let bins = 64u64;
        let balls = 100u64;
        let d = OccupancyDist::exact(bins, balls);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 40_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let mut hit = vec![false; bins as usize];
            for _ in 0..balls {
                hit[rng.gen_range(0..bins as usize)] = true;
            }
            *counts
                .entry(hit.iter().filter(|h| **h).count() as u64)
                .or_insert(0u64) += 1;
        }
        // Compare empirical and exact pmf over the support.
        for (m, c) in counts {
            let emp = c as f64 / trials as f64;
            let exact = d.pmf(m);
            assert!(
                (emp - exact).abs() < 0.02,
                "m={m}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn mean_saturates_at_bins() {
        let m = OccupancyDist::mean_exact(100, 100_000);
        assert!(m > 99.9999 && m <= 100.0);
    }

    #[test]
    fn invert_mean_roundtrip() {
        for (b, u) in [(1000u64, 100u64), (1 << 16, 5000), (1 << 20, 400_000)] {
            let m = OccupancyDist::mean_exact(b, u);
            let u_back = OccupancyDist::invert_mean(b, m);
            let rel = (u_back - u as f64).abs() / u as f64;
            assert!(rel < 1e-9, "b={b} u={u}: {u_back}");
        }
    }

    #[test]
    fn invert_mean_saturation() {
        let v = OccupancyDist::invert_mean(100, 100.0);
        assert!(v > 100.0);
    }

    #[test]
    fn large_case_stays_tractable() {
        // 2^16 bins, 20k balls: the pruned window keeps this fast.
        let d = OccupancyDist::exact(1 << 16, 20_000);
        let (lo, hi) = d.support();
        assert!(hi - lo < 4_000, "window {} too wide", hi - lo);
        assert!((d.mean() - OccupancyDist::mean_exact(1 << 16, 20_000)).abs() < 1e-3);
    }
}

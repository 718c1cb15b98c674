//! Exact confidence intervals for PSC observations.
//!
//! A PSC run reports `k = occupied(u) + noise` where `occupied(u)` is the
//! number of table cells marked by `u` distinct items (collisions make
//! this ≤ u) and `noise ~ Binomial(n, 1/2)` is the aggregate of the
//! computation parties' noise cells. Both component distributions are
//! known exactly, so a CI for `u` is obtained by *test inversion*: the
//! 95% interval is the set of `u` whose observation distribution places
//! `k` inside its central region (§3.3: "an exact algorithm based on
//! dynamic programming").
//!
//! The interval's two binary searches and the guard before them probe
//! about two dozen values of `u`, each needing the observation CDF at
//! `k` and `k − 1`. Up to `u` = 20 000 (with at most 4 096 noise
//! cells) the CDF is exact and comes from one ascending sweep of the
//! occupancy DP, memoised per `u`: an interval costs about one DP run
//! to its largest exact probe (≈ 1 ms for a 4 096-cell table at 808
//! observed and 48 noise cells) and gives the same bits as running the
//! DP per probe. Beyond that the CDF is a moment-matched normal
//! approximation.

use crate::ci::{Estimate, Interval};
use crate::occupancy::OccupancyDist;
use pm_dp::mechanism::ln_choose;

/// Exact Binomial(n, 1/2) pmf at `x`.
fn binom_half_pmf(n: u64, x: u64) -> f64 {
    if x > n {
        return 0.0;
    }
    (ln_choose(n, x) - n as f64 * std::f64::consts::LN_2).exp()
}

/// Largest `noise_flips` for which [`observation_cdf`] convolves the
/// noise exactly.
const EXACT_NOISE_FLIPS: u64 = 4_096;

/// `cdf[j] = P[Bin(n, 1/2) ≤ j]` for `j` in `0..=n`, summed ascending
/// from `x = 0`.
fn binom_half_cdf(n: u64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..=n)
        .map(|x| {
            acc += binom_half_pmf(n, x);
            acc
        })
        .collect()
}

/// Largest `u` whose observation distribution is convolved exactly
/// (when the noise is, see [`EXACT_NOISE_FLIPS`]); above it the normal
/// approximation stands in.
const EXACT_BALLS: u64 = 20_000;

/// `(P[obs ≤ k], P[obs ≤ k − 1])` for `obs = occupied + Bin(n, 1/2)`,
/// `occupied` distributed as `occ` and `noise_cdf` = [`binom_half_cdf`]
/// of `n`: one pass over the occupancy window, each sum in ascending
/// `m` (the terms and order of the per-`k` convolution).
fn exact_cdfs(occ: &OccupancyDist, noise_flips: u64, noise_cdf: &[f64], k: i64) -> (f64, f64) {
    let (lo, hi) = occ.support();
    let (mut at_k, mut below_k) = (0.0, 0.0);
    for m in lo..=hi {
        let pm = occ.pmf(m);
        if pm == 0.0 {
            continue;
        }
        // noise ≤ room for `k`, ≤ room − 1 for `k − 1`.
        let room = k - m as i64;
        if room >= 0 {
            at_k += pm * noise_cdf[(room as u64).min(noise_flips) as usize];
        }
        if room >= 1 {
            below_k += pm * noise_cdf[(room as u64 - 1).min(noise_flips) as usize];
        }
    }
    (at_k, below_k)
}

/// P[occupied(u) + Bin(n,1/2) ≤ k] by moment-matched normal
/// approximation, continuity-corrected.
fn normal_observation_cdf(bins: u64, u: u64, noise_flips: u64, k: i64) -> f64 {
    if k < 0 {
        return 0.0;
    }
    let mean = OccupancyDist::mean_exact(bins, u) + noise_flips as f64 / 2.0;
    let var = OccupancyDist::variance_exact(bins, u) + noise_flips as f64 / 4.0;
    let sd = var.sqrt().max(1e-9);
    pm_dp::mechanism::normal_cdf((k as f64 + 0.5 - mean) / sd)
}

/// The interval search's probes, `(P[obs ≤ k | u], P[obs ≤ k − 1 | u])`
/// for the observed `k`. Exact ones are memoised for every `u` from 0
/// up to the highest probed so far, out of one ascending sweep of the
/// occupancy DP ([`OccupancyDist::throw`] per `u`), so a search costs
/// about one DP run to its largest exact probe instead of one per
/// probe; the rest take the normal approximation.
struct ObservationCdfs {
    bins: u64,
    noise_flips: u64,
    k: i64,
    /// [`binom_half_cdf`] of `noise_flips`, when within
    /// [`EXACT_NOISE_FLIPS`].
    noise_cdf: Option<Vec<f64>>,
    /// The occupancy distribution after `memo.len()` balls.
    occ: OccupancyDist,
    /// `memo[u]` is the exact pair at `u`.
    memo: Vec<(f64, f64)>,
}

impl ObservationCdfs {
    fn new(bins: u64, noise_flips: u64, k: i64) -> ObservationCdfs {
        ObservationCdfs {
            bins,
            noise_flips,
            k,
            noise_cdf: (noise_flips <= EXACT_NOISE_FLIPS).then(|| binom_half_cdf(noise_flips)),
            occ: OccupancyDist::exact(bins, 0),
            memo: Vec::new(),
        }
    }

    fn at(&mut self, u: u64) -> (f64, f64) {
        let Some(noise_cdf) = self.noise_cdf.as_deref().filter(|_| u <= EXACT_BALLS) else {
            return (
                normal_observation_cdf(self.bins, u, self.noise_flips, self.k),
                normal_observation_cdf(self.bins, u, self.noise_flips, self.k - 1),
            );
        };
        while self.memo.len() as u64 <= u {
            let pair = exact_cdfs(&self.occ, self.noise_flips, noise_cdf, self.k);
            self.memo.push(pair);
            self.occ.throw();
        }
        self.memo[u as usize]
    }
}

/// Computes a confidence interval for the number of distinct items `u`
/// given the published PSC value.
///
/// * `bins` — PSC table size `b`;
/// * `observed` — published value `k` (marked cells + noise; can exceed
///   `b` because noise cells are appended, or be pushed low by noise);
/// * `noise_flips` — total number of noise cells `n` across CPs (each
///   marked w.p. 1/2);
/// * `conf` — confidence level (0.95 in the paper).
///
/// Returns the point estimate (collision-corrected mean inversion after
/// subtracting expected noise) and the test-inversion interval. Its
/// probes read one occupancy sweep per interval.
pub fn psc_confidence_interval(bins: u64, observed: i64, noise_flips: u64, conf: f64) -> Estimate {
    let mut cdfs = ObservationCdfs::new(bins, noise_flips, observed);
    confidence_interval(bins, observed, noise_flips, conf, |u| cdfs.at(u))
}

/// The test inversion of [`psc_confidence_interval`], reading the
/// probe pair `(P[obs ≤ k | u], P[obs ≤ k − 1 | u])` from `cdfs`.
fn confidence_interval(
    bins: u64,
    observed: i64,
    noise_flips: u64,
    conf: f64,
    mut cdfs: impl FnMut(u64) -> (f64, f64),
) -> Estimate {
    assert!(conf > 0.0 && conf < 1.0);
    let tail = (1.0 - conf) / 2.0;
    // Point estimate: subtract expected noise, invert the occupancy mean.
    let denoised = (observed as f64 - noise_flips as f64 / 2.0).max(0.0);
    let point = OccupancyDist::invert_mean(bins, denoised.min(bins as f64));

    // Test inversion: u is in the CI iff
    //   P[obs ≤ k | u] > tail  AND  P[obs ≥ k | u] > tail.
    // The observation is stochastically increasing in u, so both
    // boundaries are found by binary search.
    let mut accept_low = |u: u64| cdfs(u).0 > tail;

    // Upper bound of search: invert the mean at the most optimistic
    // occupied count, padded generously.
    let max_occ =
        (denoised + 6.0 * ((noise_flips as f64 / 4.0).sqrt() + (bins as f64).sqrt()) + 10.0)
            .min(bins as f64 * (1.0 - 1e-12));
    let mut u_max = OccupancyDist::invert_mean(bins, max_occ).ceil() as u64 + 10;
    // Guard: if accept_low still holds at u_max, extend (rare: saturated
    // tables).
    let mut guard = 0;
    while accept_low(u_max) && guard < 40 {
        u_max = u_max.saturating_mul(2).max(u_max + 1);
        guard += 1;
    }

    // Largest u with P[obs ≤ k | u] > tail  (upper CI end).
    let hi = {
        let (mut lo_s, mut hi_s) = (0u64, u_max);
        // accept_low(0) should hold unless observed is far below noise.
        if !accept_low(0) {
            0
        } else {
            while lo_s < hi_s {
                let mid = lo_s + (hi_s - lo_s).div_ceil(2);
                if accept_low(mid) {
                    lo_s = mid;
                } else {
                    hi_s = mid - 1;
                }
            }
            lo_s
        }
    };

    // Smallest u with P[obs ≥ k | u] > tail  (lower CI end).
    let mut accept_high = |u: u64| 1.0 - cdfs(u).1 > tail;
    let lo = {
        let (mut lo_s, mut hi_s) = (0u64, hi);
        if accept_high(0) {
            0
        } else {
            while lo_s < hi_s {
                let mid = lo_s + (hi_s - lo_s) / 2;
                if accept_high(mid) {
                    hi_s = mid;
                } else {
                    lo_s = mid + 1;
                }
            }
            lo_s
        }
    };

    Estimate::with_ci(point, Interval::new(lo as f64, hi as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_dp::mechanism::sample_binomial_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// P[occupied(u) + Bin(n,1/2) ≤ k] with a DP of its own per call:
    /// the probe every search step made before the sweep, kept as its
    /// bit-for-bit reference. `noise_cdf` is [`binom_half_cdf`] of
    /// `noise_flips`, present when `noise_flips` is within
    /// [`EXACT_NOISE_FLIPS`].
    fn observation_cdf(
        bins: u64,
        u: u64,
        noise_flips: u64,
        noise_cdf: Option<&[f64]>,
        k: i64,
    ) -> f64 {
        if k < 0 {
            return 0.0;
        }
        let k = k as u64;
        if let Some(noise_cdf) = noise_cdf.filter(|_| u <= EXACT_BALLS) {
            let occ = OccupancyDist::exact(bins, u);
            let (lo, hi) = occ.support();
            let mut cdf = 0.0;
            for m in lo..=hi {
                let pm = occ.pmf(m);
                if pm == 0.0 {
                    continue;
                }
                if m > k {
                    continue;
                }
                // noise ≤ k - m
                cdf += pm * noise_cdf[(k - m).min(noise_flips) as usize];
            }
            cdf
        } else {
            normal_observation_cdf(bins, u, noise_flips, k as i64)
        }
    }

    /// The interval with every probe running its own DP.
    fn per_probe_interval(bins: u64, observed: i64, noise_flips: u64, conf: f64) -> Estimate {
        let table = (noise_flips <= EXACT_NOISE_FLIPS).then(|| binom_half_cdf(noise_flips));
        let cdf = |u, k| observation_cdf(bins, u, noise_flips, table.as_deref(), k);
        confidence_interval(bins, observed, noise_flips, conf, |u| {
            (cdf(u, observed), cdf(u, observed - 1))
        })
    }

    fn bits(e: &Estimate) -> (u64, u64, u64) {
        (e.value.to_bits(), e.ci.lo.to_bits(), e.ci.hi.to_bits())
    }

    /// The sweep's intervals are the per-probe search's, bit for bit,
    /// over tables of 16 to 4 096 cells, noise from none to past the
    /// exact cutoff, and observations from below zero to a saturated
    /// table (whose search probes past the exact/normal boundary at
    /// `u` = 20 000). [`PINNED`] holds the larger tables.
    #[test]
    fn sweep_matches_per_probe_search() {
        let mut cases = 0;
        for bins in [16u64, 64, 512, 2048, 4096] {
            for flips in [0u64, 1, 48, 256, 4096, 5000] {
                let noise = flips as i64 / 2;
                let fill = [0, bins / 64, bins / 8, bins / 3];
                let mut observed: Vec<i64> = fill.iter().map(|&f| f as i64 + noise).collect();
                observed.extend([-3, noise - 7]);
                if bins <= 64 || flips == 48 {
                    observed.extend([noise + bins as i64, 2 * noise + bins as i64 + 5]);
                }
                for k in observed {
                    let want = per_probe_interval(bins, k, flips, 0.95);
                    let got = psc_confidence_interval(bins, k, flips, 0.95);
                    assert_eq!(bits(&got), bits(&want), "bins={bins} flips={flips} k={k}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 5 * 6 * 6 + 2 * 6 * 2 + 3 * 2);
    }

    /// The exact branch of `observation_cdf` with the noise tail re-summed
    /// from zero for every support point: the form the prefix table
    /// replaced, kept as its bit-for-bit reference.
    fn observation_cdf_nested(bins: u64, u: u64, noise_flips: u64, k: u64) -> f64 {
        let occ = OccupancyDist::exact(bins, u);
        let (lo, hi) = occ.support();
        let mut cdf = 0.0;
        for m in lo..=hi.min(k) {
            let pm = occ.pmf(m);
            if pm == 0.0 {
                continue;
            }
            let mut ncdf = 0.0;
            for x in 0..=(k - m).min(noise_flips) {
                ncdf += binom_half_pmf(noise_flips, x);
            }
            cdf += pm * ncdf;
        }
        cdf
    }

    #[test]
    fn prefix_table_is_bit_identical_to_nested_sums() {
        for bins in [64u64, 1 << 10, 1 << 14] {
            for u in [0u64, 1, 50, 700] {
                for flips in [0u64, 1, 64, 300, 4096] {
                    let table = binom_half_cdf(flips);
                    let centre = OccupancyDist::mean_exact(bins, u) as u64 + flips / 2;
                    for k in [0, centre / 2, centre.saturating_sub(3), centre, centre + 40] {
                        let got = observation_cdf(bins, u, flips, Some(&table), k as i64);
                        let want = observation_cdf_nested(bins, u, flips, k);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "bins={bins} u={u} flips={flips} k={k}: {got:e} vs {want:e}"
                        );
                    }
                }
            }
        }
    }

    /// `(bins, observed, noise_flips)` points whose interval bits are
    /// pinned: the PSC round shapes (4096/808/48, 2048/443/48,
    /// 512/99/48), pure noise, no noise, collisions, saturation, an
    /// observation below zero, wide noise and the normal-path cutoff.
    const PINNED: [(u64, i64, u64); 16] = [
        (4096, 808, 48),
        (2048, 443, 48),
        (512, 99, 48),
        (1 << 16, 120, 256),
        (1 << 16, 500, 0),
        (8192, 3_863, 0),
        (1 << 16, 1_000, 64),
        (1 << 16, 3_048, 4_096),
        (1 << 16, 1_500, 128),
        (1 << 14, 1_900, 512),
        (64, 70, 16),
        (16, 16, 0),
        (1_024, -5, 48),
        (256, 0, 0),
        (1 << 16, 19_000, 48),
        (1 << 22, 464_000, 10_000),
    ];

    /// `(value, lo, hi)` of each [`PINNED`] point at 95 %, as `f64`
    /// bit patterns.
    const PINNED_BITS: [(u64, u64, u64); 16] = [
        (0x408b30fec654d9df, 0x408a880000000000, 0x408be00000000000),
        (0x407d4aad8d75215d, 0x407c400000000000, 0x407e700000000000),
        (0x40544119a6a64803, 0x4052000000000000, 0x4056c00000000000),
        (0x8000000000000000, 0x0, 0x4020000000000000),
        (0x407f5e9cc7be833b, 0x407f400000000000, 0x407f900000000000),
        (0x40b468b6fdc02ef8, 0x40b4100000000000, 0x40b4c40000000000),
        (0x408e79b38c6108cc, 0x408e300000000000, 0x408ec80000000000),
        (0x408f7d9a0aae60ff, 0x408d800000000000, 0x4090c00000000000),
        (0x4096afd20cf1dd4b, 0x4096780000000000, 0x4096e80000000000),
        (0x409b1196c153cf87, 0x409a980000000000, 0x409b900000000000),
        (0x406b823ad4c9660f, 0x4060400000000000, 0x431b940000000000),
        (0x40562e42fefa39ef, 0x403c000000000000, 0x42fb700000000000),
        (0x8000000000000000, 0x0, 0x0),
        (0x8000000000000000, 0x0, 0x0),
        (0x40d5e0f4a0405ef5, 0x40d5c0c000000000, 0x40d6018000000000),
        (0x411dab8104bae2c9, 0x411da5fc00000000, 0x411db10800000000),
    ];

    #[test]
    fn interval_bits_are_pinned() {
        let got: Vec<(u64, u64, u64)> = PINNED
            .iter()
            .map(|&(bins, observed, flips)| {
                let est = psc_confidence_interval(bins, observed, flips, 0.95);
                (
                    est.value.to_bits(),
                    est.ci.lo.to_bits(),
                    est.ci.hi.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, PINNED_BITS);
    }

    #[test]
    fn noiseless_exact_observation() {
        // With no noise and no collisions likely, CI should tightly cover
        // the truth.
        let est = psc_confidence_interval(1 << 16, 500, 0, 0.95);
        assert!(est.ci.contains(500.0), "{est}");
        assert!(est.ci.width() < 40.0, "{est}");
        assert!((est.value - 500.0).abs() < 5.0);
    }

    #[test]
    fn collision_correction_pushes_up() {
        // 5000 balls in 8192 bins collide a lot; the point estimate must
        // exceed the observed marked count.
        let bins = 8192u64;
        let u_true = 5000u64;
        let expect_occupied = OccupancyDist::mean_exact(bins, u_true).round() as i64;
        let est = psc_confidence_interval(bins, expect_occupied, 0, 0.95);
        assert!(est.value > expect_occupied as f64);
        assert!(est.ci.contains(u_true as f64), "true {u_true} not in {est}");
    }

    #[test]
    fn ci_covers_truth_under_noise() {
        let mut rng = StdRng::seed_from_u64(11);
        let bins = 1 << 14;
        let noise = 512u64;
        let mut covered = 0;
        let trials = 60;
        for _ in 0..trials {
            let u_true = rng.gen_range(100..3000u64);
            // Simulate marking.
            let mut hit = vec![false; bins as usize];
            for _ in 0..u_true {
                hit[rng.gen_range(0..bins as usize)] = true;
            }
            let occupied = hit.iter().filter(|h| **h).count() as i64;
            let observed = occupied + sample_binomial_half(noise, &mut rng) as i64;
            let est = psc_confidence_interval(bins as u64, observed, noise, 0.95);
            if est.ci.contains(u_true as f64) {
                covered += 1;
            }
        }
        // 95% CI over 60 trials: ≥ 51 coverage is a loose 3-sigma bound.
        assert!(covered >= 51, "coverage {covered}/{trials}");
    }

    #[test]
    fn wider_noise_wider_ci() {
        let narrow = psc_confidence_interval(1 << 16, 1000, 64, 0.95);
        let wide = psc_confidence_interval(1 << 16, 1000 + 2048, 4096, 0.95);
        assert!(wide.ci.width() > narrow.ci.width());
    }

    #[test]
    fn observed_below_noise_mean_gives_zero_lower_bound() {
        // If the observation is consistent with pure noise, the CI must
        // include zero.
        let est = psc_confidence_interval(1 << 16, 120, 256, 0.95);
        assert_eq!(est.ci.lo, 0.0, "{est}");
    }

    #[test]
    fn large_scale_normal_path() {
        // Paper-scale: 471,228 SLDs observed. Use a big table (2^22) and
        // noise; the normal path must return a sane interval quickly.
        let bins = 1u64 << 22;
        let u_true = 471_228u64;
        let occupied = OccupancyDist::mean_exact(bins, u_true).round() as i64;
        let noise = 10_000u64;
        let observed = occupied + (noise / 2) as i64;
        let est = psc_confidence_interval(bins, observed, noise, 0.95);
        assert!(est.ci.contains(u_true as f64), "{est}");
        // The paper's Table 2 CI half-width for this stat is ~900; ours
        // depends on noise but must be within an order of magnitude.
        assert!(est.ci.width() < 30_000.0, "{est}");
    }

    #[test]
    fn monotone_in_observation() {
        let a = psc_confidence_interval(1 << 16, 500, 128, 0.95);
        let b = psc_confidence_interval(1 << 16, 1500, 128, 0.95);
        assert!(b.ci.lo >= a.ci.lo);
        assert!(b.ci.hi >= a.ci.hi);
    }
}

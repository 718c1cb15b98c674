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

/// P[occupied(u) + Bin(n,1/2) ≤ k], computed exactly for small problems
/// and by moment-matched normal approximation for large ones.
/// `noise_cdf` is [`binom_half_cdf`] of `noise_flips`, present when
/// `noise_flips` is within [`EXACT_NOISE_FLIPS`].
fn observation_cdf(bins: u64, u: u64, noise_flips: u64, noise_cdf: Option<&[f64]>, k: i64) -> f64 {
    if k < 0 {
        return 0.0;
    }
    let k = k as u64;
    // Heuristic cutoff: exact convolution when the DP window × binomial
    // support is small enough to enumerate quickly.
    if let Some(noise_cdf) = noise_cdf.filter(|_| u <= 20_000) {
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
        // Normal approximation with exact moments; continuity-corrected.
        let mean = OccupancyDist::mean_exact(bins, u) + noise_flips as f64 / 2.0;
        let var = OccupancyDist::variance_exact(bins, u) + noise_flips as f64 / 4.0;
        let sd = var.sqrt().max(1e-9);
        pm_dp::mechanism::normal_cdf((k as f64 + 0.5 - mean) / sd)
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
/// subtracting expected noise) and the test-inversion interval.
pub fn psc_confidence_interval(bins: u64, observed: i64, noise_flips: u64, conf: f64) -> Estimate {
    assert!(conf > 0.0 && conf < 1.0);
    let tail = (1.0 - conf) / 2.0;
    // Point estimate: subtract expected noise, invert the occupancy mean.
    let denoised = (observed as f64 - noise_flips as f64 / 2.0).max(0.0);
    let point = OccupancyDist::invert_mean(bins, denoised.min(bins as f64));

    // Test inversion: u is in the CI iff
    //   P[obs ≤ k | u] > tail  AND  P[obs ≥ k | u] > tail.
    // The observation is stochastically increasing in u, so both
    // boundaries are found by binary search.
    // Every probe below reads the same noise distribution: sum it once.
    let noise_cdf = (noise_flips <= EXACT_NOISE_FLIPS).then(|| binom_half_cdf(noise_flips));
    let obs_cdf = |u: u64, k: i64| observation_cdf(bins, u, noise_flips, noise_cdf.as_deref(), k);
    let accept_low = |u: u64| obs_cdf(u, observed) > tail;
    let accept_high = |u: u64| 1.0 - obs_cdf(u, observed - 1) > tail;

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

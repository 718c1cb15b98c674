//! Noise mechanisms: Gaussian (PrivCount) and Binomial (PSC).
//!
//! The Gaussian σ uses the classic analytic bound; the binomial flip
//! count is searched over the exact δ. In both cases an exact (ε, δ)
//! verifier is provided so tests can confirm — not assume — that the
//! calibrated noise satisfies the differential-privacy inequality.
//!
//! The binomial verifier ([`binomial_delta_exact`]) does not sum all
//! n + 1 terms of the definition. Bin(n, ½) has a monotone likelihood
//! ratio under a shift by k, so the terms that survive max(0, ·) form
//! one lower tail; it sums that tail from its top edge downward until
//! what remains cannot change the f64 result. That is still the exact
//! δ, at O(√n) instead of O(n) per evaluation, which keeps calibrating
//! the two-day exit-domain window (k = 40, n ≈ 10⁶) under a millisecond.

use rand::Rng;

// ----- Gaussian mechanism (PrivCount) -----

/// σ for (ε, δ)-DP at L2 sensitivity `delta_f`, via the classic bound
/// σ ≥ Δ·sqrt(2 ln(1.25/δ)) / ε (valid for ε ≤ 1, which covers the
/// paper's ε = 0.3).
pub fn gaussian_sigma(delta_f: f64, eps: f64, delta: f64) -> f64 {
    assert!(delta_f > 0.0 && eps > 0.0 && delta > 0.0 && delta < 1.0);
    delta_f * (2.0 * (1.25 / delta).ln()).sqrt() / eps
}

/// The exact δ achieved by the Gaussian mechanism at scale `sigma`,
/// sensitivity `delta_f`, and privacy parameter `eps` (Balle & Wang,
/// "Improving the Gaussian Mechanism for Differential Privacy", 2018):
///
/// δ(ε) = Φ(Δ/2σ − εσ/Δ) − e^ε · Φ(−Δ/2σ − εσ/Δ)
pub fn gaussian_delta(sigma: f64, delta_f: f64, eps: f64) -> f64 {
    assert!(sigma > 0.0 && delta_f > 0.0);
    let a = delta_f / (2.0 * sigma);
    let b = eps * sigma / delta_f;
    (normal_cdf(a - b) - eps.exp() * normal_cdf(-a - b)).max(0.0)
}

/// Standard normal CDF via an erf approximation (Abramowitz & Stegun
/// 7.1.26, |error| ≤ 1.5×10⁻⁷ — far below the δ scales we verify).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (A&S 7.1.26).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15×10⁻⁹). Used for confidence intervals.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile domain");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Samples `N(0, sigma²)` by Box–Muller (we avoid a rand_distr
/// dependency; two uniforms per draw, one output used).
pub fn sample_gaussian<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        return sigma * r * theta.cos();
    }
}

// ----- Binomial mechanism (PSC) -----

/// Exact δ achieved by adding `Binomial(n, 1/2)` noise to a counting
/// query whose value changes by at most `k` between adjacent inputs.
///
/// Computed from the definition:
/// δ(ε) = max over shift direction of Σ_x max(0, P[X=x] − e^ε·P[X=x−k]).
/// By the symmetry of Bin(n, 1/2) both directions agree, so one suffices.
///
/// The likelihood ratio P[X=x]/P[X=x−k] = Π_{i=1..k} (n−x+i)/(x−k+i)
/// is strictly decreasing in x, so the positive terms are exactly the
/// lower tail x ≤ x\*: nothing is dropped by summing only that tail.
/// x\* is found by bisection on the log-ratio, the two pmf values at
/// x\* are anchored through [`ln_choose`], and the sum walks downward
/// with the recurrence p(x−1) = p(x)·x/(n−x+1) until the mass still to
/// come is below f64 resolution of the running sum — about 10 standard
/// deviations under the mean, so O(k + √n) terms and O(log n)
/// `ln_gamma` calls, with no allocation.
pub fn binomial_delta_exact(n: u64, k: u64, eps: f64) -> f64 {
    assert!(n > 0);
    if k == 0 {
        return 0.0;
    }
    if k > n {
        return 1.0;
    }
    // Every x < k has a positive term (nothing to subtract), so the
    // bracket starts there: the ratio at `lo` exceeds e^ε, at `hi` not.
    let (mut lo, mut hi) = (k - 1, n + 1);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if ln_choose(n, mid) - ln_choose(n, mid - k) > eps {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let pmf = |x: u64| (ln_choose(n, x) - n as f64 * std::f64::consts::LN_2).exp();
    let e_eps = eps.exp();
    let mut x = lo;
    let mut p = pmf(x);
    let mut q = if x < k { 0.0 } else { pmf(x - k) };
    let mut delta: f64 = 0.0;
    loop {
        let diff = p - e_eps * q;
        if diff > 0.0 {
            delta += diff;
        }
        // Below the mode each pmf step down shrinks by at least
        // x/(n−x+1), so all the mass still to come is at most the
        // geometric tail p·x/(n−2x+1).
        let settled = 2 * x <= n && p * x as f64 <= delta * f64::EPSILON * (n - 2 * x + 1) as f64;
        if x == 0 || settled {
            break;
        }
        // q tracks the pmf at x−k and reaches exactly 0 once x < k.
        q *= x.saturating_sub(k) as f64 / (n - x + k + 1) as f64;
        p *= x as f64 / (n - x + 1) as f64;
        x -= 1;
    }
    delta.min(1.0)
}

/// Smallest `n` (number of fair coin flips) such that Binomial(n, 1/2)
/// noise gives (ε, δ)-DP at sensitivity `k`, found by doubling +
/// bisection over the exact δ computation.
pub fn binomial_flips_for(k: u64, eps: f64, delta: f64) -> u64 {
    assert!(k > 0 && eps > 0.0 && delta > 0.0 && delta < 1.0);
    // `lo` is the last n seen to fail. Before any probe that is 0: no
    // flips means no noise, and it is never evaluated.
    let (mut lo, mut hi) = (0u64, 16u64);
    while binomial_delta_exact(hi, k, eps) > delta {
        lo = hi;
        hi *= 2;
        assert!(hi < 1 << 34, "binomial mechanism calibration diverged");
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if binomial_delta_exact(mid, k, eps) > delta {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// `ln C(n, k)` via the log-gamma function.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Lanczos approximation of ln Γ(x) for x > 0 (|rel err| < 2×10⁻¹⁰).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0);
    // Lanczos coefficients (g = 7, n = 9).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Samples Binomial(n, 1/2) noise and returns the raw count of heads in
/// `0..=n`; callers that want it centred subtract n/2 themselves.
pub fn sample_binomial_half<R: Rng + ?Sized>(n: u64, rng: &mut R) -> u64 {
    // For large n use a normal approximation cut to the valid range; the
    // statistical error is far below PSC's reporting granularity. For
    // small n, flip exact coins.
    if n <= 4096 {
        let mut count = 0u64;
        // Batch 64 coin flips per u64 draw.
        let full_words = n / 64;
        for _ in 0..full_words {
            count += rng.gen::<u64>().count_ones() as u64;
        }
        let rest = n % 64;
        if rest > 0 {
            let mask = (1u64 << rest) - 1;
            count += (rng.gen::<u64>() & mask).count_ones() as u64;
        }
        count
    } else {
        let mean = n as f64 / 2.0;
        let sd = (n as f64 / 4.0).sqrt();
        loop {
            let draw = mean + sd * sample_gaussian(1.0, rng);
            let rounded = draw.round();
            if rounded >= 0.0 && rounded <= n as f64 {
                return rounded as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classic_sigma_satisfies_exact_delta() {
        // The classic calibration must pass the exact verifier with room
        // to spare (it is known to be loose).
        for (eps, delta, sens) in [(0.3, 1e-11, 1.0), (0.3, 1e-11, 20.0), (1.0, 1e-6, 400e6)] {
            let sigma = gaussian_sigma(sens, eps, delta);
            let achieved = gaussian_delta(sigma, sens, eps);
            assert!(
                achieved <= delta,
                "eps={eps} delta={delta} sens={sens}: achieved {achieved:e} > {delta:e}"
            );
        }
    }

    #[test]
    fn smaller_sigma_violates_delta() {
        let eps = 0.3;
        let delta = 1e-11;
        let sigma = gaussian_sigma(1.0, eps, delta);
        // At a third of the calibrated σ, δ must be (much) worse.
        let achieved = gaussian_delta(sigma / 3.0, 1.0, eps);
        assert!(achieved > delta, "achieved {achieved:e}");
    }

    #[test]
    fn gaussian_delta_monotone_in_sigma() {
        let mut last = f64::INFINITY;
        for i in 1..=20 {
            let sigma = i as f64;
            let d = gaussian_delta(sigma, 5.0, 0.3);
            assert!(d <= last + 1e-15, "sigma={sigma}");
            last = d;
        }
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.9750021).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}, x={x}");
        }
        // The 97.5% quantile is the famous 1.96.
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
    }

    #[test]
    fn gaussian_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let sigma = 3.0;
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = sample_gaussian(sigma, &mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - sigma * sigma).abs() < 0.2, "var {var}");
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(π)
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_choose_small_values() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-9);
        assert!((ln_choose(10, 0)).abs() < 1e-9);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_delta_exact_brute_force_small() {
        // Cross-check the exact δ against a direct probability comparison
        // for tiny n where we can enumerate everything in rationals.
        let n = 8u64;
        let k = 1u64;
        let eps = 0.5f64;
        // pmf via Pascal's row
        let mut row = vec![1f64];
        for _ in 0..n {
            let mut next = vec![1f64];
            for w in row.windows(2) {
                next.push(w[0] + w[1]);
            }
            next.push(1f64);
            row = next;
        }
        let total = 2f64.powi(n as i32);
        let pmf: Vec<f64> = row.iter().map(|c| c / total).collect();
        let mut expect = 0f64;
        for x in 0..=n as usize {
            let q = if x < k as usize {
                0.0
            } else {
                pmf[x - k as usize]
            };
            let d = pmf[x] - eps.exp() * q;
            if d > 0.0 {
                expect += d;
            }
        }
        let got = binomial_delta_exact(n, k, eps);
        assert!((got - expect).abs() < 1e-12, "got {got}, expect {expect}");
    }

    /// The definition summed term by term over all of 0..=n, with no
    /// special cases: the O(n) reference the tail walk is checked against.
    fn binomial_delta_definition(n: u64, k: u64, eps: f64) -> f64 {
        let lpmf = |x: u64| ln_choose(n, x) - n as f64 * std::f64::consts::LN_2;
        let mut delta: f64 = 0.0;
        for x in 0..=n {
            let p = lpmf(x).exp();
            let q = if x < k { 0.0 } else { lpmf(x - k).exp() };
            let diff = p - eps.exp() * q;
            if diff > 0.0 {
                delta += diff;
            }
        }
        delta.min(1.0)
    }

    fn assert_matches_definition(n: u64, k: u64, eps: f64) {
        let got = binomial_delta_exact(n, k, eps);
        let want = binomial_delta_definition(n, k, eps);
        // The floor covers results so far below the normal range that
        // f64 keeps no relative precision for them.
        assert!(
            (got - want).abs() <= 1e-6 * want + 1e-300,
            "n={n} k={k} eps={eps}: walk {got:e} vs definition {want:e}"
        );
    }

    #[test]
    fn tail_walk_matches_definition_on_a_grid() {
        for n in [1u64, 2, 3, 7, 16, 17, 100, 683, 1000, 4097, 20_000] {
            for k in [1u64, 2, 3, 4, 6, 12, 40] {
                for eps in [0.0, 0.01, 0.1, 0.3, 1.0, 3.0] {
                    assert_matches_definition(n, k, eps);
                }
            }
        }
    }

    #[test]
    fn tail_walk_matches_definition_at_the_edges() {
        // k = 0 moves nothing; k > n leaves no overlap to hide behind.
        assert_eq!(binomial_delta_exact(10, 0, 0.1), 0.0);
        assert_eq!(binomial_delta_exact(4, 5, 0.1), 1.0);
        assert_eq!(binomial_delta_exact(1, 2, 0.1), 1.0);
        // Those, n = 1, and k = n, where a single term has anything
        // subtracted, against the definition.
        for (n, k) in [(10, 0), (4, 5), (1, 2), (1, 1), (9, 9), (64, 64)] {
            assert_matches_definition(n, k, 0.3);
        }
        // x* < k: ε is so large that the ratio at x = k, C(n, k), is
        // already ≤ e^ε, so only x < k contributes and every surviving
        // term has nothing subtracted.
        for (n, k, eps) in [
            (40, 30, 25.0),
            (50, 1, 60.0),
            (5000, 3, 60.0),
            (5000, 40, 400.0),
        ] {
            assert!(ln_choose(n, k) <= eps);
            assert_matches_definition(n, k, eps);
            let below_k: f64 = (0..k)
                .map(|x| (ln_choose(n, x) - n as f64 * std::f64::consts::LN_2).exp())
                .sum();
            let got = binomial_delta_exact(n, k, eps);
            assert!((got - below_k).abs() <= 1e-9 * below_k, "n={n} k={k}");
        }
    }

    #[test]
    fn binomial_flips_pinned_for_the_study_sensitivities() {
        // The values the O(n) evaluator returned: the calendar's and the
        // registry's flip counts must not move with the summation.
        for (k, n) in [
            (1, 683),
            (3, 6085),
            (4, 10811),
            (6, 24315),
            (12, 97238),
            (20, 270091),
            (40, 1080341),
        ] {
            assert_eq!(binomial_flips_for(k, 0.3, 1e-6), n, "k={k}");
        }
    }

    #[test]
    fn binomial_calibration_is_tight() {
        let eps = 0.3;
        let delta = 1e-6;
        for k in 1..=12 {
            let n = binomial_flips_for(k, eps, delta);
            assert!(binomial_delta_definition(n, k, eps) <= delta, "k={k}");
            assert!(binomial_delta_definition(n - 1, k, eps) > delta, "k={k}");
        }
    }

    #[test]
    fn binomial_calibration_finds_answers_below_the_first_probe() {
        // Loose targets are met by fewer flips than the first probe of
        // 16, where no failing n has been seen yet.
        for (k, eps, delta) in [(1, 3.0, 0.2), (1, 1.0, 0.3), (2, 2.0, 0.5), (1, 0.3, 0.45)] {
            let smallest = (1..=16)
                .find(|&n| binomial_delta_definition(n, k, eps) <= delta)
                .expect("target reachable within the first probe");
            assert!(smallest <= 8, "case must sit below the old bracket");
            assert_eq!(
                binomial_flips_for(k, eps, delta),
                smallest,
                "k={k} eps={eps}"
            );
        }
    }

    #[test]
    fn binomial_more_sensitivity_needs_more_flips() {
        let eps = 0.3;
        let delta = 1e-6;
        let n1 = binomial_flips_for(1, eps, delta);
        let n4 = binomial_flips_for(4, eps, delta);
        assert!(n4 > n1);
    }

    #[test]
    fn binomial_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [64u64, 1000, 10_000] {
            let trials = 20_000;
            let mut sum = 0f64;
            for _ in 0..trials {
                sum += sample_binomial_half(n, &mut rng) as f64;
            }
            let mean = sum / trials as f64;
            let expect = n as f64 / 2.0;
            let sd = (n as f64 / 4.0).sqrt();
            // Mean of the sample mean has sd = sd/sqrt(trials).
            assert!(
                (mean - expect).abs() < 6.0 * sd / (trials as f64).sqrt(),
                "n={n}: mean {mean} vs {expect}"
            );
        }
    }
}

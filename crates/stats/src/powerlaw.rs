//! Monte-Carlo extrapolation of network-wide unique counts (§4.3).
//!
//! The measuring exits see a fraction `p` of all visits. Observed unique
//! domains undercount network-wide unique domains because rarely-visited
//! domains are likely to be missed entirely. The paper's method: assume
//! visits follow a power law over a known domain universe, run
//! simulations over plausible exponents, keep the parameter combinations
//! that reproduce the locally observed unique count, and report the
//! spread of the implied network-wide unique counts.
//!
//! For a domain with visit probability `q` and `V` total network visits,
//! P[observed locally] = 1 − (1 − pq)^V ≈ 1 − exp(−pqV), so expected
//! unique counts have closed forms that make the per-simulation work
//! O(universe size).

use crate::ci::{Estimate, Interval};
use rand::Rng;

/// Configuration for the extrapolation.
#[derive(Clone, Debug)]
pub struct PowerLawConfig {
    /// Size of the domain universe (e.g. 10⁶ for the Alexa list).
    pub universe: usize,
    /// Fraction of network visits the measuring relays observe.
    pub observe_fraction: f64,
    /// Range of Zipf exponents to consider plausible (the paper samples
    /// "random exponents"; web popularity studies put s around 0.8–1.2).
    pub exponent_range: (f64, f64),
    /// Number of Monte-Carlo simulations (the paper uses 100).
    pub simulations: usize,
    /// Relative tolerance for matching the observed unique count.
    pub match_tolerance: f64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            universe: 1_000_000,
            observe_fraction: 0.0124,
            exponent_range: (0.8, 1.2),
            simulations: 100,
            match_tolerance: 0.02,
        }
    }
}

/// Expected number of unique domains seen when observing a fraction
/// `frac` of `visits` total visits over a Zipf(`s`) universe of size `n`.
pub fn expected_unique(n: usize, s: f64, visits: f64, frac: f64) -> f64 {
    unique_over(&zipf_weights(n, s), visits, frac)
}

/// Zipf normalization constant Σ r^-s.
fn zipf_norm(n: usize, s: f64) -> f64 {
    (1..=n).map(|r| (r as f64).powf(-s)).sum()
}

/// Visit probabilities `q_r = r^-s / Σ r^-s` for ranks `1..=n`.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let h = zipf_norm(n, s);
    (1..=n).map(|r| (r as f64).powf(-s) / h).collect()
}

/// Expected unique count over a universe with visit probabilities `q`:
/// Σ 1 − exp(−frac·q·visits), summed in rank order.
fn unique_over(q: &[f64], visits: f64, frac: f64) -> f64 {
    let mut total = 0.0;
    for &q in q {
        total += 1.0 - (-frac * q * visits).exp();
    }
    total
}

/// Finds the network visit volume `V` such that the expected *locally
/// observed* unique count over visit probabilities `q` equals `target`,
/// by bisection.
fn solve_visits(q: &[f64], frac: f64, target: f64) -> Option<f64> {
    assert!(target >= 0.0);
    if target >= q.len() as f64 {
        return None; // cannot see more uniques than the universe holds
    }
    let mut lo = 1.0f64;
    let mut hi = 1.0f64;
    // Grow hi until expected_unique exceeds the target (or give up:
    // even enormous volumes can't reach targets ≈ universe size when
    // frac is tiny — those parameters are simply inconsistent).
    let mut guard = 0;
    while unique_over(q, hi, frac) < target {
        hi *= 4.0;
        guard += 1;
        if guard > 60 {
            return None;
        }
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if unique_over(q, mid, frac) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Extrapolates the network-wide unique count from a locally observed
/// unique count.
///
/// For each simulation: draw an exponent, solve for the visit volume
/// that reproduces the local observation (self-check), then compute the
/// implied *network-wide* unique count (observation fraction 1). The
/// returned estimate is the median with a percentile interval across
/// simulations; simulations whose best fit misses the observation by
/// more than `match_tolerance` are discarded (inconsistent exponents).
/// Each simulation builds its exponent's visit probabilities once; every
/// evaluation after that is one `exp` per rank.
pub fn extrapolate_unique_count<R: Rng + ?Sized>(
    observed_unique: u64,
    cfg: &PowerLawConfig,
    rng: &mut R,
) -> Option<Estimate> {
    let mut implied: Vec<f64> = Vec::with_capacity(cfg.simulations);
    for _ in 0..cfg.simulations {
        let s = rng.gen_range(cfg.exponent_range.0..=cfg.exponent_range.1);
        let q = zipf_weights(cfg.universe, s);
        let Some(visits) = solve_visits(&q, cfg.observe_fraction, observed_unique as f64) else {
            continue;
        };
        // Self-check: the solved volume must reproduce the observation.
        let check = unique_over(&q, visits, cfg.observe_fraction);
        if (check - observed_unique as f64).abs() > cfg.match_tolerance * observed_unique as f64 {
            continue;
        }
        // Network-wide: what ALL relays would have seen (fraction 1.0),
        // with binomial sampling noise applied to mimic one simulated run.
        let network = unique_over(&q, visits, 1.0);
        let noise_sd = (network * (1.0 - network / cfg.universe as f64)).sqrt();
        let draw = network + noise_sd * crate::powerlaw::std_normal(rng);
        implied.push(draw.clamp(observed_unique as f64, cfg.universe as f64));
    }
    if implied.is_empty() {
        return None;
    }
    implied.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        let idx = ((implied.len() - 1) as f64 * p).round() as usize;
        implied[idx]
    };
    Some(Estimate::with_ci(
        pct(0.5),
        Interval::new(pct(0.025), pct(0.975)),
    ))
}

/// One standard normal draw (Box–Muller, cosine branch).
pub(crate) fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    pm_dp::mechanism::sample_gaussian(1.0, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expected_unique_monotone_in_visits() {
        let mut last = 0.0;
        for v in [1e3, 1e4, 1e5, 1e6, 1e7] {
            let u = expected_unique(10_000, 1.0, v, 0.01);
            assert!(u >= last);
            last = u;
        }
    }

    #[test]
    fn expected_unique_bounded_by_universe() {
        let u = expected_unique(1000, 1.0, 1e12, 1.0);
        assert!(u <= 1000.0 + 1e-6);
        assert!(u > 999.0);
    }

    #[test]
    fn solve_visits_roundtrip() {
        let n = 20_000;
        let s = 1.05;
        let frac = 0.0124;
        let true_v = 3.0e6;
        let target = expected_unique(n, s, true_v, frac);
        let solved = solve_visits(&zipf_weights(n, s), frac, target).unwrap();
        assert!(
            (solved - true_v).abs() / true_v < 1e-3,
            "solved {solved:e} vs {true_v:e}"
        );
    }

    #[test]
    fn solve_visits_rejects_impossible() {
        assert!(solve_visits(&zipf_weights(100, 1.0), 0.01, 150.0).is_none());
    }

    #[test]
    fn extrapolation_recovers_ground_truth() {
        // Generate a synthetic "truth": Zipf(1.0) universe of 50k, known
        // visit volume; compute the local observation analytically, then
        // check the extrapolated network-wide count covers the true one.
        let n = 50_000;
        let s_true = 1.0;
        let frac = 0.0124;
        let visits = 5.0e6;
        let observed = expected_unique(n, s_true, visits, frac).round() as u64;
        let network_truth = expected_unique(n, s_true, visits, 1.0);
        let cfg = PowerLawConfig {
            universe: n,
            observe_fraction: frac,
            exponent_range: (0.9, 1.1),
            simulations: 60,
            match_tolerance: 0.02,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let est = extrapolate_unique_count(observed, &cfg, &mut rng).unwrap();
        // The interval must cover the truth and the point estimate must
        // be within 20% (exponent uncertainty dominates).
        assert!(
            est.ci.contains(network_truth),
            "truth {network_truth:.0} not in {est}"
        );
        assert!(
            (est.value - network_truth).abs() / network_truth < 0.2,
            "point {} vs {network_truth}",
            est.value
        );
        // Network-wide must exceed the local observation.
        assert!(est.value > observed as f64);
    }

    #[test]
    fn extrapolation_none_when_observation_exceeds_universe() {
        let cfg = PowerLawConfig {
            universe: 100,
            observe_fraction: 0.5,
            exponent_range: (0.9, 1.1),
            simulations: 10,
            match_tolerance: 0.02,
        };
        let mut rng = StdRng::seed_from_u64(6);
        assert!(extrapolate_unique_count(150, &cfg, &mut rng).is_none());
    }
}

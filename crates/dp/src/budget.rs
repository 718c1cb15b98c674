//! Privacy-budget allocation across simultaneously collected statistics.
//!
//! When a measurement round collects several statistics at once, the
//! round's total ε must be split among them (sequential composition over
//! the same data). PrivCount's methodology allocates more budget to
//! statistics whose expected values are small relative to their
//! sensitivity, equalizing expected *relative* error instead of absolute
//! noise.

/// A statistic to be collected in a round.
#[derive(Clone, Debug)]
pub struct StatSpec {
    /// Display name.
    pub name: String,
    /// Sensitivity Δ (from the action bounds).
    pub sensitivity: f64,
    /// A-priori expected value (used only to balance the allocation; a
    /// bad guess costs accuracy, never privacy).
    pub expected: f64,
}

/// Equal split: each of `n` statistics gets ε/n.
pub fn allocate_equal(stats: &[StatSpec], eps_total: f64) -> Vec<f64> {
    assert!(!stats.is_empty());
    vec![eps_total / stats.len() as f64; stats.len()]
}

/// Equal-relative-error split.
///
/// With the Gaussian mechanism, σ_i = c·Δ_i/ε_i, so the expected relative
/// error is ρ_i = c·Δ_i/(ε_i·E_i). Setting all ρ_i equal under
/// Σ ε_i = ε gives ε_i ∝ Δ_i / E_i.
pub fn allocate_equal_relative(stats: &[StatSpec], eps_total: f64) -> Vec<f64> {
    assert!(!stats.is_empty());
    let weights: Vec<f64> = stats
        .iter()
        .map(|s| {
            assert!(s.sensitivity > 0.0, "{}: sensitivity must be > 0", s.name);
            assert!(s.expected > 0.0, "{}: expected must be > 0", s.name);
            s.sensitivity / s.expected
        })
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| eps_total * w / total).collect()
}

/// Splits δ equally across statistics (δ composes additively).
pub fn allocate_delta(num_stats: usize, delta_total: f64) -> f64 {
    assert!(num_stats > 0);
    delta_total / num_stats as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::gaussian_sigma;

    fn stat(name: &str, sensitivity: f64, expected: f64) -> StatSpec {
        StatSpec {
            name: name.into(),
            sensitivity,
            expected,
        }
    }

    fn specs() -> Vec<StatSpec> {
        vec![
            stat("streams", 20.0, 30e6),
            stat("circuits", 651.0, 2e6),
            stat("bytes", 400e6, 5e12),
        ]
    }

    #[test]
    fn equal_allocation_sums() {
        let eps = allocate_equal(&specs(), 0.3);
        assert_eq!(eps.len(), 3);
        assert!((eps.iter().sum::<f64>() - 0.3).abs() < 1e-12);
        assert!((eps[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_allocation_sums_and_equalizes() {
        let stats = specs();
        let eps = allocate_equal_relative(&stats, 0.3);
        assert!((eps.iter().sum::<f64>() - 0.3).abs() < 1e-12);
        // All relative errors equal under the resulting allocation.
        let delta = 1e-11;
        let rel: Vec<f64> = stats
            .iter()
            .zip(&eps)
            .map(|(s, e)| gaussian_sigma(s.sensitivity, *e, delta) / s.expected)
            .collect();
        for w in rel.windows(2) {
            assert!((w[0] - w[1]).abs() / w[0] < 1e-9, "{rel:?}");
        }
    }

    #[test]
    fn relative_allocation_favors_needy_stats() {
        // A statistic with high sensitivity and low expected value must
        // receive more budget than one with low sensitivity and a huge
        // expected value.
        let stats = vec![stat("needy", 651.0, 1e3), stat("comfortable", 20.0, 1e9)];
        let eps = allocate_equal_relative(&stats, 0.3);
        assert!(eps[0] > eps[1] * 1000.0);
    }

    #[test]
    fn delta_split() {
        assert!((allocate_delta(4, 1e-11) - 2.5e-12).abs() < 1e-24);
    }

    #[test]
    fn single_stat_gets_everything() {
        let stats = vec![stat("only", 5.0, 100.0)];
        assert_eq!(allocate_equal(&stats, 0.3), vec![0.3]);
        assert_eq!(allocate_equal_relative(&stats, 0.3), vec![0.3]);
    }
}

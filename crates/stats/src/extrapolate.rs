//! Network-wide extrapolation helpers used by §5–§6.
//!
//! * HSDir replication (§6.1): a v2 onion-service descriptor is stored
//!   at `replicas` independent ring positions (each with a spread of
//!   consecutive directories, already captured by the relays' publish/
//!   fetch *weight*), so a measuring set of weight `w` observes a given
//!   onion address with probability `1 − (1 − w)^replicas`.
//! * The distribution-free range rule (§3.3): with observed unique count
//!   `x` at observation fraction `p`, the network-wide unique count lies
//!   in `[x, x/p]` — the ends covering maximally-popular and
//!   maximally-obscure items respectively.

use crate::ci::{Estimate, Interval};

/// Probability that at least one of `replicas` independent descriptor
/// placements lands on the measuring relays (combined weight `w`).
pub fn hsdir_observe_fraction(weight: f64, replicas: u32) -> f64 {
    assert!((0.0..=1.0).contains(&weight));
    assert!(replicas >= 1);
    1.0 - (1.0 - weight).powi(replicas as i32)
}

/// Extrapolates a unique onion-address count observed at HSDirs with
/// combined weight `weight` and `replicas` descriptor replicas.
pub fn hsdir_extrapolate(local: &Estimate, weight: f64, replicas: u32) -> Estimate {
    let frac = hsdir_observe_fraction(weight, replicas);
    local.scale_to_network(frac)
}

/// The `[x, x/p]` distribution-free range for network-wide unique counts
/// when no frequency model is available (§3.3, used for countries/ASes).
pub fn range_rule(observed: f64, fraction: f64) -> Interval {
    assert!(fraction > 0.0 && fraction <= 1.0);
    Interval::new(observed, observed / fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsdir_fraction_matches_paper_publish() {
        // §6.1: publish weight 2.75%, 2 replicas → observed ≈ 4.93% of
        // addresses (the paper: 3,900 observed of 70,826 ⇒ 5.51%...
        // within the linear-vs-compound spread; with 2 replicas the
        // compound fraction is 5.42%).
        let f = hsdir_observe_fraction(0.0275, 2);
        assert!((f - 0.0542).abs() < 0.001, "{f}");
        // Observed/network consistency: 3900 / f in the CI band.
        let network = 3900.0 / f;
        assert!((network - 70_826.0).abs() / 70_826.0 < 0.05, "{network}");
    }

    #[test]
    fn hsdir_extrapolate_scales_ci() {
        let local = Estimate::with_ci(3900.0, Interval::new(3769.0, 4045.0));
        let net = hsdir_extrapolate(&local, 0.0275, 2);
        assert!(net.value > 70_000.0 && net.value < 73_500.0, "{net}");
        assert!(net.ci.lo > 65_000.0 && net.ci.hi < 77_000.0, "{net}");
    }

    #[test]
    fn replicas_increase_visibility() {
        let f1 = hsdir_observe_fraction(0.01, 1);
        let f2 = hsdir_observe_fraction(0.01, 2);
        let f6 = hsdir_observe_fraction(0.01, 6);
        assert!(f1 < f2 && f2 < f6);
        assert!((f1 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn range_rule_basics() {
        let r = range_rule(1000.0, 0.01);
        assert_eq!(r.lo, 1000.0);
        assert_eq!(r.hi, 100_000.0);
        // Full observation: degenerate range.
        let full = range_rule(1000.0, 1.0);
        assert_eq!(full.lo, full.hi);
    }
}

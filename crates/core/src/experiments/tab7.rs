//! Table 7: onion-service descriptor statistics at HSDirs — fetch
//! volume, the ~90% failure anomaly, and the public/unknown split.

use crate::deployment::Deployment;
use crate::experiments::{fetch_streams, privcount_round};
use crate::report::{fmt_count, fmt_estimate, fmt_pct, Report, ReportRow};
use privcount::{queries, run_round};
use std::collections::HashSet;
use std::sync::Arc;
use torsim::ids::OnionAddr;

/// Runs the Table 7 measurement.
pub fn run(dep: &Deployment) -> Report {
    let fraction = dep.weights.tab7_fetch;
    // The ahmia-like public index: the set of publicly-listed onion
    // addresses under the generation scheme (even address indices).
    let public_universe = (dep.workload.onion.fetched_addresses as f64 * dep.scale) as u64;
    // lint:allow(unordered-map) membership probe only (contains), never iterated
    let public_set: HashSet<OnionAddr> = (0..public_universe)
        .map(|k| OnionAddr::from_index(2 * k))
        .collect();
    let is_public = Arc::new(move |addr: &OnionAddr| public_set.contains(addr));

    let schema = queries::hsdir_fetches(is_public, dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "tab7");
    let addr_observe = 1.0 - (1.0 - fraction).powi(6);
    let gens = fetch_streams(dep, fraction, addr_observe, 10, "tab7");
    let result = run_round(cfg, gens).expect("tab7 round");

    let fetched = dep.to_network(result.estimate("desc.fetched"), fraction);
    let succeeded = dep.to_network(result.estimate("desc.succeeded"), fraction);
    let failed = dep.to_network(result.estimate("desc.failed"), fraction);
    let public = result.estimate("desc.public");
    let unknown = result.estimate("desc.unknown");
    let succeeded_local = result.estimate("desc.succeeded");
    let fail_rate = failed.value / 86_400.0;

    let t = &dep.workload.onion;
    let mut report = Report::new("T7", "Network-wide onion-service descriptor statistics");
    report.row(ReportRow::new(
        "Fetched",
        fmt_estimate(&fetched),
        fmt_count(t.fetch_attempts_per_day),
        "134e6 [117e6; 150e6]",
    ));
    report.row(ReportRow::new(
        "Succeeded",
        fmt_estimate(&succeeded),
        fmt_count(t.fetch_attempts_per_day * (1.0 - t.fetch_fail_fraction)),
        "12.2e6 [10.6e6; 13.7e6]",
    ));
    report.row(ReportRow::new(
        "Failed",
        fmt_estimate(&failed),
        fmt_count(t.fetch_attempts_per_day * t.fetch_fail_fraction),
        "121e6 [103e6; 140e6]",
    ));
    report.row(ReportRow::new(
        "Fail rate (per second)",
        fmt_count(fail_rate),
        fmt_count(t.fetch_attempts_per_day * t.fetch_fail_fraction / 86_400.0),
        "1,400/s [1,192; 1,620]",
    ));
    report.row(ReportRow::new(
        "Fail fraction",
        fmt_pct(&failed, &fetched),
        format!("{:.1}%", t.fetch_fail_fraction * 100.0),
        "90.9% [87.8; 93.2]",
    ));
    report.row(ReportRow::new(
        "Public (of successes)",
        fmt_pct(&public, &succeeded_local),
        format!("{:.1}%", t.public_fetch_fraction * 100.0),
        "56.8% [36.9; 83.6]",
    ));
    report.row(ReportRow::new(
        "Unknown (of successes)",
        fmt_pct(&unknown, &succeeded_local),
        format!("{:.1}%", (1.0 - t.public_fetch_fraction) * 100.0),
        "47.6% [28.8; 72.7]",
    ));
    report.note(format!(
        "HSDir fetch weight {:.3}%, scale {}",
        fraction * 100.0,
        dep.scale
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use torsim::sampled::is_public_address;

    #[test]
    fn tab7_failure_anomaly_reproduced() {
        let dep = Deployment::at_scale(5e-3, 23);
        let report = run(&dep);
        let fail_pct: f64 = report
            .rows
            .iter()
            .find(|r| r.label == "Fail fraction")
            .unwrap()
            .measured
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((fail_pct - 90.9).abs() < 2.5, "fail {fail_pct}%");
        let public_pct: f64 = report
            .rows
            .iter()
            .find(|r| r.label == "Public (of successes)")
            .unwrap()
            .measured
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // The paper's own CI is [36.9; 83.6]%; success counts are small.
        assert!((public_pct - 56.8).abs() < 12.0, "public {public_pct}%");
    }

    #[test]
    fn tab7_reports_at_a_scale_too_small_for_its_ratios() {
        // At 2e-5 the success count's CI straddles 0, so "of successes"
        // has no bounded ratio; that is a row saying so, not a panic.
        let report = run(&Deployment::at_scale(2e-5, 2018));
        assert_eq!(report.rows.len(), 7);
        let public = report
            .rows
            .iter()
            .find(|r| r.label == "Public (of successes)")
            .unwrap();
        assert_eq!(public.measured, "n/a (denominator CI reaches 0)");
    }

    #[test]
    fn public_marker_consistency() {
        // The generation-side parity marker and the experiment's index
        // agree on what "public" means.
        assert!(is_public_address(0));
        assert!(is_public_address(42));
        assert!(!is_public_address(43));
    }
}

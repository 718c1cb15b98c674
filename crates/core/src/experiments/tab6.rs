//! Table 6: network-wide unique onion addresses, published and fetched,
//! via PSC at the HSDirs with replication-based extrapolation (§6.1).

use crate::deployment::Deployment;
use crate::experiments::{fetch_streams, psc_round, publish_stream};
use crate::report::{fmt_count, fmt_estimate, Report, ReportRow};
use pm_dp::bounds::{Action, Sensitivity};
use pm_stats::extrapolate::{hsdir_extrapolate, hsdir_observe_fraction};
use psc::{items, run_psc_round};
use torsim::stream::EventStream;

/// Runs the Table 6 measurements.
pub fn run(dep: &Deployment) -> Report {
    let t = &dep.workload.onion;
    let mut report = Report::new(
        "T6",
        "Network-wide unique v2 onion addresses (PSC + extrapolation)",
    );

    // --- published addresses ---
    let w_pub = dep.weights.tab6_publish;
    let observe_pub = hsdir_observe_fraction(w_pub, 2);
    let expected = t.published_addresses as f64 * dep.scale * observe_pub;
    let cfg = psc_round(
        dep,
        expected.max(64.0),
        Sensitivity::of(Action::UploadNewOnionAddress),
        "tab6-pub",
    );
    let gens: Vec<EventStream> = vec![publish_stream(dep, observe_pub, "tab6-pub")];
    let result = run_psc_round(cfg, items::unique_onions_published(), gens).expect("tab6 pub");
    let local = result.estimate(0.95);
    report.row(ReportRow::new(
        "published, observed locally (at scale)",
        fmt_estimate(&local),
        fmt_count(expected),
        "3,900 [3,769; 4,045]",
    ));
    let network = hsdir_extrapolate(&local, w_pub, 2).scale_to_network(dep.scale);
    report.row(ReportRow::new(
        "published, network-wide (rescaled)",
        fmt_estimate(&network),
        fmt_count(t.published_addresses as f64),
        "70,826 [65,738; 76,350]",
    ));

    // --- fetched addresses ---
    let w_fetch = dep.weights.tab6_fetch;
    let observe_fetch = hsdir_observe_fraction(w_fetch, 6);
    let expected = t.fetched_addresses as f64 * dep.scale * observe_fetch;
    let cfg = psc_round(
        dep,
        expected.max(64.0),
        Sensitivity::of(Action::FetchDescriptor),
        "tab6-fetch",
    );
    let gens = fetch_streams(dep, w_fetch, observe_fetch, 1, "tab6-fetch");
    let result = run_psc_round(cfg, items::unique_onions_fetched(), gens).expect("tab6 fetch");
    let local = result.estimate(0.95);
    report.row(ReportRow::new(
        "fetched, observed locally (at scale)",
        fmt_estimate(&local),
        fmt_count(expected),
        "2,401 [1,101; 3,718]",
    ));
    let network = hsdir_extrapolate(&local, w_fetch, 6).scale_to_network(dep.scale);
    report.row(ReportRow::new(
        "fetched, network-wide (rescaled)",
        fmt_estimate(&network),
        fmt_count(t.fetched_addresses as f64),
        "74,900 [34,363; 696,255]",
    ));
    report.note(format!(
        "publish weight {:.2}% with 2 descriptor replicas; fetch weight {:.3}% with \
         6 responsible directories (2 replicas × 3 spread), scale {}",
        w_pub * 100.0,
        w_fetch * 100.0,
        dep.scale
    ));
    report.note(
        "between ~45% and 100% of active services are fetched by clients, \
         matching the paper's published-vs-fetched comparison",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab6_extrapolation_recovers_universe() {
        let dep = Deployment::at_scale(5e-2, 47);
        let report = run(&dep);
        // Network-wide published estimate within 25% of the configured
        // 70,826 (binomial observation noise dominates at small scale).
        let net: f64 = report.rows[1]
            .measured
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            (net - 70_826.0).abs() / 70_826.0 < 0.25,
            "network-wide {net}"
        );
    }
}

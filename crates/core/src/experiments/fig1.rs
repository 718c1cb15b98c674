//! Figure 1: exit stream breakdown (total/initial, address kind, port
//! class), inferred network-wide.

use crate::deployment::Deployment;
use crate::experiments::{exit_streams, privcount_round};
use crate::report::{fmt_count, fmt_estimate, Report, ReportRow};
use privcount::{queries, run_round};

/// Runs the Figure 1 measurement.
pub fn run(dep: &Deployment) -> Report {
    let fraction = dep.weights.fig1_exit;
    let schema = queries::exit_streams(dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "fig1");
    let gens = exit_streams(dep, fraction, false, 6, "fig1");
    let result = run_round(cfg, gens).expect("fig1 round");

    let net = |name: &str| dep.to_network(result.estimate(name), fraction);
    let total = net("streams.total");
    let initial = net("streams.initial");
    let hostname = net("initial.hostname");
    let ipv4 = net("initial.ipv4");
    let ipv6 = net("initial.ipv6");
    let web = net("hostname.web");
    let other = net("hostname.other");

    let t = &dep.workload.exit;
    let truth_total = t.streams_per_day;
    let truth_initial = truth_total * t.initial_fraction;

    let mut report = Report::new("F1", "Exit streams over 24 hours (network-wide)");
    report.row(ReportRow::new(
        "streams total",
        fmt_estimate(&total),
        fmt_count(truth_total),
        "~2.0e9",
    ));
    report.row(ReportRow::new(
        "initial streams",
        fmt_estimate(&initial),
        fmt_count(truth_initial),
        "~1e8 (5% of total)",
    ));
    report.row(ReportRow::new(
        "initial: hostname",
        fmt_estimate(&hostname),
        fmt_count(truth_initial * (1.0 - t.ipv4_literal_fraction - t.ipv6_literal_fraction)),
        "almost all",
    ));
    report.row(ReportRow::new(
        "initial: IPv4 literal",
        fmt_count(ipv4.most_likely_nonnegative()),
        fmt_count(truth_initial * t.ipv4_literal_fraction),
        "insignificant (most likely 0)",
    ));
    report.row(ReportRow::new(
        "initial: IPv6 literal",
        fmt_count(ipv6.most_likely_nonnegative()),
        fmt_count(truth_initial * t.ipv6_literal_fraction),
        "insignificant (most likely 0)",
    ));
    report.row(ReportRow::new(
        "hostname: web port",
        fmt_estimate(&web),
        fmt_count(
            truth_initial
                * (1.0 - t.ipv4_literal_fraction - t.ipv6_literal_fraction)
                * (1.0 - t.other_port_fraction),
        ),
        "almost all",
    ));
    report.row(ReportRow::new(
        "hostname: other port",
        fmt_count(other.most_likely_nonnegative()),
        fmt_count(
            truth_initial
                * (1.0 - t.ipv4_literal_fraction - t.ipv6_literal_fraction)
                * t.other_port_fraction,
        ),
        "insignificant",
    ));
    report.note(format!(
        "exit weight {:.2}%, scale {}, σ scaled with workload",
        fraction * 100.0,
        dep.scale
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_recovers_ground_truth_shape() {
        let dep = Deployment::at_scale(2e-3, 11);
        let report = run(&dep);
        assert_eq!(report.rows.len(), 7);
        // Parse the measured total back out of the first row and check
        // it is within 10% of truth.
        let measured: f64 = report.rows[0]
            .measured
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let truth = 2.0e9;
        assert!(
            (measured - truth).abs() / truth < 0.1,
            "measured {measured:e}"
        );
    }
}

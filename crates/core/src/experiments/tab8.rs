//! Table 8: rendezvous-point statistics — circuit outcomes and payload
//! volume.

use crate::deployment::Deployment;
use crate::experiments::{privcount_round, rend_streams};
use crate::report::{fmt_count, fmt_estimate, fmt_pct, fmt_ratio, fmt_tib, Report, ReportRow};
use privcount::{queries, run_round};

/// Runs the Table 8 measurement.
pub fn run(dep: &Deployment) -> Report {
    let fraction = dep.weights.tab8_rend;
    let schema = queries::rendezvous(dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "tab8");
    let gens = rend_streams(dep, fraction, 10, "tab8");
    let result = run_round(cfg, gens).expect("tab8 round");

    let circuits = dep.to_network(result.estimate("rend.circuits"), fraction);
    let local_total = result.estimate("rend.circuits");
    let succeeded = result.estimate("rend.succeeded");
    let connclosed = result.estimate("rend.failed.connclosed");
    let expired = result.estimate("rend.failed.expired");
    let payload = dep.to_network(result.estimate("rend.payload_bytes"), fraction);
    let gbit_s = payload.value * 8.0 / 86_400.0 / 1e9;

    let t = &dep.workload.onion;
    let mut report = Report::new("T8", "Network-wide rendezvous statistics");
    report.row(ReportRow::new(
        "Total circuits",
        fmt_estimate(&circuits),
        fmt_count(t.rend_circuits_per_day),
        "366e6 [351e6; 380e6]",
    ));
    report.row(ReportRow::new(
        "Succeeded",
        fmt_pct(&succeeded, &local_total),
        format!("{:.2}%", t.rend_success * 100.0),
        "8.08% [3.47; 13.1]",
    ));
    report.row(ReportRow::new(
        "Failed: conn. closed",
        fmt_pct(&connclosed, &local_total),
        format!("{:.2}%", t.rend_connclosed * 100.0),
        "4.37% [0.0; 9.23]",
    ));
    report.row(ReportRow::new(
        "Failed: circuit expired",
        fmt_pct(&expired, &local_total),
        format!("{:.1}%", t.rend_expired * 100.0),
        "84.9% [77.0; 93.5]",
    ));
    report.row(ReportRow::new(
        "Cell payload",
        format!(
            "{} [{}; {}]",
            fmt_tib(payload.value),
            fmt_tib(payload.ci.lo),
            fmt_tib(payload.ci.hi)
        ),
        fmt_tib(t.rend_payload_per_day),
        "20.1 TiB [15.2; 24.9]",
    ));
    report.row(ReportRow::new(
        "Cell payload / second",
        format!("{gbit_s:.2} Gbit/s"),
        format!(
            "{:.2} Gbit/s",
            t.rend_payload_per_day * 8.0 / 86_400.0 / 1e9
        ),
        "2.04 Gbit/s [1.55; 2.53]",
    ));
    report.row(ReportRow::new(
        "Cell payload / circuit",
        fmt_ratio(&succeeded, &local_total, |success| {
            let per_circuit_kib = payload.value / (circuits.value * success.value) / 1024.0;
            format!("{per_circuit_kib:.0} KiB/circ.")
        }),
        format!(
            "{:.0} KiB/circ.",
            t.mean_payload_per_active_circuit() / 1024.0
        ),
        "730 KiB/circ. [341; 2,070]",
    ));
    report.note(format!(
        "rendezvous weight {:.2}%; each rendezvous counts 2 circuits at the RP",
        fraction * 100.0
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab8_shape() {
        let dep = Deployment::at_scale(1e-3, 29);
        let report = run(&dep);
        let get_pct = |label: &str| -> f64 {
            report
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .measured
                .split('%')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // The paper's own CIs here are wide ([3.47; 13.1]% success,
        // [77.0; 93.5]% expired); allow matching spread.
        assert!((get_pct("Succeeded") - 8.1).abs() < 4.0);
        assert!((get_pct("Failed: circuit expired") - 84.9).abs() < 6.0);
        // Total circuits within 10% of 366e6.
        let total: f64 = report.rows[0]
            .measured
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((total - 3.66e8).abs() / 3.66e8 < 0.1, "total {total:e}");
    }
}

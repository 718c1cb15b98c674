//! Figure 4: per-country client usage — connections, bytes, circuits —
//! including the UAE circuit anomaly.

use crate::deployment::Deployment;
use crate::experiments::{client_traffic, privcount_round};
use crate::report::{fmt_count, Report, ReportRow};
use privcount::queries::{self, CountryStat};
use privcount::run_round;
use std::sync::Arc;

/// Countries the paper's three panels name, in panel order.
pub const PAPER_CONN_TOP: [&str; 10] = ["US", "RU", "DE", "UA", "FR", "VE", "NA", "NZ", "BV", "CA"];
const PAPER_BYTES_TOP: [&str; 5] = ["US", "RU", "DE", "UA", "GB"];
const PAPER_CIRC_TOP: [&str; 6] = ["US", "FR", "RU", "DE", "PL", "AE"];

/// Runs the three Figure 4 measurements (separate rounds, as in the
/// paper).
pub fn run(dep: &Deployment) -> Report {
    let fraction = dep.weights.tab4_entry;
    let mut report = Report::new("F4", "Per-country client usage (top countries by estimate)");

    for (stat, label, paper_top) in [
        (CountryStat::Connections, "connections", &PAPER_CONN_TOP[..]),
        (CountryStat::Bytes, "bytes", &PAPER_BYTES_TOP[..]),
        (CountryStat::Circuits, "circuits", &PAPER_CIRC_TOP[..]),
    ] {
        let schema = queries::country_histogram(Arc::clone(&dep.geo), stat, dep.eps(), dep.delta());
        let cfg = privcount_round(dep, schema, &format!("fig4-{label}"));
        let circuits = stat == CountryStat::Circuits;
        let gens = client_traffic(dep, fraction, circuits, 10, &format!("fig4-{label}"));
        let result = run_round(cfg, gens).expect("fig4 round");

        // Rank countries by estimate; report the top 10, marking
        // noise-dominated entries the way the paper drops them.
        let mut by_country: Vec<(String, f64, f64)> = result
            .estimates()
            .into_iter()
            .map(|(name, est)| {
                let country = name.trim_start_matches("country.").to_string();
                (country, est.value, est.ci.width())
            })
            .collect();
        by_country.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (rank, (country, value, ci_width)) in by_country.iter().take(10).enumerate() {
            let significant = *value > *ci_width / 2.0;
            let net = dep.to_network(
                pm_stats::Estimate::gaussian95(*value, ci_width / (2.0 * 1.96)),
                fraction,
            );
            report.row(ReportRow::new(
                format!("[{label}] #{} {}", rank + 1, country),
                format!(
                    "{}{}",
                    fmt_count(net.value),
                    if significant {
                        ""
                    } else {
                        " (noise-dominated)"
                    }
                ),
                "(geo-configured)",
                if rank < paper_top.len() {
                    format!("#{} {}", rank + 1, paper_top[rank])
                } else {
                    "(unreported)".to_string()
                },
            ));
        }
    }
    report.note(
        "most of the 250 countries are noise-dominated, as in the paper; \
         AE ranks high in circuits but not connections/bytes (the §5.2 anomaly)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_top_countries_and_ae_anomaly() {
        let dep = Deployment::at_scale(1e-3, 31);
        let report = run(&dep);
        // Top-3 connection countries are US, RU, DE in order.
        let conn_rows: Vec<&ReportRow> = report
            .rows
            .iter()
            .filter(|r| r.label.starts_with("[connections]"))
            .collect();
        assert!(conn_rows[0].label.ends_with("US"), "{}", conn_rows[0].label);
        assert!(conn_rows[1].label.ends_with("RU"), "{}", conn_rows[1].label);
        assert!(conn_rows[2].label.ends_with("DE"), "{}", conn_rows[2].label);
        // AE appears in the circuits top-10 but NOT the connections
        // top-10 — the anomaly.
        let circ_has_ae = report
            .rows
            .iter()
            .any(|r| r.label.starts_with("[circuits]") && r.label.ends_with(" AE"));
        let conn_has_ae = conn_rows.iter().any(|r| r.label.ends_with(" AE"));
        assert!(circ_has_ae, "AE missing from circuits top-10");
        assert!(!conn_has_ae, "AE should not be a top connection country");
    }
}

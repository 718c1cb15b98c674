//! Figure 3: primary domains by top-level domain — all sites vs
//! Alexa-member sites.

use crate::deployment::Deployment;
use crate::experiments::{exit_streams, privcount_round};
use crate::report::{fmt_pct, Report, ReportRow};
use privcount::{queries, run_round};
use std::sync::Arc;
use torsim::sites::MEASURED_TLDS;

/// Paper percentages for the all-sites measurement, in
/// `MEASURED_TLDS` order then "other". (torproject.org counts inside
/// .org here: the wildcard implementation could not separate it.)
const PAPER_ALL_PCT: [f64; 15] = [
    37.2, 44.1, 5.0, 0.3, 0.0, 0.7, 0.4, 0.2, 0.2, 0.1, 0.5, 0.3, 2.8, 0.5, 7.9,
];

/// Paper percentages for the Alexa-only measurement (torproject
/// separated at 41.5%).
const PAPER_ALEXA_PCT: [f64; 15] = [
    26.6, 1.1, 1.1, 0.5, 0.2, 0.4, 0.4, 0.0, 0.0, 0.0, 0.4, 0.2, 2.4, 0.1, 26.1,
];

/// Runs both Figure 3 measurements.
pub fn run(dep: &Deployment) -> Report {
    let mut report = Report::new("F3", "Primary domains by TLD: all sites vs Alexa (%)");
    for (alexa_only, fraction, paper) in [
        (false, dep.weights.fig3_all_exit, &PAPER_ALL_PCT),
        (true, dep.weights.fig3_alexa_exit, &PAPER_ALEXA_PCT),
    ] {
        let tag = if alexa_only { "alexa" } else { "all" };
        let schema =
            queries::tld_histogram(Arc::clone(&dep.sites), alexa_only, dep.eps(), dep.delta());
        let cfg = privcount_round(dep, schema, &format!("fig3-{tag}"));
        let gens = exit_streams(dep, fraction, true, 6, &format!("fig3-{tag}"));
        let result = run_round(cfg, gens).expect("fig3 round");
        let total = result.estimate("tld.total");
        for (i, tld) in MEASURED_TLDS.iter().enumerate() {
            report.row(ReportRow::new(
                format!("[{tag}] .{tld}"),
                fmt_pct(&result.estimate(&format!("tld.{tld}")), &total),
                "(mix-configured)",
                format!("{:.1}%", paper[i]),
            ));
        }
        report.row(ReportRow::new(
            format!("[{tag}] other TLDs"),
            fmt_pct(&result.estimate("tld.other"), &total),
            "(mix-configured)",
            format!("{:.1}%", paper[14]),
        ));
        if alexa_only {
            report.row(ReportRow::new(
                "[alexa] torproject.org (separate)",
                fmt_pct(&result.estimate("tld.torproject"), &total),
                "(mix-configured)",
                "41.5%",
            ));
        }
    }
    report.note(
        "all-sites .org includes torproject.org (wildcard restriction, §4.3); \
         Alexa-only separates it",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape() {
        let dep = Deployment::at_scale(2e-3, 17);
        let report = run(&dep);
        let get = |label: &str| -> f64 {
            report
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .measured
                .split('%')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // All-sites: .org dominated by torproject (~40% + base org).
        let org_all = get("[all] .org");
        assert!(org_all > 35.0, ".org all-sites {org_all}%");
        // .com ≈ paper's 37.2% (hash-assigned TLDs on rank-set/long-tail
        // visits plus the non-torproject family heads, which are .com).
        let com_all = get("[all] .com");
        assert!((com_all - 37.2).abs() < 5.0, ".com {com_all}%");
        // .ru the largest measured ccTLD.
        let ru = get("[all] .ru");
        for cc in ["br", "cn", "de", "fr", "in", "ir", "it", "jp", "pl", "uk"] {
            assert!(ru >= get(&format!("[all] .{cc}")), ".ru must lead ccTLDs");
        }
        // Alexa-only torproject separated ≈ 40%.
        let tp = get("[alexa] torproject.org (separate)");
        assert!((tp - 41.0).abs() < 4.0, "torproject {tp}%");
    }
}

//! Figure 2: primary-domain frequency by Alexa rank set and by top-10
//! sibling family.

use crate::deployment::Deployment;
use crate::experiments::{exit_streams, privcount_round};
use crate::report::{fmt_pct, Report, ReportRow};
use privcount::{queries, run_round};
use std::sync::Arc;
use torsim::sites::Family;

/// Paper percentages for the rank sets (top plot) in set order, then
/// other, then torproject.
const PAPER_RANK_PCT: [f64; 8] = [8.4, 5.1, 6.2, 4.3, 7.7, 7.0, 21.7, 40.1];

/// Paper percentages for the sibling families (bottom plot), in
/// `Family::ALL` order, then other.
const PAPER_FAMILY_PCT: [f64; 12] = [2.4, 0.1, 0.3, 0.0, 0.0, 0.2, 0.0, 0.1, 9.7, 0.4, 39.0, 48.1];

/// Runs both Figure 2 measurements.
pub fn run(dep: &Deployment) -> Report {
    let mut report = Report::new(
        "F2",
        "Primary domains in Alexa rank sets and sibling families (%)",
    );

    // --- rank-set measurement ---
    let fraction = dep.weights.fig2_rank_exit;
    let schema = queries::alexa_rank_histogram(Arc::clone(&dep.sites), dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "fig2-rank");
    let gens = exit_streams(dep, fraction, true, 6, "fig2-rank");
    let result = run_round(cfg, gens).expect("fig2 rank round");
    let total = result.estimate("rank.total");
    let labels = [
        "rank (0,10]",
        "rank (10,100]",
        "rank (100,1k]",
        "rank (1k,10k]",
        "rank (10k,100k]",
        "rank (100k,1m]",
        "rank other (non-Alexa)",
        "torproject.org",
    ];
    let names = [
        "rank.(0,10]",
        "rank.(10,100]",
        "rank.(100,1k]",
        "rank.(1k,10k]",
        "rank.(10k,100k]",
        "rank.(100k,1m]",
        "rank.other",
        "rank.torproject",
    ];
    for ((label, name), paper) in labels.iter().zip(names).zip(PAPER_RANK_PCT) {
        report.row(ReportRow::new(
            *label,
            fmt_pct(&result.estimate(name), &total),
            "(mix-configured)",
            format!("{paper:.1}%"),
        ));
    }

    // --- siblings measurement (separate day & weight) ---
    let fraction = dep.weights.fig2_siblings_exit;
    let schema = queries::alexa_siblings_histogram(Arc::clone(&dep.sites), dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "fig2-siblings");
    let gens = exit_streams(dep, fraction, true, 6, "fig2-siblings");
    let result = run_round(cfg, gens).expect("fig2 siblings round");
    let total = result.estimate("family.total");
    for (i, fam) in Family::ALL.iter().enumerate() {
        let family = result.estimate(&format!("family.{}", fam.basename()));
        report.row(ReportRow::new(
            format!("family {}", fam.basename()),
            fmt_pct(&family, &total),
            "(mix-configured)",
            format!("{:.1}%", PAPER_FAMILY_PCT[i]),
        ));
    }
    report.row(ReportRow::new(
        "family other",
        fmt_pct(&result.estimate("family.other"), &total),
        "(mix-configured)",
        format!("{:.1}%", PAPER_FAMILY_PCT[11]),
    ));
    report.note(
        "rank-set and sibling measurements ran on different days in the paper and \
         are not mutually consistent to the decimal; our single mix compromises \
         (DESIGN.md §4)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct_of(row: &ReportRow) -> f64 {
        row.measured.split('%').next().unwrap().parse().unwrap()
    }

    #[test]
    fn fig2_headline_shares() {
        let dep = Deployment::at_scale(2e-3, 13);
        let report = run(&dep);
        // torproject ≈ 40% in the rank measurement.
        let tp = report
            .rows
            .iter()
            .find(|r| r.label == "torproject.org")
            .unwrap();
        let v = pct_of(tp);
        assert!((v - 40.0).abs() < 3.0, "torproject {v}%");
        // amazon family ≈ 9.7%.
        let az = report
            .rows
            .iter()
            .find(|r| r.label == "family amazon")
            .unwrap();
        let v = pct_of(az);
        assert!((v - 9.3).abs() < 2.0, "amazon {v}%");
        // google family ≈ 2.4%.
        let gg = report
            .rows
            .iter()
            .find(|r| r.label == "family google")
            .unwrap();
        let v = pct_of(gg);
        assert!((v - 2.3).abs() < 1.0, "google {v}%");
    }
}

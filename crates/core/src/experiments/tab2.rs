//! Table 2: unique second-level domains via PSC, plus the §4.3
//! Monte-Carlo power-law extrapolation of network-wide Alexa SLDs.

use crate::deployment::Deployment;
use crate::experiments::{exit_streams, psc_round};
use crate::report::{fmt_count, fmt_estimate, Report, ReportRow};
use pm_dp::bounds::{Action, Sensitivity};
use pm_stats::powerlaw::{extrapolate_unique_count, PowerLawConfig};
use psc::{items, run_psc_round};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;

/// Runs the Table 2 measurements.
pub fn run(dep: &Deployment) -> Report {
    let fraction = dep.weights.tab2_exit;
    // Expected draw count sizes the tables.
    let draws = dep.workload.exit.streams_per_day
        * dep.workload.exit.initial_fraction
        * fraction
        * dep.scale;

    let mut report = Report::new("T2", "Locally observed unique second-level domains (PSC)");

    // Ground truth via a parallel replay of the same seeded generators.
    let (truth_all, truth_alexa) = ground_truth_uniques(dep, fraction);

    for (alexa_only, truth, label, paper) in [
        (false, truth_all, "SLDs", "471,228 [470,357; 472,099]"),
        (true, truth_alexa, "Alexa SLDs", "35,660 [34,789; 37,393]"),
    ] {
        let cfg = psc_round(
            dep,
            draws,
            Sensitivity::of(Action::ConnectToDomain),
            &format!("tab2-{label}"),
        );
        let gens = exit_streams(
            dep,
            fraction,
            true,
            5, // 5 of the 6 exits, as in the paper
            &format!("tab2-{label}"),
        );
        let extractor = items::unique_slds(Arc::clone(&dep.sites), alexa_only);
        let result = run_psc_round(cfg, extractor, gens).expect("tab2 round");
        let est = result.estimate(0.95);
        report.row(ReportRow::new(
            format!("unique {label} (at scale)"),
            fmt_estimate(&est),
            fmt_count(truth as f64),
            paper,
        ));
        if alexa_only {
            // §4.3 extrapolation: network-wide unique Alexa SLDs.
            let cfg = PowerLawConfig {
                universe: dep.sites.config().alexa_size as usize,
                observe_fraction: fraction,
                exponent_range: (0.7, 1.1),
                simulations: 100,
                match_tolerance: 0.02,
            };
            let mut rng = StdRng::seed_from_u64(dep.seed ^ 0x71ab2);
            let mut span = dep.recorder.span("stats.powerlaw", "stats");
            span.note("universe", cfg.universe);
            span.note("simulations", cfg.simulations);
            let net = extrapolate_unique_count(est.value.round() as u64, &cfg, &mut rng);
            drop(span);
            if let Some(net) = net {
                let net_truth = network_truth_alexa_uniques(dep);
                report.row(ReportRow::new(
                    "network-wide Alexa SLDs (MC extrapolation)",
                    fmt_estimate(&net),
                    fmt_count(net_truth as f64),
                    "513,342 [512,760; 514,693]",
                ));
            }
        }
    }
    report.note(format!(
        "unique counts do not rescale linearly; compare measured vs ground truth \
         at scale {} (paper values shown for shape)",
        dep.scale
    ));
    report.note("long tail dominates: unique SLDs ≫ unique Alexa SLDs, as in the paper");
    report
}

/// Replays the measurement generators against plain hash sets to obtain
/// the exact local ground truth.
fn ground_truth_uniques(dep: &Deployment, fraction: f64) -> (u64, u64) {
    // lint:allow(unordered-map) distinct-count ground truth: only len() is observed
    let mut all = HashSet::new();
    // lint:allow(unordered-map) distinct-count ground truth: only len() is observed
    let mut alexa = HashSet::new();
    let ex_all = items::unique_slds(Arc::clone(&dep.sites), false);
    let ex_alexa = items::unique_slds(Arc::clone(&dep.sites), true);
    for (label, set, ex) in [
        ("tab2-SLDs", &mut all, &ex_all),
        ("tab2-Alexa SLDs", &mut alexa, &ex_alexa),
    ] {
        for g in exit_streams(dep, fraction, true, 5, label) {
            g.for_each(|ev| {
                if let Some(item) = ex(&ev) {
                    set.insert(item);
                }
            });
        }
    }
    (all.len() as u64, alexa.len() as u64)
}

/// Simulates the full network's Alexa uniques for the extrapolation
/// ground truth (observation fraction 1).
fn network_truth_alexa_uniques(dep: &Deployment) -> u64 {
    // lint:allow(unordered-map) distinct-count ground truth: only len() is observed
    let mut set = HashSet::new();
    let ex = items::unique_slds(Arc::clone(&dep.sites), true);
    for g in exit_streams(dep, 1.0, true, 5, "tab2-network-truth") {
        g.for_each(|ev| {
            if let Some(item) = ex(&ev) {
                set.insert(item);
            }
        });
    }
    set.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab2_psc_covers_truth() {
        let dep = Deployment::at_scale(5e-4, 37);
        let report = run(&dep);
        // Row 0: unique SLDs — CI must cover ground truth.
        let row = &report.rows[0];
        let truth: f64 = row.truth.parse().unwrap();
        let parts: Vec<&str> = row.measured.split(['[', ';', ']']).collect();
        let lo: f64 = parts[1].trim().parse().unwrap();
        let hi: f64 = parts[2].trim().parse().unwrap();
        assert!(
            lo <= truth && truth <= hi,
            "truth {truth} outside [{lo}; {hi}]"
        );
        // More total SLDs than Alexa SLDs (long tail exists).
        let alexa_truth: f64 = report.rows[1].truth.parse().unwrap();
        assert!(truth > alexa_truth);
    }
}

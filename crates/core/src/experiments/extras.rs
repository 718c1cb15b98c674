//! Text-only results from §4.3 and §5.2 that have no numbered table or
//! figure: the Alexa-categories measurement and the AS-hotspot check.

use crate::deployment::Deployment;
use crate::experiments::{client_traffic, exit_streams, privcount_round};
use crate::report::{fmt_pct, fmt_ratio, Report, ReportRow};
use pm_stats::Estimate;
use privcount::{queries, run_round};
use std::sync::Arc;

/// §4.3 "Alexa Categories": the category containing amazon.com accounted
/// for 7.6% of primary domains, while 90.6% matched no category.
pub fn run_categories(dep: &Deployment) -> Report {
    let fraction = 0.021; // 2018-01-29 measurement: 2.1% exit weight
    let schema = queries::category_histogram(Arc::clone(&dep.sites), dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "extra-categories");
    let gens = exit_streams(dep, fraction, true, 6, "extra-categories");
    let result = run_round(cfg, gens).expect("categories round");
    let total = result.estimate("category.total");

    let mut report = Report::new("X1", "Primary domains by Alexa category (§4.3 text)");
    // amazon.com is rank 10 → category 0 (ranks 1..=50).
    report.row(ReportRow::new(
        "category containing amazon.com",
        fmt_pct(&result.estimate("category.0"), &total),
        "(mix-configured)",
        "7.6% [7.4; 7.8]",
    ));
    report.row(ReportRow::new(
        "no category",
        fmt_pct(&result.estimate("category.none"), &total),
        "(mix-configured)",
        "90.6% [90.3; 90.9] (torproject.org uncategorized)",
    ));
    report.note(
        "categories are modeled as rank blocks of 50 (Alexa's topical lists are \
         proprietary), which categorizes somewhat more traffic than the paper's \
         topical lists — the headline (uncategorized dominates, amazon's category \
         leads) is preserved",
    );
    report
}

/// §5.2 "Network Diversity": no individual top-1000 AS is statistically
/// significant, and ASes outside the top 1000 hold ~53% of client
/// connections.
pub fn run_as_hotspots(dep: &Deployment) -> Report {
    let fraction = dep.weights.tab4_entry; // 2018-05-01 guard measurement
    let schema = queries::as_histogram(Arc::clone(&dep.asdb), dep.eps(), dep.delta());
    let cfg = privcount_round(dep, schema, "extra-as");
    let gens = client_traffic(dep, fraction, false, 10, "extra-as");
    let result = run_round(cfg, gens).expect("as round");
    let total = result.estimate("as.total");

    let mut report = Report::new("X2", "AS hotspot check (§5.2 text)");
    report.row(ReportRow::new(
        "connections outside CAIDA top-1000 ASes",
        fmt_pct(&result.estimate("as.outside_top1000"), &total),
        "(AS-model-configured)",
        "~53% (52% of data, 62% of circuits)",
    ));
    // Largest single bucket share — the "no hotspot" claim. Every
    // bucket is divided by the same total, so the largest share is the
    // largest bucket's (or 0 when noise drove every bucket negative).
    let largest = (0..20)
        .map(|b| result.estimate(&format!("as.rank{}-{}", b * 50 + 1, (b + 1) * 50)))
        .fold(Estimate::exact(0.0), |max, bucket| {
            if bucket.value > max.value {
                bucket
            } else {
                max
            }
        });
    report.row(ReportRow::new(
        "largest 50-rank bucket share",
        fmt_ratio(&largest, &total, |share| {
            format!("{:.1}%", share.value * 100.0)
        }),
        "(heavy tail, no hotspot)",
        "no single AS statistically significant",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_uncategorized_dominates() {
        let dep = Deployment::at_scale(2e-3, 51);
        let report = run_categories(&dep);
        let none_pct: f64 = report.rows[1]
            .measured
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // torproject (40%) + long tail (22%) + everything beyond the
        // 850 categorized ranks: the vast majority is uncategorized.
        assert!(none_pct > 72.0, "uncategorized {none_pct}%");
        let amazon_pct: f64 = report.rows[0]
            .measured
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            (amazon_pct - 12.5).abs() < 3.5,
            "amazon category {amazon_pct}%"
        );
    }

    #[test]
    fn as_majority_outside_top1000() {
        let dep = Deployment::at_scale(2e-3, 53);
        let report = run_as_hotspots(&dep);
        let outside_pct: f64 = report.rows[0]
            .measured
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            (30.0..90.0).contains(&outside_pct),
            "outside top-1000 {outside_pct}%"
        );
        // No bucket dominates.
        let max_bucket: f64 = report.rows[1]
            .measured
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(max_bucket < 40.0, "hotspot bucket {max_bucket}%");
    }
}

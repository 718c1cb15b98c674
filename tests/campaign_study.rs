//! Integration: the longitudinal campaign engine end to end at test
//! scale — the §3.1-valid calendar runs against the evolving network,
//! the 96-hour churn round measures a real cross-day union, and the
//! aggregated report carries per-day and cumulative rows.

use tor_measure::study::{Campaign, CampaignConfig, CampaignReport, RoundKind};
use torsim::relay::Position;
use torsim::timeline::DayTruth;

#[test]
fn seven_day_campaign_end_to_end() {
    let cfg = CampaignConfig::new(7, 2e-4, 11);
    let campaign = Campaign::new(cfg.clone());

    // The calendar is placed on the §3.1 ledger and holds the churn round.
    let ledger = campaign.ledger();
    assert_eq!(ledger.rounds().len(), 3);
    assert!(campaign.rounds().iter().any(|r| r.duration_days == 4));

    // The deployment's observed fraction is a per-day quantity.
    let f0 = campaign.timeline().snapshot(0).fraction(Position::Guard);
    let f4 = campaign.timeline().snapshot(4).fraction(Position::Guard);
    assert_ne!(f0, f4, "weight fraction must drift across the campaign");

    let outcomes = campaign.run_rounds(2);
    assert_eq!(outcomes.len(), 3);

    // The churn round measured four genuinely churned populations and
    // its estimate tracks the exact cross-day union.
    let churn = outcomes
        .iter()
        .find(|o| o.spec.kind == RoundKind::UniqueIps && o.spec.duration_days == 4)
        .expect("churn round ran");
    let union = churn
        .day_truths
        .iter()
        .cloned()
        .fold(DayTruth::default(), |acc, t| acc.merge(t));
    let day0 = churn.day_truths[0].unique();
    assert!(union.unique() > day0 && union.unique() < 4 * day0);
    let est = churn.estimate.as_ref().unwrap();
    // Exact 95% CI plus a 2% slack band: this is one seeded
    // realization, and a strict 95% check would flake on ~1 in 20
    // seeds by construction.
    let slack = 0.02 * union.unique() as f64;
    assert!(
        est.ci.lo - slack <= union.unique() as f64 && union.unique() as f64 <= est.ci.hi + slack,
        "union {} vs estimate {est}",
        union.unique()
    );

    // Aggregation: one cumulative row per measured day (2 dailies + 4
    // churn days), rendered in all three formats.
    let report = CampaignReport::assemble(&cfg, campaign.ledger(), outcomes);
    assert_eq!(report.cumulative.rows.len(), 6);
    let text = report.render_text();
    assert!(text.contains("ips-4day"));
    assert!(text.contains("campaign union"));
    let csv = report.render_csv();
    assert_eq!(csv.matches("id,label,measured,truth,paper").count(), 1);
    assert!(report.render_json().contains("\"id\": \"CUM\""));
}

#[test]
fn full_calendar_runs_exit_domain_and_onion_rounds() {
    let cfg = CampaignConfig::new(17, 1e-4, 19);
    let campaign = Campaign::new(cfg.clone());
    assert_eq!(campaign.rounds().len(), 7, "full calendar");

    let outcomes = campaign.run_rounds(2);

    // The exit-domain window measured a real two-day SLD union whose
    // estimate tracks the exact cross-day truth, and its network
    // extrapolation exists (per-day exit fractions — pinned exactly in
    // crates/study/tests/campaign_invariance.rs).
    let domains = outcomes
        .iter()
        .find(|o| o.spec.kind == RoundKind::ExitDomains)
        .expect("exit-domain round ran");
    assert_eq!(domains.domain_truths.len(), 2);
    let union = domains
        .domain_truths
        .iter()
        .cloned()
        .fold(torsim::timeline::DomainDayTruth::default(), |acc, t| {
            acc.merge(t)
        });
    assert!(union.unique() > 50, "union {}", union.unique());
    let est = domains.estimate.as_ref().unwrap();
    let slack = 0.02 * union.unique() as f64;
    assert!(
        est.ci.lo - slack <= union.unique() as f64 && union.unique() as f64 <= est.ci.hi + slack,
        "SLD union {} vs estimate {est}",
        union.unique()
    );
    assert!(domains.network_estimate.is_some());

    // The onion window observed both its streams on both days.
    let onions = outcomes
        .iter()
        .find(|o| o.spec.kind == RoundKind::OnionServices)
        .expect("onion round ran");
    assert_eq!(onions.onion_truths.len(), 2);
    assert!(onions.onion_truths.iter().all(|t| t.rend_circuits > 0));

    // Aggregation renders the domain/onion cumulative rows and notes.
    let report = CampaignReport::assemble(&cfg, campaign.ledger(), outcomes);
    let text = report.render_text();
    assert!(text.contains("unique SLDs"));
    assert!(text.contains("unique onions published"));
    assert!(text.contains("campaign SLD union"));
    assert!(text.contains("campaign onion union"));
    assert!(text.contains("per-day exit fractions"));
}

#[test]
fn campaign_report_matches_across_schedules() {
    // Tier-1 pin of the schedule-independence contract (the broader
    // shard sweep lives in crates/study/tests/campaign_invariance.rs).
    let run = |workers| {
        Campaign::new(CampaignConfig::new(7, 2e-4, 13))
            .run(workers)
            .render_json()
    };
    assert_eq!(run(1), run(4));
}

//! The campaign engine's two load-bearing contracts:
//!
//! * **Measurement fidelity** — the 4-day round is a real PSC
//!   measurement over four churned daily populations whose estimate
//!   covers the exact churned ground-truth union (no closed-form
//!   churn factor in the measured path); the exit-domain and
//!   onion-service windows measure real cross-day unions whose
//!   network extrapolation uses each day's own observation fraction.
//! * **Schedule independence** — the rendered `CampaignReport`,
//!   including its metrics snapshot, is bit-identical for sequential
//!   vs parallel execution and for every ingestion shard count,
//!   including the exit/onion rounds.

use pm_dp::accountant::Accountant;
use pm_stats::union::{multi_day_network_estimate, DayShare};
use pm_study::{Campaign, CampaignConfig, RoundKind};
use torsim::relay::Position;

#[test]
fn four_day_round_measures_the_churned_union_within_ci() {
    let campaign = Campaign::new(CampaignConfig::new(7, 1e-3, 41));
    let outcomes = campaign.run_rounds(2);
    let churn = outcomes
        .iter()
        .find(|o| o.spec.id == "ips-4day")
        .expect("7-day calendar holds the churn round");
    assert_eq!(churn.spec.kind, RoundKind::UniqueIps);
    assert_eq!(churn.day_truths.len(), 4, "four churned daily populations");

    // The union truth merges associatively; the stable core is counted
    // once, so the union sits strictly between one day and four
    // disjoint days.
    let union = churn
        .day_truths
        .iter()
        .cloned()
        .fold(torsim::timeline::DayTruth::default(), |acc, t| acc.merge(t));
    let day0 = churn.day_truths[0].unique();
    assert!(union.unique() > day0, "churn must add fresh IPs");
    assert!(
        union.unique() < 4 * day0,
        "stable core must be deduplicated"
    );

    // The PSC estimate covers the exact churned union.
    let est = churn.estimate.as_ref().expect("measured estimate");
    assert!(
        est.ci.contains(union.unique() as f64),
        "union truth {} outside measured CI {}",
        union.unique(),
        est
    );

    // And the 1-day rounds measure visibly smaller populations.
    let one_day = outcomes
        .iter()
        .find(|o| o.spec.id == "ips-a")
        .and_then(|o| o.estimate.as_ref())
        .expect("ips-a estimate")
        .value;
    assert!(
        est.value > one_day * 1.3,
        "4-day {} vs 1-day {one_day}",
        est.value
    );
}

#[test]
fn exit_domain_round_measures_union_and_extrapolates_per_day() {
    let campaign = Campaign::new(CampaignConfig::new(17, 5e-4, 23));
    let ids: Vec<&str> = campaign.rounds().iter().map(|r| r.id.as_str()).collect();
    assert!(
        ids.contains(&"domains") && ids.contains(&"onions"),
        "{ids:?}"
    );
    let outcomes = campaign.run_rounds(2);

    let domains = outcomes
        .iter()
        .find(|o| o.spec.kind == RoundKind::ExitDomains)
        .expect("exit-domain round ran");
    assert_eq!(domains.domain_truths.len(), 2, "two window days");
    let union = domains
        .domain_truths
        .iter()
        .cloned()
        .fold(torsim::timeline::DomainDayTruth::default(), |acc, t| {
            acc.merge(t)
        });
    assert!(union.unique() > 100, "union {}", union.unique());
    // Day 2 genuinely adds fresh SLDs on top of day 1.
    let fresh_day2 = domains.domain_truths[1].new_vs(&domains.domain_truths[0]);
    assert!(fresh_day2 > 0, "no fresh SLDs on the second day");

    // The PSC estimate covers the exact cross-day union (2% slack: one
    // seeded realization of an exact 95% CI).
    let est = domains.estimate.as_ref().expect("measured estimate");
    let slack = 0.02 * union.unique() as f64;
    assert!(
        est.ci.lo - slack <= union.unique() as f64 && union.unique() as f64 <= est.ci.hi + slack,
        "union {} outside measured CI {est}",
        union.unique()
    );

    // The network extrapolation divides each day's fresh share by THAT
    // day's own exit fraction — recompute it independently from the
    // truths and the timeline and pin the round's value to it.
    let days: Vec<u64> = domains.spec.days().collect();
    let fractions: Vec<f64> = days
        .iter()
        .map(|d| campaign.timeline().snapshot(*d).fraction(Position::Exit))
        .collect();
    assert_ne!(
        fractions[0], fractions[1],
        "exit fraction must drift between the window's days"
    );
    let shares = [
        DayShare {
            share: domains.domain_truths[0].unique() as f64,
            fraction: fractions[0],
        },
        DayShare {
            share: fresh_day2 as f64,
            fraction: fractions[1],
        },
    ];
    let expected = multi_day_network_estimate(est, &shares);
    let network = domains
        .network_estimate
        .as_ref()
        .expect("network extrapolation");
    assert!(
        (network.value - expected.value).abs() <= 1e-9 * expected.value.abs(),
        "network {} vs per-day-fraction recomputation {}",
        network.value,
        expected.value
    );
    // A single-fraction rescale would land elsewhere whenever the
    // fractions differ and both days contribute fresh SLDs.
    let single = est.scale_to_network(fractions[0]);
    assert!(
        (network.value - single.value).abs() > 1e-9 * single.value.abs(),
        "extrapolation ignored the second day's own fraction"
    );

    // The onion window measured real per-day truths too.
    let onions = outcomes
        .iter()
        .find(|o| o.spec.kind == RoundKind::OnionServices)
        .expect("onion round ran");
    assert_eq!(onions.onion_truths.len(), 2);
    assert!(
        onions.onion_truths.iter().all(|t| t.rend_circuits > 100),
        "rendezvous streams must be populated"
    );
    assert!(onions.estimate.is_some());
}

#[test]
fn report_is_schedule_and_shard_independent() {
    let render = |shards: usize, workers: usize| {
        // 17 days: the full calendar including the exit-domain and
        // onion-service windows. Threading a recorder puts the
        // metrics snapshot under the same bit-identity contract as
        // the report itself.
        let recorder = pm_obs::Recorder::new();
        let mut cfg = CampaignConfig::new(17, 1e-4, 11).with_recorder(recorder.clone());
        if shards > 0 {
            cfg = cfg.with_shards(shards);
        }
        let campaign = Campaign::new(cfg);
        assert!(campaign
            .rounds()
            .iter()
            .any(|r| r.kind == RoundKind::ExitDomains));
        assert!(campaign
            .rounds()
            .iter()
            .any(|r| r.kind == RoundKind::OnionServices));
        let report = campaign.run(workers);
        // Every layer of the stack reported into the one registry.
        for name in [
            "psc.rounds",
            "psc.mix.cells",
            "privcount.rounds",
            "runner.jobs",
            "net.frames.sent",
            "study.rounds.completed",
            "study.ledger.hours",
            "torsim.days.generated",
            "timeline.days.materialized",
        ] {
            assert!(
                report.metrics.get(name).is_some_and(|v| v > 0),
                "metric {name} missing or zero in:\n{}",
                report.metrics.render_lines()
            );
        }
        assert_eq!(report.metrics, recorder.read_snapshot());
        (
            report.metrics.clone(),
            report.render_text(),
            report.render_json(),
        )
    };
    // Baseline: sequential execution, 1 ingestion shard.
    let base = render(1, 1);
    // Parallel execution…
    assert_eq!(base, render(1, 8), "parallel execution changed the report");
    // …and every shard count K ∈ {1, 4, 16}, sequential and parallel.
    for shards in [4, 16] {
        assert_eq!(
            base,
            render(shards, 1),
            "shards={shards} changed the report"
        );
        assert_eq!(
            base,
            render(shards, 8),
            "shards={shards} × parallel changed the report"
        );
    }
}

#[test]
fn calendar_is_accountant_validated_and_day_indexed() {
    let campaign = Campaign::new(CampaignConfig::new(14, 2e-4, 3));
    let ledger = campaign.ledger();
    assert_eq!(ledger.rounds().len(), campaign.rounds().len());
    // A fresh ledger accepts every placed round, in order.
    let mut fresh = Accountant::new();
    for round in ledger.rounds() {
        fresh.schedule(round.clone()).unwrap();
    }
    // Logical intervals are pairwise disjoint (§3.1).
    for (i, a) in ledger.rounds().iter().enumerate() {
        for b in ledger.rounds().iter().skip(i + 1) {
            let a_end = a.start_hour + a.duration_hours;
            let b_end = b.start_hour + b.duration_hours;
            assert!(
                a_end <= b.start_hour || b_end <= a.start_hour,
                "rounds {} and {} overlap",
                a.name,
                b.name
            );
        }
    }
    // The evolving network gives different days different fractions —
    // the campaign's whole point.
    let f0 = campaign
        .timeline()
        .snapshot(0)
        .fraction(torsim::relay::Position::Guard);
    let f5 = campaign
        .timeline()
        .snapshot(5)
        .fraction(torsim::relay::Position::Guard);
    assert_ne!(f0, f5);
}

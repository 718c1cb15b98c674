//! Property tests: a 30-day campaign over an arbitrarily churned,
//! fast-drifting network must stay inside the timeline's drift-model
//! invariants and run end to end without panics.
//!
//! This is the regression net for the drift bugs the exit/onion rounds
//! exposed: an unnormalized mix random-walks its total share away from
//! 1, and unconstrained relay churn can empty a position (leaving the
//! instrumented fraction at 1.0 or a sampler with nothing to draw
//! from). Either would surface here as an assertion failure or panic
//! deep inside a measurement round.

use pm_study::{Campaign, CampaignConfig};
use proptest::prelude::*;
use torsim::relay::Position;
use torsim::timeline::TimelineConfig;

/// A deliberately hostile evolution model: small background consensus,
/// aggressive daily leave probability, few joins, fast weight/mix
/// drift.
fn high_churn(seed: u64, leave: f64, joins: f64, drift: f64) -> TimelineConfig {
    TimelineConfig {
        n_background: 45,
        relay_leave_prob: leave,
        relay_joins_per_day: joins,
        weight_drift_sigma: drift,
        mix_drift_sigma: drift,
        ..TimelineConfig::paper_default(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn thirty_day_high_churn_campaign_runs_clean(
        seed in any::<u64>(),
        leave in 0.1f64..0.5,
        joins in 0.3f64..4.0,
        drift in 0.05f64..0.25,
    ) {
        let cfg = CampaignConfig::new(30, 1e-4, seed)
            .with_timeline(high_churn(seed ^ 0x7, leave, joins, drift));
        let campaign = Campaign::new(cfg);
        // The full calendar fits a 30-day horizon.
        prop_assert_eq!(campaign.rounds().len(), 7);
        prop_assert_eq!(campaign.ledger().rounds().len(), 7);

        // Every measured day's snapshot holds the drift invariants.
        for day in [0u64, 7, 15, 30] {
            let snap = campaign.timeline().snapshot(day);
            let total = snap.mix.total_share();
            prop_assert!((total - 1.0).abs() < 1e-9, "day {}: mix total {}", day, total);
            for pos in [
                Position::Guard,
                Position::Exit,
                Position::HsDir,
                Position::Middle,
                Position::Rendezvous,
            ] {
                let f = snap.fraction(pos);
                prop_assert!(f > 0.0 && f < 1.0, "day {}: {:?} fraction {}", day, pos, f);
                let background = snap
                    .consensus
                    .eligible(pos)
                    .filter(|r| !r.instrumented)
                    .count();
                prop_assert!(background >= 1, "day {}: {:?} churned empty", day, pos);
            }
        }

        // The whole campaign — client, exit-domain, and onion rounds —
        // executes through the real pipeline without panicking.
        let report = campaign.run(2);
        prop_assert!(report.render_text().contains("unique SLDs"));
        prop_assert!(report.render_text().contains("unique onions published"));
        prop_assert!(!report.render_json().is_empty());
    }
}

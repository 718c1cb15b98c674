//! The adversarial scenario matrix: every campaign attack crossed with
//! every round kind of the full 17-day calendar. Each attacked round
//! must end detected — [`RoundDisposition::Aborted`] with the detecting
//! party named, or [`RoundDisposition::Recovered`] with the degradation
//! flagged — with a matching record in the anomaly channel, and no
//! panic may reach the executor. Attacked campaigns stay under the
//! determinism contract: bit-identical reports across schedules and
//! shard counts.

use std::collections::BTreeSet;
use tor_measure::dp::accountant::RoundDisposition;
use tor_measure::study::{
    Anomaly, AnomalyKind, Campaign, CampaignAttack, CampaignConfig, CampaignReport,
};

/// The channel record an outcome's status promises.
fn matching_record(anomalies: &[Anomaly], kind: AnomalyKind, round: &str) -> bool {
    anomalies.iter().any(|a| a.kind == kind && a.round == round)
}

#[test]
fn every_attack_is_detected_on_every_round_kind() {
    for attack in CampaignAttack::ALL {
        let cfg = CampaignConfig::new(17, 1e-4, 19).with_attack(attack);
        let campaign = Campaign::new(cfg.clone());
        let outcomes = campaign.run_rounds(2);
        assert_eq!(outcomes.len(), 7, "{attack:?}: full calendar must run");

        let mut kinds = BTreeSet::new();
        for o in &outcomes {
            kinds.insert(format!("{:?}", o.spec.kind));
            match &o.status {
                RoundDisposition::Completed => panic!(
                    "{attack:?} went undetected on round {} ({:?})",
                    o.spec.id, o.spec.kind
                ),
                RoundDisposition::Aborted {
                    reason,
                    detected_by,
                } => {
                    assert!(
                        !reason.is_empty() && !detected_by.is_empty(),
                        "{attack:?}/{}: abort must carry attribution",
                        o.spec.id
                    );
                    assert!(
                        o.estimate.is_none(),
                        "{attack:?}/{}: an aborted round publishes no estimate",
                        o.spec.id
                    );
                    assert!(
                        matching_record(&o.anomalies, AnomalyKind::Aborted, &o.spec.id),
                        "{attack:?}/{}: abort without channel record: {:?}",
                        o.spec.id,
                        o.anomalies
                    );
                }
                RoundDisposition::Recovered { degraded } => {
                    assert!(
                        degraded.contains("plausibility cap"),
                        "{attack:?}/{}: degradation must say what tripped: {degraded}",
                        o.spec.id
                    );
                    assert!(
                        o.estimate.is_some(),
                        "{attack:?}/{}: a recovered round keeps its flagged estimate",
                        o.spec.id
                    );
                    assert!(
                        matching_record(&o.anomalies, AnomalyKind::Degraded, &o.spec.id),
                        "{attack:?}/{}: degradation without channel record: {:?}",
                        o.spec.id,
                        o.anomalies
                    );
                }
            }
        }
        assert_eq!(kinds.len(), 5, "{attack:?}: every round kind measured");

        // Assembly folds every round's records into the one channel and
        // the ledger keeps the aborted hours spent.
        let report = CampaignReport::assemble(&cfg, campaign.ledger(), outcomes);
        assert!(
            report.anomalies.len() >= 7,
            "{attack:?}: one record per attacked round at least, got {:?}",
            report.anomalies
        );
        let text = report.render_text();
        assert!(text.contains("ANOMALY["), "{attack:?}: channel in text");
        assert!(
            text.contains("§3.1 budget"),
            "{attack:?}: budget note rendered"
        );
        let json = report.render_json();
        assert!(
            json.contains("\"anomalies\": ["),
            "{attack:?}: channel in JSON"
        );
    }
}

#[test]
fn structural_attacks_name_the_detecting_party() {
    // Byzantine shares are caught by the tally server's structural
    // checks; the campaign must surface *who* detected the failure,
    // not just that it failed.
    let cfg = CampaignConfig::new(7, 2e-4, 11).with_attack(CampaignAttack::ByzantineShares);
    let outcomes = Campaign::new(cfg).run_rounds(2);
    for o in &outcomes {
        match &o.status {
            RoundDisposition::Aborted { detected_by, .. } => {
                assert!(
                    detected_by.contains("ts"),
                    "round {}: malformed shares are a TS catch, got {detected_by}",
                    o.spec.id
                );
            }
            other => panic!("round {}: expected abort, got {other:?}", o.spec.id),
        }
    }
}

#[test]
fn attacked_campaigns_render_bit_identically() {
    // The determinism contract does not stop at honest campaigns:
    // attack injection is seed-derived with fixed party indices, so an
    // attacked report is identical across sequential/parallel
    // execution and ingestion shard counts.
    for attack in [CampaignAttack::KeeperDeath, CampaignAttack::SkewedShares] {
        let run = |workers: usize, shards: usize| {
            let mut cfg = CampaignConfig::new(7, 2e-4, 13).with_attack(attack);
            if shards > 0 {
                cfg = cfg.with_shards(shards);
            }
            Campaign::new(cfg).run(workers).render_json()
        };
        let base = run(1, 1);
        assert_eq!(base, run(4, 1), "{attack:?}: workers must not matter");
        assert_eq!(base, run(1, 4), "{attack:?}: shards must not matter");
        assert_eq!(base, run(4, 16), "{attack:?}: nor the combination");
    }
}

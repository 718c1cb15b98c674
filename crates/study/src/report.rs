//! Cross-day aggregation: the campaign-wide report.
//!
//! Per-round reports come back from the executor in calendar order;
//! assembly folds the per-day ground truths into a running cross-day
//! union (associative merges — the same totals whatever grouping the
//! rounds used), reconciles repeat measurements (disjoint CIs are
//! flagged as anomalies, as in the paper's confirmation re-runs), and
//! renders per-day and cumulative rows as text, CSV, or JSON (the
//! JSON document shares its schema with the `experiments` binary's).

use crate::anomaly::{Anomaly, AnomalyKind};
use crate::campaign::{CampaignConfig, RoundOutcome};
use pm_dp::accountant::Accountant;
use pm_obs::trace::json_string;
use pm_obs::MetricsSnapshot;
use pm_stats::union::reconcile;
use torsim::timeline::{DayTruth, DomainDayTruth, OnionDayTruth};
use torstudy::report::{csv_escape, fmt_estimate, Report, ReportRow};

/// The campaign's aggregated outcome.
pub struct CampaignReport {
    /// Calendar length.
    pub days: u64,
    /// Deployment scale.
    pub scale: f64,
    /// Base seed.
    pub seed: u64,
    /// Per-round reports, calendar order.
    pub rounds: Vec<Report>,
    /// Cross-day cumulative report: one row per measured day.
    pub cumulative: Report,
    /// The anomaly channel: every structured irregularity of the
    /// campaign — per-round records (aborts, degradations, missing day
    /// attributions) in calendar order, then cross-round reconciliation
    /// records. Rendered in all three output formats.
    pub anomalies: Vec<Anomaly>,
    /// The deterministic metrics snapshot, read from the campaign's
    /// recorder at assembly. Part of the bit-identity contract:
    /// identical for every worker and shard count, and never touched by
    /// the wall-clock profiling plane. Empty when no recorder was
    /// threaded through the campaign.
    pub metrics: MetricsSnapshot,
}

/// The calendar day a cumulative row attributes itself to. A
/// ground-truth record with no day attribution used to silently land
/// on day 0 — misattributing its rows to whatever round really
/// measured day 0; now the row is labelled `day ?` and the gap becomes
/// an explicit [`AnomalyKind::EmptyTruth`] record.
fn day_label(
    days: &std::collections::BTreeSet<u64>,
    round: &str,
    anomalies: &mut Vec<Anomaly>,
) -> String {
    match days.first() {
        Some(d) => d.to_string(),
        None => {
            anomalies.push(Anomaly::new(
                AnomalyKind::EmptyTruth,
                round,
                None,
                "cumulative row ground truth carries no day attribution",
            ));
            "?".to_string()
        }
    }
}

impl CampaignReport {
    /// Folds executed rounds into the campaign report. `ledger` is the
    /// §3.1 ledger the rounds were planned on ([`crate::Campaign::ledger`]);
    /// each outcome's status is recorded on a copy of it, and the
    /// budget line reads that copy.
    pub fn assemble(
        cfg: &CampaignConfig,
        ledger: &Accountant,
        outcomes: Vec<RoundOutcome>,
    ) -> CampaignReport {
        // Per-round records first, calendar order; cross-round
        // reconciliation records are appended below.
        let mut anomalies: Vec<Anomaly> = outcomes
            .iter()
            .flat_map(|o| o.anomalies.iter().cloned())
            .collect();
        let mut cumulative = Report::new(
            "CUM",
            format!(
                "Campaign cumulative unique client IPs ({}-day calendar)",
                cfg.days
            ),
        );
        let mut union = DayTruth::default();
        for outcome in &outcomes {
            let last = outcome.day_truths.len().saturating_sub(1);
            for (i, truth) in outcome.day_truths.iter().enumerate() {
                if outcome.spec.kind != crate::campaign::RoundKind::UniqueIps {
                    continue;
                }
                let day = day_label(&truth.days, &outcome.spec.id, &mut anomalies);
                let fresh = truth.new_vs(&union);
                union = union.merge(truth.clone());
                let measured = if i == last {
                    outcome
                        .estimate
                        .as_ref()
                        .map(|e| format!("{} ({})", fmt_estimate(e), outcome.spec.id))
                        .unwrap_or_else(|| "—".into())
                } else {
                    "—".into()
                };
                cumulative.row(ReportRow::new(
                    format!("day {day} [{}]", outcome.spec.id),
                    measured,
                    format!(
                        "pool {}, fresh {}, cumulative {}",
                        truth.unique(),
                        fresh,
                        union.unique()
                    ),
                    "—",
                ));
            }
        }
        cumulative.note(format!(
            "campaign union: {} distinct IPs over {} measured day(s), scale {}, seed {}",
            union.unique(),
            union.days.len(),
            cfg.scale,
            cfg.seed
        ));

        // Exit-domain and onion-service windows fold the same way:
        // per-day truths merge associatively into running cross-day
        // unions, one cumulative row per measured day.
        let mut sld_union = DomainDayTruth::default();
        let mut onion_union = OnionDayTruth::default();
        {
            let mut union_row = |label: String, pool: u64, fresh: u64, total: u64| {
                cumulative.row(ReportRow::new(
                    label,
                    "—",
                    format!("pool {pool}, fresh {fresh}, cumulative {total}"),
                    "—",
                ));
            };
            for outcome in &outcomes {
                for truth in &outcome.domain_truths {
                    let day = day_label(&truth.days, &outcome.spec.id, &mut anomalies);
                    let fresh = truth.new_vs(&sld_union);
                    sld_union = sld_union.merge(truth.clone());
                    union_row(
                        format!("day {day} [{}]: SLDs", outcome.spec.id),
                        truth.unique(),
                        fresh,
                        sld_union.unique(),
                    );
                }
                for truth in &outcome.onion_truths {
                    let day = day_label(&truth.days, &outcome.spec.id, &mut anomalies);
                    let fresh = truth.new_vs(&onion_union);
                    onion_union = onion_union.merge(truth.clone());
                    union_row(
                        format!("day {day} [{}]: onions", outcome.spec.id),
                        truth.unique(),
                        fresh,
                        onion_union.unique(),
                    );
                }
            }
        }
        if !sld_union.days.is_empty() {
            cumulative.note(format!(
                "campaign SLD union: {} distinct SLDs over {} measured day(s)",
                sld_union.unique(),
                sld_union.days.len()
            ));
        }
        if !onion_union.days.is_empty() {
            cumulative.note(format!(
                "campaign onion union: {} distinct published addresses over {} measured day(s)",
                onion_union.unique(),
                onion_union.days.len()
            ));
        }

        // Reconcile repeats: same statistic, measured more than once.
        // Compare on the reconciliation estimate where one exists — the
        // network-extrapolated, sampling-variance-aware value that is
        // constant across repeat days — not the day's raw observed
        // pool, whose true value legitimately churns between repeats.
        // A repeat pair where either side carries no estimate (e.g. an
        // aborted round) used to be skipped silently — the confirmation
        // check proved nothing and nobody knew; now the gap is a
        // MissingReconcile record (one per round, however many pairs it
        // starves).
        let mut missing_noted: std::collections::BTreeSet<String> = Default::default();
        for (i, a) in outcomes.iter().enumerate() {
            for b in outcomes.iter().skip(i + 1) {
                if a.spec.statistic != b.spec.statistic {
                    continue;
                }
                let pick = |o: &RoundOutcome| o.reconcile_estimate.or(o.estimate);
                if let (Some(ea), Some(eb)) = (pick(a), pick(b)) {
                    let r = reconcile(&ea, &eb);
                    if r.consistent {
                        cumulative.note(format!(
                            "repeat {} / {} consistent; hull {}",
                            a.spec.id, b.spec.id, r.hull
                        ));
                    } else {
                        anomalies.push(Anomaly::new(
                            AnomalyKind::DisjointRepeat,
                            format!("{}/{}", a.spec.id, b.spec.id),
                            None,
                            format!(
                                "repeat measurements have disjoint CIs (gap {:.1}); hull {}",
                                r.gap, r.hull
                            ),
                        ));
                    }
                } else {
                    for o in [a, b] {
                        if pick(o).is_none() && missing_noted.insert(o.spec.id.clone()) {
                            anomalies.push(Anomaly::new(
                                AnomalyKind::MissingReconcile,
                                o.spec.id.clone(),
                                None,
                                format!(
                                    "repeat of '{}' has no estimate to reconcile; \
                                     the confirmation check proved nothing",
                                    o.spec.statistic
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // Settle the §3.1 ledger: record how each round ended. Aborted
        // hours are spent, not refunded.
        let mut ledger = ledger.clone();
        for o in &outcomes {
            ledger.record_outcome(&o.spec.id, o.status.clone());
        }
        let budget = ledger.budget_summary();
        cumulative.note(format!(
            "§3.1 budget: {}h scheduled, {}h completed, {}h aborted (spent, not refunded), \
             {}h recovered",
            budget.scheduled_hours,
            budget.completed_hours,
            budget.aborted_hours,
            budget.recovered_hours
        ));

        // The whole channel, as text notes — CSV and JSON carry the
        // same records structurally.
        for a in &anomalies {
            cumulative.note(a.describe());
        }

        CampaignReport {
            days: cfg.days,
            scale: cfg.scale,
            seed: cfg.seed,
            rounds: outcomes.into_iter().map(|o| o.report).collect(),
            cumulative,
            anomalies,
            metrics: cfg.recorder.read_snapshot(),
        }
    }

    /// Every report, calendar rounds first, cumulative last.
    fn all_reports(&self) -> Vec<&Report> {
        self.rounds.iter().chain(Some(&self.cumulative)).collect()
    }

    /// Fixed-width text rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== campaign: {} days, scale {}, seed {} ==\n\n",
            self.days, self.scale, self.seed
        );
        for r in self.all_reports() {
            out.push_str(&r.render_text());
            out.push('\n');
        }
        if !self.metrics.entries.is_empty() {
            out.push_str("== metrics ==\n");
            out.push_str(&self.metrics.render_lines());
            out.push('\n');
        }
        out
    }

    /// One CSV document: a single header, then every report's rows,
    /// then one `ANOMALY` record per channel entry (id column literal
    /// `ANOMALY`, then kind tag, round, day or `—`, detail).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("id,label,measured,truth,paper\n");
        for r in self.all_reports() {
            let csv = r.render_csv();
            out.push_str(csv.split_once('\n').map(|(_, rest)| rest).unwrap_or(""));
        }
        for a in &self.anomalies {
            out.push_str(&format!(
                "ANOMALY,{},{},{},{}\n",
                a.kind.tag(),
                csv_escape(&a.round),
                a.day.map(|d| d.to_string()).unwrap_or_else(|| "—".into()),
                csv_escape(&a.detail)
            ));
        }
        for (name, value) in &self.metrics.entries {
            out.push_str(&format!("METRIC,{},{value},—,—\n", csv_escape(name)));
        }
        out
    }

    /// One JSON document: the `reports` array shares its schema with
    /// the `experiments` binary's, plus an `anomalies` array carrying
    /// the structured channel (`day` is a number or `null`).
    pub fn render_json(&self) -> String {
        let reports = self.all_reports();
        let mut out = String::from("{\"reports\": [\n");
        for (i, r) in reports.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.render_json());
            if i + 1 < reports.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("], \"anomalies\": [\n");
        for (i, a) in self.anomalies.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"kind\": {}, \"round\": {}, \"day\": {}, \"detail\": {}}}",
                json_string(a.kind.tag()),
                json_string(&a.round),
                a.day
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "null".into()),
                json_string(&a.detail)
            ));
            if i + 1 < self.anomalies.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("], \"metrics\": ");
        out.push_str(&self.metrics.render_json_object());
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{RoundKind, RoundSpec};
    use pm_dp::accountant::{MeasurementRound, RoundDisposition};
    use pm_stats::{Estimate, Interval};
    use torsim::ids::IpAddr;

    fn truth(day: u64, ips: &[u32]) -> DayTruth {
        let mut t = DayTruth::default();
        t.days.insert(day);
        t.ips.extend(ips.iter().map(|i| IpAddr(*i)));
        t
    }

    fn outcome(id: &str, stat: &str, days: Vec<DayTruth>, est: Estimate) -> RoundOutcome {
        RoundOutcome {
            spec: RoundSpec {
                id: id.into(),
                statistic: stat.into(),
                kind: RoundKind::UniqueIps,
                start_day: days
                    .first()
                    .and_then(|t| t.days.first().copied())
                    .unwrap_or(0),
                duration_days: days.len().max(1) as u64,
            },
            report: Report::new(id, "test"),
            day_truths: days,
            domain_truths: Vec::new(),
            onion_truths: Vec::new(),
            estimate: Some(est),
            network_estimate: None,
            reconcile_estimate: None,
            status: RoundDisposition::Completed,
            anomalies: Vec::new(),
        }
    }

    /// Assembles synthetic outcomes on a ledger built from their own
    /// specs. The specs need not be §3.1-legal, so schedule errors are
    /// ignored: a refused round simply stays out of the budget.
    fn assemble(cfg: &CampaignConfig, outcomes: Vec<RoundOutcome>) -> CampaignReport {
        let mut ledger = Accountant::new();
        for o in &outcomes {
            let _ = ledger.schedule(MeasurementRound {
                name: o.spec.id.clone(),
                system: o.spec.kind.system(),
                start_hour: o.spec.start_day * 24,
                duration_hours: o.spec.duration_days * 24,
                statistics: vec![o.spec.statistic.clone()],
            });
        }
        CampaignReport::assemble(cfg, &ledger, outcomes)
    }

    fn domain_truth(day: u64, slds: &[&str]) -> DomainDayTruth {
        let mut t = DomainDayTruth::default();
        t.days.insert(day);
        t.slds.extend(slds.iter().map(|s| s.to_string()));
        t.streams = 10 * slds.len() as u64;
        t.initial_streams = slds.len() as u64;
        t
    }

    #[test]
    fn cumulative_sld_union_rows_fold_associatively() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut o = outcome(
            "domains",
            "exit-domains",
            vec![truth(5, &[1])],
            Estimate::with_ci(2.0, Interval::new(1.0, 3.0)),
        );
        o.day_truths.clear();
        o.domain_truths = vec![
            domain_truth(5, &["a.com", "b.com"]),
            domain_truth(6, &["b.com", "c.com"]),
        ];
        let report = assemble(&cfg, vec![o]);
        let sld_rows: Vec<_> = report
            .cumulative
            .rows
            .iter()
            .filter(|r| r.label.contains("SLDs"))
            .collect();
        assert_eq!(sld_rows.len(), 2);
        assert!(sld_rows[0].truth.contains("pool 2, fresh 2, cumulative 2"));
        assert!(sld_rows[1].truth.contains("pool 2, fresh 1, cumulative 3"));
        let text = report.render_text();
        assert!(text.contains("campaign SLD union: 3 distinct SLDs over 2 measured day(s)"));
    }

    #[test]
    fn cumulative_union_counts_stable_core_once() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let report = assemble(
            &cfg,
            vec![
                outcome(
                    "a",
                    "s1",
                    vec![truth(0, &[1, 2, 3])],
                    Estimate::with_ci(3.0, Interval::new(2.0, 4.0)),
                ),
                outcome(
                    "b",
                    "s2",
                    vec![truth(1, &[2, 3, 4]), truth(2, &[3, 4, 5])],
                    Estimate::with_ci(5.0, Interval::new(4.0, 6.0)),
                ),
            ],
        );
        assert_eq!(report.cumulative.rows.len(), 3);
        // day 1 adds one fresh IP on top of {1,2,3}; day 2 one more.
        assert!(report.cumulative.rows[1]
            .truth
            .contains("fresh 1, cumulative 4"));
        assert!(report.cumulative.rows[2]
            .truth
            .contains("fresh 1, cumulative 5"));
        assert!(report.anomalies.is_empty());
    }

    #[test]
    fn disjoint_repeats_are_flagged() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let report = assemble(
            &cfg,
            vec![
                outcome(
                    "a",
                    "same",
                    vec![truth(0, &[1])],
                    Estimate::with_ci(10.0, Interval::new(9.0, 11.0)),
                ),
                outcome(
                    "b",
                    "same",
                    vec![truth(1, &[2])],
                    Estimate::with_ci(100.0, Interval::new(90.0, 110.0)),
                ),
            ],
        );
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::DisjointRepeat);
        assert_eq!(report.anomalies[0].round, "a/b");
        assert!(report.anomalies[0].describe().contains("ANOMALY"));
        assert!(report.render_text().contains("ANOMALY[disjoint-repeat]"));
        let csv = report.render_csv();
        assert!(csv.contains("ANOMALY,disjoint-repeat,a/b,—,"), "{csv}");
        assert!(report
            .render_json()
            .contains("\"kind\": \"disjoint-repeat\""));
    }

    #[test]
    fn aborted_rounds_surface_in_channel_and_ledger() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut bad = outcome(
            "b",
            "same",
            vec![truth(1, &[2])],
            Estimate::with_ci(1.0, Interval::new(0.0, 2.0)),
        );
        bad.estimate = None;
        bad.status = RoundDisposition::Aborted {
            reason: "CP died mid-mix".into(),
            detected_by: "runner".into(),
        };
        bad.anomalies = vec![Anomaly::new(
            AnomalyKind::Aborted,
            "b",
            Some(1),
            "CP died mid-mix (detected by runner)",
        )];
        let report = assemble(
            &cfg,
            vec![
                outcome(
                    "a",
                    "same",
                    vec![truth(0, &[1])],
                    Estimate::with_ci(10.0, Interval::new(9.0, 11.0)),
                ),
                bad,
            ],
        );
        // The round's own record plus the starved confirmation check.
        let kinds: Vec<_> = report.anomalies.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            [AnomalyKind::Aborted, AnomalyKind::MissingReconcile],
            "{:?}",
            report.anomalies
        );
        assert_eq!(report.anomalies[1].round, "b");
        let text = report.render_text();
        assert!(text.contains("ANOMALY[aborted] b:"), "{text}");
        assert!(text.contains("ANOMALY[missing-reconcile]"), "{text}");
        // Ledger: both 24h rounds scheduled, the aborted hours spent.
        assert!(
            text.contains("48h scheduled, 24h completed, 24h aborted"),
            "{text}"
        );
        let csv = report.render_csv();
        assert!(csv.contains("ANOMALY,aborted,b,1,"), "{csv}");
        let json = report.render_json();
        assert!(json.contains("\"anomalies\": ["), "{json}");
        assert!(json.contains("\"day\": 1"), "{json}");
        assert!(json.contains("\"day\": null"), "{json}");
    }

    #[test]
    fn anomaly_details_round_trip_through_csv_and_json_escaping() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut o = outcome(
            "a",
            "s",
            vec![truth(0, &[1])],
            Estimate::with_ci(1.0, Interval::new(0.0, 2.0)),
        );
        o.anomalies = vec![Anomaly::new(
            AnomalyKind::Aborted,
            "a",
            Some(0),
            "tricky, \"quoted\"\nmultiline detail",
        )];
        let report = assemble(&cfg, vec![o]);
        let csv = report.render_csv();
        // One logical CSV record: the detail quoted, inner quotes
        // doubled, the newline inside the quotes — not shearing the row.
        assert!(
            csv.contains("ANOMALY,aborted,a,0,\"tricky, \"\"quoted\"\"\nmultiline detail\""),
            "{csv}"
        );
        let json = report.render_json();
        assert!(
            json.contains("tricky, \\\"quoted\\\"\\nmultiline detail"),
            "{json}"
        );
        // Cheap well-formedness: braces/brackets stay balanced despite
        // the hostile payload.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn dayless_truth_is_flagged_not_misattributed_to_day_zero() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut t = DayTruth::default();
        t.ips.insert(IpAddr(9)); // no day attribution at all
        let report = assemble(
            &cfg,
            vec![outcome(
                "a",
                "s",
                vec![t],
                Estimate::with_ci(1.0, Interval::new(0.0, 2.0)),
            )],
        );
        assert!(report.cumulative.rows[0].label.starts_with("day ? [a]"));
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::EmptyTruth);
        assert!(report.render_csv().contains("ANOMALY,empty-truth,a,—,"));
    }

    #[test]
    fn csv_has_single_header_json_balanced() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let report = assemble(
            &cfg,
            vec![outcome(
                "a",
                "s",
                vec![truth(0, &[1, 2])],
                Estimate::with_ci(2.0, Interval::new(1.0, 3.0)),
            )],
        );
        let csv = report.render_csv();
        assert_eq!(
            csv.matches("id,label,measured,truth,paper").count(),
            1,
            "{csv}"
        );
        let json = report.render_json();
        assert!(json.contains("\"id\": \"CUM\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }
}

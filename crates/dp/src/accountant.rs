//! Measurement scheduling rules (§3.1):
//!
//! * PrivCount and PSC measurements are never conducted in parallel;
//! * at least 24 hours of delay separates sequential measurements of
//!   distinct statistics;
//! * repeated measurement of the *same* statistic may be sequential
//!   (the paper repeats measurements to confirm anomalies).
//!
//! The [`Accountant`] validates a proposed schedule and keeps the ledger
//! of what was measured when. [`Accountant::place`] puts a round at the
//! earliest start the rules allow after every recorded round, so a
//! greedy planner needs no re-validation; [`Accountant::repeats_before`]
//! names the earlier rounds of the same statistic, which an executor
//! must finish first.
//!
//! Beyond scheduling, the ledger also records how each round *ended*
//! ([`RoundDisposition`]): a round that aborts mid-collection has
//! already spent its privacy budget — the noise was drawn and the
//! blinded shares were published before the failure — so its calendar
//! slot stays occupied and its hours are accounted as spent, exactly
//! like a completed round. [`Accountant::budget_summary`] breaks the
//! spent hours down by disposition so a campaign report can show how
//! much of the study's budget bought usable data.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Which measurement system a round uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// PrivCount (noisy counts).
    PrivCount,
    /// Private Set-union Cardinality (unique counts).
    Psc,
}

/// A proposed measurement round.
#[derive(Clone, Debug)]
pub struct MeasurementRound {
    /// Experiment name (e.g. "fig1-exit-streams").
    pub name: String,
    /// System used.
    pub system: System,
    /// Start time, in hours since the study epoch.
    pub start_hour: u64,
    /// Duration in hours (24 for most rounds; 96 for the churn round).
    pub duration_hours: u64,
    /// Names of the statistics collected.
    pub statistics: Vec<String>,
}

impl MeasurementRound {
    fn end_hour(&self) -> u64 {
        self.start_hour + self.duration_hours
    }
}

/// Why a round was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// Overlaps an already-scheduled round.
    Overlap {
        /// The conflicting round's name.
        with: String,
    },
    /// Violates the 24h gap between distinct statistics.
    InsufficientGap {
        /// The prior round's name.
        with: String,
        /// Hours of gap actually available.
        gap_hours: u64,
    },
    /// Round is degenerate (zero duration or no statistics).
    Degenerate,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Overlap { with } => {
                write!(f, "round overlaps already-scheduled round '{with}'")
            }
            ScheduleError::InsufficientGap { with, gap_hours } => write!(
                f,
                "only {gap_hours}h gap to round '{with}' measuring distinct statistics (need 24h)"
            ),
            ScheduleError::Degenerate => write!(f, "round has no duration or no statistics"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// How a scheduled round ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundDisposition {
    /// The round ran to completion and produced a usable result.
    Completed,
    /// The round failed mid-collection; its budget is spent but it
    /// produced no usable result.
    Aborted {
        /// Why the round failed.
        reason: String,
        /// Which party (or the runner) detected the failure.
        detected_by: String,
    },
    /// The round completed but its result is degraded (e.g. a
    /// statistically implausible count that was flagged rather than
    /// trusted).
    Recovered {
        /// How the result is degraded.
        degraded: String,
    },
}

impl RoundDisposition {
    /// Short ledger tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            RoundDisposition::Completed => "completed",
            RoundDisposition::Aborted { .. } => "aborted",
            RoundDisposition::Recovered { .. } => "recovered",
        }
    }
}

/// Spent privacy-budget hours, broken down by disposition.
///
/// Aborted hours are *spent*, not refunded: the §3.1 rules bind on what
/// was collected and published, not on whether the aggregate came out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSummary {
    /// Hours scheduled across all recorded rounds.
    pub scheduled_hours: u64,
    /// Hours of rounds that completed cleanly.
    pub completed_hours: u64,
    /// Hours of rounds that aborted (budget spent, no usable result).
    pub aborted_hours: u64,
    /// Hours of rounds that completed with a degraded result.
    pub recovered_hours: u64,
}

/// The measurement ledger.
#[derive(Clone, Default, Debug)]
pub struct Accountant {
    rounds: Vec<MeasurementRound>,
    dispositions: HashMap<String, RoundDisposition>,
}

impl Accountant {
    /// An empty ledger.
    pub fn new() -> Accountant {
        Accountant::default()
    }

    /// Validates and records a round.
    pub fn schedule(&mut self, round: MeasurementRound) -> Result<(), ScheduleError> {
        if round.duration_hours == 0 || round.statistics.is_empty() {
            return Err(ScheduleError::Degenerate);
        }
        for prior in &self.rounds {
            // No overlap with ANY round: PrivCount and PSC are never
            // parallel, and neither are two rounds of the same system.
            let overlap =
                round.start_hour < prior.end_hour() && prior.start_hour < round.end_hour();
            if overlap {
                return Err(ScheduleError::Overlap {
                    with: prior.name.clone(),
                });
            }
            // 24h gap between rounds measuring distinct statistics.
            if !same_statistics(&prior.statistics, &round.statistics) {
                let gap = if round.start_hour >= prior.end_hour() {
                    round.start_hour - prior.end_hour()
                } else {
                    prior.start_hour - round.end_hour()
                };
                if gap < 24 {
                    return Err(ScheduleError::InsufficientGap {
                        with: prior.name.clone(),
                        gap_hours: gap,
                    });
                }
            }
        }
        self.rounds.push(round);
        Ok(())
    }

    /// Recorded rounds in scheduling order.
    pub fn rounds(&self) -> &[MeasurementRound] {
        &self.rounds
    }

    /// Records how a scheduled round ended. The round keeps its slot
    /// and its hours whatever the disposition — an aborted round's
    /// budget is already spent. Returns `false` (recording nothing) if
    /// no round with this name was scheduled.
    pub fn record_outcome(&mut self, name: &str, disposition: RoundDisposition) -> bool {
        if !self.rounds.iter().any(|r| r.name == name) {
            return false;
        }
        self.dispositions.insert(name.to_string(), disposition);
        true
    }

    /// The recorded disposition for a round, if any.
    #[cfg(test)]
    fn disposition(&self, name: &str) -> Option<&RoundDisposition> {
        self.dispositions.get(name)
    }

    /// Spent hours broken down by disposition. Rounds without a
    /// recorded disposition count only toward `scheduled_hours`.
    pub fn budget_summary(&self) -> BudgetSummary {
        let mut s = BudgetSummary::default();
        for r in &self.rounds {
            s.scheduled_hours += r.duration_hours;
            match self.dispositions.get(&r.name) {
                Some(RoundDisposition::Completed) => s.completed_hours += r.duration_hours,
                Some(RoundDisposition::Aborted { .. }) => s.aborted_hours += r.duration_hours,
                Some(RoundDisposition::Recovered { .. }) => s.recovered_hours += r.duration_hours,
                None => {}
            }
        }
        s
    }

    /// Records a round of one statistic at its earliest legal start and
    /// returns that start, or records nothing and returns `None` if the
    /// round is empty or would end after `horizon_hours`. The placement
    /// is legal by construction: it starts after every recorded round,
    /// 24 hours after unless it repeats that round's statistic.
    pub fn place(
        &mut self,
        name: &str,
        system: System,
        statistic: &str,
        duration_hours: u64,
        horizon_hours: u64,
    ) -> Option<u64> {
        let statistics = vec![statistic.to_string()];
        let start_hour = self.earliest_start(&statistics);
        if duration_hours == 0 || start_hour + duration_hours > horizon_hours {
            return None;
        }
        self.rounds.push(MeasurementRound {
            name: name.to_string(),
            system,
            start_hour,
            duration_hours,
            statistics,
        });
        Some(start_hour)
    }

    /// Indices of the recorded rounds before round `i` that measure the
    /// same statistics — the repeats an executor must finish first.
    pub fn repeats_before(&self, i: usize) -> Vec<usize> {
        let Some(round) = self.rounds.get(i) else {
            return Vec::new();
        };
        (0..i)
            .filter(|&j| same_statistics(&self.rounds[j].statistics, &round.statistics))
            .collect()
    }

    /// First hour at which a new round with the given statistics could
    /// legally start (conservative: 24h after the last round ends, or
    /// immediately after it if the statistics are identical).
    fn earliest_start(&self, statistics: &[String]) -> u64 {
        self.rounds
            .iter()
            .map(|prior| {
                let gap = if same_statistics(&prior.statistics, statistics) {
                    0
                } else {
                    24
                };
                prior.end_hour() + gap
            })
            .max()
            .unwrap_or(0)
    }
}

/// Whether two rounds measure the same set of statistics (a repeat).
fn same_statistics(a: &[String], b: &[String]) -> bool {
    a.iter().collect::<BTreeSet<_>>() == b.iter().collect::<BTreeSet<_>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(name: &str, system: System, start: u64, dur: u64, stats: &[&str]) -> MeasurementRound {
        MeasurementRound {
            name: name.into(),
            system,
            start_hour: start,
            duration_hours: dur,
            statistics: stats.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn sequential_rounds_with_gap_accepted() {
        let mut acc = Accountant::new();
        acc.schedule(round("a", System::PrivCount, 0, 24, &["streams"]))
            .unwrap();
        acc.schedule(round("b", System::Psc, 48, 24, &["unique-slds"]))
            .unwrap();
        assert_eq!(acc.rounds().len(), 2);
    }

    #[test]
    fn parallel_rounds_rejected() {
        let mut acc = Accountant::new();
        acc.schedule(round("a", System::PrivCount, 0, 24, &["streams"]))
            .unwrap();
        let err = acc
            .schedule(round("b", System::Psc, 12, 24, &["unique-slds"]))
            .unwrap_err();
        assert_eq!(err, ScheduleError::Overlap { with: "a".into() });
    }

    #[test]
    fn distinct_stats_need_24h_gap() {
        let mut acc = Accountant::new();
        acc.schedule(round("a", System::PrivCount, 0, 24, &["streams"]))
            .unwrap();
        let err = acc
            .schedule(round("b", System::PrivCount, 36, 24, &["circuits"]))
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::InsufficientGap {
                with: "a".into(),
                gap_hours: 12
            }
        );
        // At exactly 24h gap it is allowed.
        acc.schedule(round("c", System::PrivCount, 48, 24, &["circuits"]))
            .unwrap();
    }

    #[test]
    fn same_stats_can_repeat_back_to_back() {
        // The paper repeated the descriptor-fetch measurement to confirm
        // the 90% failure anomaly.
        let mut acc = Accountant::new();
        acc.schedule(round("a", System::PrivCount, 0, 24, &["desc-fetch"]))
            .unwrap();
        acc.schedule(round(
            "a-repeat",
            System::PrivCount,
            24,
            24,
            &["desc-fetch"],
        ))
        .unwrap();
    }

    #[test]
    fn degenerate_rounds_rejected() {
        let mut acc = Accountant::new();
        assert_eq!(
            acc.schedule(round("z", System::Psc, 0, 0, &["x"])),
            Err(ScheduleError::Degenerate)
        );
        assert_eq!(
            acc.schedule(round("z", System::Psc, 0, 24, &[])),
            Err(ScheduleError::Degenerate)
        );
    }

    #[test]
    fn earliest_start_computation() {
        let mut acc = Accountant::new();
        acc.schedule(round("a", System::PrivCount, 0, 24, &["streams"]))
            .unwrap();
        assert_eq!(acc.earliest_start(&["streams".into()]), 24);
        assert_eq!(acc.earliest_start(&["other".into()]), 48);
        // Multi-day round pushes things out.
        acc.schedule(round("churn", System::Psc, 48, 96, &["ips-4day"]))
            .unwrap();
        assert_eq!(acc.earliest_start(&["other".into()]), 168);
    }

    #[test]
    fn aborted_rounds_keep_their_spent_budget() {
        let mut acc = Accountant::new();
        acc.schedule(round("a", System::Psc, 0, 24, &["ips"]))
            .unwrap();
        acc.schedule(round("churn", System::Psc, 24, 96, &["ips"]))
            .unwrap();
        assert!(acc.record_outcome("a", RoundDisposition::Completed));
        assert!(acc.record_outcome(
            "churn",
            RoundDisposition::Aborted {
                reason: "CP died mid-mix".into(),
                detected_by: "runner".into(),
            }
        ));
        // Not scheduled: nothing to ledger.
        assert!(!acc.record_outcome("ghost", RoundDisposition::Completed));
        let s = acc.budget_summary();
        assert_eq!(s.scheduled_hours, 120);
        assert_eq!(s.completed_hours, 24);
        assert_eq!(s.aborted_hours, 96, "aborted budget must stay spent");
        assert_eq!(s.recovered_hours, 0);
        // The aborted round still blocks its calendar slot.
        assert_eq!(acc.earliest_start(&["ips".into()]), 120);
        assert_eq!(
            acc.disposition("churn").map(RoundDisposition::tag),
            Some("aborted")
        );
    }

    /// Every template list of up to three rounds — durations of 1–4
    /// days, three statistic names, both systems — placed under several
    /// horizons: each placement re-schedules cleanly on a fresh ledger,
    /// `None` means exactly "would end past the horizon" against an
    /// independent model of the earliest start, and `repeats_before` is
    /// the same-statistic scan.
    #[test]
    fn greedy_placement_is_legal_and_exact() {
        let mut templates = Vec::new();
        for days in 1..=4u64 {
            for stat in ["s0", "s1", "s2"] {
                for system in [System::PrivCount, System::Psc] {
                    templates.push((days * 24, stat, system));
                }
            }
        }
        let n = templates.len();
        // Every list of up to three templates, as base-`n` digits.
        let lists: Vec<Vec<usize>> = (0..=3u32)
            .flat_map(|len| (0..n.pow(len)).map(move |code| (len, code)))
            .map(|(len, code)| (0..len).map(|k| code / n.pow(k) % n).collect())
            .collect();
        assert_eq!(lists.len(), 1 + n + n * n + n * n * n);
        for horizon in [0, 24, 72, 120, 200, 400] {
            for list in &lists {
                let mut acc = Accountant::new();
                // (statistic, end hour) of every round placed so far.
                let mut placed: Vec<(&str, u64)> = Vec::new();
                for (k, &t) in list.iter().enumerate() {
                    let (duration, stat, system) = templates[t];
                    let want = placed
                        .iter()
                        .map(|&(s, end)| if s == stat { end } else { end + 24 })
                        .max()
                        .unwrap_or(0);
                    let got = acc.place(&format!("r{k}"), system, stat, duration, horizon);
                    if want + duration > horizon {
                        assert_eq!(got, None, "{list:?} at horizon {horizon}");
                    } else {
                        assert_eq!(got, Some(want), "{list:?} at horizon {horizon}");
                        placed.push((stat, want + duration));
                    }
                    assert_eq!(acc.rounds().len(), placed.len());
                }
                let mut fresh = Accountant::new();
                for (i, r) in acc.rounds().iter().enumerate() {
                    fresh.schedule(r.clone()).unwrap();
                    let scan: Vec<usize> = (0..i).filter(|&j| placed[j].0 == placed[i].0).collect();
                    assert_eq!(acc.repeats_before(i), scan);
                }
                assert!(acc.repeats_before(placed.len()).is_empty());
            }
        }
    }

    #[test]
    fn empty_rounds_are_not_placed() {
        let mut acc = Accountant::new();
        assert_eq!(acc.place("z", System::Psc, "x", 0, 100), None);
        assert!(acc.rounds().is_empty());
    }

    #[test]
    fn out_of_order_scheduling_checked_both_directions() {
        let mut acc = Accountant::new();
        acc.schedule(round("later", System::PrivCount, 100, 24, &["x"]))
            .unwrap();
        // A round ending 12h before 'later' starts, different stats.
        let err = acc
            .schedule(round("earlier", System::PrivCount, 64, 24, &["y"]))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InsufficientGap { .. }));
    }
}

//! The campaign engine: calendar planning, §3.1 validation, and
//! day-indexed parallel execution (see the crate docs for the model).

use crate::anomaly::{Anomaly, AnomalyKind};
use crate::report::CampaignReport;
use pm_dp::accountant::{Accountant, RoundDisposition, System};
use pm_dp::bounds::{Action, Sensitivity};
use pm_net::party::NodeError;
use pm_stats::guards::observe_probability;
use pm_stats::sampling::derive_seed;
use pm_stats::union::{multi_day_network_estimate, DayShare};
use pm_stats::Estimate;
use std::ops::Range;
use std::sync::Arc;
use torsim::churn::ChurnModel;
use torsim::relay::Position;
use torsim::stream::EventStream;
use torsim::timeline::{
    DaySnapshot, DayTruth, DomainDayTruth, NetworkTimeline, OnionDayTruth, TimelineConfig,
};
use torstudy::deployment::{Deployment, MAX_CONCURRENT_PSC_ROUNDS};
use torstudy::experiments::{client_traffic_streams, privcount_round, psc_round};
use torstudy::report::{fmt_count, fmt_estimate, Report, ReportRow};
use torstudy::runner::{run_jobs, Job};

/// What a campaign round measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// PSC distinct client IPs over the round's window (1-day rounds
    /// and the 96-hour churn round).
    UniqueIps,
    /// PSC distinct client countries on the round's day.
    UniqueCountries,
    /// PrivCount connections/circuits/bytes, one day-indexed sub-round
    /// per day of the window.
    ClientTraffic,
    /// Exit-domain window (§4): one PSC unique-SLD round chained over
    /// the window's per-day exit streams, plus day-indexed PrivCount
    /// stream counters over identical copies of the same streams. The
    /// cross-day unique-SLD total extrapolates each day's fresh
    /// contribution by that day's own exit fraction.
    ExitDomains,
    /// Onion-service window (§6): one PSC unique-published-address
    /// round chained over the window's per-day HSDir publish streams,
    /// plus day-indexed PrivCount rendezvous counters; the network
    /// extrapolation combines each day's own replica-level observe
    /// probability.
    OnionServices,
}

impl RoundKind {
    /// The measurement system the round occupies (§3.1 forbids
    /// overlapping rounds of either system). The exit/onion windows run
    /// PrivCount sub-rounds alongside their PSC round over bit-identical
    /// copies of the same streams; the ledger carries them as a single
    /// PSC round (the oblivious table is what the executor's memory cap
    /// must see), and since the [`Accountant`] rejects *any* round
    /// overlap, no *other* round of either system can land inside the
    /// window. The two systems sharing one collection within the window
    /// is a deliberate relaxation of the paper's operational rule that
    /// the ledger does not model — one window, one measurement unit.
    pub fn system(self) -> System {
        match self {
            RoundKind::UniqueIps
            | RoundKind::UniqueCountries
            | RoundKind::ExitDomains
            | RoundKind::OnionServices => System::Psc,
            RoundKind::ClientTraffic => System::PrivCount,
        }
    }
}

/// A Byzantine scenario injected into every round of a campaign — the
/// adversarial scenario suite. Each round kind lowers the scenario to
/// the matching protocol-level attack ([`psc::adversary::Attack`] /
/// [`privcount::adversary::Attack`]); the campaign then asserts the
/// attack is *detected* — the round ends [`RoundDisposition::Aborted`]
/// with the detecting party named, or [`RoundDisposition::Recovered`]
/// with the degradation flagged — instead of panicking the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CampaignAttack {
    /// Honest campaign (the default).
    #[default]
    None,
    /// A DC submits structurally malformed shares (wrong-size PSC
    /// table / short PrivCount register vector). Caught by the TS.
    ByzantineShares,
    /// A DC submits statistically-skewed shares (bogus PSC marks /
    /// inflated PrivCount increments). Protocol-invisible; caught by
    /// the campaign's plausibility cap, degrading the round.
    SkewedShares,
    /// A computation party / share keeper dies mid-round. Caught by
    /// the deterministic runner's deadlock detector.
    KeeperDeath,
    /// A party corrupts its cryptographic transcript (invalid PSC
    /// mixing proof, verified rounds only; truncated PrivCount share
    /// ciphertext). Caught by the verifying TS / the receiving SK.
    InvalidProof,
    /// A party's noise budget runs out mid-campaign; it refuses to
    /// run under-noised rather than silently weaken the DP guarantee.
    NoiseExhaustion,
}

impl CampaignAttack {
    /// Every non-trivial scenario (the matrix tests iterate this).
    pub const ALL: [CampaignAttack; 5] = [
        CampaignAttack::ByzantineShares,
        CampaignAttack::SkewedShares,
        CampaignAttack::KeeperDeath,
        CampaignAttack::InvalidProof,
        CampaignAttack::NoiseExhaustion,
    ];

    /// Stable CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignAttack::None => "none",
            CampaignAttack::ByzantineShares => "byzantine-shares",
            CampaignAttack::SkewedShares => "skewed-shares",
            CampaignAttack::KeeperDeath => "keeper-death",
            CampaignAttack::InvalidProof => "invalid-proof",
            CampaignAttack::NoiseExhaustion => "noise-exhaustion",
        }
    }

    /// Parses a CLI name ([`Self::name`]).
    pub fn parse(name: &str) -> Option<CampaignAttack> {
        std::iter::once(CampaignAttack::None)
            .chain(Self::ALL)
            .find(|a| a.name() == name)
    }
}

/// One scheduled measurement round of the campaign calendar.
#[derive(Clone, Debug)]
pub struct RoundSpec {
    /// Round id (unique within the campaign; labels seeds and reports).
    pub id: String,
    /// Statistic name for the §3.1 ledger: rounds with the same
    /// statistic are repeats (may be adjacent, are dependency-ordered
    /// and reconciled); distinct statistics need the 24-hour gap.
    pub statistic: String,
    /// What the round measures.
    pub kind: RoundKind,
    /// First calendar day of collection.
    pub start_day: u64,
    /// Collection days (1 for dailies, 4 for the churn round).
    pub duration_days: u64,
}

impl RoundSpec {
    /// The calendar days the round collects over.
    pub fn days(&self) -> Range<u64> {
        self.start_day..self.start_day + self.duration_days
    }

    /// The collection window as report titles spell it.
    fn window(&self) -> String {
        let days = self.days();
        format!("days {}..{}", days.start, days.end)
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Calendar length in days; rounds that do not fit are dropped.
    pub days: u64,
    /// Deployment scale in (0, 1] (see [`Deployment::at_scale`]).
    pub scale: f64,
    /// Base seed; every day/round RNG derives from it.
    pub seed: u64,
    /// Ingestion shards per stream (0 = deployment default).
    pub shards: usize,
    /// Network-evolution override (`None` = the paper-shaped defaults
    /// derived from the seed). Lets stress tests drive the campaign
    /// over a high-churn or fast-drifting network.
    pub timeline: Option<TimelineConfig>,
    /// Fabric backend every round runs over (in-process per-link by
    /// default; `wire` carries protocol frames over real loopback
    /// sockets without changing a report byte).
    pub fabric: pm_net::FabricChoice,
    /// Byzantine scenario injected into every round (the adversarial
    /// scenario suite); [`CampaignAttack::None`] runs honestly.
    pub attack: CampaignAttack,
    /// Observability handle threaded through the deployment, the
    /// timeline, and every round. Its deterministic metrics snapshot is
    /// part of the campaign's bit-identity contract (identical for
    /// every worker and shard count); profiling spans are recorded only
    /// when it was built with profiling enabled.
    pub recorder: pm_obs::Recorder,
}

impl CampaignConfig {
    /// A campaign over `days` calendar days.
    pub fn new(days: u64, scale: f64, seed: u64) -> CampaignConfig {
        CampaignConfig {
            days,
            scale,
            seed,
            shards: 0,
            timeline: None,
            fabric: pm_net::FabricChoice::default(),
            attack: CampaignAttack::None,
            recorder: pm_obs::Recorder::new(),
        }
    }

    /// Overrides the ingestion shard count.
    pub fn with_shards(mut self, shards: usize) -> CampaignConfig {
        self.shards = shards;
        self
    }

    /// Overrides the network-evolution model.
    pub fn with_timeline(mut self, timeline: TimelineConfig) -> CampaignConfig {
        self.timeline = Some(timeline);
        self
    }

    /// Overrides the fabric backend every round runs over.
    pub fn with_fabric(mut self, fabric: pm_net::FabricChoice) -> CampaignConfig {
        self.fabric = fabric;
        self
    }

    /// Injects a Byzantine scenario into every round.
    pub fn with_attack(mut self, attack: CampaignAttack) -> CampaignConfig {
        self.attack = attack;
        self
    }

    /// Attaches an observability recorder (see
    /// [`CampaignConfig::recorder`]).
    pub fn with_recorder(mut self, recorder: pm_obs::Recorder) -> CampaignConfig {
        self.recorder = recorder;
        self
    }
}

/// The outcome of one executed round.
pub struct RoundOutcome {
    /// The round.
    pub spec: RoundSpec,
    /// Its rendered report.
    pub report: Report,
    /// Ground truth per collected day, in calendar order (client-IP
    /// rounds; empty for traffic rounds).
    pub day_truths: Vec<DayTruth>,
    /// Per-day exit-domain ground truth (exit-domain rounds only).
    pub domain_truths: Vec<DomainDayTruth>,
    /// Per-day onion-service ground truth (onion-service rounds only).
    pub onion_truths: Vec<OnionDayTruth>,
    /// Headline measured estimate (at scale for unique counts).
    pub estimate: Option<Estimate>,
    /// Network-wide extrapolation of [`Self::estimate`] using each
    /// collected day's own observation fraction (where the round
    /// performs one).
    pub network_estimate: Option<Estimate>,
    /// The estimate repeats of this statistic are reconciled on: the
    /// network-extrapolated value — the quantity that is *constant*
    /// across repeat days, unlike the day's realized observed pool —
    /// with the Binomial observation-sampling variance (which the PSC
    /// interval does not include) folded into the CI. `None` falls
    /// back to [`Self::estimate`].
    pub reconcile_estimate: Option<Estimate>,
    /// How the round ended. Aborted rounds carry empty truths and no
    /// estimates; their budget stays spent (§3.1 accounts hours).
    pub status: RoundDisposition,
    /// Structured irregularities detected during the round (see
    /// [`crate::anomaly`]); the campaign report folds every round's
    /// records into one channel.
    pub anomalies: Vec<Anomaly>,
}

impl RoundOutcome {
    /// A completed outcome carrying only its report; each runner fills
    /// in what its round kind produces.
    fn empty(spec: &RoundSpec, report: Report) -> RoundOutcome {
        RoundOutcome {
            spec: spec.clone(),
            report,
            day_truths: Vec::new(),
            domain_truths: Vec::new(),
            onion_truths: Vec::new(),
            estimate: None,
            network_estimate: None,
            reconcile_estimate: None,
            status: RoundDisposition::Completed,
            anomalies: Vec::new(),
        }
    }
}

/// Per-day fractions as report notes print them (4 decimals).
fn fmt_fractions(fractions: &[f64]) -> Vec<String> {
    fractions.iter().map(|p| format!("{p:.4}")).collect()
}

/// A planned, runnable campaign.
pub struct Campaign {
    cfg: CampaignConfig,
    base: Deployment,
    timeline: NetworkTimeline,
    rounds: Vec<RoundSpec>,
    ledger: Accountant,
}

/// The calendar templates, in scheduling priority order: the §5.1
/// client-IP measurement, its confirmation repeat, the 96-hour churn
/// round, then the PrivCount traffic and PSC country rounds, and
/// finally the two-day exit-domain and onion-service windows. A short
/// campaign keeps the highest-priority prefix that fits.
fn round_templates() -> Vec<(&'static str, &'static str, RoundKind, u64)> {
    vec![
        ("ips-a", "unique-ips", RoundKind::UniqueIps, 1),
        ("ips-b", "unique-ips", RoundKind::UniqueIps, 1),
        ("ips-4day", "unique-ips-4day", RoundKind::UniqueIps, 4),
        ("traffic", "client-traffic", RoundKind::ClientTraffic, 1),
        (
            "countries",
            "unique-countries",
            RoundKind::UniqueCountries,
            1,
        ),
        ("domains", "exit-domains", RoundKind::ExitDomains, 2),
        ("onions", "onion-services", RoundKind::OnionServices, 2),
    ]
}

/// Places the round templates on a `days`-day calendar greedily: each
/// takes its earliest §3.1-legal start and is dropped if it would end
/// after the campaign. Returns the calendar and the ledger it filled.
fn default_calendar(days: u64) -> (Vec<RoundSpec>, Accountant) {
    let mut ledger = Accountant::new();
    let rounds = round_templates()
        .into_iter()
        .filter_map(|(id, statistic, kind, duration_days)| {
            let start =
                ledger.place(id, kind.system(), statistic, duration_days * 24, days * 24)?;
            Some(RoundSpec {
                id: id.to_string(),
                statistic: statistic.to_string(),
                kind,
                start_day: start / 24,
                duration_days,
            })
        })
        .collect();
    (rounds, ledger)
}

impl Campaign {
    /// Builds the campaign: the evolving network, the churned client
    /// pool at the configured scale, and the default calendar, placed
    /// round by round on a §3.1 [`Accountant`] (so it is legal by
    /// construction) that the campaign keeps as its ledger.
    pub fn new(cfg: CampaignConfig) -> Campaign {
        let mut base = Deployment::at_scale(cfg.scale, cfg.seed)
            .with_recorder(cfg.recorder.clone())
            .with_fabric(cfg.fabric);
        if cfg.shards > 0 {
            base = base.with_shards(cfg.shards);
        }
        let clients = &base.workload.clients;
        let daily_unique = ((clients.selective_ips as f64 * cfg.scale) as u64).max(1);
        let new_per_day = (daily_unique as f64 * clients.daily_churn_fraction) as u64;
        let promiscuous = (clients.promiscuous_ips as f64 * cfg.scale).ceil() as u64;
        let timeline_cfg = cfg
            .timeline
            .clone()
            .unwrap_or_else(|| TimelineConfig::paper_default(derive_seed(cfg.seed, "timeline")));
        let timeline = NetworkTimeline::new(
            timeline_cfg,
            ChurnModel::new(daily_unique, new_per_day, derive_seed(cfg.seed, "churn")),
            promiscuous,
            Arc::clone(&base.geo),
        )
        .with_recorder(cfg.recorder.clone());
        let (rounds, ledger) = default_calendar(cfg.days);
        Campaign {
            cfg,
            base,
            timeline,
            rounds,
            ledger,
        }
    }

    /// The §3.1 ledger the calendar was placed on: one round per
    /// [`Self::rounds`] entry, same order.
    pub fn ledger(&self) -> &Accountant {
        &self.ledger
    }

    /// The scheduled rounds, in calendar order.
    pub fn rounds(&self) -> &[RoundSpec] {
        &self.rounds
    }

    /// The evolving network.
    pub fn timeline(&self) -> &NetworkTimeline {
        &self.timeline
    }

    /// The base (day-0) deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.base
    }

    /// Runs the whole calendar on up to `workers` threads (0 = the
    /// machine's parallelism) via the registry's generic executor:
    /// repeats of a statistic are dependency-ordered, everything else
    /// — §3.1 guarantees logically-disjoint intervals — runs
    /// wall-clock-concurrently, with PSC rounds throttled by the
    /// deployment's memory cap. The report is identical for every
    /// worker and shard count.
    pub fn run(&self, workers: usize) -> CampaignReport {
        let mut span = self.cfg.recorder.span("campaign.run", "study");
        span.note("days", self.cfg.days);
        span.note("rounds", self.rounds.len());
        CampaignReport::assemble(&self.cfg, &self.ledger, self.run_rounds(workers))
    }

    /// Like [`Self::run`] but returns the raw per-round outcomes
    /// (reports plus mergeable ground truths and headline estimates) —
    /// what tests and custom aggregations introspect.
    pub fn run_rounds(&self, workers: usize) -> Vec<RoundOutcome> {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let jobs: Vec<Job<'_, RoundOutcome>> = self
            .rounds
            .iter()
            .enumerate()
            .map(|(i, spec)| Job {
                id: spec.id.clone(),
                is_psc: spec.kind.system() == System::Psc,
                deps: self.ledger.repeats_before(i),
                run: Box::new(move || self.run_round(spec)),
            })
            .collect();
        let outcomes = run_jobs(jobs, workers, MAX_CONCURRENT_PSC_ROUNDS, &self.cfg.recorder);
        // Outcome tallies are pure functions of (config, calendar) —
        // every schedule produces the same statuses and anomalies — so
        // they live in the deterministic plane. Ledger hours come from
        // the planned calendar, not from execution.
        let rec = &self.cfg.recorder;
        rec.add(
            "study.ledger.hours",
            self.ledger.budget_summary().scheduled_hours,
        );
        for outcome in &outcomes {
            rec.incr(&format!("study.rounds.{}", outcome.status.tag()));
            rec.add("study.anomalies", outcome.anomalies.len() as u64);
        }
        // Random-access back to the epoch so every run exercises the
        // cursor's checkpoint-restore path: a single-worker sweep only
        // moves forward, and the `timeline.checkpoint_restore` span is
        // what `make obs-smoke` and `tests/obs_planes.rs` look for. The
        // epoch is materialized by the calendar's first round, so no
        // deterministic counter moves.
        self.timeline.snapshot(0);
        outcomes
    }

    /// Lowers the campaign scenario to a PSC-level attack on `cfg`.
    /// Indices are deterministic (DC 0 / the second CP), so an
    /// attacked campaign renders bit-identically across schedules.
    fn apply_psc_attack(&self, cfg: &mut psc::PscConfig) {
        match self.cfg.attack {
            CampaignAttack::None => {}
            CampaignAttack::ByzantineShares => {
                cfg.adversary = psc::adversary::Attack::MalformedTable { dc: 0 };
            }
            CampaignAttack::SkewedShares => {
                // Enough bogus marks to saturate well past the
                // plausibility cap whatever the table size.
                cfg.adversary = psc::adversary::Attack::SkewedShares {
                    dc: 0,
                    extra_marks: cfg.table_size * 3 / 4,
                };
            }
            CampaignAttack::KeeperDeath => {
                cfg.adversary = psc::adversary::Attack::CpDeath {
                    cp: 1,
                    after_messages: 1,
                };
            }
            CampaignAttack::InvalidProof => {
                // Invalid proofs are only detectable when the round
                // verifies them; the TS fails on the first corrupted
                // hop, so verification cost stays contained.
                cfg.adversary = psc::adversary::Attack::InvalidProof { cp: 0 };
                cfg.verify = true;
            }
            CampaignAttack::NoiseExhaustion => {
                cfg.adversary = psc::adversary::Attack::NoiseExhaustion { cp: 1, budget: 0 };
            }
        }
    }

    /// Lowers the campaign scenario to a PrivCount-level attack.
    /// `InvalidProof` maps to the corrupted-ciphertext attack —
    /// PrivCount has no mixing proofs; a truncated share payload is
    /// its closest transcript-corruption analogue.
    fn apply_privcount_attack(&self, cfg: &mut privcount::RoundConfig) {
        match self.cfg.attack {
            CampaignAttack::None => {}
            CampaignAttack::ByzantineShares => {
                cfg.adversary = privcount::adversary::Attack::MalformedRegisters { dc: 0 };
            }
            CampaignAttack::SkewedShares => {
                cfg.adversary = privcount::adversary::Attack::InflatedCounts {
                    dc: 0,
                    factor: 1000,
                };
            }
            CampaignAttack::KeeperDeath => {
                cfg.adversary = privcount::adversary::Attack::SkDeath {
                    sk: 0,
                    after_messages: 1,
                };
            }
            CampaignAttack::InvalidProof => {
                cfg.adversary = privcount::adversary::Attack::BadSharePayload { dc: 0 };
            }
            CampaignAttack::NoiseExhaustion => {
                cfg.adversary = privcount::adversary::Attack::NoiseExhaustion { dc: 0, budget: 0 };
            }
        }
    }

    /// Packages a failed round as an aborted outcome: the failure and
    /// its detecting party become a report note, a structured anomaly,
    /// and the round status — never a panic. Ground truths are dropped
    /// (the round produced nothing to compare them against) and the
    /// round's budget stays spent.
    fn aborted_outcome(&self, spec: &RoundSpec, err: NodeError) -> RoundOutcome {
        let detected_by = err
            .detected_by()
            .map(|p| p.as_str().to_string())
            .unwrap_or_else(|| "runner".to_string());
        let reason = err.reason();
        let mut report = Report::new(
            spec.id.clone(),
            format!("Round {}, {} — ABORTED", spec.id, spec.window()),
        );
        report.note(format!("aborted: {reason} (detected by {detected_by})"));
        RoundOutcome {
            anomalies: vec![Anomaly::new(
                AnomalyKind::Aborted,
                spec.id.clone(),
                Some(spec.start_day),
                format!("{reason} (detected by {detected_by})"),
            )],
            status: RoundDisposition::Aborted {
                reason,
                detected_by,
            },
            ..RoundOutcome::empty(spec, report)
        }
    }

    /// The plausibility cap on a completed round's headline count:
    /// statistically-skewed shares are protocol-invisible (that is the
    /// point of blinding and oblivious counters), so the campaign
    /// cross-checks the published count against the expectation its
    /// round was provisioned for. An implausible count degrades the
    /// round — reported, flagged, excluded from headline claims — but
    /// never panics.
    fn plausibility_status(
        spec: &RoundSpec,
        est: &Estimate,
        expected: f64,
        cap_multiple: f64,
        report: &mut Report,
        anomalies: &mut Vec<Anomaly>,
    ) -> RoundDisposition {
        let cap = cap_multiple * expected.max(1.0);
        if est.value <= cap {
            return RoundDisposition::Completed;
        }
        let degraded = format!(
            "count {:.0} exceeds the plausibility cap {cap:.0} ({cap_multiple}x the \
             sizing expectation {expected:.0}); skewed shares cannot be attributed \
             to a party, so the round is kept but flagged",
            est.value
        );
        report.note(format!("recovered (degraded): {degraded}"));
        anomalies.push(Anomaly::new(
            AnomalyKind::Degraded,
            spec.id.clone(),
            Some(spec.start_day),
            degraded.clone(),
        ));
        RoundDisposition::Recovered { degraded }
    }

    /// Flags a ground-truth record that carries no day attribution —
    /// before this check its rows silently misattributed to day 0
    /// (`days.first().unwrap_or(0)`); now the row keeps its calendar
    /// day and the gap becomes an explicit anomaly.
    fn check_day_attribution(
        spec: &RoundSpec,
        day: u64,
        days: &std::collections::BTreeSet<u64>,
        anomalies: &mut Vec<Anomaly>,
    ) {
        if days.is_empty() {
            anomalies.push(Anomaly::new(
                AnomalyKind::EmptyTruth,
                spec.id.clone(),
                Some(day),
                format!("day {day} ground truth carries no day attribution"),
            ));
        }
    }

    /// Executes one round against its day-indexed deployment; a
    /// protocol failure in any runner becomes an aborted outcome here.
    fn run_round(&self, spec: &RoundSpec) -> RoundOutcome {
        let outcome = match spec.kind {
            RoundKind::UniqueIps => self.run_unique_ips(spec),
            RoundKind::UniqueCountries => self.run_unique_countries(spec),
            RoundKind::ClientTraffic => self.run_client_traffic(spec),
            RoundKind::ExitDomains => self.run_exit_domains(spec),
            RoundKind::OnionServices => self.run_onion_services(spec),
        };
        outcome.unwrap_or_else(|err| self.aborted_outcome(spec, err))
    }

    /// The day's observation probability for a client: the snapshot's
    /// guard fraction compounded over the guards each client contacts.
    /// Takes the day's already-fetched snapshot so each runner pulls a
    /// day from the timeline cursor exactly once.
    fn observe_on(&self, snap: &DaySnapshot) -> (f64, f64) {
        let p = snap.fraction(Position::Guard);
        let g = self.base.workload.clients.guards_per_client;
        (p, observe_probability(p, g))
    }

    /// One PSC unique-IP round over the window's churned daily pools:
    /// per-day streams chained into a single oblivious-table round,
    /// truth merged associatively, network inference per-day-fraction.
    fn run_unique_ips(&self, spec: &RoundSpec) -> Result<RoundOutcome, NodeError> {
        let dep = self.base.for_day(&self.timeline.snapshot(spec.start_day));
        let prom = self.timeline.promiscuous() as f64;
        let mut day_streams: Vec<EventStream> = Vec::new();
        let mut day_truths: Vec<DayTruth> = Vec::new();
        let mut union = DayTruth::default();
        let mut shares: Vec<DayShare> = Vec::new();
        let mut guard_fractions: Vec<f64> = Vec::new();
        for (k, day) in spec.days().enumerate() {
            // One snapshot fetch per day: the shared timeline cursor
            // evolves the network incrementally, so a calendar sweep is
            // O(churn) per day rather than replaying day 0..d.
            let snap = self.timeline.snapshot(day);
            let (p, observe) = self.observe_on(&snap);
            guard_fractions.push(p);
            let (stream, truth) =
                self.timeline
                    .client_ip_day(day, observe, dep.shards, dep.entry_relays());
            day_streams.push(stream);
            // Promiscuous clients are observed with probability 1, sit
            // in every day's pool (all "fresh" on the window's first
            // day), and must not be divided by the selective fraction:
            // only the selective slice of each day's fresh contribution
            // extrapolates.
            let fresh = truth.new_vs(&union) as f64;
            shares.push(DayShare {
                share: if k == 0 {
                    (fresh - prom).max(0.0)
                } else {
                    fresh
                },
                fraction: observe,
            });
            union = union.merge(truth.clone());
            day_truths.push(truth);
        }
        // Table 1 sensitivity, as in tab5: a multi-day window takes the
        // 2+ day new-IP bound per day.
        let sensitivity = Sensitivity::over_days(Action::NewIpDay1, spec.duration_days);
        let expected = union.unique() as f64;
        let mut cfg = psc_round(&dep, expected, sensitivity, &spec.id);
        self.apply_psc_attack(&mut cfg);
        let window = vec![EventStream::chain(day_streams)];
        let result = psc::run_psc_round(cfg, psc::items::unique_client_ips(), window)?;
        let mut anomalies = Vec::new();
        let est = result.estimate(0.95);
        // Split the measured union into the known promiscuous component
        // and the selective remainder; extrapolate only the latter.
        let network = if shares.iter().map(|s| s.share).sum::<f64>() > 0.0 {
            multi_day_network_estimate(&est.shift(-prom), &shares).shift(prom)
        } else {
            est // degenerate pool: purely promiscuous, nothing to infer
        };
        // Repeats of this statistic on other days re-draw the Binomial
        // observation thinning; its variance is not in the PSC interval,
        // so the reconciliation estimate widens by its 95% band.
        let mean_observe = shares.iter().map(|s| s.fraction).sum::<f64>() / shares.len() as f64;
        let daily = self.timeline.churn().daily_unique as f64;
        let sampling_sd = (daily * mean_observe * (1.0 - mean_observe)).sqrt() / mean_observe;
        let reconcile_est = Estimate::with_ci(
            network.value,
            pm_stats::Interval::new(
                network.ci.lo - 1.96 * sampling_sd,
                network.ci.hi + 1.96 * sampling_sd,
            ),
        );

        let mut report = Report::new(
            spec.id.clone(),
            format!("Unique client IPs, {} (PSC)", spec.window()),
        );
        report.row(ReportRow::new(
            format!("unique IPs ({} day(s), at scale)", spec.duration_days),
            fmt_estimate(&est),
            fmt_count(union.unique() as f64),
            if spec.duration_days >= 4 {
                "672,303 [671,781; 1,118,147]"
            } else {
                "313,213 [313,039; 376,343]"
            },
        ));
        for ((day, truth), share) in spec.days().zip(&day_truths).zip(&shares) {
            Self::check_day_attribution(spec, day, &truth.days, &mut anomalies);
            report.row(ReportRow::new(
                format!("day {day}: pool / fresh"),
                "—",
                format!("{} / {}", truth.unique(), share.share as u64),
                "—",
            ));
        }
        report.row(ReportRow::new(
            "network-wide clients (per-day fractions)",
            fmt_estimate(&network),
            // Reference: the churn process's definitional multi-day
            // union (pinned exact by the ChurnModel proptests) plus the
            // stable promiscuous set — the network-wide pool the
            // per-day-fraction inference is trying to recover.
            fmt_count(
                (self.timeline.churn().unique_over(spec.duration_days)
                    + self.timeline.promiscuous()) as f64,
            ),
            "—",
        ));
        report.note(format!(
            "per-day guard fractions {:?}",
            fmt_fractions(&guard_fractions)
        ));
        let status =
            Self::plausibility_status(spec, &est, expected, 2.5, &mut report, &mut anomalies);
        Ok(RoundOutcome {
            day_truths,
            estimate: Some(est),
            network_estimate: Some(network),
            reconcile_estimate: Some(reconcile_est),
            status,
            anomalies,
            ..RoundOutcome::empty(spec, report)
        })
    }

    /// One PSC unique-country round on the round's day.
    fn run_unique_countries(&self, spec: &RoundSpec) -> Result<RoundOutcome, NodeError> {
        let day = spec.start_day;
        let snap = self.timeline.snapshot(day);
        let dep = self.base.for_day(&snap);
        let (_, observe) = self.observe_on(&snap);
        let (stream, truth) =
            self.timeline
                .client_ip_day(day, observe, dep.shards, dep.entry_relays());
        let truth_countries: std::collections::BTreeSet<_> =
            truth.ips.iter().map(|ip| dep.geo.country_of(*ip)).collect();
        let mut cfg = psc_round(&dep, 260.0, Sensitivity::of(Action::NewIpDay1), &spec.id);
        self.apply_psc_attack(&mut cfg);
        let result = psc::run_psc_round(
            cfg,
            psc::items::unique_countries(Arc::clone(&dep.geo)),
            vec![stream],
        )?;
        let mut anomalies = Vec::new();
        let est = result.estimate(0.95);
        let mut report = Report::new(
            spec.id.clone(),
            format!("Unique client countries, day {day} (PSC)"),
        );
        report.row(ReportRow::new(
            "countries (at scale)",
            fmt_estimate(&est),
            fmt_count(truth_countries.len() as f64),
            "203 [141; 250]",
        ));
        let status = Self::plausibility_status(spec, &est, 260.0, 2.5, &mut report, &mut anomalies);
        Ok(RoundOutcome {
            day_truths: vec![truth],
            estimate: Some(est),
            status,
            anomalies,
            ..RoundOutcome::empty(spec, report)
        })
    }

    /// Day-indexed PrivCount traffic sub-rounds over the window.
    fn run_client_traffic(&self, spec: &RoundSpec) -> Result<RoundOutcome, NodeError> {
        let mut report = Report::new(
            spec.id.clone(),
            format!("Client traffic, {} (PrivCount)", spec.window()),
        );
        let mut day_streams = Vec::new();
        let mut fractions = Vec::new();
        let mut deps: Vec<Deployment> = Vec::new();
        for day in spec.days() {
            // One snapshot fetch per day (see run_unique_ips).
            let dep = self.base.for_day(&self.timeline.snapshot(day));
            let p = dep.weights.tab4_entry;
            day_streams.push(client_traffic_streams(&dep, p, 10, &spec.id));
            fractions.push(p);
            deps.push(dep);
        }
        let first_dep = &deps[0];
        let schema = privcount::queries::client_traffic(first_dep.eps(), first_dep.delta());
        let mut cfg = privcount_round(first_dep, schema, &spec.id);
        self.apply_privcount_attack(&mut cfg);
        let results = privcount::run_round_days(cfg, day_streams)?;
        let mut anomalies = Vec::new();
        let t = &self.base.workload.clients;
        for ((day, result), p) in spec.days().zip(&results).zip(&fractions) {
            let conns = first_dep.to_network(result.estimate("client.connections"), *p);
            report.row(ReportRow::new(
                format!("day {day}: connections (network-wide)"),
                fmt_estimate(&conns),
                fmt_count(t.connections_per_day),
                "148e6 [143e6; 153e6]",
            ));
        }
        report.note(format!("per-day entry fractions {fractions:?}"));
        let first = &results[0];
        let est = first_dep.to_network(first.estimate("client.connections"), fractions[0]);
        // Inflated increments pass through blinding untouched; the cap
        // is wider here (10x) because the network extrapolation divides
        // by a small drifting fraction.
        let status = Self::plausibility_status(
            spec,
            &est,
            t.connections_per_day,
            10.0,
            &mut report,
            &mut anomalies,
        );
        Ok(RoundOutcome {
            estimate: Some(est),
            status,
            anomalies,
            ..RoundOutcome::empty(spec, report)
        })
    }

    /// One exit-domain window: a PSC unique-SLD round chained over the
    /// window's per-day exit streams (the stable popular domains mark
    /// their cells once however many days revisit them), day-indexed
    /// PrivCount stream counters over bit-identical copies of the same
    /// streams, and a network-wide unique-SLD extrapolation in which
    /// each day's fresh contribution divides by that day's own exit
    /// fraction (`pm_stats::union::multi_day_network_estimate`).
    fn run_exit_domains(&self, spec: &RoundSpec) -> Result<RoundOutcome, NodeError> {
        let dep = self.base.for_day(&self.timeline.snapshot(spec.start_day));
        let mut psc_days: Vec<EventStream> = Vec::new();
        let mut pc_days: Vec<Vec<EventStream>> = Vec::new();
        let mut day_truths: Vec<DomainDayTruth> = Vec::new();
        let mut shares: Vec<DayShare> = Vec::new();
        let mut exit_fractions: Vec<f64> = Vec::new();
        let mut union = DomainDayTruth::default();
        for day in spec.days() {
            // One snapshot fetch per day (see run_unique_ips).
            let snap = self.timeline.snapshot(day);
            let p = snap.fraction(Position::Exit);
            exit_fractions.push(p);
            // Both systems observe the identical events of the shared
            // window, so their truths cannot drift apart.
            let ([psc_stream, pc_stream], truth) = self.timeline.exit_stream_day(
                &snap,
                &dep.sites,
                &self.base.workload.exit,
                dep.scale,
                dep.shards,
                dep.exit_relays(),
            );
            psc_days.push(psc_stream);
            pc_days.push(vec![pc_stream]);
            shares.push(DayShare {
                share: truth.new_vs(&union) as f64,
                fraction: p,
            });
            union = union.merge(truth.clone());
            day_truths.push(truth);
        }
        // Table 1 sensitivity, as in tab2's SLD round, per day.
        let sensitivity = Sensitivity::over_days(Action::ConnectToDomain, spec.duration_days);
        let expected = union.unique() as f64;
        let mut cfg = psc_round(&dep, expected, sensitivity, &spec.id);
        self.apply_psc_attack(&mut cfg);
        let result = psc::run_psc_round(
            cfg,
            psc::items::unique_slds(Arc::clone(&dep.sites), false),
            vec![EventStream::chain(psc_days)],
        )?;
        let mut anomalies = Vec::new();
        let est = result.estimate(0.95);
        let network = (shares.iter().map(|s| s.share).sum::<f64>() > 0.0)
            .then(|| multi_day_network_estimate(&est, &shares));

        let schema = privcount::queries::exit_streams(dep.eps(), dep.delta());
        let pc_cfg = privcount_round(&dep, schema, &format!("{}-pc", spec.id));
        let results = privcount::run_round_days(pc_cfg, pc_days)?;

        let mut report = Report::new(
            spec.id.clone(),
            format!(
                "Exit domains, {} (PSC SLDs + PrivCount streams)",
                spec.window()
            ),
        );
        report.row(ReportRow::new(
            format!("unique SLDs ({} day(s), at scale)", spec.duration_days),
            fmt_estimate(&est),
            fmt_count(union.unique() as f64),
            "471,228 [470,357; 472,099]",
        ));
        for ((day, truth), share) in spec.days().zip(&day_truths).zip(&shares) {
            Self::check_day_attribution(spec, day, &truth.days, &mut anomalies);
            report.row(ReportRow::new(
                format!("day {day}: streams / initial / fresh SLDs"),
                "—",
                format!(
                    "{} / {} / {}",
                    truth.streams, truth.initial_streams, share.share as u64
                ),
                "—",
            ));
        }
        if let Some(net) = &network {
            report.row(ReportRow::new(
                "network-wide SLDs (per-day exit fractions)",
                fmt_estimate(net),
                "—",
                "—",
            ));
        }
        let t = &self.base.workload.exit;
        for ((day, result), p) in spec.days().zip(&results).zip(&exit_fractions) {
            let initial = dep.to_network(result.estimate("streams.initial"), *p);
            report.row(ReportRow::new(
                format!("day {day}: initial streams (network-wide)"),
                fmt_estimate(&initial),
                fmt_count(t.streams_per_day * t.initial_fraction),
                "≈1.0e8 (Fig. 1)",
            ));
        }
        report.note(format!(
            "per-day exit fractions {:?}",
            fmt_fractions(&exit_fractions)
        ));
        let status =
            Self::plausibility_status(spec, &est, expected, 2.5, &mut report, &mut anomalies);
        Ok(RoundOutcome {
            domain_truths: day_truths,
            estimate: Some(est),
            network_estimate: network,
            status,
            anomalies,
            ..RoundOutcome::empty(spec, report)
        })
    }

    /// One onion-service window: a PSC unique-published-address round
    /// chained over the window's per-day HSDir publish streams, plus
    /// day-indexed PrivCount rendezvous counters. The published
    /// universe is fixed across the window while each day's replica
    /// placement re-randomizes (v2 descriptor ids rotate daily), so
    /// the network extrapolation divides the measured union by the
    /// combined probability `1 − Π(1 − q_d)` with each day's own
    /// HSDir fraction — §6.1's replica extrapolation extended across
    /// the window's days.
    fn run_onion_services(&self, spec: &RoundSpec) -> Result<RoundOutcome, NodeError> {
        let dep = self.base.for_day(&self.timeline.snapshot(spec.start_day));
        let mut psc_days: Vec<EventStream> = Vec::new();
        let mut pc_days: Vec<Vec<EventStream>> = Vec::new();
        let mut day_truths: Vec<OnionDayTruth> = Vec::new();
        let mut fresh_onions: Vec<u64> = Vec::new();
        let mut publish_observes: Vec<f64> = Vec::new();
        let mut rend_fractions: Vec<f64> = Vec::new();
        let mut union = OnionDayTruth::default();
        for day in spec.days() {
            // One snapshot fetch per day (see run_unique_ips).
            let snap = self.timeline.snapshot(day);
            let hs_day = self.timeline.hs_stream_day(
                &snap,
                &dep.sites,
                &self.base.workload.onion,
                dep.scale,
                dep.shards,
                dep.entry_relays(),
            );
            // Extrapolation divides by the exact probabilities the
            // streams were thinned at — they travel with the streams.
            publish_observes.push(hs_day.publish_observe);
            rend_fractions.push(hs_day.rend_fraction);
            psc_days.push(hs_day.publish);
            pc_days.push(vec![hs_day.rendezvous]);
            fresh_onions.push(hs_day.truth.new_vs(&union));
            union = union.merge(hs_day.truth.clone());
            day_truths.push(hs_day.truth);
        }
        let t = &self.base.workload.onion;
        // Table 1 sensitivity, as in tab6's publish round, per day.
        let sensitivity = Sensitivity::over_days(Action::UploadNewOnionAddress, spec.duration_days);
        let expected = (union.unique() as f64).max(64.0);
        let mut cfg = psc_round(&dep, expected, sensitivity, &spec.id);
        self.apply_psc_attack(&mut cfg);
        let window = vec![EventStream::chain(psc_days)];
        let result = psc::run_psc_round(cfg, psc::items::unique_onions_published(), window)?;
        let mut anomalies = Vec::new();
        let est = result.estimate(0.95);
        let combined = 1.0 - publish_observes.iter().map(|q| 1.0 - q).product::<f64>();
        let network =
            (combined > 0.0).then(|| est.scale_to_network(combined).scale_to_network(dep.scale));

        let schema = privcount::queries::rendezvous(dep.eps(), dep.delta());
        let pc_cfg = privcount_round(&dep, schema, &format!("{}-pc", spec.id));
        let results = privcount::run_round_days(pc_cfg, pc_days)?;

        let mut report = Report::new(
            spec.id.clone(),
            format!(
                "Onion services, {} (PSC publishes + PrivCount rendezvous)",
                spec.window()
            ),
        );
        report.row(ReportRow::new(
            format!(
                "unique onions published ({} day(s), at scale)",
                spec.duration_days
            ),
            fmt_estimate(&est),
            fmt_count(union.unique() as f64),
            "3,900 [3,769; 4,045]",
        ));
        for ((day, truth), fresh) in spec.days().zip(&day_truths).zip(&fresh_onions) {
            Self::check_day_attribution(spec, day, &truth.days, &mut anomalies);
            report.row(ReportRow::new(
                format!("day {day}: publishes / fresh onions"),
                "—",
                format!("{} / {fresh}", truth.publishes),
                "—",
            ));
        }
        if let Some(net) = &network {
            report.row(ReportRow::new(
                "network-wide published (per-day HSDir fractions)",
                fmt_estimate(net),
                fmt_count(t.published_addresses as f64),
                "70,826 [65,738; 76,350]",
            ));
        }
        for ((day, result), p) in spec.days().zip(&results).zip(&rend_fractions) {
            let circuits = dep.to_network(result.estimate("rend.circuits"), *p);
            report.row(ReportRow::new(
                format!("day {day}: rend circuits (network-wide)"),
                fmt_estimate(&circuits),
                fmt_count(t.rend_circuits_per_day),
                "366e6 [351e6; 380e6]",
            ));
        }
        report.note(format!(
            "per-day publish observe probs {:?}, rend fractions {:?}",
            fmt_fractions(&publish_observes),
            fmt_fractions(&rend_fractions)
        ));
        let status =
            Self::plausibility_status(spec, &est, expected, 2.5, &mut report, &mut anomalies);
        Ok(RoundOutcome {
            onion_truths: day_truths,
            estimate: Some(est),
            network_estimate: network,
            status,
            anomalies,
            ..RoundOutcome::empty(spec, report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_day_calendar_includes_the_churn_round() {
        let c = Campaign::new(CampaignConfig::new(7, 1e-3, 5));
        let ids: Vec<&str> = c.rounds().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["ips-a", "ips-b", "ips-4day"]);
        let churn = &c.rounds()[2];
        assert_eq!(churn.duration_days, 4);
        // Repeats are adjacent; the distinct statistic waited 24h.
        assert_eq!(c.rounds()[0].start_day, 0);
        assert_eq!(c.rounds()[1].start_day, 1);
        assert_eq!(churn.start_day, 3);
        // The ledger holds every placed round.
        assert_eq!(c.ledger().rounds().len(), 3);
    }

    #[test]
    fn longer_calendar_adds_traffic_countries_and_domains() {
        let c = Campaign::new(CampaignConfig::new(14, 1e-3, 5));
        let ids: Vec<&str> = c.rounds().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ips-a",
                "ips-b",
                "ips-4day",
                "traffic",
                "countries",
                "domains"
            ]
        );
        assert_eq!(c.ledger().rounds().len(), 6);
    }

    #[test]
    fn full_calendar_includes_exit_and_onion_windows() {
        let c = Campaign::new(CampaignConfig::new(17, 1e-3, 5));
        let ids: Vec<&str> = c.rounds().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ips-a",
                "ips-b",
                "ips-4day",
                "traffic",
                "countries",
                "domains",
                "onions"
            ]
        );
        let domains = &c.rounds()[5];
        assert_eq!(domains.kind, RoundKind::ExitDomains);
        assert_eq!(domains.duration_days, 2);
        assert_eq!(domains.kind.system(), System::Psc);
        let onions = &c.rounds()[6];
        assert_eq!(onions.kind, RoundKind::OnionServices);
        assert_eq!(onions.duration_days, 2);
        assert_eq!(onions.kind.system(), System::Psc);
        // The ledger holds the full calendar.
        assert_eq!(c.ledger().rounds().len(), 7);
    }

    #[test]
    fn repeats_depend_on_earlier_rounds_only() {
        let c = Campaign::new(CampaignConfig::new(7, 1e-3, 5));
        // ips-a and ips-b share a statistic; ips-4day does not.
        let specs = c.rounds();
        assert_eq!(specs[0].statistic, specs[1].statistic);
        assert_ne!(specs[1].statistic, specs[2].statistic);
    }
}

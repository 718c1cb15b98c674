//! The five workloads. Each is a closed loop with one caller thread:
//! `prepare` builds the inputs from the seed (the set-up the user pays
//! before a run), and the returned [`Rep`] runs the program once through
//! its public entry points and reports what it did.

use crate::clock::Stopwatch;
use pm_net::{FabricChoice, WireShape};
use pm_obs::Recorder;
use pm_study::{Campaign, CampaignConfig};
use psc::cp::MixStrategy;
use psc::round::{run_psc_round, PscConfig};
use torstudy::deployment::Deployment;
use torstudy::experiments::{client_ip_stream, client_traffic_streams, privcount_round};
use torstudy::report::reports_json;
use torstudy::runner::{plan_schedule, run_plan, PlannedRound};

/// The machine's parallelism: the `workers` every workload runs with.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// FNV-1a over the rendered output: reps of one workload and seed must
/// agree on it bit for bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A workload, by its BENCHMARK.json name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Campaign17d,
    Ips7dMix,
    PscVerified,
    TorDay,
    WireRounds,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Campaign17d,
        Workload::Ips7dMix,
        Workload::PscVerified,
        Workload::TorDay,
        Workload::WireRounds,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign17d => "campaign17d",
            Workload::Ips7dMix => "ips7d_mix",
            Workload::PscVerified => "psc_verified",
            Workload::TorDay => "tor_day",
            Workload::WireRounds => "wire_rounds",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (BENCHMARK.json's `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Campaign17d => {
                "the paper's study shape: 17-day calendar, all five round kinds; fixed costs (pm-dp calibration, scheduler idle) dominate"
            }
            Workload::Ips7dMix => {
                "three client-IP PSC rounds incl. the 96 h one, verify off: PSC mixing crypto dominates, calibration is sub-ms"
            }
            Workload::PscVerified => {
                "one verified PSC round: the only place DLEQ and shuffle proofs are timed (campaign rounds run verify off)"
            }
            Workload::TorDay => {
                "nine PrivCount registry entries over one Tor day: torsim generation and shard ingestion dominate, RSS grows with volume"
            }
            Workload::WireRounds => {
                "back-to-back 14-party PrivCount rounds over loopback TCP: fabric set-up and teardown dominate, compute is negligible"
            }
        }
    }

    /// Whether BENCHMARK.json lists the workload, so that the acceptance
    /// driver runs it and holds later changes to its bounds. `wire_rounds`
    /// is measured and reported by `perf` like the others but is not
    /// listed: it opens and closes ~2000 loopback connections a second
    /// and sleep-polls for each, so its wall-clock follows the kernel's
    /// TIME_WAIT table and the host's scheduling latency. Six ten-run
    /// sets on one commit spread 7 %, 8 %, 8 %, 13 %, 30 % and 70 %
    /// (IQR / median), against the 25 % a listed metric may spread at
    /// most.
    pub fn listed(self) -> bool {
        self != Workload::WireRounds
    }

    /// What `throughput` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Campaign17d | Workload::TorDay => "protocol rounds",
            Workload::Ips7dMix | Workload::PscVerified => "mixed cells",
            Workload::WireRounds => "rounds",
        }
    }
}

/// Input sizes. `Full` is what the numbers are committed for; `Smoke`
/// runs the same code paths at toy size for `--smoke` and the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one rep did.
pub struct RepOutcome {
    /// Wall-clock of the timed region, seconds.
    pub wall_s: f64,
    /// FNV-1a of the rendered output.
    pub digest: u64,
    /// Deterministic work done ([`Workload::work_unit`]).
    pub work: u64,
    /// Rounds attempted.
    pub rounds: u64,
    /// Rounds that did not end `Completed` (aborted, recovered, `Err`).
    pub failed: u64,
    /// Per-round wall-clock, milliseconds (wire_rounds only).
    pub round_ms: Vec<f64>,
}

/// One prepared rep: inputs built, nothing run yet.
pub type Rep = Box<dyn FnOnce() -> RepOutcome>;

impl Size {
    /// `full` for the committed numbers, `smoke` to prove the same call
    /// works within the smoke pass's budget.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }

    /// `psc_verified`'s table size.
    fn psc_table(self) -> u32 {
        self.pick(256, 16)
    }

    /// Rounds in one `wire_rounds` rep.
    fn wire_rounds(self) -> usize {
        self.pick(100, 5)
    }
}

/// Builds the inputs of one rep from `seed`. `recorder` is threaded into
/// the program through its public `with_recorder` / config fields: a
/// fresh `Recorder::new()` for untraced reps, a profiling one for traced
/// reps. Counters start at zero, so every rep reads its own totals.
pub fn prepare(w: Workload, seed: u64, size: Size, recorder: &Recorder) -> Rep {
    match w {
        Workload::Campaign17d => {
            let (days, scale) = size.pick((17, 2e-4), (11, 1e-4));
            campaign(days, scale, seed, recorder, campaign_rounds_work)
        }
        Workload::Ips7dMix => {
            let (days, scale) = size.pick((7, 1e-3), (2, 1e-4));
            campaign(days, scale, seed, recorder, mixed_cells_work)
        }
        Workload::PscVerified => psc_round_rep(size.psc_table(), true, seed, recorder),
        Workload::TorDay => tor_day(size.pick(0.1, 2e-3), seed, recorder),
        Workload::WireRounds => privcount_rounds(
            size.wire_rounds(),
            FabricChoice::Wire(WireShape::default()),
            seed,
            recorder,
        ),
    }
}

/// The reference a workload's output is cross-checked against, if it
/// has one: the same PrivCount rounds over the in-process fabric, the
/// same PSC round without proofs. Its digest must equal the workload's.
pub fn prepare_reference(w: Workload, seed: u64, size: Size) -> Option<Rep> {
    let rec = Recorder::new();
    match w {
        Workload::PscVerified => Some(psc_round_rep(size.psc_table(), false, seed, &rec)),
        Workload::WireRounds => Some(privcount_rounds(
            size.wire_rounds(),
            FabricChoice::PerLink,
            seed,
            &rec,
        )),
        _ => None,
    }
}

fn campaign_rounds_work(m: &pm_obs::MetricsSnapshot) -> u64 {
    m.get("psc.rounds").unwrap_or(0) + m.get("privcount.rounds").unwrap_or(0)
}

fn mixed_cells_work(m: &pm_obs::MetricsSnapshot) -> u64 {
    m.get("psc.mix.cells").unwrap_or(0)
}

/// `Campaign::new(CampaignConfig::new(days, scale, seed)).run(workers)`.
fn campaign(
    days: u64,
    scale: f64,
    seed: u64,
    recorder: &Recorder,
    work: fn(&pm_obs::MetricsSnapshot) -> u64,
) -> Rep {
    let campaign =
        Campaign::new(CampaignConfig::new(days, scale, seed).with_recorder(recorder.clone()));
    Box::new(move || {
        let watch = Stopwatch::start();
        let report = campaign.run(nproc());
        let wall_s = watch.seconds();
        let rounds = campaign.rounds().len() as u64;
        let completed = report.metrics.get("study.rounds.completed").unwrap_or(0);
        RepOutcome {
            wall_s,
            digest: fnv1a(report.render_json().as_bytes()),
            work: work(&report.metrics),
            rounds,
            failed: rounds - completed.min(rounds),
            round_ms: Vec::new(),
        }
    })
}

/// One `psc::run_psc_round`: 3 CPs, 2 DCs fed simulated client-IP pools
/// sized to fill a quarter of the table, 64 flips per CP (fewer on toy
/// tables), batched mixing on every core.
pub(crate) fn psc_round_rep(table_size: u32, verify: bool, seed: u64, recorder: &Recorder) -> Rep {
    // Observed unique IPs ≈ 11 M × scale × observe_prob; aim both DCs
    // together at table_size / 4.
    let observe = 0.02;
    let scale = f64::from(table_size) / 4.0 / (11_000_000.0 * 2.0 * observe);
    let dep = Deployment::at_scale(scale, seed);
    let generators: Vec<psc::dc::EventGenerator> = (0..2)
        .map(|dc| client_ip_stream(&dep, observe, 0, &format!("perf/psc/dc{dc}")).into_generator())
        .collect();
    let cfg = PscConfig {
        table_size,
        noise_flips_per_cp: (table_size / 4).min(64),
        num_cps: 3,
        verify,
        seed,
        mix: MixStrategy::Batched { threads: nproc() },
        recorder: recorder.clone(),
        ..Default::default()
    };
    let recorder = recorder.clone();
    Box::new(move || {
        let watch = Stopwatch::start();
        let result = run_psc_round(cfg, psc::items::unique_client_ips(), generators);
        let wall_s = watch.seconds();
        let rendered = match &result {
            Ok(r) => format!(
                "{} {} {}",
                r.raw.marked, r.raw.table_size, r.raw.noise_total
            ),
            Err(e) => format!("error: {e}"),
        };
        RepOutcome {
            wall_s,
            digest: fnv1a(rendered.as_bytes()),
            work: recorder.read_counter("psc.mix.cells"),
            rounds: 1,
            failed: u64::from(result.is_err()),
            round_ms: Vec::new(),
        }
    })
}

/// The PrivCount entries of the experiment registry (`benches/pipeline.rs`'s
/// `fast_plan`): no PSC crypto, no heavy calibration.
pub fn tor_day_plan() -> Vec<PlannedRound> {
    const IDS: [&str; 9] = ["T1", "F1", "F2", "F3", "T4", "F4", "T8", "X1", "X2"];
    plan_schedule()
        .0
        .into_iter()
        .filter(|p| IDS.contains(&p.entry.id))
        .collect()
}

/// `run_plan(&Deployment::at_scale(scale, seed), tor_day_plan(), workers)`.
fn tor_day(scale: f64, seed: u64, recorder: &Recorder) -> Rep {
    let dep = Deployment::at_scale(scale, seed).with_recorder(recorder.clone());
    let plan = tor_day_plan();
    Box::new(move || {
        let watch = Stopwatch::start();
        let reports = run_plan(&dep, plan, nproc());
        let wall_s = watch.seconds();
        // A registry experiment whose round fails panics, which ends the
        // benchmark with a nonzero exit: every round that returns here
        // completed.
        let rounds = dep.recorder.read_counter("privcount.rounds");
        RepOutcome {
            wall_s,
            digest: fnv1a(reports_json(&reports).as_bytes()),
            work: rounds,
            rounds,
            failed: 0,
            round_ms: Vec::new(),
        }
    })
}

/// `n` back-to-back `privcount::run_round_streams`: 10 DCs, 3 SKs and
/// the TS (14 parties) over `fabric`, tiny client-traffic streams, so a
/// round is all connection set-up, frames and teardown.
pub(crate) fn privcount_rounds(
    n: usize,
    fabric: FabricChoice,
    seed: u64,
    recorder: &Recorder,
) -> Rep {
    let dep = Deployment::at_scale(2e-5, seed)
        .with_fabric(fabric)
        .with_recorder(recorder.clone());
    let rounds: Vec<_> = (0..n)
        .map(|i| {
            let label = format!("perf/wire/{i}");
            let schema = privcount::queries::client_traffic(dep.eps(), dep.delta());
            (
                privcount_round(&dep, schema, &label),
                client_traffic_streams(&dep, dep.weights.tab4_entry, 10, &label),
            )
        })
        .collect();
    Box::new(move || {
        let mut rendered = String::new();
        let mut failed = 0;
        let mut round_ms = Vec::with_capacity(n);
        let watch = Stopwatch::start();
        for (cfg, streams) in rounds {
            let round = Stopwatch::start();
            let result = privcount::run_round_streams(cfg, streams);
            round_ms.push(round.seconds() * 1e3);
            match result {
                Ok(r) => rendered.push_str(&format!("{:?}\n", r.totals)),
                Err(e) => {
                    failed += 1;
                    rendered.push_str(&format!("error: {e}\n"));
                }
            }
        }
        RepOutcome {
            wall_s: watch.seconds(),
            digest: fnv1a(rendered.as_bytes()),
            work: n as u64,
            rounds: n as u64,
            failed,
            round_ms,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn tor_day_plan_is_the_nine_privcount_entries() {
        let plan = tor_day_plan();
        assert_eq!(plan.len(), 9);
        assert!(plan
            .iter()
            .all(|p| p.entry.system == pm_dp::accountant::System::PrivCount));
    }
}

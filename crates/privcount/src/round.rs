//! Round driver: wires TS, SKs, and DCs over a [`pm_net::Fabric`]
//! backend, runs the protocol to completion, and packages results with
//! confidence intervals.

use crate::adversary::Attack;
use crate::counter::{CounterSpec, EventMapper};
use crate::dc::DcNode;
use crate::sk::SkNode;
use crate::ts::{ResultSlot, TsNode};
use pm_net::party::{self, Node, NodeError};
use pm_net::transport::{FabricChoice, FaultConfig, PartyId};
use pm_stats::ci::Estimate;
use std::sync::{Arc, Mutex};
use torsim::stream::EventStream;

/// How DCs split the per-counter noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseAllocation {
    /// Every DC adds `N(0, σ²/num_dcs)`; the published total carries
    /// exactly `N(0, σ²)` (PrivCount's equal allocation).
    Equal,
    /// No noise at all (ground-truth extraction in tests ONLY — never
    /// differentially private).
    None,
}

/// A PrivCount round configuration.
#[derive(Clone)]
pub struct RoundConfig {
    /// The counters to collect.
    pub counters: Vec<CounterSpec>,
    /// The shared event-to-counter mapping.
    pub mapper: EventMapper,
    /// Number of Share Keepers (the paper deploys 3).
    pub num_sks: usize,
    /// Noise allocation across DCs.
    pub noise: NoiseAllocation,
    /// Base RNG seed (per-party seeds derive from it).
    pub seed: u64,
    /// Optional fault injection on the fabric.
    pub faults: FaultConfig,
    /// Which [`pm_net::Fabric`] backend carries the round: the
    /// in-process switchboard (default) or real loopback sockets. It
    /// also fixes the execution mode: the switchboard runs on the
    /// deterministic scheduler, the wire backend on one OS thread per
    /// party — which is why it rejects active adversaries.
    pub fabric: FabricChoice,
    /// Optional Byzantine behaviour injected into one party
    /// ([`crate::adversary`]). Needs the deterministic scheduler's
    /// deadlock detector — a dead keeper would hang a threaded round
    /// forever — so an active attack is refused over the wire fabric.
    pub adversary: Attack,
    /// Observability handle threaded to the switchboard: deterministic
    /// counters (`privcount.rounds`, `net.link.*`) plus profiling spans
    /// when built with profiling enabled. Defaults to a detached
    /// recorder.
    pub recorder: pm_obs::Recorder,
}

/// The outcome of a round.
#[derive(Clone, Debug)]
pub struct RoundResult {
    /// Counter specifications (for names and σ).
    pub counters: Vec<CounterSpec>,
    /// Noisy totals, one per counter.
    pub totals: Vec<i64>,
}

impl RoundResult {
    /// The noisy total for a counter by name.
    pub fn total(&self, name: &str) -> i64 {
        let idx = self
            .counters
            .iter()
            .position(|c| c.name == name)
            // lint:allow(panic) counter names are the caller's own schema; a miss is a caller bug
            .unwrap_or_else(|| panic!("no counter named {name}"));
        self.totals[idx]
    }

    /// The estimate (with 95% CI from the known σ) for a counter.
    pub fn estimate(&self, name: &str) -> Estimate {
        let idx = self
            .counters
            .iter()
            .position(|c| c.name == name)
            // lint:allow(panic) counter names are the caller's own schema; a miss is a caller bug
            .unwrap_or_else(|| panic!("no counter named {name}"));
        Estimate::gaussian95(self.totals[idx] as f64, self.counters[idx].sigma)
    }

    /// All (name, estimate) pairs.
    pub fn estimates(&self) -> Vec<(String, Estimate)> {
        self.counters
            .iter()
            .zip(&self.totals)
            .map(|(c, t)| (c.name.clone(), Estimate::gaussian95(*t as f64, c.sigma)))
            .collect()
    }
}

/// Runs one PrivCount round per day of a campaign window (`pm-study`):
/// `days[d]` holds day `d`'s per-DC streams, and day `d`'s round seeds
/// derive from the base config as `derive_seed(seed, "privcount/day{d}")`
/// (the label is namespaced so it can never alias the campaign layer's
/// own `"day{d}"` deployment-seed stream), so the
/// series is a pure function of `(config, calendar)` — the noise drawn
/// on day `d` cannot depend on which days ran before it (or
/// concurrently with it, under the parallel campaign executor).
/// Returns one result per day, in calendar order.
pub fn run_round_days(
    cfg: RoundConfig,
    days: Vec<Vec<EventStream>>,
) -> Result<Vec<RoundResult>, NodeError> {
    if days.is_empty() {
        return Err(NodeError::Protocol("need at least one day".into()));
    }
    days.into_iter()
        .enumerate()
        .map(|(d, streams)| {
            let seed = pm_stats::sampling::derive_seed(cfg.seed, &format!("privcount/day{d}"));
            let day_cfg = RoundConfig {
                seed,
                ..cfg.clone()
            };
            run_round(day_cfg, streams)
        })
        .collect()
}

/// Runs a full PrivCount round: one DC per entry of `dc_streams`, each
/// folding its stream's shards in parallel (see [`crate::shard`]). An
/// entry is an [`EventStream`] or anything that converts into one — a
/// boxed generator ([`crate::dc::EventGenerator`]) is a one-shard
/// stream. The execution mode follows [`RoundConfig::fabric`].
pub fn run_round<S: Into<EventStream>>(
    cfg: RoundConfig,
    dc_streams: Vec<S>,
) -> Result<RoundResult, NodeError> {
    if dc_streams.is_empty() {
        return Err(NodeError::Protocol("need at least one DC".into()));
    }
    if cfg.num_sks == 0 {
        return Err(NodeError::Protocol("need at least one SK".into()));
    }
    let num_dcs = dc_streams.len();
    cfg.recorder.incr("privcount.rounds");
    let mut round_span = cfg.recorder.span("round.privcount", "round");
    round_span.note("dcs", num_dcs);
    round_span.note("sks", cfg.num_sks);
    let ts_id = PartyId::new("ts");
    let dc_names: Vec<PartyId> = (0..num_dcs)
        .map(|i| PartyId::new(format!("dc-{i}")))
        .collect();
    let sk_names: Vec<PartyId> = (0..cfg.num_sks)
        .map(|i| PartyId::new(format!("sk-{i}")))
        .collect();

    let slot: ResultSlot = Arc::new(Mutex::new(None));
    let ts = TsNode::new(
        cfg.counters.clone(),
        dc_names.clone(),
        sk_names.clone(),
        slot.clone(),
    );
    let mut parties: Vec<(PartyId, Box<dyn Node>)> = vec![(ts_id.clone(), Box::new(ts))];
    for (i, sk) in sk_names.into_iter().enumerate() {
        let seed = cfg.seed ^ (0x5100 + i as u64);
        let node = SkNode::new(ts_id.clone(), num_dcs, seed, cfg.adversary.on_sk(i));
        parties.push((sk, Box::new(node)));
    }
    let noise_scale = match cfg.noise {
        NoiseAllocation::Equal => 1.0 / (num_dcs as f64).sqrt(),
        NoiseAllocation::None => 0.0,
    };
    for (i, (dc, stream)) in dc_names.into_iter().zip(dc_streams).enumerate() {
        let node = DcNode::new(
            ts_id.clone(),
            crate::counter::Schema::new(cfg.counters.clone(), cfg.mapper.clone()),
            stream.into(),
            noise_scale,
            cfg.seed ^ (0xDC00 + i as u64),
            cfg.adversary.on_dc(i),
            cfg.recorder.clone(),
        );
        parties.push((dc, Box::new(node)));
    }
    party::run(
        cfg.fabric,
        cfg.faults,
        &cfg.recorder,
        cfg.adversary.is_active(),
        parties,
    )?;
    let totals = slot
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .ok_or_else(|| NodeError::Protocol("TS produced no result".into()))?;
    Ok(RoundResult {
        counters: cfg.counters,
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::EventGenerator;
    use std::sync::Arc as StdArc;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};

    fn conn_event(ip: u32) -> TorEvent {
        TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: IpAddr(ip),
        }
    }

    fn counting_config(noise: NoiseAllocation, sigma: f64) -> RoundConfig {
        RoundConfig {
            counters: vec![CounterSpec::with_sigma("connections", sigma)],
            mapper: StdArc::new(|ev: &TorEvent, counts: &mut [i64]| {
                if matches!(ev, TorEvent::EntryConnection { .. }) {
                    counts[0] += 1;
                }
            }),
            num_sks: 3,
            noise,
            seed: 7,
            faults: FaultConfig::none(),
            fabric: FabricChoice::default(),
            adversary: Attack::None,
            recorder: pm_obs::Recorder::new(),
        }
    }

    fn generators(counts: &[u64]) -> Vec<EventGenerator> {
        counts
            .iter()
            .map(|&n| {
                let g: EventGenerator = Box::new(move |sink| {
                    for i in 0..n {
                        sink(conn_event(i as u32));
                    }
                });
                g
            })
            .collect()
    }

    #[test]
    fn noiseless_round_is_exact() {
        let result = run_round(
            counting_config(NoiseAllocation::None, 100.0),
            generators(&[100, 200, 300]),
        )
        .unwrap();
        assert_eq!(result.total("connections"), 600);
    }

    #[test]
    fn each_dc_ingest_is_a_span_inside_the_round() {
        let recorder = pm_obs::Recorder::with_profiling();
        let cfg = RoundConfig {
            recorder: recorder.clone(),
            ..counting_config(NoiseAllocation::None, 1.0)
        };
        let streams = vec![
            EventStream::from_events((0..50).map(conn_event).collect(), 3),
            EventStream::from_events((0..70).map(conn_event).collect(), 1),
        ];
        assert_eq!(run_round(cfg, streams).unwrap().total("connections"), 120);
        let events = recorder.trace_events();
        let round = events.iter().find(|e| e.name == "round.privcount").unwrap();
        let ingests: Vec<_> = events.iter().filter(|e| e.name == "dc.ingest").collect();
        let mut shards: Vec<&str> = ingests
            .iter()
            .map(|e| {
                assert!(e.ts >= round.ts && e.ts + e.dur <= round.ts + round.dur);
                assert_eq!(e.args[0].0, "shards");
                e.args[0].1.as_str()
            })
            .collect();
        shards.sort_unstable();
        assert_eq!(shards, ["1", "3"]);
    }

    #[test]
    fn noisy_round_is_close_and_noisy() {
        let result = run_round(
            counting_config(NoiseAllocation::Equal, 50.0),
            generators(&[10_000, 20_000]),
        )
        .unwrap();
        let total = result.total("connections");
        assert_ne!(total, 30_000, "noise must perturb the exact count");
        assert!((total - 30_000).abs() < 300, "total {total} too far (σ=50)");
        let est = result.estimate("connections");
        assert!(est.ci.contains(30_000.0));
    }

    #[test]
    fn empty_party_lists_are_typed_errors() {
        let cfg = || counting_config(NoiseAllocation::None, 1.0);
        let no_dcs = run_round(cfg(), Vec::<EventStream>::new()).unwrap_err();
        assert_eq!(no_dcs.to_string(), "protocol error: need at least one DC");
        let no_sks = RoundConfig {
            num_sks: 0,
            ..cfg()
        };
        let no_sks = run_round(no_sks, generators(&[1])).unwrap_err();
        assert_eq!(no_sks.to_string(), "protocol error: need at least one SK");
        let no_days = run_round_days(cfg(), Vec::new()).unwrap_err();
        assert_eq!(no_days.to_string(), "protocol error: need at least one day");
    }

    #[test]
    fn multi_counter_round() {
        let cfg = RoundConfig {
            counters: vec![
                CounterSpec::with_sigma("connections", 0.0),
                CounterSpec::with_sigma("bytes", 0.0),
            ],
            mapper: StdArc::new(|ev: &TorEvent, counts: &mut [i64]| match ev {
                TorEvent::EntryConnection { .. } => counts[0] += 1,
                TorEvent::EntryBytes { bytes, .. } => counts[1] += *bytes as i64,
                _ => {}
            }),
            num_sks: 2,
            noise: NoiseAllocation::None,
            seed: 9,
            faults: FaultConfig::none(),
            fabric: FabricChoice::default(),
            adversary: Attack::None,
            recorder: pm_obs::Recorder::new(),
        };
        let gens: Vec<EventGenerator> = vec![Box::new(|sink| {
            sink(conn_event(1));
            sink(TorEvent::EntryBytes {
                relay: RelayId(0),
                client_ip: IpAddr(1),
                bytes: 4096,
            });
            sink(conn_event(2));
        })];
        let result = run_round(cfg, gens).unwrap();
        assert_eq!(result.total("connections"), 2);
        assert_eq!(result.total("bytes"), 4096);
    }

    #[test]
    fn equal_noise_variance_totals_sigma() {
        // Run many noiseless-count rounds and check the spread of the
        // published totals matches the configured σ.
        let mut totals = Vec::new();
        for seed in 0..60u64 {
            let mut cfg = counting_config(NoiseAllocation::Equal, 40.0);
            cfg.seed = seed;
            let r = run_round(cfg, generators(&[500, 500, 500])).unwrap();
            totals.push(r.total("connections") as f64 - 1500.0);
        }
        let var: f64 = totals.iter().map(|x| x * x).sum::<f64>() / totals.len() as f64;
        let sd = var.sqrt();
        assert!((sd - 40.0).abs() < 12.0, "sd {sd}");
    }
}

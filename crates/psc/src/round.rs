//! PSC round driver.

use crate::adversary::Attack;
use crate::cp::{CpNode, MixStrategy};
use crate::dc::PscDcNode;
use crate::items::ItemExtractor;
use crate::ts::{PscResultSlot, PscTsNode, RawCount};
use pm_net::party::{self, Node, NodeError};
use pm_net::transport::{FabricChoice, FaultConfig, PartyId};
use pm_stats::ci::Estimate;
use pm_stats::psc_ci::psc_confidence_interval;
use std::sync::{Arc, Mutex};
use torsim::stream::EventStream;

/// PSC round configuration.
#[derive(Clone, Debug)]
pub struct PscConfig {
    /// Oblivious table size `b`.
    pub table_size: u32,
    /// Noise cells appended by EACH CP. Calibrate with
    /// `pm_dp::mechanism::binomial_flips_for(sensitivity, ε, δ)`: a
    /// single honest CP's noise must suffice on its own.
    pub noise_flips_per_cp: u32,
    /// Number of CPs (the paper deploys 3; one run used 2).
    pub num_cps: usize,
    /// Generate and verify all zero-knowledge arguments.
    pub verify: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Optional fault injection.
    pub faults: FaultConfig,
    /// How CPs execute their per-cell crypto, and on how many threads
    /// the TS verifies their proofs. Every strategy yields the same
    /// transcript and the same verdicts; this only shapes wall-clock
    /// time.
    pub mix: MixStrategy,
    /// Which [`pm_net::Fabric`] backend carries the round: the
    /// in-process switchboard (default) or real loopback sockets. It
    /// also fixes the execution mode: the switchboard runs on the
    /// deterministic scheduler, the wire backend on one OS thread per
    /// party — which is why it rejects active adversaries.
    pub fabric: FabricChoice,
    /// Byzantine behaviour to inject ([`crate::adversary`]); `None`
    /// runs the round honestly. An active attack needs the
    /// deterministic scheduler's deadlock detector to catch a dead
    /// keeper, so it is refused over the wire fabric.
    pub adversary: Attack,
    /// Observability handle threaded to the switchboard, the TS and
    /// every CP: deterministic counters (`psc.rounds`, `psc.mix.cells`,
    /// `net.link.*`) plus profiling spans (`mix.*`, `ts.*`) when it was
    /// built with profiling enabled. Defaults to a detached recorder.
    pub recorder: pm_obs::Recorder,
}

impl Default for PscConfig {
    fn default() -> Self {
        PscConfig {
            table_size: 1 << 12,
            noise_flips_per_cp: 64,
            num_cps: 3,
            verify: false,
            seed: 1,
            faults: FaultConfig::none(),
            mix: MixStrategy::default(),
            fabric: FabricChoice::default(),
            adversary: Attack::None,
            recorder: pm_obs::Recorder::new(),
        }
    }
}

/// The published outcome of a PSC round.
#[derive(Clone, Copy, Debug)]
pub struct PscResult {
    /// Raw published value: marked cells (occupied + noise).
    pub raw: RawCount,
}

impl PscResult {
    /// The cardinality estimate with an exact CI at `conf` (§3.3).
    pub fn estimate(&self, conf: f64) -> Estimate {
        psc_confidence_interval(
            self.raw.table_size,
            self.raw.marked as i64,
            self.raw.noise_total,
            conf,
        )
    }

    /// Point estimate after removing expected noise and inverting the
    /// collision correction.
    pub fn point(&self) -> f64 {
        self.estimate(0.95).value
    }
}

/// Runs a full PSC round counting distinct items under `extractor`:
/// one DC per entry of `dc_streams`, each accumulating its stream's
/// shards in parallel and marking once at merge (see [`crate::shard`]).
/// An entry is an [`EventStream`] or anything that converts into one —
/// a boxed generator ([`crate::dc::EventGenerator`]) is a one-shard
/// stream. A collection window of several days is one
/// [`EventStream::chain`] per DC in calendar order: a stable item (the
/// client core, a popular domain, a long-lived onion address) marks
/// its cell once however many days re-observe it.
///
/// The execution mode follows [`PscConfig::fabric`].
///
/// Every DC marks its occupied cells in ascending cell order at merge.
/// A generator-fed DC used to mark in observation order, so its DC→TS
/// ciphertext bytes differ from those of releases before the single
/// door; the cell set, and with it [`RawCount`], cannot.
pub fn run_psc_round<S: Into<EventStream>>(
    cfg: PscConfig,
    extractor: ItemExtractor,
    dc_streams: Vec<S>,
) -> Result<PscResult, NodeError> {
    if dc_streams.is_empty() {
        return Err(NodeError::Protocol("need at least one DC".into()));
    }
    if cfg.num_cps == 0 {
        return Err(NodeError::Protocol("need at least one CP".into()));
    }
    cfg.recorder.incr("psc.rounds");
    let mut round_span = cfg.recorder.span("round.psc", "round");
    round_span.note("dcs", dc_streams.len());
    round_span.note("cps", cfg.num_cps);
    let ts_id = PartyId::new("psc-ts");
    let dc_names: Vec<PartyId> = (0..dc_streams.len())
        .map(|i| PartyId::new(format!("psc-dc-{i}")))
        .collect();
    let cp_names: Vec<PartyId> = (0..cfg.num_cps)
        .map(|i| PartyId::new(format!("psc-cp-{i}")))
        .collect();

    let slot: PscResultSlot = Arc::new(Mutex::new(None));
    let ts = PscTsNode::new(&cfg, dc_names.clone(), cp_names.clone(), slot.clone());
    let mut parties: Vec<(PartyId, Box<dyn Node>)> = vec![(ts_id.clone(), Box::new(ts))];
    for (i, cp) in cp_names.into_iter().enumerate() {
        let seed = cfg.seed ^ (0xC9_0000 + i as u64);
        let attack = cfg.adversary.on_cp(i);
        let node = CpNode::new(ts_id.clone(), seed, cfg.mix, attack, cfg.recorder.clone());
        parties.push((cp, Box::new(node)));
    }
    for (i, (dc, stream)) in dc_names.into_iter().zip(dc_streams).enumerate() {
        let seed = cfg.seed ^ (0xDC_0000 + i as u64);
        let attack = cfg.adversary.on_dc(i);
        let node = PscDcNode::new(
            ts_id.clone(),
            extractor.clone(),
            stream.into(),
            seed,
            attack,
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
    let raw = slot
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .ok_or_else(|| NodeError::Protocol("PSC TS produced no result".into()))?;
    Ok(PscResult { raw })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::EventGenerator;
    use crate::items;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};

    fn conn(ip: u32) -> TorEvent {
        TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: IpAddr(ip),
        }
    }

    fn generators(ip_sets: Vec<Vec<u32>>) -> Vec<EventGenerator> {
        ip_sets
            .into_iter()
            .map(|ips| {
                let g: EventGenerator = Box::new(move |sink| {
                    for ip in ips {
                        sink(conn(ip));
                    }
                });
                g
            })
            .collect()
    }

    #[test]
    fn counts_union_noiselessly() {
        let cfg = PscConfig {
            table_size: 1 << 10,
            noise_flips_per_cp: 0,
            num_cps: 3,
            verify: false,
            seed: 3,
            faults: FaultConfig::none(),
            ..Default::default()
        };
        // DCs observe overlapping sets; the union has 5 distinct IPs.
        let result = run_psc_round(
            cfg,
            items::unique_client_ips(),
            generators(vec![vec![1, 2, 3], vec![3, 4], vec![4, 5, 1]]),
        )
        .unwrap();
        assert_eq!(result.raw.marked, 5);
        assert_eq!(result.raw.noise_total, 0);
        let est = result.estimate(0.95);
        assert!(est.ci.contains(5.0), "{est}");
    }

    #[test]
    fn noise_shifts_raw_count() {
        let cfg = PscConfig {
            table_size: 1 << 10,
            noise_flips_per_cp: 100,
            num_cps: 2,
            verify: false,
            seed: 4,
            faults: FaultConfig::none(),
            ..Default::default()
        };
        let result = run_psc_round(
            cfg,
            items::unique_client_ips(),
            generators(vec![vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]),
        )
        .unwrap();
        assert_eq!(result.raw.noise_total, 200);
        // Raw = 10 occupied + Binomial(200, 1/2) ≈ 110 ± 21 (3σ).
        let raw = result.raw.marked as f64;
        assert!((raw - 110.0).abs() < 25.0, "raw {raw}");
        // The denoised estimate recovers ~10.
        let est = result.estimate(0.95);
        assert!(est.ci.contains(10.0), "{est}");
        assert!(est.ci.width() < 60.0, "{est}");
    }

    #[test]
    fn verified_round_matches_unverified() {
        let mk = |verify| PscConfig {
            table_size: 64,
            noise_flips_per_cp: 0,
            num_cps: 2,
            verify,
            seed: 5,
            faults: FaultConfig::none(),
            ..Default::default()
        };
        let a = run_psc_round(
            mk(false),
            items::unique_client_ips(),
            generators(vec![vec![1, 2, 3], vec![4]]),
        )
        .unwrap();
        let b = run_psc_round(
            mk(true),
            items::unique_client_ips(),
            generators(vec![vec![1, 2, 3], vec![4]]),
        )
        .unwrap();
        assert_eq!(a.raw.marked, 4);
        assert_eq!(b.raw.marked, 4);
    }

    #[test]
    fn empty_party_lists_are_typed_errors() {
        let run = |cfg, streams: Vec<EventGenerator>| {
            run_psc_round(cfg, items::unique_client_ips(), streams).unwrap_err()
        };
        let no_dcs = run(PscConfig::default(), Vec::new());
        assert_eq!(no_dcs.to_string(), "protocol error: need at least one DC");
        let no_cps = PscConfig {
            num_cps: 0,
            ..Default::default()
        };
        let no_cps = run(no_cps, generators(vec![vec![1]]));
        assert_eq!(no_cps.to_string(), "protocol error: need at least one CP");
    }

    #[test]
    fn collisions_undercount_but_ci_covers() {
        // 40 items in an 16-cell table: heavy collisions.
        let cfg = PscConfig {
            table_size: 16,
            noise_flips_per_cp: 0,
            num_cps: 1,
            verify: false,
            seed: 7,
            faults: FaultConfig::none(),
            ..Default::default()
        };
        let ips: Vec<u32> = (0..40).collect();
        let result = run_psc_round(cfg, items::unique_client_ips(), generators(vec![ips])).unwrap();
        assert!(result.raw.marked < 40, "collisions must undercount");
        let est = result.estimate(0.95);
        // The exact CI inverts the occupancy distribution; 40 must be
        // plausible (wide CI expected with a saturated table).
        assert!(est.ci.hi >= 40.0, "{est}");
    }

    #[test]
    fn duplicate_items_across_dcs_count_once() {
        let cfg = PscConfig {
            table_size: 512,
            noise_flips_per_cp: 0,
            num_cps: 2,
            verify: false,
            seed: 8,
            faults: FaultConfig::none(),
            ..Default::default()
        };
        let result = run_psc_round(
            cfg,
            items::unique_client_ips(),
            generators(vec![vec![7; 100], vec![7; 100]]),
        )
        .unwrap();
        assert_eq!(result.raw.marked, 1);
    }
}

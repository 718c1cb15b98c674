//! The paper's deployment (§3.1), simulated.
//!
//! 16 instrumented relays (6 exit, 11 non-exit roles — one relay is
//! dual-role so the counts match the paper's 16), 1 tally server, 3
//! share keepers (PrivCount), 3 computation parties (PSC). Weight
//! fractions vary by measurement date exactly as the paper reports
//! them; they are recorded per experiment in [`PaperWeights`].
//!
//! The party counts and the cap on concurrent PSC rounds
//! ([`MAX_CONCURRENT_PSC_ROUNDS`]) are constants: every round the study
//! runs uses the same values.

use pm_dp::{DELTA, EPSILON};
use privcount::counter::CounterSpec;
use std::fmt;
use std::sync::Arc;
use torsim::asn::AsDb;
use torsim::geo::GeoDb;
use torsim::ids::RelayId;
use torsim::sites::{SiteList, SiteListConfig};
use torsim::workload::Workload;

/// The per-measurement weight fractions the paper reports.
#[derive(Clone, Copy, Debug)]
pub struct PaperWeights {
    /// Fig 1 exit weight (2018-01-04): 1.5%.
    pub fig1_exit: f64,
    /// Fig 2 Alexa-rank exit weight (2018-01-31): 2.2%.
    pub fig2_rank_exit: f64,
    /// Fig 2 siblings exit weight (2018-02-01): 2.1%.
    pub fig2_siblings_exit: f64,
    /// Fig 3 all-sites TLD exit weight (2018-02-02): 2.4%.
    pub fig3_all_exit: f64,
    /// Fig 3 Alexa-only TLD exit weight (2018-01-30): 2.3%.
    pub fig3_alexa_exit: f64,
    /// Table 2 SLD measurements, 5 of 6 exits (2018-03): 1.24%.
    pub tab2_exit: f64,
    /// Table 4 entry selection probability (2018-04-07): 0.0144.
    pub tab4_entry: f64,
    /// Table 5 guard weight (2018-04-14): 1.19%.
    pub tab5_guard: f64,
    /// Table 3 first subset guard weight (2018-05-12): 0.42%.
    pub tab3_guard_a: f64,
    /// Table 3 second (disjoint) subset guard weight (2018-05-13): 0.88%.
    pub tab3_guard_b: f64,
    /// Table 6 HSDir publish weight (2018-04-23): 2.75%.
    pub tab6_publish: f64,
    /// Table 6 HSDir fetch weight (2018-04-29): 0.534%.
    pub tab6_fetch: f64,
    /// Table 7 HSDir fetch weight (2018-05-20): 0.465%.
    pub tab7_fetch: f64,
    /// Table 8 rendezvous weight (2018-05-22): 0.88%.
    pub tab8_rend: f64,
}

impl Default for PaperWeights {
    fn default() -> Self {
        PaperWeights {
            fig1_exit: 0.015,
            fig2_rank_exit: 0.022,
            fig2_siblings_exit: 0.021,
            fig3_all_exit: 0.024,
            fig3_alexa_exit: 0.023,
            tab2_exit: 0.0124,
            tab4_entry: 0.0144,
            tab5_guard: 0.0119,
            tab3_guard_a: 0.0042,
            tab3_guard_b: 0.0088,
            tab6_publish: 0.0275,
            tab6_fetch: 0.00534,
            tab7_fetch: 0.00465,
            tab8_rend: 0.0088,
        }
    }
}

/// Default ingestion shard count: the machine's parallelism, capped so
/// shard-thread fan-out stays sane under the parallel experiment runner.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

/// Share Keepers per PrivCount round (3, as in the §3.1 deployment).
pub(crate) const NUM_SKS: usize = 3;

/// Computation Parties per PSC round (3; the Table 5 IP run used 2 due
/// to an outage).
pub(crate) const NUM_CPS: usize = 3;

/// Cap on wall-clock-concurrent PSC rounds in the parallel experiment
/// runner and the campaign engine. Each in-flight PSC round pins a full
/// oblivious table (plus its mix copies) in memory, so unlike PrivCount
/// rounds they must not scale out to `available_parallelism` unchecked.
/// Like the shard count, the cap cannot change any report — only memory
/// footprint and wall-clock shape.
pub const MAX_CONCURRENT_PSC_ROUNDS: usize = 4;

/// The simulated deployment.
pub struct Deployment {
    /// The synthetic site universe.
    pub sites: Arc<SiteList>,
    /// The synthetic geo database.
    pub geo: Arc<GeoDb>,
    /// The synthetic AS database.
    pub asdb: Arc<AsDb>,
    /// Configured ground truth.
    pub workload: Workload,
    /// Per-date weight fractions.
    pub weights: PaperWeights,
    /// Global scale in (0, 1]: workload totals × scale; σ × scale.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// The 16 instrumented relays' ids (0..6 exits, 6..16 entry/HSDir,
    /// 15 dual-role).
    pub relays: Vec<RelayId>,
    /// Ingestion shards per DC event stream. Reports are bit-identical
    /// for every value (shard-count invariance — see
    /// `torsim::stream`), so this defaults to the machine's available
    /// parallelism and only affects wall-clock time.
    pub shards: usize,
    /// Which `pm_net::Fabric` backend carries every round this
    /// deployment runs: the in-process switchboard (default) or
    /// real loopback sockets. Under a lossless schedule the choice
    /// cannot change a report byte — only transport wall-clock — which
    /// the wire-smoke gate pins.
    pub fabric: pm_net::FabricChoice,
    /// Observability handle threaded into every round this deployment
    /// runs (switchboards, CPs, the job runner). The deterministic
    /// metrics it accumulates are part of the bit-identity contract;
    /// profiling spans are recorded only when it was built with
    /// profiling enabled. Defaults to a detached recorder.
    pub recorder: pm_obs::Recorder,
}

/// The line the `experiments` binary announces a run with: relays and
/// parties counted from the deployment and the party constants, then
/// scale and seed.
impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} relays, 1 TS, {NUM_SKS} SKs, {NUM_CPS} CPs; scale {}, seed {}",
            self.relays.len(),
            self.scale,
            self.seed
        )
    }
}

// Experiments share `&Deployment` across the parallel runner's worker
// threads and the per-DC ingestion shards.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<Deployment>();
};

impl Deployment {
    /// Builds a deployment at the given scale. Scale 1.0 is paper scale
    /// (2×10⁹ daily streams); tests typically use 1e-3. Setup builds the
    /// [`AsDb`] eagerly, on all cores.
    pub fn at_scale(scale: f64, seed: u64) -> Deployment {
        assert!(scale > 0.0 && scale <= 1.0);
        // The site universe shrinks with scale but keeps all family head
        // ranks (≥ 11k Alexa entries).
        let alexa = ((1_000_000f64 * scale) as u64).max(20_000);
        let tail = ((4_000_000f64 * scale) as u64).max(50_000);
        let sites = Arc::new(SiteList::new(SiteListConfig {
            alexa_size: alexa,
            long_tail_size: tail,
            seed: seed ^ 0x517e,
        }));
        let geo = Arc::new(GeoDb::paper_default());
        let asdb = Arc::new(AsDb::paper_default());
        Deployment {
            sites,
            geo,
            asdb,
            workload: Workload::paper_default(),
            weights: PaperWeights::default(),
            scale,
            seed,
            relays: (0..16).map(RelayId).collect(),
            shards: default_shards(),
            fabric: pm_net::FabricChoice::default(),
            recorder: pm_obs::Recorder::new(),
        }
    }

    /// Overrides the fabric backend every round runs over.
    pub fn with_fabric(mut self, fabric: pm_net::FabricChoice) -> Deployment {
        self.fabric = fabric;
        self
    }

    /// Attaches an observability recorder; rounds run through this
    /// deployment (and its [`Deployment::for_day`] derivations) record
    /// into it.
    pub fn with_recorder(mut self, recorder: pm_obs::Recorder) -> Deployment {
        self.recorder = recorder;
        self
    }

    /// Overrides the ingestion shard count (1 = sequential).
    pub fn with_shards(mut self, shards: usize) -> Deployment {
        assert!(shards >= 1);
        self.shards = shards;
        self
    }

    /// Derives the deployment as it stands on `day` of a longitudinal
    /// campaign (see `torsim::timeline`): the same site/geo/AS universe
    /// (shared `Arc`s — nothing is rebuilt), a day-derived seed, that
    /// day's drifted site-popularity mix, and that day's observed
    /// weight fractions written into the [`PaperWeights`] slots the
    /// client- and exit-side experiments read. The campaign engine
    /// builds one of these per measurement round, so every round
    /// measures — and every inference divides by — the fraction
    /// actually in force on its calendar day.
    pub fn for_day(&self, snapshot: &torsim::timeline::DaySnapshot) -> Deployment {
        use torsim::relay::Position;
        let mut workload = self.workload.clone();
        workload.exit.mix = snapshot.mix.clone();
        let guard = snapshot.fraction(Position::Guard);
        let exit = snapshot.fraction(Position::Exit);
        let hsdir = snapshot.fraction(Position::HsDir);
        Deployment {
            sites: Arc::clone(&self.sites),
            geo: Arc::clone(&self.geo),
            asdb: Arc::clone(&self.asdb),
            workload,
            weights: PaperWeights {
                fig1_exit: exit,
                tab4_entry: guard,
                tab5_guard: guard,
                tab6_publish: hsdir,
                tab6_fetch: hsdir,
                tab7_fetch: hsdir,
                tab8_rend: guard,
                ..self.weights
            },
            scale: self.scale,
            seed: pm_stats::sampling::derive_seed(self.seed, &format!("day{}", snapshot.day)),
            relays: self.relays.clone(),
            shards: self.shards,
            fabric: self.fabric,
            recorder: self.recorder.clone(),
        }
    }

    /// The 6 exit relays (plus the dual-role relay carries exit traffic
    /// too; events round-robin over these).
    pub fn exit_relays(&self) -> Vec<RelayId> {
        self.relays[0..6].to_vec()
    }

    /// The 10 entry/HSDir relays plus the dual-role one.
    pub fn entry_relays(&self) -> Vec<RelayId> {
        self.relays[6..16].to_vec()
    }

    /// Scales a calibrated σ to the deployment scale (each synthetic
    /// user stands in for `1/scale` real users, so per-user sensitivity
    /// shrinks by the same factor).
    pub fn scaled_specs(&self, specs: Vec<CounterSpec>) -> Vec<CounterSpec> {
        specs
            .into_iter()
            .map(|c| CounterSpec::with_sigma(c.name, c.sigma * self.scale))
            .collect()
    }

    /// The round ε (the paper's global 0.3; each schema splits it).
    pub fn eps(&self) -> f64 {
        EPSILON
    }

    /// The round δ.
    pub fn delta(&self) -> f64 {
        DELTA
    }

    /// Rescales a scaled, fraction-thinned measurement back to
    /// network-wide full-scale units: divide by `fraction × scale`.
    pub fn to_network(&self, est: pm_stats::Estimate, fraction: f64) -> pm_stats::Estimate {
        est.scale_to_network(fraction * self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_weights_pinned() {
        let w = PaperWeights::default();
        assert_eq!(w.fig1_exit, 0.015);
        assert_eq!(w.tab4_entry, 0.0144);
        assert_eq!(w.tab5_guard, 0.0119);
        assert_eq!(w.tab6_publish, 0.0275);
        assert_eq!(w.tab8_rend, 0.0088);
    }

    #[test]
    fn deployment_structure() {
        let dep = Deployment::at_scale(0.001, 1);
        assert_eq!(dep.relays.len(), 16);
        assert_eq!(dep.exit_relays().len(), 6);
        assert_eq!(dep.entry_relays().len(), 10);
        assert!(dep.sites.config().alexa_size >= 20_000);
        let counts = format!("16 relays, 1 TS, {NUM_SKS} SKs, {NUM_CPS} CPs");
        assert_eq!(dep.to_string(), format!("{counts}; scale 0.001, seed 1"));
    }

    #[test]
    fn sigma_scaling() {
        let dep = Deployment::at_scale(0.01, 1);
        let specs = vec![CounterSpec::with_sigma("x", 100.0)];
        let scaled = dep.scaled_specs(specs);
        assert!((scaled[0].sigma - 1.0).abs() < 1e-12);
    }

    #[test]
    fn day_derivation_shares_universe_and_drifts() {
        use torsim::churn::ChurnModel;
        use torsim::timeline::{NetworkTimeline, TimelineConfig};
        let dep = Deployment::at_scale(1e-3, 5);
        let t = NetworkTimeline::new(
            TimelineConfig::paper_default(7),
            ChurnModel::new(100, 30, 1),
            5,
            Arc::clone(&dep.geo),
        );
        let d0 = dep.for_day(&t.snapshot(0));
        let d3 = dep.for_day(&t.snapshot(3));
        // The universe is shared, not rebuilt.
        assert!(Arc::ptr_eq(&dep.sites, &d0.sites));
        assert!(Arc::ptr_eq(&dep.geo, &d3.geo));
        // Seeds and observed fractions are day-indexed.
        assert_ne!(d0.seed, d3.seed);
        assert_ne!(d0.seed, dep.seed);
        assert_ne!(d0.weights.tab5_guard, d3.weights.tab5_guard);
        assert_eq!(d0.weights.tab5_guard, d0.weights.tab4_entry);
        assert_eq!(d0.scale, dep.scale);
        assert_eq!(d0.relays.len(), 16);
        // The shared universe memoizes the domain sampler by mix value:
        // a day's derivations share one, a drifted day gets its own and
        // is never served another day's tables.
        let mix0 = &d0.workload.exit.mix;
        let mix3 = &d3.workload.exit.mix;
        assert_ne!(mix0, mix3, "three days of drift must move the mix");
        let s0 = d0.sites.domain_sampler(mix0);
        let again = dep.for_day(&t.snapshot(0));
        assert!(Arc::ptr_eq(
            &s0,
            &again.sites.domain_sampler(&again.workload.exit.mix)
        ));
        let s3 = d3.sites.domain_sampler(mix3);
        assert!(!Arc::ptr_eq(&s0, &s3));
        assert!(Arc::ptr_eq(&s3, &dep.sites.domain_sampler(mix3)));
    }

    #[test]
    fn network_rescaling() {
        let dep = Deployment::at_scale(0.01, 1);
        let est = pm_stats::Estimate::gaussian95(300.0, 10.0);
        let network = dep.to_network(est, 0.015);
        // 300 / (0.015 × 0.01) = 2,000,000.
        assert!((network.value - 2.0e6).abs() < 1.0);
    }
}

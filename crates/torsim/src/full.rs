//! Full end-to-end simulation (small scale), natively sharded.
//!
//! Unlike [`crate::sampled`], this mode actually runs path selection:
//! clients pick weighted guards, build circuits through the consensus,
//! open streams to sampled destinations; onion services publish
//! descriptors to their responsible HSDirs on the hash ring; clients
//! fetch descriptors and build rendezvous circuits. Events are emitted
//! at whichever relay observes them — instrumented or not — and the
//! caller receives only the instrumented relays' view, plus the full
//! ground-truth tallies for verification.
//!
//! This is the mode integration tests use to validate that the
//! *inference* pipeline (observed count ÷ weight fraction) recovers
//! ground truth without being told the truth.
//!
//! # Sharded generation
//!
//! [`FullSim::stream_day`] generates events in `K` deterministic shards
//! under the same contract as every [`crate::stream`] source: the
//! emitted event multiset and the merged [`GroundTruth`] are
//! bit-identical for every `K`. The day is divided into the fixed
//! [`PARTITIONS`] logical partitions; partition `p` owns the clients,
//! descriptor fetches, rendezvous circuits, and service publishes whose
//! index is `≡ p (mod PARTITIONS)`, and the partitions are dealt to
//! the `K` shards by the stream module's one partition driver, the
//! same one every mean-split sampled source is built on.
//!
//! Each partition draws from two dedicated RNGs:
//!
//! * a **counts** RNG (`derive_seed(seed, "full/counts/part<p>")`) for
//!   every draw ground truth depends on — connection/circuit/stream
//!   counts, byte volumes, the stale-fetch coin — and
//! * a **paths** RNG (`derive_seed(seed, "full/paths/part<p>")`) for
//!   draws only the emitted events depend on — relay selection, domain
//!   sampling, fetch target addresses, rendezvous outcomes.
//!
//! Ground truth is accumulated per partition and merged by field-wise
//! addition (associative and commutative, so identical for every `K`).
//! Because the counts RNG is never perturbed by path selection, the
//! truth pass inside `stream_day` replays only the cheap counts draws —
//! the heavy path-selection work runs exactly once, inside the deferred
//! event shards. The per-partition truth and event passes share one
//! code path ([`FullSim`]'s internal partition runner), so they cannot
//! drift. Unique-IP truth is the one non-additive tally: client IPs
//! derive from a per-client RNG independent of partitioning, so the
//! distinct count is taken globally over that shared derivation.

use crate::events::{AddrKind, DescFetchOutcome, PortClass, RendOutcome, TorEvent};
use crate::geo::GeoDb;
use crate::hashring::HsDirRing;
use crate::ids::{IpAddr, OnionAddr, RelayId};
use crate::relay::{Consensus, Position, PositionSampler, RelayFlags};
use crate::sites::SiteList;
use crate::stream::{partitioned_stream, EventStream, PARTITIONS};
use crate::workload::{DomainMix, DomainSampler};
use pm_stats::sampling::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// Size of the stale-address universe. Stale descriptor fetches target
/// indices in `[onion_services, onion_services + STALE_ADDRESS_UNIVERSE)`,
/// which is disjoint from the published universe `[0, onion_services)`
/// by construction and independent of the configured fetch volume.
pub const STALE_ADDRESS_UNIVERSE: u64 = 1 << 20;

/// Configuration for a full simulation day.
#[derive(Clone, Debug)]
pub struct FullSimConfig {
    /// Number of clients.
    pub clients: u64,
    /// Guards contacted per client.
    pub guards_per_client: u32,
    /// Connections per client per day.
    pub connections_per_client: f64,
    /// Circuits per connection.
    pub circuits_per_connection: f64,
    /// Initial streams per circuit (1 for web circuits).
    pub subsequent_streams_per_circuit: f64,
    /// Mean bytes per connection.
    pub bytes_per_connection: f64,
    /// Number of onion services.
    pub onion_services: u64,
    /// Descriptor fetch attempts per day (across all clients).
    pub desc_fetches: u64,
    /// Fraction of fetches targeting unpublished (stale) addresses.
    pub stale_fetch_fraction: f64,
    /// Rendezvous circuits per day.
    pub rendezvous_circuits: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FullSimConfig {
    fn default() -> Self {
        FullSimConfig {
            clients: 2_000,
            guards_per_client: 3,
            connections_per_client: 3.0,
            circuits_per_connection: 8.0,
            subsequent_streams_per_circuit: 18.0,
            bytes_per_connection: 3_500_000.0,
            onion_services: 200,
            desc_fetches: 5_000,
            stale_fetch_fraction: 0.9,
            rendezvous_circuits: 3_000,
            seed: 1,
        }
    }
}

/// Ground truth accumulated while simulating (network-wide totals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroundTruth {
    /// Total exit streams (initial + subsequent).
    pub exit_streams: u64,
    /// Initial exit streams.
    pub initial_streams: u64,
    /// Client connections.
    pub connections: u64,
    /// Client circuits.
    pub circuits: u64,
    /// Client bytes.
    pub bytes: u64,
    /// Unique client IPs (distinct sampled addresses, not the client
    /// count: [`GeoDb::sample_ip`] may give two clients the same IP).
    pub unique_ips: u64,
    /// Unique onion addresses published.
    pub published_addresses: u64,
    /// Descriptor fetch attempts.
    pub desc_fetches: u64,
    /// Failed descriptor fetches.
    pub desc_fetch_failures: u64,
    /// Rendezvous circuits.
    pub rend_circuits: u64,
}

impl GroundTruth {
    /// Associative, commutative merge: field-wise addition. Partition
    /// truths merged in any grouping give identical totals, which is
    /// what makes the merged truth shard-count invariant.
    ///
    /// Caveat: `unique_ips` is a *distinct* count, which addition does
    /// not preserve in general — summing two truths that each carry a
    /// real distinct count can overcount shared IPs. Addition is exact
    /// here only because per-partition truths carry `unique_ips = 0`
    /// and the global distinct count is filled in once after the merge
    /// (see module docs). Callers merging truths from *separate runs*
    /// must recompute uniqueness themselves.
    pub fn merge(&mut self, other: &GroundTruth) {
        self.exit_streams += other.exit_streams;
        self.initial_streams += other.initial_streams;
        self.connections += other.connections;
        self.circuits += other.circuits;
        self.bytes += other.bytes;
        self.unique_ips += other.unique_ips;
        self.published_addresses += other.published_addresses;
        self.desc_fetches += other.desc_fetches;
        self.desc_fetch_failures += other.desc_fetch_failures;
        self.rend_circuits += other.rend_circuits;
    }
}

/// Per-day derived state shared by every partition: weighted samplers,
/// the HSDir ring, and the domain sampler (the universe's shared one —
/// see [`SiteList::domain_sampler`]).
struct DayTables {
    guard: PositionSampler,
    middle: PositionSampler,
    exit: PositionSampler,
    rp: PositionSampler,
    /// `None` when the consensus has no HSDIR-flagged relays; the HS
    /// descriptor sources are then skipped (zero fetches/publishes in
    /// truth) instead of panicking on an empty ring.
    ring: Option<HsDirRing>,
    domains: Arc<DomainSampler>,
}

/// The full simulator.
#[derive(Clone)]
pub struct FullSim {
    consensus: Arc<Consensus>,
    sites: Arc<SiteList>,
    geo: Arc<GeoDb>,
    cfg: FullSimConfig,
    /// Cached unique-IP count: depends only on (seed, clients, geo),
    /// all fixed at construction, so each simulator (and its clones)
    /// scans the client population at most once across every
    /// `stream_day`/`run_day` call.
    unique_ips: Arc<OnceLock<u64>>,
}

impl FullSim {
    /// Creates a simulator.
    pub fn new(
        consensus: Arc<Consensus>,
        sites: Arc<SiteList>,
        geo: Arc<GeoDb>,
        cfg: FullSimConfig,
    ) -> FullSim {
        FullSim {
            consensus,
            sites,
            geo,
            cfg,
            unique_ips: Arc::new(OnceLock::new()),
        }
    }

    /// Runs one simulated day in a single pass. Returns the events
    /// observed at *instrumented* relays (in shard-0 generation order)
    /// and the network-wide ground truth — identical to collecting
    /// [`Self::stream_day`] with `K = 1`.
    pub fn run_day(&self, mix: &DomainMix) -> (Vec<TorEvent>, GroundTruth) {
        let (stream, truth) = self.stream_day(mix, 1);
        let mut events = Vec::new();
        stream.for_each(|ev| events.push(ev));
        (events, truth)
    }

    /// Builds one simulated day as `shards` deferred event generators
    /// plus the merged ground truth. The emitted event multiset and the
    /// truth are bit-identical for every shard count (see module docs);
    /// downstream accumulators fold the shards in parallel via
    /// [`EventStream::fold_parallel`].
    pub fn stream_day(&self, mix: &DomainMix, shards: usize) -> (EventStream, GroundTruth) {
        let tables = self.day_tables(mix);
        let truth = self.truth_pass(&tables, shards.clamp(1, PARTITIONS));
        let sim = self.clone();
        let stream = partitioned_stream(shards, move |p, sink| {
            sim.run_partition(&tables, p, &mut GroundTruth::default(), Some(sink));
        });
        (stream, truth)
    }

    /// Derives the per-day shared state.
    fn day_tables(&self, mix: &DomainMix) -> DayTables {
        let hsdirs: Vec<RelayId> = self
            .consensus
            .relays()
            .iter()
            .filter(|r| r.flags.contains(RelayFlags::HSDIR))
            .map(|r| r.id)
            .collect();
        DayTables {
            guard: self.consensus.sampler(Position::Guard),
            middle: self.consensus.sampler(Position::Middle),
            exit: self.consensus.sampler(Position::Exit),
            rp: self.consensus.sampler(Position::Rendezvous),
            ring: (!hsdirs.is_empty()).then(|| HsDirRing::v2(&hsdirs)),
            domains: self.sites.domain_sampler(mix),
        }
    }

    /// Accumulates ground truth over all partitions — counts draws
    /// only, one thread per shard when sharded — merged in ascending
    /// thread order. Truth is additive, so how the partitions are dealt
    /// to the threads is free (any grouping gives the same sums).
    fn truth_pass(&self, tables: &DayTables, threads: usize) -> GroundTruth {
        let mut truth = GroundTruth::default();
        if threads <= 1 {
            for p in 0..PARTITIONS {
                self.run_partition(tables, p, &mut truth, None);
            }
        } else {
            let parts: Vec<GroundTruth> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|j| {
                        scope.spawn(move || {
                            let mut part = GroundTruth::default();
                            for p in (j..PARTITIONS).step_by(threads) {
                                self.run_partition(tables, p, &mut part, None);
                            }
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("truth partition panicked"))
                    .collect()
            });
            for part in &parts {
                truth.merge(part);
            }
        }
        truth.unique_ips = self.count_unique_ips();
        truth
    }

    /// The IP a client samples, derived from a dedicated per-client RNG
    /// so it is independent of partitioning and shard count.
    fn client_ip(&self, client: u64) -> IpAddr {
        let mut iprng =
            StdRng::seed_from_u64(self.cfg.seed ^ (client.wrapping_mul(0x9e3779b97f4a7c15)));
        self.geo.sample_ip(&mut iprng)
    }

    /// Distinct IPs over the whole client population (the real
    /// unique-IP ground truth: [`GeoDb::sample_ip`] collides).
    fn count_unique_ips(&self) -> u64 {
        *self.unique_ips.get_or_init(|| {
            let mut seen: std::collections::HashSet<IpAddr> = Default::default();
            for c in 0..self.cfg.clients {
                seen.insert(self.client_ip(c));
            }
            seen.len() as u64
        })
    }

    fn partition_rng(&self, label: &str, p: usize) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.cfg.seed, &format!("full/{label}/part{p}")))
    }

    /// Simulates partition `p`'s slice of the day, tallying its ground
    /// truth. With `emit` set, also runs path selection and hands the
    /// instrumented relays' events to the sink; without it, only the
    /// counts RNG is consumed (the truth-only pass). Both passes run
    /// this same code, so truth and events cannot diverge.
    fn run_partition(
        &self,
        tables: &DayTables,
        p: usize,
        truth: &mut GroundTruth,
        mut emit: Option<&mut dyn FnMut(TorEvent)>,
    ) {
        let mut counts = self.partition_rng("counts", p);
        let mut paths = self.partition_rng("paths", p);
        let observe = |ev: TorEvent, sink: &mut dyn FnMut(TorEvent)| {
            if self.consensus.relay(ev.relay()).instrumented {
                sink(ev);
            }
        };

        // ---- clients ----
        for c in (p as u64..self.cfg.clients).step_by(PARTITIONS) {
            let ip = emit.is_some().then(|| self.client_ip(c));
            let n_conn = sample_count(self.cfg.connections_per_client, &mut counts);
            for _ in 0..n_conn {
                truth.connections += 1;
                let bytes = (self.cfg.bytes_per_connection * (0.5 + counts.gen::<f64>())) as u64;
                truth.bytes += bytes;
                // Each connection's guard is drawn by weight. (Real
                // clients pin 1 data + 2 directory guards; drawing
                // DISTINCT guards per client inflates small relays'
                // inclusion probability above their weight, which would
                // bias volume inference. The guards-per-client structure
                // matters only for unique-IP analyses, which the sampled
                // mode models explicitly.)
                let guard = emit.as_mut().map(|sink| {
                    let ip = ip.unwrap();
                    let guard = tables.guard.sample(&mut paths);
                    observe(
                        TorEvent::EntryConnection {
                            relay: guard,
                            client_ip: ip,
                        },
                        sink,
                    );
                    observe(
                        TorEvent::EntryBytes {
                            relay: guard,
                            client_ip: ip,
                            bytes,
                        },
                        sink,
                    );
                    guard
                });
                let n_circ = sample_count(self.cfg.circuits_per_connection, &mut counts);
                for _ in 0..n_circ {
                    truth.circuits += 1;
                    truth.exit_streams += 1;
                    truth.initial_streams += 1;
                    let subs = sample_count(self.cfg.subsequent_streams_per_circuit, &mut counts);
                    truth.exit_streams += subs;
                    if let Some(sink) = emit.as_mut() {
                        observe(
                            TorEvent::EntryCircuit {
                                relay: guard.unwrap(),
                                client_ip: ip.unwrap(),
                            },
                            sink,
                        );
                        let _middle = tables.middle.sample(&mut paths);
                        let exit = tables.exit.sample(&mut paths);
                        // Initial stream with a sampled destination.
                        observe(
                            TorEvent::ExitStream {
                                relay: exit,
                                initial: true,
                                addr: AddrKind::Hostname,
                                port: PortClass::Web,
                                domain: Some(tables.domains.sample(&self.sites, &mut paths)),
                            },
                            sink,
                        );
                        // Subsequent streams (embedded resources).
                        for _ in 0..subs {
                            observe(
                                TorEvent::ExitStream {
                                    relay: exit,
                                    initial: false,
                                    addr: AddrKind::Hostname,
                                    port: PortClass::Web,
                                    domain: None,
                                },
                                sink,
                            );
                        }
                    }
                }
            }
        }

        // ---- onion services (publishes + fetches need the ring; with
        // no HSDir-flagged relays both sources are skipped) ----
        if let Some(ring) = &tables.ring {
            for s in (p as u64..self.cfg.onion_services).step_by(PARTITIONS) {
                truth.published_addresses += 1;
                if let Some(sink) = emit.as_mut() {
                    let addr = OnionAddr::from_index(s);
                    for dir in ring.responsible(&addr, 0) {
                        observe(TorEvent::HsDescPublish { relay: dir, addr }, sink);
                    }
                }
            }

            for _ in (p as u64..self.cfg.desc_fetches).step_by(PARTITIONS) {
                truth.desc_fetches += 1;
                // With no published services every fetch misses.
                let stale = self.cfg.onion_services == 0
                    || counts.gen::<f64>() < self.cfg.stale_fetch_fraction;
                if stale {
                    truth.desc_fetch_failures += 1;
                }
                if let Some(sink) = emit.as_mut() {
                    let (addr, outcome) = if stale {
                        // Target an address disjoint from the published
                        // universe (see [`STALE_ADDRESS_UNIVERSE`]).
                        let idx =
                            self.cfg.onion_services + paths.gen_range(0..STALE_ADDRESS_UNIVERSE);
                        (OnionAddr::from_index(idx), DescFetchOutcome::NotFound)
                    } else {
                        let idx = paths.gen_range(0..self.cfg.onion_services);
                        (OnionAddr::from_index(idx), DescFetchOutcome::Success)
                    };
                    // The client asks one of the address's responsible dirs.
                    let dirs = ring.responsible(&addr, 0);
                    let dir = dirs[paths.gen_range(0..dirs.len())];
                    observe(
                        TorEvent::HsDescFetch {
                            relay: dir,
                            addr: Some(addr),
                            outcome,
                        },
                        sink,
                    );
                }
            }
        }

        // ---- rendezvous ----
        for _ in (p as u64..self.cfg.rendezvous_circuits).step_by(PARTITIONS) {
            truth.rend_circuits += 1;
            if let Some(sink) = emit.as_mut() {
                let rp = tables.rp.sample(&mut paths);
                let u: f64 = paths.gen();
                let (outcome, payload) = if u < 0.08 {
                    (
                        RendOutcome::ActiveSuccess,
                        paths.gen_range(10_000..2_000_000),
                    )
                } else if u < 0.125 {
                    (RendOutcome::ConnClosed, 0)
                } else {
                    (RendOutcome::Expired, 0)
                };
                observe(
                    TorEvent::RendCircuit {
                        relay: rp,
                        outcome,
                        payload_bytes: payload,
                    },
                    sink,
                );
            }
        }
    }
}

/// Samples an integer count with the given mean (Poisson-ish: geometric
/// jitter around the mean for small means).
fn sample_count<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    crate::sampled::poisson_approx(mean, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::Relay;
    use crate::sites::SiteListConfig;

    fn setup() -> (Arc<Consensus>, Arc<SiteList>, Arc<GeoDb>) {
        let consensus = Arc::new(Consensus::paper_deployment(300, 0.05, 0.05, 0.05));
        let sites = Arc::new(SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 50_000,
            seed: 9,
        }));
        let geo = Arc::new(GeoDb::paper_default());
        (consensus, sites, geo)
    }

    /// A tiny consensus where every relay is instrumented (so tests see
    /// every emitted event) and no relay carries the HSDIR flag unless
    /// `with_hsdirs` is set.
    fn observed_consensus(with_hsdirs: bool) -> Arc<Consensus> {
        let base = RelayFlags::FAST
            .union(RelayFlags::GUARD)
            .union(RelayFlags::EXIT);
        let flags = if with_hsdirs {
            base.union(RelayFlags::HSDIR)
        } else {
            base
        };
        Arc::new(Consensus::new(
            (0..8)
                .map(|i| Relay {
                    id: RelayId(i),
                    nickname: format!("r{i}"),
                    weight: 1.0,
                    flags,
                    instrumented: true,
                })
                .collect(),
        ))
    }

    #[test]
    fn observed_fraction_tracks_weight() {
        let (consensus, sites, geo) = setup();
        let cfg = FullSimConfig {
            clients: 500,
            ..Default::default()
        };
        let sim = FullSim::new(Arc::clone(&consensus), sites, geo, cfg);
        let (events, truth) = sim.run_day(&DomainMix::paper_default());

        let observed_streams = events
            .iter()
            .filter(|e| matches!(e, TorEvent::ExitStream { .. }))
            .count() as f64;
        let exit_frac = consensus.instrumented_fraction(Position::Exit);
        let inferred = observed_streams / exit_frac;
        let rel_err = (inferred - truth.exit_streams as f64).abs() / truth.exit_streams as f64;
        assert!(
            rel_err < 0.15,
            "inferred {inferred}, truth {}",
            truth.exit_streams
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (consensus, sites, geo) = setup();
        let cfg = FullSimConfig {
            clients: 100,
            seed: 42,
            ..Default::default()
        };
        let (e1, t1) = FullSim::new(
            Arc::clone(&consensus),
            Arc::clone(&sites),
            Arc::clone(&geo),
            cfg.clone(),
        )
        .run_day(&DomainMix::paper_default());
        let (e2, t2) =
            FullSim::new(consensus, sites, geo, cfg).run_day(&DomainMix::paper_default());
        assert_eq!(e1.len(), e2.len());
        assert_eq!(t1, t2);
    }

    #[test]
    fn fetch_failures_dominate_when_configured() {
        let (consensus, sites, geo) = setup();
        let cfg = FullSimConfig {
            clients: 50,
            desc_fetches: 2_000,
            stale_fetch_fraction: 0.9,
            ..Default::default()
        };
        let sim = FullSim::new(consensus, sites, geo, cfg);
        let (_, truth) = sim.run_day(&DomainMix::paper_default());
        let frac = truth.desc_fetch_failures as f64 / truth.desc_fetches as f64;
        assert!((frac - 0.9).abs() < 0.03, "{frac}");
    }

    #[test]
    fn publishes_land_on_responsible_dirs_only() {
        let (consensus, sites, geo) = setup();
        let cfg = FullSimConfig {
            clients: 10,
            onion_services: 50,
            ..Default::default()
        };
        let sim = FullSim::new(Arc::clone(&consensus), sites, geo, cfg);
        let (events, _) = sim.run_day(&DomainMix::paper_default());
        let hsdirs: Vec<RelayId> = consensus
            .relays()
            .iter()
            .filter(|r| r.flags.contains(RelayFlags::HSDIR))
            .map(|r| r.id)
            .collect();
        let ring = HsDirRing::v2(&hsdirs);
        for ev in &events {
            if let TorEvent::HsDescPublish { relay, addr } = ev {
                assert!(
                    ring.responsible(addr, 0).contains(relay),
                    "publish at non-responsible dir"
                );
            }
        }
    }

    #[test]
    fn stale_fetches_disjoint_from_published_universe() {
        // Every relay instrumented: the test sees every publish and
        // every fetch. No stale fetch may target a published address.
        let (_, sites, geo) = setup();
        let cfg = FullSimConfig {
            clients: 0,
            onion_services: 300,
            desc_fetches: 4_000,
            stale_fetch_fraction: 0.5,
            rendezvous_circuits: 0,
            ..Default::default()
        };
        let sim = FullSim::new(observed_consensus(true), sites, geo, cfg);
        let (events, truth) = sim.run_day(&DomainMix::paper_default());
        let published: std::collections::HashSet<OnionAddr> = events
            .iter()
            .filter_map(|ev| match ev {
                TorEvent::HsDescPublish { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(published.len() as u64, truth.published_addresses);
        let (mut stale, mut fresh) = (0u64, 0u64);
        for ev in &events {
            if let TorEvent::HsDescFetch {
                addr: Some(addr),
                outcome,
                ..
            } = ev
            {
                match outcome {
                    DescFetchOutcome::NotFound => {
                        stale += 1;
                        assert!(
                            !published.contains(addr),
                            "stale fetch hit a published address"
                        );
                    }
                    DescFetchOutcome::Success => {
                        fresh += 1;
                        assert!(
                            published.contains(addr),
                            "successful fetch of an unpublished address"
                        );
                    }
                    other => panic!("full sim never emits {other:?}"),
                }
            }
        }
        assert_eq!(stale, truth.desc_fetch_failures);
        assert_eq!(stale + fresh, truth.desc_fetches);
    }

    #[test]
    fn no_hsdir_consensus_skips_hs_sources() {
        // Regression: an HSDir-less consensus used to panic (empty hash
        // ring); now the HS sources are skipped with zeroed truth.
        let (_, sites, geo) = setup();
        let cfg = FullSimConfig {
            clients: 40,
            onion_services: 100,
            desc_fetches: 1_000,
            rendezvous_circuits: 200,
            ..Default::default()
        };
        let sim = FullSim::new(observed_consensus(false), sites, geo, cfg);
        let (events, truth) = sim.run_day(&DomainMix::paper_default());
        assert_eq!(truth.published_addresses, 0);
        assert_eq!(truth.desc_fetches, 0);
        assert_eq!(truth.desc_fetch_failures, 0);
        assert!(!events.iter().any(|ev| matches!(
            ev,
            TorEvent::HsDescPublish { .. } | TorEvent::HsDescFetch { .. }
        )));
        // The non-HS sources still run.
        assert!(truth.connections > 0);
        assert_eq!(truth.rend_circuits, 200);
    }

    #[test]
    fn unique_ips_counts_distinct_addresses() {
        let (consensus, sites, geo) = setup();
        // Large enough that birthday collisions in the 2^32 IP space are
        // certain (~10 expected); all event sources zeroed to keep the
        // run at truth-only cost.
        let cfg = FullSimConfig {
            clients: 300_000,
            connections_per_client: 0.0,
            onion_services: 0,
            desc_fetches: 0,
            rendezvous_circuits: 0,
            ..Default::default()
        };
        let sim = FullSim::new(consensus, Arc::clone(&sites), Arc::clone(&geo), cfg.clone());
        let (_, truth) = sim.run_day(&DomainMix::paper_default());
        // Recompute the distinct count from the same per-client
        // derivation the simulator uses.
        let expected = {
            let mut seen = std::collections::HashSet::new();
            for c in 0..cfg.clients {
                let mut iprng =
                    StdRng::seed_from_u64(cfg.seed ^ (c.wrapping_mul(0x9e3779b97f4a7c15)));
                seen.insert(geo.sample_ip(&mut iprng));
            }
            seen.len() as u64
        };
        assert_eq!(truth.unique_ips, expected);
        assert!(
            truth.unique_ips < cfg.clients,
            "expected IP collisions at this population ({} vs {})",
            truth.unique_ips,
            cfg.clients
        );
    }
}

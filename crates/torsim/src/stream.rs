//! Sharded streaming event generation.
//!
//! An [`EventStream`] is a set of `K` independent *shards*, each a
//! deferred generator emitting a slice of one relay's observed events.
//! Shards are built so that the **multiset of emitted events is
//! bit-identical for every shard count `K`** under the same seed — the
//! pipeline's load-bearing correctness contract ("shard-count
//! invariance", enforced by `tests/shard_invariance.rs` and property
//! tests in this crate). Downstream accumulators
//! (`privcount::shard`, `psc::shard`) fold each shard independently —
//! typically one OS thread per shard via
//! [`EventStream::fold_parallel`], which hands the fold each event by
//! reference — and combine per-shard results with an associative,
//! order-insensitive `merge`.
//!
//! # How invariance is achieved
//!
//! Two construction schemes, chosen per source, each defined once:
//!
//! * **Partitioned generation** (`partitioned_stream`) — the stream is
//!   divided into a *fixed* number of logical partitions
//!   ([`PARTITIONS`]), independent of `K`, and shard `j` of `K` runs
//!   partitions `{p : p ≡ j (mod K)}` in ascending order, so the union
//!   over shards is the same set of partitions — hence the same events
//!   — for every `K`. In a [`StreamSim`] source, partition `p` draws
//!   from its own RNG seeded by `derive_seed(seed, "<label>/part<p>")`
//!   and generates `1/PARTITIONS` of the configured mean volume
//!   (Poisson thinning: a `Poisson(λ)` total is distributed identically
//!   to the sum of `PARTITIONS` independent `Poisson(λ/PARTITIONS)`
//!   draws). Used for the high-volume streams (exit streams, client
//!   traffic, rendezvous, HSDir fetches), where generation itself is
//!   the hot path, and by the `full` simulation mode:
//!   [`crate::full::FullSim::stream_day`] partitions clients,
//!   descriptor fetches, rendezvous circuits and service publishes the
//!   same way, with per-partition counts/paths RNGs and ground truth
//!   accumulated per partition under an associative merge (see
//!   `torsim::full` module docs).
//! * **Replayed generation** (`replayed_stream`) — sources whose output
//!   is a single deterministic sequence with *union semantics over a
//!   shared universe* (the unique-client-IP pool, the published-address
//!   universe) cannot be mean-split without changing what "unique"
//!   means. The base sequence is generated **once per stream** (the
//!   first shard to run materializes it into a shared memo; the
//!   generators are deterministic, so which shard wins the race is
//!   invisible) and every shard emits only the memoized events whose
//!   global index `i` satisfies `i ≡ j (mod K)`. Exactly the unsharded
//!   event sequence is emitted, split `K` ways, with the base generated
//!   once instead of `K` times — these sources are orders of magnitude
//!   smaller than the stream sources, so holding one materialized copy
//!   is cheap.
//!
//! Randomness a source shares across its shards (the fetch support, the
//! client-IP pool) comes from a *dedicated* RNG seeded by
//! `derive_seed(seed, "<label>/support")` and is memoized once per
//! stream, so no shard ordering can perturb it.
//!
//! Sampling *tables* consume no randomness — they are pure functions
//! of the truth they are built from — so sharing them is invisible to
//! the contract and is done at the widest scope that has one value of
//! them: the per-country and Zipf tables once per stream, and the
//! domain sampler (one entry per site, the only table that is large)
//! once per site universe and mix, behind
//! [`SiteList::domain_sampler`], for every stream of every round.
//!
//! [`EventStream::from_events`] remains as a generic adapter for
//! already-materialized event lists (fixtures, replayed captures).

use crate::events::TorEvent;
use crate::geo::GeoDb;
use crate::ids::RelayId;
use crate::sampled::{fetch_support, ClientTrafficTables};
use crate::sites::SiteList;
use crate::workload::{ClientTruth, ExitTruth, OnionTruth};
use pm_stats::sampling::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Fixed partition count for mean-split sources, constant across shard
/// counts by design (see module docs).
pub const PARTITIONS: usize = 64;

/// One shard's deferred generator.
pub type ShardFn = Box<dyn FnOnce(&mut dyn FnMut(TorEvent)) + Send>;

/// A sharded, deferred event stream (see module docs).
pub struct EventStream {
    shards: Vec<ShardFn>,
}

/// A bare generator is a one-shard stream:
/// [`EventStream::fold_parallel`] runs a single shard inline on the
/// calling thread.
impl From<ShardFn> for EventStream {
    fn from(generator: ShardFn) -> EventStream {
        EventStream::from_shards(vec![generator])
    }
}

impl EventStream {
    /// Builds a stream from explicit shard generators.
    fn from_shards(shards: Vec<ShardFn>) -> EventStream {
        assert!(!shards.is_empty(), "stream needs at least one shard");
        EventStream { shards }
    }

    /// Shards a materialized event list by index filter — an adapter
    /// for event lists that already exist in memory (test fixtures,
    /// replayed captures); the simulation modes generate their shards
    /// natively.
    pub fn from_events(events: Vec<TorEvent>, shards: usize) -> EventStream {
        let shards = shards.max(1);
        let events = Arc::new(events);
        EventStream::from_shards(
            (0..shards)
                .map(|j| {
                    let events = Arc::clone(&events);
                    let f: ShardFn = Box::new(move |sink| {
                        for ev in events.iter().skip(j).step_by(shards) {
                            sink(*ev);
                        }
                    });
                    f
                })
                .collect(),
        )
    }

    /// Concatenates streams shard-wise: shard `j` of the result runs
    /// shard `j` of each input in order. All inputs must have the same
    /// shard count. Each input's shard-count invariance carries over to
    /// the concatenation (used for multi-day collection periods).
    pub fn chain(streams: Vec<EventStream>) -> EventStream {
        assert!(!streams.is_empty());
        let k = streams[0].num_shards();
        assert!(
            streams.iter().all(|s| s.num_shards() == k),
            "chained streams must have equal shard counts"
        );
        let mut per_shard: Vec<Vec<ShardFn>> = (0..k).map(|_| Vec::new()).collect();
        for stream in streams {
            for (j, shard) in stream.shards.into_iter().enumerate() {
                per_shard[j].push(shard);
            }
        }
        EventStream::from_shards(
            per_shard
                .into_iter()
                .map(|parts| {
                    let f: ShardFn = Box::new(move |sink| {
                        for part in parts {
                            part(sink);
                        }
                    });
                    f
                })
                .collect(),
        )
    }

    /// Number of shards.
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Decomposes the stream into its shard generators, e.g. to hand
    /// each shard to its own Data Collector (the generator types are
    /// identical). The multiset union of the shards' output is the
    /// stream's output.
    pub fn into_shards(self) -> Vec<ShardFn> {
        self.shards
    }

    /// Runs every shard on the calling thread, in shard order.
    pub fn for_each(self, mut sink: impl FnMut(TorEvent)) {
        for shard in self.shards {
            shard(&mut sink);
        }
    }

    /// Degrades the stream to a single sequential generator closure.
    pub fn into_generator(self) -> ShardFn {
        Box::new(move |sink| {
            for shard in self.shards {
                shard(sink);
            }
        })
    }

    /// Folds every shard into its own accumulator — one OS thread per
    /// shard when there is more than one — and returns the accumulators
    /// in shard order. Callers combine them with an associative merge;
    /// any order-insensitive merge preserves shard-count invariance.
    ///
    /// `ingest` borrows each event once, as the generator emits it. A
    /// fold reads the fields it needs (`match *ev` copies only those)
    /// and must not move the event on by value: PrivCount's fold, one
    /// mapper call per event that writes its counters in place, adds
    /// less per event than generating it costs, and with one by-value
    /// hop per event it measured several times that.
    pub fn fold_parallel<A, I, F>(self, make: I, ingest: F) -> Vec<A>
    where
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, &TorEvent) + Sync,
    {
        if self.shards.len() == 1 {
            let mut acc = make(0);
            for shard in self.shards {
                shard(&mut |ev| ingest(&mut acc, &ev));
            }
            return vec![acc];
        }
        let shards = self.shards;
        std::thread::scope(|scope| {
            let make = &make;
            let ingest = &ingest;
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(j, shard)| {
                    scope.spawn(move || {
                        let mut acc = make(j);
                        shard(&mut |ev| ingest(&mut acc, &ev));
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream shard panicked"))
                .collect()
        })
    }
}

/// Builds sharded [`EventStream`]s over the sampled-observation model
/// (the paper-scale mode): each builder seeds and shards one of the
/// generation kernels in [`crate::sampled`].
#[derive(Clone)]
pub struct StreamSim {
    /// Site universe for domain events.
    pub sites: Arc<SiteList>,
    /// Geo database for client IPs.
    pub geo: Arc<GeoDb>,
    /// Instrumented relays to attribute events to.
    pub relays: Vec<RelayId>,
    /// Base seed; per-partition RNGs derive from it.
    pub seed: u64,
}

/// Builds a partitioned-generation stream (mean-split sources — see
/// module docs): `run(p, sink)` emits logical partition `p`'s events,
/// and shard `j` of `K` runs the partitions `p ≡ j (mod K)` in
/// ascending order. This is the single definition of that ownership
/// rule: every mean-split `StreamSim` source and the full mode's
/// [`crate::full::FullSim::stream_day`] are built here, so the modes
/// cannot diverge on it.
pub(crate) fn partitioned_stream(
    shards: usize,
    run: impl Fn(usize, &mut dyn FnMut(TorEvent)) + Send + Sync + 'static,
) -> EventStream {
    let shards = shards.clamp(1, PARTITIONS);
    let run = Arc::new(run);
    EventStream::from_shards(
        (0..shards)
            .map(|j| {
                let run = Arc::clone(&run);
                let f: ShardFn = Box::new(move |sink| {
                    for p in (j..PARTITIONS).step_by(shards) {
                        run(p, sink);
                    }
                });
                f
            })
            .collect(),
    )
}

/// Builds a replayed-generation stream (union-semantics sources — see
/// module docs): `generate` produces the full deterministic base
/// sequence, memoized once per stream in a shared [`OnceLock`]; shard
/// `j` of `K` emits the memoized events with index `≡ j (mod K)`. The
/// first shard to run pays the one generation; concurrent shards block
/// on the memo instead of regenerating.
pub(crate) fn replayed_stream(
    shards: usize,
    generate: impl Fn() -> Vec<TorEvent> + Send + Sync + 'static,
) -> EventStream {
    let shards = shards.max(1);
    let base: Arc<(OnceLock<Vec<TorEvent>>, _)> = Arc::new((OnceLock::new(), generate));
    EventStream::from_shards(
        (0..shards)
            .map(|j| {
                let base = Arc::clone(&base);
                let f: ShardFn = Box::new(move |sink| {
                    let (memo, generate) = &*base;
                    for ev in memo.get_or_init(generate).iter().skip(j).step_by(shards) {
                        sink(*ev);
                    }
                });
                f
            })
            .collect(),
    )
}

impl StreamSim {
    /// Creates a stream builder attributing events to `relays`.
    pub fn new(
        sites: Arc<SiteList>,
        geo: Arc<GeoDb>,
        relays: Vec<RelayId>,
        seed: u64,
    ) -> StreamSim {
        assert!(!relays.is_empty());
        StreamSim {
            sites,
            geo,
            relays,
            seed,
        }
    }

    fn partition_rng(&self, label: &str, p: usize) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.seed, &format!("{label}/part{p}")))
    }

    fn support_rng(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.seed, &format!("{label}/support")))
    }

    /// Exit streams observed at `fraction` of exit weight, partitioned.
    /// With `only_initial`, subsequent (non-initial) streams are skipped
    /// — for domain experiments that never read them. The domain
    /// sampler's alias tables are the only expensive part, and they
    /// come from [`SiteList::domain_sampler`]: one build serves every
    /// stream over this universe and mix — all of a round's DCs, every
    /// round of a run, and the truth replicas — not just this stream's
    /// shards and partitions.
    pub fn exit_streams(
        &self,
        truth: &ExitTruth,
        fraction: f64,
        scale: f64,
        only_initial: bool,
        shards: usize,
        label: &str,
    ) -> EventStream {
        let (this, truth, label) = (self.clone(), truth.clone(), label.to_string());
        let sampler = self.sites.domain_sampler(&truth.mix);
        let per_part = scale / PARTITIONS as f64;
        partitioned_stream(shards, move |p, sink| {
            let mut rng = this.partition_rng(&label, p);
            this.exit_streams_part(
                &sampler,
                &truth,
                fraction,
                per_part,
                only_initial,
                &mut rng,
                sink,
            );
        })
    }

    /// Entry-side traffic (connections, circuits, bytes) at guard
    /// selection probability `fraction`, partitioned; like the exit
    /// sampler, the per-country alias tables are built once. Without
    /// `circuits`, circuits are skipped — for rounds that never read
    /// them; every other event is unchanged.
    pub fn client_traffic(
        &self,
        truth: &ClientTruth,
        fraction: f64,
        scale: f64,
        circuits: bool,
        shards: usize,
        label: &str,
    ) -> EventStream {
        let (this, truth, label) = (self.clone(), truth.clone(), label.to_string());
        let tables = ClientTrafficTables::new(&self.geo, &truth);
        let per_part = scale / PARTITIONS as f64;
        partitioned_stream(shards, move |p, sink| {
            let mut rng = this.partition_rng(&label, p);
            this.client_traffic_part(
                &tables, &truth, fraction, per_part, circuits, &mut rng, sink,
            );
        })
    }

    /// Rendezvous circuits at rendezvous selection weight `fraction`,
    /// partitioned.
    pub fn rendezvous(
        &self,
        truth: &OnionTruth,
        fraction: f64,
        scale: f64,
        shards: usize,
        label: &str,
    ) -> EventStream {
        let (this, truth, label) = (self.clone(), truth.clone(), label.to_string());
        let per_part = scale / PARTITIONS as f64;
        partitioned_stream(shards, move |p, sink| {
            let mut rng = this.partition_rng(&label, p);
            this.rendezvous_part(&truth, fraction, per_part, &mut rng, sink);
        })
    }

    /// HSDir descriptor fetches, partitioned: `event_fraction` of the
    /// network's fetch events, mean-split across partitions, over the
    /// addresses whose responsible set includes one of our relays
    /// (`addr_observe_prob`, `1 − (1−w)^6` for v2). That support is
    /// shared randomness: the first partition to run draws it from the
    /// dedicated support RNG — and builds the Zipf tables over it and
    /// over the stale list beside it — and every other one reads the
    /// memo, so the success stream covers the same support regardless
    /// of `K` and no partition rebuilds a table.
    pub fn hsdir_fetches(
        &self,
        truth: &OnionTruth,
        event_fraction: f64,
        addr_observe_prob: f64,
        scale: f64,
        shards: usize,
        label: &str,
    ) -> EventStream {
        let (this, truth, label) = (self.clone(), truth.clone(), label.to_string());
        let per_part = event_fraction / PARTITIONS as f64;
        let support = OnceLock::new();
        partitioned_stream(shards, move |p, sink| {
            let support = support.get_or_init(|| {
                fetch_support(
                    &truth,
                    addr_observe_prob,
                    scale,
                    &mut this.support_rng(&label),
                )
            });
            let mut rng = this.partition_rng(&label, p);
            this.hsdir_fetches_part(&truth, support, per_part, scale, &mut rng, sink);
        })
    }

    /// The unique-client-IP pool seen with probability `observe_prob`
    /// per selective client on `day`: replayed generation (union
    /// semantics over a shared universe — see module docs), drawn from
    /// the dedicated support RNG.
    pub fn client_ips(
        &self,
        truth: &ClientTruth,
        observe_prob: f64,
        scale: f64,
        day: u64,
        shards: usize,
        label: &str,
    ) -> EventStream {
        let (this, truth, label) = (self.clone(), truth.clone(), label.to_string());
        replayed_stream(shards, move || {
            let mut rng = this.support_rng(&label);
            this.client_ips_base(&truth, observe_prob, scale, day, &mut rng)
        })
    }

    /// HSDir descriptor publishes with per-address observation
    /// probability `observe_prob`: replayed generation like
    /// [`Self::client_ips`].
    pub fn hsdir_publishes(
        &self,
        truth: &OnionTruth,
        observe_prob: f64,
        scale: f64,
        shards: usize,
        label: &str,
    ) -> EventStream {
        let (this, truth, label) = (self.clone(), truth.clone(), label.to_string());
        replayed_stream(shards, move || {
            let mut rng = this.support_rng(&label);
            this.hsdir_publishes_base(&truth, observe_prob, scale, &mut rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::SiteListConfig;
    use crate::workload::{DomainSampler, Workload};

    fn setup() -> StreamSim {
        let sites = Arc::new(SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 50_000,
            seed: 5,
        }));
        let geo = Arc::new(GeoDb::paper_default());
        StreamSim::new(sites, geo, vec![RelayId(0), RelayId(1)], 99)
    }

    /// Canonical multiset fingerprint of a stream's output.
    fn collect_sorted(stream: EventStream) -> Vec<String> {
        let mut out = Vec::new();
        stream.for_each(|ev| out.push(format!("{ev:?}")));
        out.sort();
        out
    }

    #[test]
    fn exit_stream_invariant_in_shard_count() {
        let sim = setup();
        let truth = Workload::paper_default().exit;
        let base = collect_sorted(sim.exit_streams(&truth, 0.015, 1e-4, false, 1, "x"));
        assert!(base.len() > 1000, "{}", base.len());
        for k in [2, 4, 16] {
            let k_events = collect_sorted(sim.exit_streams(&truth, 0.015, 1e-4, false, k, "x"));
            assert_eq!(base, k_events, "shard count {k} changed the stream");
        }
    }

    #[test]
    fn client_traffic_without_circuits_drops_only_circuits() {
        let sim = setup();
        let truth = Workload::paper_default().clients;
        for k in [1, 2, 5] {
            let (mut want, mut circuits) = (Vec::new(), 0);
            sim.client_traffic(&truth, 0.01, 1e-4, true, k, "ct")
                .for_each(|ev| match ev {
                    TorEvent::EntryCircuit { .. } => circuits += 1,
                    _ => want.push(format!("{ev:?}")),
                });
            want.sort();
            assert!(
                want.len() > 100 && circuits > 100,
                "{} / {circuits}",
                want.len()
            );
            let got = collect_sorted(sim.client_traffic(&truth, 0.01, 1e-4, false, k, "ct"));
            assert_eq!(got, want, "shard count {k}");
        }
    }

    #[test]
    fn exit_streams_over_one_universe_and_mix_share_one_sampler() {
        let sim = setup();
        let truth = Workload::paper_default().exit;
        let sampler = sim.sites.domain_sampler(&truth.mix);
        // Six DC simulators over the one `Arc<SiteList>`, as
        // `core::experiments::per_dc` builds them.
        let streams: Vec<EventStream> = (0..6)
            .map(|i| {
                let dc = StreamSim::new(
                    Arc::clone(&sim.sites),
                    Arc::clone(&sim.geo),
                    vec![RelayId(i)],
                    i as u64,
                );
                dc.exit_streams(&truth, 0.015, 1e-4, true, 4, "x")
            })
            .collect();
        // Holders: the memo, `sampler`, and one per stream (its shards
        // share one closure) — no stream built tables of its own.
        assert_eq!(Arc::strong_count(&sampler), 2 + streams.len());
        assert!(Arc::ptr_eq(&sampler, &sim.sites.domain_sampler(&truth.mix)));
        drop(streams);
        assert_eq!(Arc::strong_count(&sampler), 2);
    }

    #[test]
    fn concurrent_first_requests_build_one_sampler() {
        let sim = setup();
        let mix = Workload::paper_default().exit.mix;
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let request = || {
                barrier.wait();
                sim.sites.domain_sampler(&mix)
            };
            let a = scope.spawn(request);
            let b = scope.spawn(request);
            (a.join().unwrap(), b.join().unwrap())
        });
        // Had each thread built, the second build would have replaced
        // the first in the slot and the two handles would differ.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(Arc::strong_count(&a), 3);
    }

    #[test]
    fn interleaved_mixes_each_match_their_directly_built_sampler() {
        let sim = setup();
        let a = Workload::paper_default().exit;
        let mut b = a.clone();
        b.mix.torproject = 0.1;
        b.mix.long_tail = 0.5;
        b.mix.normalize();
        // The oracle: the kernel over a sampler built directly, never
        // through the memo.
        let oracle = |truth: &ExitTruth| {
            let sampler = DomainSampler::new(&sim.sites, &truth.mix);
            let mut out = Vec::new();
            for p in 0..PARTITIONS {
                let mut rng = sim.partition_rng("x", p);
                let per_part = 1e-4 / PARTITIONS as f64;
                sim.exit_streams_part(&sampler, truth, 0.015, per_part, true, &mut rng, |ev| {
                    out.push(format!("{ev:?}"))
                });
            }
            out.sort();
            out
        };
        let (want_a, want_b) = (oracle(&a), oracle(&b));
        assert_ne!(want_a, want_b, "the two mixes must be distinguishable");
        // A, B, A: every request after the first is a key miss that
        // replaces the slot; a memo that ignored the key would serve
        // B's stream A's tables, and the second A stream B's.
        let streams = [&a, &b, &a].map(|t| sim.exit_streams(t, 0.015, 1e-4, true, 4, "x"));
        let got = streams.map(collect_sorted);
        assert_eq!(got[0], want_a);
        assert_eq!(got[1], want_b);
        assert_eq!(got[2], want_a);
    }

    #[test]
    fn client_ips_invariant_and_matches_replay() {
        let sim = setup();
        let truth = Workload::paper_default().clients;
        let base = collect_sorted(sim.client_ips(&truth, 0.03, 1e-2, 0, 1, "ips"));
        assert!(base.len() > 100);
        for k in [3, 8] {
            let k_events = collect_sorted(sim.client_ips(&truth, 0.03, 1e-2, 0, k, "ips"));
            assert_eq!(base, k_events);
        }
    }

    #[test]
    fn fetches_and_publishes_invariant() {
        let sim = setup();
        let truth = Workload::paper_default().onion;
        let base = collect_sorted(sim.hsdir_fetches(&truth, 0.005, 0.03, 1e-2, 1, "f"));
        for k in [4, 7] {
            assert_eq!(
                base,
                collect_sorted(sim.hsdir_fetches(&truth, 0.005, 0.03, 1e-2, k, "f"))
            );
        }
        let base = collect_sorted(sim.hsdir_publishes(&truth, 0.05, 0.1, 1, "p"));
        assert!(!base.is_empty());
        for k in [2, 5] {
            assert_eq!(
                base,
                collect_sorted(sim.hsdir_publishes(&truth, 0.05, 0.1, k, "p"))
            );
        }
    }

    #[test]
    fn replayed_base_generated_once_per_stream() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let stream = replayed_stream(8, move || {
            c.fetch_add(1, Ordering::SeqCst);
            (0..100)
                .map(|i| TorEvent::EntryConnection {
                    relay: RelayId(0),
                    client_ip: crate::ids::IpAddr(i),
                })
                .collect()
        });
        let parts = stream.fold_parallel(|_| 0u64, |acc, _| *acc += 1);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.iter().sum::<u64>(), 100);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "replayed base must be generated exactly once per stream"
        );
    }

    #[test]
    fn partitioned_stream_runs_each_partition_once_ascending() {
        for k in [1, 3, 64, 100] {
            let stream = partitioned_stream(k, |p, sink| {
                sink(TorEvent::EntryConnection {
                    relay: RelayId(0),
                    client_ip: crate::ids::IpAddr(p as u32),
                })
            });
            let shards = k.min(PARTITIONS);
            assert_eq!(stream.num_shards(), shards, "K={k}");
            // Shard j runs exactly the partitions p ≡ j (mod K), in
            // ascending order; over all j that is each of the 64 once.
            for (j, shard) in stream.into_shards().into_iter().enumerate() {
                let mut ran = Vec::new();
                shard(&mut |ev| match ev {
                    TorEvent::EntryConnection { client_ip, .. } => ran.push(client_ip.0 as usize),
                    other => panic!("unexpected {other:?}"),
                });
                let owned: Vec<usize> = (0..PARTITIONS).filter(|p| p % shards == j).collect();
                assert_eq!(ran, owned, "K={k} shard {j}");
            }
        }
    }

    #[test]
    fn from_events_partitions_exactly() {
        let events: Vec<TorEvent> = (0..100)
            .map(|i| TorEvent::EntryConnection {
                relay: RelayId(i % 3),
                client_ip: crate::ids::IpAddr(i),
            })
            .collect();
        let base = collect_sorted(EventStream::from_events(events.clone(), 1));
        assert_eq!(base.len(), 100);
        for k in [2, 3, 7] {
            assert_eq!(
                base,
                collect_sorted(EventStream::from_events(events.clone(), k))
            );
        }
    }

    #[test]
    fn fold_parallel_matches_sequential() {
        let sim = setup();
        let truth = Workload::paper_default().exit;
        let mut seq = 0u64;
        sim.exit_streams(&truth, 0.015, 1e-4, false, 1, "fold")
            .for_each(|_| seq += 1);
        let parts = sim
            .exit_streams(&truth, 0.015, 1e-4, false, 8, "fold")
            .fold_parallel(|_| 0u64, |acc, _| *acc += 1);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.iter().sum::<u64>(), seq);
    }

    #[test]
    fn generation_statistics_preserved() {
        // The mean-split must not change the configured volume.
        let sim = setup();
        let truth = Workload::paper_default().exit;
        let mut total = 0u64;
        sim.exit_streams(&truth, 0.015, 1e-4, false, 4, "stats")
            .for_each(|_| total += 1);
        let expect = 2.0e9 * 0.015 * 1e-4;
        assert!(
            (total as f64 - expect).abs() < expect * 0.1,
            "{total} vs {expect}"
        );
    }
}

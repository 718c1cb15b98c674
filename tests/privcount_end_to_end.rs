//! Integration: PrivCount over the FULL Tor simulation.
//!
//! Unlike the per-crate unit tests, these runs exercise the entire
//! stack: weighted path selection in the simulated consensus, event
//! emission at instrumented relays, DC collection, the blinding
//! protocol over the switchboard, TS aggregation, and the §3.3
//! inference — verifying that the pipeline recovers ground truth it was
//! never told.

use privcount::counter::CounterSpec;
use privcount::round::{run_round, NoiseAllocation, RoundConfig};
use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::full::{FullSim, FullSimConfig};
use torsim::geo::GeoDb;
use torsim::relay::{Consensus, Position};
use torsim::sites::{SiteList, SiteListConfig};
use torsim::workload::DomainMix;

fn setup() -> (Arc<Consensus>, Arc<SiteList>, Arc<GeoDb>) {
    let consensus = Arc::new(Consensus::paper_deployment(600, 0.05, 0.04, 0.04));
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed: 1,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    (consensus, sites, geo)
}

#[test]
fn inference_recovers_ground_truth_from_full_simulation() {
    let (consensus, sites, geo) = setup();
    let cfg = FullSimConfig {
        // 4k clients keep the instrumented-guard sampling noise well
        // inside the 15% inference tolerance.
        clients: 4_000,
        seed: 42,
        ..Default::default()
    };
    let sim = FullSim::new(Arc::clone(&consensus), sites, geo, cfg);
    // Four native shards, each handed to its own DC: the generator
    // types are identical, so full-mode generation feeds the DCs
    // without ever materializing the event list.
    let (stream, truth) = sim.stream_day(&DomainMix::paper_default(), 4);
    let round = RoundConfig {
        counters: vec![
            CounterSpec::with_sigma("streams", 50.0),
            CounterSpec::with_sigma("connections", 10.0),
            CounterSpec::with_sigma("bytes", 1e6),
        ],
        mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| match ev {
            TorEvent::ExitStream { .. } => counts[0] += 1,
            TorEvent::EntryConnection { .. } => counts[1] += 1,
            TorEvent::EntryBytes { bytes, .. } => counts[2] += *bytes as i64,
            _ => {}
        }),
        num_sks: 3,
        noise: NoiseAllocation::Equal,
        seed: 7,
        faults: Default::default(),
        fabric: Default::default(),
        adversary: Default::default(),
        recorder: Default::default(),
    };
    let generators: Vec<privcount::dc::EventGenerator> = stream.into_shards();
    let result = run_round(round, generators).expect("round");

    // Infer network-wide totals by dividing by the instrumented weight
    // fractions — the measurement never saw `truth`.
    let exit_frac = consensus.instrumented_fraction(Position::Exit);
    let guard_frac = consensus.instrumented_fraction(Position::Guard);
    let streams = result.estimate("streams").scale_to_network(exit_frac);
    let conns = result.estimate("connections").scale_to_network(guard_frac);
    let bytes = result.estimate("bytes").scale_to_network(guard_frac);

    let rel = |est: f64, truth: f64| (est - truth).abs() / truth;
    assert!(
        rel(streams.value, truth.exit_streams as f64) < 0.15,
        "streams {} vs {}",
        streams.value,
        truth.exit_streams
    );
    assert!(
        rel(conns.value, truth.connections as f64) < 0.15,
        "connections {} vs {}",
        conns.value,
        truth.connections
    );
    assert!(
        rel(bytes.value, truth.bytes as f64) < 0.15,
        "bytes {} vs {}",
        bytes.value,
        truth.bytes
    );
}

#[test]
fn noise_floor_hides_small_counts() {
    // A counter whose true value is far below σ must be statistically
    // indistinguishable from zero — the privacy property the paper
    // relies on when reporting "most likely zero" values (§4.2).
    let (consensus, sites, geo) = setup();
    let cfg = FullSimConfig {
        clients: 30,
        seed: 43,
        ..Default::default()
    };
    let sim = FullSim::new(consensus, sites, geo, cfg);
    let (events, _) = sim.run_day(&DomainMix::paper_default());
    let round = RoundConfig {
        counters: vec![CounterSpec::with_sigma("rare", 1e6)],
        mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
            if matches!(ev, TorEvent::HsDescFetch { .. }) {
                counts[0] += 1;
            }
        }),
        num_sks: 3,
        noise: NoiseAllocation::Equal,
        seed: 11,
        faults: Default::default(),
        fabric: Default::default(),
        adversary: Default::default(),
        recorder: Default::default(),
    };
    let generators = vec![{
        let g: privcount::dc::EventGenerator = Box::new(move |sink| {
            for ev in events {
                sink(ev);
            }
        });
        g
    }];
    let result = run_round(round, generators).expect("round");
    let est = result.estimate("rare");
    // CI must comfortably include zero.
    assert!(est.ci.contains(0.0), "{est}");
}

#[test]
fn dropped_party_aborts_cleanly() {
    // Dropping ALL protocol traffic to one SK must abort the round with
    // a protocol error, not hang or produce bogus output.
    let round = RoundConfig {
        counters: vec![CounterSpec::with_sigma("c", 0.0)],
        mapper: Arc::new(|_: &TorEvent, _: &mut [i64]| {}),
        num_sks: 2,
        noise: NoiseAllocation::None,
        seed: 13,
        faults: pm_net::transport::FaultConfig {
            drop_chance: 1.0, // every frame lost
            ..Default::default()
        },
        fabric: Default::default(),
        adversary: Default::default(),
        recorder: Default::default(),
    };
    let generators = vec![{
        let g: privcount::dc::EventGenerator = Box::new(|_sink| {});
        g
    }];
    let err = run_round(round, generators).expect_err("must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("deadlock") || msg.contains("no result"),
        "{msg}"
    );
}

/// A PrivCount round whose every protocol frame crosses a real
/// loopback TCP socket — one OS thread per party, the mode the wire
/// fabric implies — publishes the same noisy totals as the in-process
/// board on the deterministic scheduler.
#[test]
fn wire_round_matches_in_process() {
    use pm_net::transport::{FabricChoice, WireShape};
    use torsim::ids::{IpAddr, RelayId};
    use torsim::stream::EventStream;

    let totals = |fabric| {
        let round = RoundConfig {
            counters: vec![
                CounterSpec::with_sigma("connections", 25.0),
                CounterSpec::with_sigma("bytes", 1e3),
            ],
            mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| match ev {
                TorEvent::EntryConnection { .. } => counts[0] += 1,
                TorEvent::EntryBytes { bytes, .. } => counts[1] += *bytes as i64,
                _ => {}
            }),
            num_sks: 3,
            noise: NoiseAllocation::Equal,
            seed: 17,
            faults: Default::default(),
            fabric,
            adversary: Default::default(),
            recorder: Default::default(),
        };
        let streams = (0..4u32)
            .map(|dc| {
                let events = (0..300 + 50 * dc)
                    .flat_map(|i| {
                        let (relay, client_ip) = (RelayId(dc), IpAddr(1000 * dc + i));
                        [
                            TorEvent::EntryConnection { relay, client_ip },
                            TorEvent::EntryBytes {
                                relay,
                                client_ip,
                                bytes: 512 + u64::from(i),
                            },
                        ]
                    })
                    .collect();
                EventStream::from_events(events, 2)
            })
            .collect();
        run_round(round, streams).expect("round").totals
    };
    let in_process = totals(FabricChoice::PerLink);
    let wire = totals(FabricChoice::Wire(WireShape::default()));
    assert_eq!(in_process, wire);
    // Noise was drawn: the totals are not the exact counts.
    assert_ne!(in_process[0], 4 * 300 + 50 * 6);
}

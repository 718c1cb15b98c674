//! Integration: PSC over the full simulation, including verified runs
//! and the statistical estimator chain; transcript equality between
//! sequential and batched-parallel mixing at the round level;
//! fault-injection regressions pinning the per-link `Switchboard`'s
//! outcome under total and partial fault schedules; and fabric-backend
//! equality pinning the socket-backed wire fabric to the in-process
//! board.

use pm_net::transport::FaultConfig;
use pm_net::{FabricChoice, WireShape};
use psc::cp::MixStrategy;
use psc::items;
use psc::round::{run_psc_round, PscConfig};
use std::collections::HashSet;
use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::full::{FullSim, FullSimConfig};
use torsim::geo::GeoDb;
use torsim::relay::Consensus;
use torsim::sites::{SiteList, SiteListConfig};
use torsim::workload::DomainMix;

fn simulate(clients: u64, seed: u64) -> (Vec<TorEvent>, u64) {
    let consensus = Arc::new(Consensus::paper_deployment(400, 0.06, 0.05, 0.05));
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed: 2,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    let cfg = FullSimConfig {
        clients,
        seed,
        ..Default::default()
    };
    let sim = FullSim::new(consensus, sites, geo, cfg);
    let (events, _) = sim.run_day(&DomainMix::paper_default());
    // Ground truth unique IPs among the events our relays actually saw.
    let unique: HashSet<_> = events
        .iter()
        .filter_map(|ev| match ev {
            TorEvent::EntryConnection { client_ip, .. } => Some(*client_ip),
            _ => None,
        })
        .collect();
    (events, unique.len() as u64)
}

fn dc_generators(events: Vec<TorEvent>, num_dcs: usize) -> Vec<psc::dc::EventGenerator> {
    let mut buckets: Vec<Vec<TorEvent>> = vec![Vec::new(); num_dcs];
    for (i, ev) in events.into_iter().enumerate() {
        buckets[i % num_dcs].push(ev);
    }
    buckets
        .into_iter()
        .map(|evs| {
            let g: psc::dc::EventGenerator = Box::new(move |sink| {
                for ev in evs {
                    sink(ev);
                }
            });
            g
        })
        .collect()
}

#[test]
fn psc_counts_unique_ips_from_full_simulation() {
    let (events, truth_unique) = simulate(1200, 17);
    assert!(truth_unique > 100, "{truth_unique}");
    let cfg = PscConfig {
        table_size: (truth_unique as u32 * 8).next_power_of_two(),
        noise_flips_per_cp: 128,
        num_cps: 3,
        verify: false,
        seed: 3,
        faults: Default::default(),
        ..Default::default()
    };
    let result =
        run_psc_round(cfg, items::unique_client_ips(), dc_generators(events, 4)).expect("round");
    let est = result.estimate(0.95);
    assert!(
        est.ci.contains(truth_unique as f64),
        "truth {truth_unique} not in {est}"
    );
    // Point estimate within 15% (binomial noise sd ≈ 10 on ~180 truth).
    let rel = (est.value - truth_unique as f64).abs() / truth_unique as f64;
    assert!(rel < 0.15, "{est} vs {truth_unique}");
}

#[test]
fn verified_psc_round_over_threads() {
    // Small verified run: all ZK proofs generated and checked. (The
    // same round with one OS thread per party is
    // `wire_round_matches_in_process`.)
    let (events, truth_unique) = simulate(40, 19);
    let cfg = PscConfig {
        table_size: 512,
        noise_flips_per_cp: 16,
        num_cps: 2,
        verify: true,
        seed: 5,
        faults: Default::default(),
        ..Default::default()
    };
    let result = run_psc_round(cfg, items::unique_client_ips(), dc_generators(events, 2))
        .expect("verified round");
    let est = result.estimate(0.95);
    assert!(
        est.ci.contains(truth_unique as f64),
        "truth {truth_unique} not in {est}"
    );
}

#[test]
fn psc_and_privcount_agree_on_volume_vs_uniqueness() {
    // The two systems answer different questions about the same events:
    // PrivCount's connection count exceeds PSC's unique-IP count exactly
    // when clients make repeat connections.
    let (events, truth_unique) = simulate(300, 23);
    let total_connections = events
        .iter()
        .filter(|ev| matches!(ev, TorEvent::EntryConnection { .. }))
        .count() as u64;
    assert!(total_connections > truth_unique);

    let cfg = PscConfig {
        table_size: 8192,
        noise_flips_per_cp: 0,
        num_cps: 2,
        verify: false,
        seed: 7,
        faults: Default::default(),
        ..Default::default()
    };
    let result =
        run_psc_round(cfg, items::unique_client_ips(), dc_generators(events, 3)).expect("round");
    // Noiseless: marked cells ≤ unique (collisions) and close to it.
    assert!(result.raw.marked <= truth_unique);
    assert!(result.raw.marked as f64 > truth_unique as f64 * 0.95);
}

// ----- transcript equality: sequential vs batched-parallel mixing -----

/// Small synthetic generators (cheap enough to run the same round many
/// times under different execution shapes).
fn ip_generators(sets: &[&[u32]]) -> Vec<psc::dc::EventGenerator> {
    sets.iter()
        .map(|ips| {
            let ips: Vec<u32> = ips.to_vec();
            let g: psc::dc::EventGenerator = Box::new(move |sink| {
                for ip in ips {
                    sink(torsim::events::TorEvent::EntryConnection {
                        relay: torsim::ids::RelayId(0),
                        client_ip: torsim::ids::IpAddr(ip),
                    });
                }
            });
            g
        })
        .collect()
}

fn run_with(mix: MixStrategy, verify: bool) -> psc::ts::RawCount {
    let cfg = PscConfig {
        table_size: 128,
        noise_flips_per_cp: 12,
        num_cps: 3,
        verify,
        seed: 41,
        mix,
        ..Default::default()
    };
    run_psc_round(
        cfg,
        items::unique_client_ips(),
        ip_generators(&[&[1, 2, 3, 4, 5], &[4, 5, 6, 7], &[8, 9]]),
    )
    .expect("round")
    .raw
}

/// Acceptance: the final `RawCount` is bit-identical between sequential
/// and batched-parallel execution for thread counts 1, 2, and 8 — with
/// the per-cell messages covered byte-for-byte by the `mix_equivalence`
/// proptests in the `psc` crate.
#[test]
fn round_transcript_equal_across_mix_strategies() {
    for verify in [false, true] {
        let reference = run_with(MixStrategy::Sequential, verify);
        for threads in [1usize, 2, 8] {
            let batched = run_with(MixStrategy::Batched { threads }, verify);
            assert_eq!(reference, batched, "verify={verify} threads={threads}");
        }
    }
}

// ----- fault-injection regressions on the per-link board -----

/// Round outcome reduced to what a fault schedule decides: the
/// published count, or the fact that the round aborted.
#[derive(Debug, PartialEq)]
enum Outcome {
    Published(u64),
    Aborted,
}

fn run_faulted(faults: FaultConfig) -> Outcome {
    let cfg = PscConfig {
        table_size: 64,
        noise_flips_per_cp: 4,
        num_cps: 2,
        verify: false,
        seed: 23,
        faults,
        mix: MixStrategy::Batched { threads: 2 },
        fabric: FabricChoice::PerLink,
        adversary: Default::default(),
        recorder: Default::default(),
    };
    match run_psc_round(
        cfg,
        items::unique_client_ips(),
        ip_generators(&[&[10, 11, 12], &[12, 13]]),
    ) {
        Ok(result) => Outcome::Published(result.raw.marked),
        Err(_) => Outcome::Aborted,
    }
}

/// Under deterministic total fault schedules the per-link board's
/// outcome is fixed: lossless publishes the pinned `raw.marked`
/// (cross-sender arrival order is a schedule artifact, which must not
/// reach the count); total drop, duplication or corruption aborts.
#[test]
fn per_link_board_under_total_fault_schedules() {
    let cases = [
        ("lossless", FaultConfig::none()),
        (
            "all dropped",
            FaultConfig {
                drop_chance: 1.0,
                seed: 5,
                ..Default::default()
            },
        ),
        (
            "all duplicated",
            FaultConfig {
                duplicate_chance: 1.0,
                seed: 5,
                ..Default::default()
            },
        ),
        (
            "all corrupted",
            FaultConfig {
                corrupt_chance: 1.0,
                seed: 5,
                ..Default::default()
            },
        ),
    ];
    for (label, faults) in cases {
        let outcome = run_faulted(faults);
        if label == "lossless" {
            // The 4 distinct IPs' cells plus the noise bits this
            // seed draws.
            assert_eq!(outcome, Outcome::Published(10), "{label}");
        } else {
            // A protocol with no retransmission must abort, not
            // publish garbage, under total-loss/duplication schedules.
            assert_eq!(outcome, Outcome::Aborted, "{label}");
        }
    }
}

/// Partial fault schedules are deterministic per board: the per-link
/// fabric derives each link's RNG from `(seed, from, to)`, so rerunning
/// the identical round yields the identical outcome.
#[test]
fn per_link_fault_schedule_is_reproducible() {
    for (drop, dup) in [(0.15, 0.0), (0.0, 0.35), (0.1, 0.2)] {
        let faults = FaultConfig {
            drop_chance: drop,
            duplicate_chance: dup,
            seed: 77,
            ..Default::default()
        };
        let a = run_faulted(faults);
        let b = run_faulted(faults);
        assert_eq!(a, b, "drop={drop} dup={dup}");
    }
}

// ----- fabric equality: socket-backed wire vs in-process board -------

fn run_on_fabric(fabric: FabricChoice, recorder: pm_obs::Recorder) -> psc::ts::RawCount {
    let cfg = PscConfig {
        table_size: 128,
        noise_flips_per_cp: 12,
        num_cps: 3,
        verify: true,
        seed: 41,
        mix: MixStrategy::Batched { threads: 2 },
        fabric,
        recorder,
        ..Default::default()
    };
    run_psc_round(
        cfg,
        items::unique_client_ips(),
        ip_generators(&[&[1, 2, 3, 4, 5], &[4, 5, 6, 7], &[8, 9]]),
    )
    .expect("round")
    .raw
}

/// Acceptance (ISSUE 10 tentpole): a PSC round whose every protocol
/// frame crosses a real loopback TCP socket publishes the same
/// `RawCount` — and the same per-link transcript digests — as the
/// in-process per-link board under a lossless schedule. The digest
/// comparison pins transcript *bytes*, not just the final count.
#[test]
fn wire_round_matches_in_process() {
    let rec_mem = pm_obs::Recorder::new();
    let rec_wire = pm_obs::Recorder::new();
    let in_process = run_on_fabric(FabricChoice::PerLink, rec_mem.clone());
    let wire = run_on_fabric(FabricChoice::Wire(WireShape::default()), rec_wire.clone());
    assert_eq!(in_process, wire);

    // Every per-link transcript digest the in-process board published
    // must be identical on the wire — byte-identical frames, in order.
    let mem_snapshot = rec_mem.read_snapshot();
    let wire_snapshot = rec_wire.read_snapshot();
    let digests: Vec<&str> = mem_snapshot
        .entries
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| k.starts_with("net.link.") && k.ends_with(".digest"))
        .collect();
    assert!(!digests.is_empty(), "no per-link digests published");
    for key in digests {
        assert_eq!(
            mem_snapshot.get(key),
            wire_snapshot.get(key),
            "transcript digest diverged on {key}"
        );
    }
}

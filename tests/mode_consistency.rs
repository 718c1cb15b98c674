//! Integration: the simulator's two generation modes agree.
//!
//! The sampled-observation mode must be a statistically faithful
//! shortcut for the full simulation: for a statistic both modes can
//! produce (stream volume at a given exit fraction), their inferred
//! network-wide values must agree within sampling error.

use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::full::{FullSim, FullSimConfig};
use torsim::geo::GeoDb;
use torsim::ids::RelayId;
use torsim::relay::{Consensus, Position};
use torsim::sites::{SiteList, SiteListConfig};
use torsim::stream::StreamSim;
use torsim::workload::{DomainMix, ExitTruth};

#[test]
fn sampled_mode_matches_full_mode_inference() {
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed: 5,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    let consensus = Arc::new(Consensus::paper_deployment(500, 0.04, 0.04, 0.04));
    let exit_frac = consensus.instrumented_fraction(Position::Exit);

    // Full mode: simulate in 4 native shards, observe at instrumented
    // exits with a parallel fold, infer totals.
    let cfg = FullSimConfig {
        clients: 2_000,
        seed: 77,
        ..Default::default()
    };
    let sim = FullSim::new(
        Arc::clone(&consensus),
        Arc::clone(&sites),
        Arc::clone(&geo),
        cfg,
    );
    let (stream, truth) = sim.stream_day(&DomainMix::paper_default(), 4);
    let full_observed: u64 = stream
        .fold_parallel(
            |_| 0u64,
            |acc, ev| {
                if matches!(ev, TorEvent::ExitStream { .. }) {
                    *acc += 1;
                }
            },
        )
        .into_iter()
        .sum();
    let full_inferred = full_observed as f64 / exit_frac;

    // Sampled mode: configure the ground truth the full sim produced and
    // generate the same observation directly.
    let exit_truth = ExitTruth {
        streams_per_day: truth.exit_streams as f64,
        initial_fraction: truth.initial_streams as f64 / truth.exit_streams as f64,
        ipv4_literal_fraction: 0.0,
        ipv6_literal_fraction: 0.0,
        other_port_fraction: 0.0,
        mix: DomainMix::paper_default(),
    };
    let sampled = StreamSim::new(sites, geo, vec![RelayId(0)], 78);
    let mut sampled_observed = 0f64;
    sampled
        .exit_streams(&exit_truth, exit_frac, 1.0, false, 1, "mode")
        .for_each(|_| sampled_observed += 1.0);
    let sampled_inferred = sampled_observed / exit_frac;

    // Both infer the same network-wide total (which is the truth).
    let t = truth.exit_streams as f64;
    assert!(
        (full_inferred - t).abs() / t < 0.1,
        "full mode: {full_inferred} vs {t}"
    );
    assert!(
        (sampled_inferred - t).abs() / t < 0.1,
        "sampled mode: {sampled_inferred} vs {t}"
    );
    assert!(
        (full_inferred - sampled_inferred).abs() / t < 0.15,
        "modes disagree: {full_inferred} vs {sampled_inferred}"
    );
}

#[test]
fn sampled_initial_fraction_matches_full_mode() {
    // The primary-domain denominator (initial streams) is shape-critical
    // for every §4 analysis; both modes must produce the same fraction.
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed: 6,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    let consensus = Arc::new(Consensus::paper_deployment(300, 0.08, 0.05, 0.05));
    let cfg = FullSimConfig {
        clients: 1_000,
        seed: 79,
        ..Default::default()
    };
    let sim = FullSim::new(consensus, Arc::clone(&sites), Arc::clone(&geo), cfg);
    let (_, truth) = sim.run_day(&DomainMix::paper_default());
    let full_fraction = truth.initial_streams as f64 / truth.exit_streams as f64;

    let exit_truth = ExitTruth {
        initial_fraction: full_fraction,
        streams_per_day: 5e6,
        ipv4_literal_fraction: 0.0,
        ipv6_literal_fraction: 0.0,
        other_port_fraction: 0.0,
        mix: DomainMix::paper_default(),
    };
    let sampled = StreamSim::new(sites, geo, vec![RelayId(0)], 80);
    let (mut total, mut initial) = (0u64, 0u64);
    sampled
        .exit_streams(&exit_truth, 0.05, 1.0, false, 1, "mode")
        .for_each(|ev| {
            if let TorEvent::ExitStream { initial: i, .. } = ev {
                total += 1;
                if i {
                    initial += 1;
                }
            }
        });
    let sampled_fraction = initial as f64 / total as f64;
    assert!(
        (sampled_fraction - full_fraction).abs() < 0.01,
        "{sampled_fraction} vs {full_fraction}"
    );
}

//! Quickstart: run one PrivCount round and one PSC round end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A tiny deployment (1 tally server, 3 share keepers / computation
//! parties, 3 data collectors) measures a synthetic day of Tor entry
//! traffic twice: PrivCount counts *how many* connections happened;
//! PSC counts *how many distinct* client IPs made them. Neither reveals
//! any individual's activity: PrivCount publishes Gaussian-noised
//! totals, PSC a binomially-noised distinct count.

use privcount::counter::CounterSpec;
use privcount::round::{run_round, NoiseAllocation, RoundConfig};
use psc::items;
use psc::round::{run_psc_round, PscConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::geo::GeoDb;
use torsim::ids::RelayId;
use torsim::stream::EventStream;

fn main() {
    // --- a synthetic day of entry traffic -----------------------------
    // 3 guard relays observe ~2,000 connections from ~600 distinct IPs.
    let geo = GeoDb::paper_default();
    let mut rng = StdRng::seed_from_u64(7);
    let ips: Vec<_> = (0..600).map(|_| geo.sample_ip(&mut rng)).collect();
    let mut relay_events: Vec<Vec<TorEvent>> = vec![Vec::new(); 3];
    for i in 0..2_000 {
        let ip = ips[rng.gen_range(0..ips.len())];
        relay_events[i % 3].push(TorEvent::EntryConnection {
            relay: RelayId((i % 3) as u32),
            client_ip: ip,
        });
    }
    let truth_connections = 2_000u64;
    let truth_unique = {
        let mut s = std::collections::HashSet::new();
        for evs in &relay_events {
            for ev in evs {
                if let TorEvent::EntryConnection { client_ip, .. } = ev {
                    s.insert(*client_ip);
                }
            }
        }
        s.len()
    };

    // --- PrivCount: how many connections? -----------------------------
    let sigma = pm_dp::mechanism::gaussian_sigma(
        pm_dp::bounds::bound_for(pm_dp::bounds::Action::TcpConnectionToGuard) as f64,
        pm_dp::EPSILON,
        pm_dp::DELTA,
    );
    let cfg = RoundConfig {
        counters: vec![CounterSpec::with_sigma("connections", sigma)],
        mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
            if matches!(ev, TorEvent::EntryConnection { .. }) {
                counts[0] += 1;
            }
        }),
        num_sks: 3,
        noise: NoiseAllocation::Equal,
        seed: 1,
        faults: Default::default(),
        // The in-process board, on the deterministic scheduler. For one
        // OS thread per party over loopback TCP, like a real deployment,
        // use `FabricChoice::Wire` (`--fabric wire` on the binaries).
        fabric: Default::default(),
        adversary: Default::default(),
        recorder: Default::default(),
    };
    // One event stream per data collector.
    let dc_streams = |events: &[Vec<TorEvent>]| -> Vec<EventStream> {
        events
            .iter()
            .map(|evs| EventStream::from_events(evs.clone(), 1))
            .collect()
    };
    let result = run_round(cfg, dc_streams(&relay_events)).expect("privcount round");
    let est = result.estimate("connections");
    println!("PrivCount: connections = {est}");
    println!("           ground truth = {truth_connections} (σ = {sigma:.1})");

    // --- PSC: how many distinct client IPs? ---------------------------
    let flips = pm_dp::mechanism::binomial_flips_for(4, pm_dp::EPSILON, 1e-6) as u32;
    let cfg = PscConfig {
        table_size: 4096,
        noise_flips_per_cp: flips,
        num_cps: 3,
        verify: true, // full zero-knowledge verification
        seed: 4,
        faults: Default::default(),
        ..Default::default()
    };
    let result = run_psc_round(cfg, items::unique_client_ips(), dc_streams(&relay_events))
        .expect("psc round");
    let est = result.estimate(0.95);
    println!(
        "PSC:       unique IPs = {est} (raw marked cells: {}, noise flips: {})",
        result.raw.marked, result.raw.noise_total
    );
    println!("           ground truth = {truth_unique}");
}

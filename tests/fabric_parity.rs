//! Observability parity across fabric backends.
//!
//! The `pm_net::Fabric` contract says the shared `net.*` metric family
//! is backend-invariant under a lossless schedule: swapping the
//! in-process per-link board for real loopback sockets may *add*
//! wire-specific keys (`net.wire.*`) but must never change the value of
//! any key both backends publish. These tests run the identical PSC
//! and PrivCount rounds on both backends with separate recorders and
//! compare the full `net.` snapshot slice key by key.

use pm_net::{FabricChoice, WireShape};
use privcount::counter::CounterSpec;
use privcount::round::{run_round, NoiseAllocation, RoundConfig};
use psc::cp::MixStrategy;
use psc::items;
use psc::round::{run_psc_round, PscConfig};

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

fn net_slice(recorder: &pm_obs::Recorder) -> Vec<(String, u64)> {
    recorder
        .read_snapshot()
        .entries
        .into_iter()
        .filter(|(k, _)| k.starts_with("net."))
        .collect()
}

fn psc_net_metrics(fabric: FabricChoice) -> Vec<(String, u64)> {
    let recorder = pm_obs::Recorder::new();
    let cfg = PscConfig {
        table_size: 64,
        noise_flips_per_cp: 6,
        num_cps: 2,
        verify: false,
        seed: 29,
        mix: MixStrategy::Sequential,
        fabric,
        recorder: recorder.clone(),
        ..Default::default()
    };
    run_psc_round(
        cfg,
        items::unique_client_ips(),
        ip_generators(&[&[21, 22, 23], &[23, 24]]),
    )
    .expect("round");
    net_slice(&recorder)
}

/// A PrivCount round in the deployment's shape: a TS, 10 DCs, 3 SKs.
fn privcount_net_metrics(fabric: FabricChoice) -> Vec<(String, u64)> {
    let recorder = pm_obs::Recorder::new();
    let round = RoundConfig {
        counters: vec![CounterSpec::with_sigma("connections", 25.0)],
        mapper: std::sync::Arc::new(|ev: &torsim::events::TorEvent, counts: &mut [i64]| {
            if matches!(ev, torsim::events::TorEvent::EntryConnection { .. }) {
                counts[0] += 1;
            }
        }),
        num_sks: 3,
        noise: NoiseAllocation::Equal,
        seed: 31,
        faults: Default::default(),
        fabric,
        adversary: Default::default(),
        recorder: recorder.clone(),
    };
    let ips: Vec<Vec<u32>> = (0..10).map(|dc| (0..5 + dc).collect()).collect();
    let ips: Vec<&[u32]> = ips.iter().map(Vec::as_slice).collect();
    run_round(round, ip_generators(&ips)).expect("round");
    net_slice(&recorder)
}

/// Every `net.*` key the in-process board publishes — frame totals,
/// per-link send counts, bytes, and transcript digests — must carry the
/// identical value when the round runs over loopback TCP; keys only the
/// wire backend adds must live under `net.wire.`.
fn assert_shared_net_metrics_equal(per_link: &[(String, u64)], wire: &[(String, u64)]) {
    assert!(
        per_link.iter().any(|(k, _)| k == "net.frames.sent"),
        "in-process run published no frame counters"
    );

    let wire_map: std::collections::BTreeMap<&str, u64> =
        wire.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (key, value) in per_link {
        assert_eq!(
            wire_map.get(key.as_str()),
            Some(value),
            "shared metric {key} diverged between backends"
        );
    }

    // The wire backend may publish extra keys, but only in its own
    // namespace — shared families never gain backend-specific members.
    let per_link_keys: std::collections::BTreeSet<&str> =
        per_link.iter().map(|(k, _)| k.as_str()).collect();
    for (key, _) in wire {
        assert!(
            per_link_keys.contains(key.as_str()) || key.starts_with("net.wire."),
            "wire-only metric {key} outside the net.wire. namespace"
        );
    }
}

#[test]
fn wire_and_in_process_publish_identical_shared_net_metrics() {
    assert_shared_net_metrics_equal(
        &psc_net_metrics(FabricChoice::PerLink),
        &psc_net_metrics(FabricChoice::Wire(WireShape::default())),
    );
}

/// Over the wire, DC shares reach the tally server in TCP-timing order;
/// its forwards match the in-process transcripts only because it holds
/// them and forwards in DC order. One lucky run proves little, so each
/// of five runs of the 14-party round must match.
#[test]
fn privcount_wire_rounds_publish_identical_shared_net_metrics() {
    let per_link = privcount_net_metrics(FabricChoice::PerLink);
    for _ in 0..5 {
        let wire = privcount_net_metrics(FabricChoice::Wire(WireShape::default()));
        assert_shared_net_metrics_equal(&per_link, &wire);
    }
}

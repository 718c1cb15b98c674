//! Shard-count invariance: the pipeline's load-bearing correctness
//! contract (see `torsim::stream`). For the same seed, every
//! experiment-relevant statistic must be **bit-identical** whether the
//! event stream is generated and ingested as 1 shard or as many —
//! sharding may only change wall-clock time, never results.
//!
//! Three layers, mirroring the pipeline:
//!   1. raw event streams (every `StreamSim` source),
//!   2. PrivCount experiment reports (counters + noise at merge),
//!   3. PSC experiment reports (oblivious-table marking at merge).
//!
//! Layers 2 and 3 also pin the degenerate case the round doors rely
//! on: a bare generator per DC is a one-shard stream, and publishes
//! what the same events publish as a K-shard stream.

use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::full::{FullSim, FullSimConfig};
use torsim::geo::GeoDb;
use torsim::ids::{IpAddr, RelayId};
use torsim::relay::Consensus;
use torsim::sites::{SiteList, SiteListConfig};
use torsim::stream::{EventStream, ShardFn, StreamSim};
use torsim::workload::{DomainMix, Workload};
use torstudy::deployment::Deployment;
use torstudy::runner::run_some;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn stream_fingerprint(stream: EventStream) -> Vec<String> {
    let mut out = Vec::new();
    stream.for_each(|ev| out.push(format!("{ev:?}")));
    out.sort();
    out
}

/// FNV-1a over the sorted event multiset, one line per event. The
/// pinned constants hold every source — not only the ones a golden
/// report reaches — to the same draws in the same order, so a refactor
/// of the generators must stay draw-for-draw identical; regenerate them
/// only with an intentional output change.
fn multiset_digest(fingerprint: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in fingerprint
        .iter()
        .flat_map(|line| line.bytes().chain([b'\n']))
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Layer 1: every event source the experiments draw from emits the same
/// multiset of events for K = 1, 4, 16.
#[test]
fn every_stream_source_is_shard_count_invariant() {
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed: 11,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    let sim = StreamSim::new(sites, geo, vec![RelayId(0)], 4242);
    let w = Workload::paper_default();

    type SourceFn<'a> = Box<dyn Fn(usize) -> EventStream + 'a>;
    let sources: Vec<(&str, u64, SourceFn)> = vec![
        (
            "exit_streams",
            0x9bd4_b581_efb1_e971,
            Box::new(|k| sim.exit_streams(&w.exit, 0.015, 1e-4, false, k, "ex")),
        ),
        (
            "exit_streams_initial",
            0x4d68_833a_2480_e1b5,
            Box::new(|k| sim.exit_streams(&w.exit, 0.015, 1e-4, true, k, "exi")),
        ),
        (
            "client_traffic",
            0x5ea6_9d69_8058_07bf,
            Box::new(|k| sim.client_traffic(&w.clients, 0.01, 1e-4, true, k, "ct")),
        ),
        (
            "rendezvous",
            0xdd2d_941c_4907_ccd0,
            Box::new(|k| sim.rendezvous(&w.onion, 0.01, 1e-3, k, "rv")),
        ),
        (
            "hsdir_fetches",
            0x0bef_1343_3fa5_3c5e,
            Box::new(|k| sim.hsdir_fetches(&w.onion, 0.005, 0.03, 1e-2, k, "hf")),
        ),
        (
            "client_ips",
            0xb473_7439_2022_f739,
            Box::new(|k| sim.client_ips(&w.clients, 0.03, 1e-2, 0, k, "ip")),
        ),
        (
            "hsdir_publishes",
            0x0524_0d0b_fc9b_970a,
            Box::new(|k| sim.hsdir_publishes(&w.onion, 0.05, 0.1, k, "hp")),
        ),
    ];
    for (name, pinned, build) in sources {
        let base = stream_fingerprint(build(1));
        assert!(!base.is_empty(), "{name}: empty baseline stream");
        assert_eq!(
            multiset_digest(&base),
            pinned,
            "{name}: draws changed ({:#018x})",
            multiset_digest(&base)
        );
        for k in SHARD_COUNTS {
            assert_eq!(
                base,
                stream_fingerprint(build(k)),
                "{name}: K={k} changed the event multiset"
            );
        }
    }
}

fn full_sim() -> FullSim {
    let consensus = Arc::new(Consensus::paper_deployment(300, 0.05, 0.05, 0.05));
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed: 11,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    FullSim::new(
        consensus,
        sites,
        geo,
        FullSimConfig {
            clients: 400,
            seed: 4242,
            ..Default::default()
        },
    )
}

/// Layer 1, full mode: `FullSim::stream_day` emits a bit-identical
/// event multiset *and* an identical merged `GroundTruth` for
/// K = 1, 4, 16 — the same contract as the sampled sources, but over
/// real path selection.
#[test]
fn full_sim_is_shard_count_invariant() {
    let sim = full_sim();
    let mix = DomainMix::paper_default();
    let (stream, base_truth) = sim.stream_day(&mix, 1);
    let base = stream_fingerprint(stream);
    assert!(!base.is_empty(), "empty full-mode baseline stream");
    assert_eq!(
        multiset_digest(&base),
        0x9f83_5969_ceec_0692,
        "full mode: draws changed ({:#018x})",
        multiset_digest(&base)
    );
    for k in SHARD_COUNTS {
        let (stream, truth) = sim.stream_day(&mix, k);
        assert_eq!(
            base,
            stream_fingerprint(stream),
            "full mode: K={k} changed the event multiset"
        );
        assert_eq!(
            base_truth, truth,
            "full mode: K={k} changed the merged ground truth"
        );
    }
}

/// Full mode: the single-pass legacy entry point is exactly the K = 1
/// stream, events (in order) and truth both.
#[test]
fn full_sim_run_day_matches_stream_day_k1() {
    let sim = full_sim();
    let mix = DomainMix::paper_default();
    let (events, truth) = sim.run_day(&mix);
    let (stream, stream_truth) = sim.stream_day(&mix, 1);
    let mut streamed = Vec::new();
    stream.for_each(|ev| streamed.push(ev));
    assert_eq!(events, streamed, "run_day diverged from stream_day(K=1)");
    assert_eq!(truth, stream_truth);
}

/// Three DCs' materialized event lists: repeat connections from
/// overlapping IP ranges, so volume and uniqueness differ.
fn dc_event_lists() -> Vec<Vec<TorEvent>> {
    (0..3u32)
        .map(|dc| {
            (0..400u32)
                .map(|i| TorEvent::EntryConnection {
                    relay: RelayId(dc),
                    client_ip: IpAddr(100 * dc + i % 150),
                })
                .collect()
        })
        .collect()
}

fn generators() -> Vec<ShardFn> {
    dc_event_lists()
        .into_iter()
        .map(|events| -> ShardFn { Box::new(move |sink| events.into_iter().for_each(sink)) })
        .collect()
}

fn streams(k: usize) -> Vec<EventStream> {
    dc_event_lists()
        .into_iter()
        .map(|events| EventStream::from_events(events, k))
        .collect()
}

fn rendered(reports: &[torstudy::Report]) -> String {
    reports
        .iter()
        .map(|r| r.render_text())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Layer 2: PrivCount experiment reports (several statistics: stream
/// totals, per-domain breakdowns, client counters, noise bounds) are
/// bit-identical for K = 1, 4, 16.
#[test]
fn privcount_reports_are_shard_count_invariant() {
    let ids = ["T1", "F1", "F2", "T4"];
    let base = rendered(&run_some(
        &Deployment::at_scale(1e-4, 901).with_shards(1),
        &ids,
    ));
    for k in SHARD_COUNTS {
        let got = rendered(&run_some(
            &Deployment::at_scale(1e-4, 901).with_shards(k),
            &ids,
        ));
        assert_eq!(base, got, "PrivCount reports changed at K={k}");
    }

    // One generator per DC vs the same events as K-shard streams:
    // identical noisy totals.
    let cfg = || privcount::RoundConfig {
        counters: vec![privcount::CounterSpec::with_sigma("connections", 25.0)],
        mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
            if matches!(ev, TorEvent::EntryConnection { .. }) {
                counts[0] += 1;
            }
        }),
        num_sks: 3,
        noise: privcount::round::NoiseAllocation::Equal,
        seed: 903,
        faults: Default::default(),
        fabric: Default::default(),
        adversary: Default::default(),
        recorder: Default::default(),
    };
    let by_generator = privcount::run_round(cfg(), generators()).expect("round");
    assert_ne!(by_generator.totals, [1200], "noise must be drawn");
    for k in [1, 4] {
        let by_stream = privcount::run_round(cfg(), streams(k)).expect("round");
        assert_eq!(by_generator.totals, by_stream.totals, "K={k}");
    }
}

/// Layer 3: a PSC experiment report (unique-count statistics through
/// the oblivious-table protocol) is bit-identical for K = 1 and K = 16
/// — the acceptance pair; intermediate counts are covered at the
/// accumulator level by `psc::shard` unit tests.
#[test]
fn psc_report_is_shard_count_invariant() {
    let run = |k| {
        rendered(&run_some(
            &Deployment::at_scale(1e-4, 902).with_shards(k),
            &["T2"],
        ))
    };
    assert_eq!(run(1), run(16), "PSC report changed between K=1 and K=16");

    // One generator per DC vs the same events as K-shard streams:
    // identical RawCount under noise.
    let cfg = || psc::PscConfig {
        table_size: 512,
        noise_flips_per_cp: 32,
        num_cps: 2,
        seed: 904,
        ..Default::default()
    };
    let extractor = psc::items::unique_client_ips;
    let by_generator = psc::run_psc_round(cfg(), extractor(), generators()).expect("round");
    assert_eq!(by_generator.raw.noise_total, 64);
    for k in [1, 4] {
        let by_stream = psc::run_psc_round(cfg(), extractor(), streams(k)).expect("round");
        assert_eq!(by_generator.raw, by_stream.raw, "K={k}");
    }
}

//! The per-layer ledger: one small measurement per layer primitive,
//! each a call into a layer's public functions wrapped in a span the
//! benchmark records itself (name, category = layer, parent = "ledger").
//! The numbers do not depend on the workload; every traced run repeats
//! them so a change to one layer shows next to the workload it moved.

use crate::clock::Stopwatch;
use crate::stats::{median, quantile};
use crate::workloads::{
    nproc, privcount_rounds, psc_round_rep, tor_day_plan, Rep, RepOutcome, Size,
};
use pm_crypto::batch::{FixedBasePowers, PrecomputedKey};
use pm_crypto::elgamal::{encrypt, keygen, partial_decrypt, rerandomize, Ciphertext};
use pm_crypto::group::GroupParams;
use pm_crypto::shuffle::{shuffle, ShuffleProof};
use pm_crypto::zkp::{DleqProof, Transcript};
use pm_net::{FabricChoice, FaultConfig, Frame, PartyId, WireShape};
use pm_obs::Recorder;
use pm_study::{Campaign, CampaignConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use torsim::churn::ChurnModel;
use torsim::full::{FullSim, FullSimConfig};
use torsim::geo::GeoDb;
use torsim::ids::RelayId;
use torsim::relay::Consensus;
use torsim::sites::{SiteList, SiteListConfig};
use torsim::stream::StreamSim;
use torsim::timeline::{NetworkTimeline, TimelineConfig};
use torstudy::deployment::Deployment;
use torstudy::runner::{plan_schedule, run_plan};

/// Layer metric name → value, in the unit the catalogue gives.
pub type Metrics = BTreeMap<&'static str, f64>;

struct Ledger<'a> {
    rec: &'a Recorder,
    size: Size,
    out: Metrics,
}

impl Ledger<'_> {
    /// Runs `f` in `spans` spans of `batch` calls each and returns the
    /// median seconds per call. A span must last well over the clock's
    /// microsecond, so fast calls are batched.
    fn time(
        &self,
        name: &'static str,
        layer: &'static str,
        spans: usize,
        batch: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        // The smoke pass only proves the call runs.
        let spans = self.pick(spans, 1);
        let per_call: Vec<f64> = (0..spans)
            .map(|_| {
                let mut span = self.rec.span(name, layer);
                span.note("parent", "ledger");
                span.note("batch", batch);
                let watch = Stopwatch::start();
                for _ in 0..batch {
                    f();
                }
                watch.seconds() / batch as f64
            })
            .collect();
        median(&per_call)
    }

    /// Runs one prepared rep of a workload-shaped measurement in a span.
    fn rep(&self, name: &'static str, layer: &'static str, rep: Rep) -> RepOutcome {
        let mut span = self.rec.span(name, layer);
        span.note("parent", "ledger");
        let out = rep();
        assert_eq!(out.failed, 0, "{name}: a ledger round failed");
        out
    }

    fn pick<T>(&self, full: T, smoke: T) -> T {
        self.size.pick(full, smoke)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }
}

/// Measures every workload-independent layer metric.
pub fn run(seed: u64, size: Size, rec: &Recorder) -> Metrics {
    let mut l = Ledger {
        rec,
        size,
        out: Metrics::new(),
    };
    dp(&mut l);
    crypto(&mut l, seed);
    let (sim, truth) = stream_sim(seed);
    psc_layer(&mut l, seed, &sim, &truth);
    privcount_and_torsim(&mut l, seed, &sim, &truth);
    net(&mut l, seed);
    stats_layer(&mut l);
    core_and_study(&mut l, seed);
    obs(&mut l);
    l.out
}

fn dp(l: &mut Ledger) {
    // The calibration every PSC round builder calls; k is the round's
    // sensitivity: at most 4 per day for client IPs and countries, 6
    // for the onion window, 40 for the two-day exit-domain window. k20
    // is a point on the cost curve between them.
    for (name, span, k, spans) in [
        ("dp.binomial_flips_ms.k1", "dp.binomial_flips.k1", 1, 5),
        ("dp.binomial_flips_ms.k4", "dp.binomial_flips.k4", 4, 3),
        (
            "dp.binomial_flips_ms.k20",
            "dp.binomial_flips.k20",
            l.pick(20, 2),
            1,
        ),
        (
            "dp.binomial_flips_ms.k40",
            "dp.binomial_flips.k40",
            l.pick(40, 3),
            1,
        ),
    ] {
        let s = l.time(span, "dp", spans, 1, || {
            black_box(pm_dp::mechanism::binomial_flips_for(
                black_box(k),
                0.3,
                1e-6,
            ));
        });
        l.put(name, s * 1e3);
    }
    let s = l.time("dp.plan_schedule", "dp", 9, 50, || {
        black_box(plan_schedule());
    });
    l.put("dp.plan_us", s * 1e6);
}

fn encrypted_cells(
    gp: &GroupParams,
    pk: &PrecomputedKey,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Ciphertext> {
    (0..n)
        .map(|_| {
            let m = gp.random_element(rng);
            pk.encrypt_with(gp, &m, &gp.random_scalar(rng))
        })
        .collect()
}

fn crypto(l: &mut Ledger, seed: u64) {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(seed);
    let kp = keygen(&gp, &mut rng);
    let x = gp.random_scalar(&mut rng);
    let a = gp.random_element(&mut rng);
    let m = gp.random_element(&mut rng);
    let ct = encrypt(&gp, &kp.public, &m, &mut rng);

    let s = l.time("crypto.modexp", "crypto", 9, 200, || {
        black_box(gp.pow(black_box(&a), black_box(&x)));
    });
    l.put("crypto.modexp_us", s * 1e6);
    let table = FixedBasePowers::new(&gp, &a);
    let s = l.time("crypto.fixed_base_pow", "crypto", 9, 200, || {
        black_box(table.pow(&gp, black_box(&x)));
    });
    l.put("crypto.fixed_base_pow_us", s * 1e6);
    let s = l.time("crypto.encrypt", "crypto", 9, 100, || {
        black_box(encrypt(&gp, &kp.public, black_box(&m), &mut rng));
    });
    l.put("crypto.encrypt_us", s * 1e6);
    let s = l.time("crypto.rerandomize", "crypto", 9, 100, || {
        black_box(rerandomize(&gp, &kp.public, black_box(&ct), &mut rng));
    });
    l.put("crypto.rerandomize_us", s * 1e6);
    let s = l.time("crypto.partial_decrypt", "crypto", 9, 200, || {
        black_box(partial_decrypt(&gp, &kp.secret, black_box(&ct)));
    });
    l.put("crypto.partial_decrypt_us", s * 1e6);

    let y = gp.g_pow(&x);
    let d = gp.pow(&a, &x);
    let s = l.time("crypto.dleq_prove", "crypto", 9, 50, || {
        black_box(DleqProof::prove(
            &gp,
            &x,
            &a,
            &y,
            &d,
            &mut Transcript::new(b"perf"),
            &mut rng,
        ));
    });
    l.put("crypto.dleq_prove_us", s * 1e6);
    let proof = DleqProof::prove(&gp, &x, &a, &y, &d, &mut Transcript::new(b"perf"), &mut rng);
    let s = l.time("crypto.dleq_verify", "crypto", 9, 50, || {
        assert!(proof.verify(&gp, &a, &y, &d, &mut Transcript::new(b"perf")));
    });
    l.put("crypto.dleq_verify_us", s * 1e6);

    let pk = PrecomputedKey::new(&gp, &kp.public);
    let cells = encrypted_cells(&gp, &pk, l.pick(256, 8), &mut rng);
    let (shuffled, witness) = shuffle(&gp, &kp.public, &cells, &mut rng);
    let rounds = psc::cp::SHUFFLE_ROUNDS;
    let mut proof = None;
    let s = l.time("crypto.shuffle_prove.b256", "crypto", 1, 1, || {
        proof = Some(ShuffleProof::prove(
            &gp, &kp.public, &cells, &shuffled, &witness, rounds, &mut rng,
        ));
    });
    l.put("crypto.shuffle_prove_ms.b256", s * 1e3);
    let proof = proof.expect("proved once");
    let s = l.time("crypto.shuffle_verify.b256", "crypto", 1, 1, || {
        assert!(proof.verify(&gp, &kp.public, &cells, &shuffled));
    });
    l.put("crypto.shuffle_verify_ms.b256", s * 1e3);

    let mib = vec![0xabu8; 1 << 20];
    let s = l.time("crypto.sha256.1MiB", "crypto", 9, 2, || {
        black_box(pm_crypto::sha256::sha256(black_box(&mib)));
    });
    l.put("crypto.sha256_MBps", 1.048_576 / s);
}

/// A fixed small site universe.
fn sites_cfg(seed: u64) -> SiteListConfig {
    SiteListConfig {
        alexa_size: 20_000,
        long_tail_size: 50_000,
        seed,
    }
}

/// A simulator over [`sites_cfg`], one relay.
fn stream_sim(seed: u64) -> (StreamSim, torsim::workload::Workload) {
    let sites = Arc::new(SiteList::new(sites_cfg(seed)));
    let geo = Arc::new(GeoDb::paper_default());
    (
        StreamSim::new(sites, geo, vec![RelayId(0)], seed),
        torsim::workload::Workload::paper_default(),
    )
}

fn psc_layer(l: &mut Ledger, seed: u64, sim: &StreamSim, w: &torsim::workload::Workload) {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9c);
    let kp = keygen(&gp, &mut rng);
    let pk = PrecomputedKey::new(&gp, &kp.public);
    let n = nproc();

    // One CP mixing hop, verification off, 1 thread and every core.
    let b = l.pick(1024, 32);
    let cells = encrypted_cells(&gp, &pk, b, &mut rng);
    for (name, span, threads) in [
        ("psc.mix.cells_per_s.b1024.t1", "psc.mix.b1024.t1", 1),
        ("psc.mix.cells_per_s.b1024.tN", "psc.mix.b1024.tN", n),
    ] {
        let s = l.time(span, "psc", 7, 1, || {
            let mut cp_rng = StdRng::seed_from_u64(7);
            black_box(psc::cp::mix_message_batched(
                &gp,
                &kp.public,
                16,
                false,
                cells.clone(),
                &mut cp_rng,
                threads,
            ));
        });
        l.put(name, b as f64 / s);
    }
    // The same hop with every proof generated (the verified path).
    let s = l.time("psc.mix_verified.b128", "psc", 1, 1, || {
        let mut cp_rng = StdRng::seed_from_u64(7);
        black_box(psc::cp::mix_message_batched(
            &gp,
            &kp.public,
            16,
            true,
            cells[..b / 8].to_vec(),
            &mut cp_rng,
            n,
        ));
    });
    l.put("psc.mix_verified.cells_per_s.b128", (b / 8) as f64 / s);

    // The DC's merge step: marking occupied cells into the table.
    let s = l.time("psc.mark.c256", "psc", 7, 1, || {
        let mut table = psc::ObliviousTable::new(gp, kp.public, [2u8; 32], 1024);
        table.mark_cells((0..1024).step_by(4), &mut rng);
        black_box(table.cells().len());
    });
    l.put("psc.mark.cells_per_s", 256.0 / s);

    // Crypto-free shard accumulation of a client-IP stream.
    let extractor = psc::items::unique_client_ips();
    let mut items = 0u64;
    sim.client_ips(&w.clients, 0.03, 1e-2, 0, 1, "perf/count")
        .for_each(|_| items += 1);
    for (name, span, shards) in [
        ("psc.accumulate.items_per_s.s1", "psc.accumulate.s1", 1),
        ("psc.accumulate.items_per_s.sN", "psc.accumulate.sN", n),
    ] {
        let s = l.time(span, "psc", 7, 1, || {
            let stream = sim.client_ips(&w.clients, 0.03, 1e-2, 0, shards, "perf/acc");
            black_box(psc::shard::accumulate_stream(
                stream,
                &extractor,
                &[2u8; 32],
                1 << 14,
            ));
        });
        l.put(name, items as f64 / s);
    }

    // One whole unverified round at the campaign's typical table size.
    let out = l.rep(
        "psc.round.b2048",
        "psc",
        psc_round_rep(l.pick(2048, 64), false, seed, &Recorder::new()),
    );
    l.put("psc.round_ms.b2048", out.wall_s * 1e3);
}

fn privcount_and_torsim(
    l: &mut Ledger,
    seed: u64,
    sim: &StreamSim,
    w: &torsim::workload::Workload,
) {
    let n = nproc();
    let s = l.time("torsim.sites_build", "torsim", 7, 1, || {
        black_box(SiteList::new(sites_cfg(seed)));
    });
    l.put("torsim.sites_build_ms", s * 1e3);

    let scale = l.pick(2e-2, 1e-4);
    let exit =
        |shards: usize, label: &str| sim.exit_streams(&w.exit, 0.015, scale, false, shards, label);
    let mut exit_events = 0u64;
    let s = l.time("torsim.exit_streams", "torsim", 7, 1, || {
        exit_events = 0;
        exit(1, "perf/exit").for_each(|_| exit_events += 1);
    });
    l.put("torsim.exit_streams.events_per_s", exit_events as f64 / s);
    let mut ip_events = 0u64;
    let s = l.time("torsim.client_ips", "torsim", 7, 1, || {
        ip_events = 0;
        sim.client_ips(&w.clients, 0.03, 1e-2, 0, 1, "perf/ips")
            .for_each(|_| ip_events += 1);
    });
    l.put("torsim.client_ips.events_per_s", ip_events as f64 / s);
    let mut hs_events = 0u64;
    let s = l.time("torsim.hs_streams", "torsim", 7, 1, || {
        hs_events = 0;
        sim.rendezvous(&w.onion, 0.0088, 2e-2, 1, "perf/hs")
            .for_each(|_| hs_events += 1);
    });
    l.put("torsim.hs_streams.events_per_s", hs_events as f64 / s);

    // Shard-parallel ingestion of the same exit stream into PrivCount
    // counters, one shard and one per core.
    let schema = privcount::queries::exit_streams(0.3, 1e-11);
    for (name, span, shards) in [
        ("privcount.ingest.events_per_s.s1", "privcount.ingest.s1", 1),
        ("privcount.ingest.events_per_s.sN", "privcount.ingest.sN", n),
    ] {
        let s = l.time(span, "privcount", 7, 1, || {
            black_box(privcount::shard::ingest_stream(
                exit(shards, "perf/ingest"),
                &schema,
            ));
        });
        l.put(name, exit_events as f64 / s);
    }

    // One full-mode day: 20 k clients with real path selection.
    let consensus = Arc::new(Consensus::paper_deployment(400, 0.05, 0.04, 0.04));
    let full = FullSim::new(
        consensus,
        Arc::new(SiteList::new(sites_cfg(seed))),
        Arc::new(GeoDb::paper_default()),
        FullSimConfig {
            clients: l.pick(20_000, 200),
            seed,
            ..Default::default()
        },
    );
    let mix = torsim::workload::DomainMix::paper_default();
    let mut full_events = 0u64;
    let s = l.time("torsim.fullsim_day.c20k", "torsim", 1, 1, || {
        full.stream_day(&mix, 1).0.for_each(|_| full_events += 1);
    });
    l.put("torsim.fullsim_day.events_per_s", full_events as f64 / s);

    // A year of consensus snapshots through the diff cursor.
    let days = l.pick(366, 20);
    let s = l.time("torsim.timeline.sweep365", "torsim", 3, 1, || {
        let t = NetworkTimeline::new(
            TimelineConfig::paper_default(seed),
            ChurnModel::new(2_000, 760, seed ^ 0xC1),
            30,
            Arc::new(GeoDb::paper_default()),
        );
        for d in 0..days {
            black_box(t.snapshot(d).consensus.relays().len());
        }
    });
    l.put("torsim.timeline.sweep_us_per_day", s * 1e6 / days as f64);

    // 14-party PrivCount rounds on the in-process fabric: what
    // wire_rounds would cost with a free network.
    let out = l.rep(
        "privcount.rounds.p14",
        "privcount",
        privcount_rounds(l.pick(20, 3), FabricChoice::PerLink, seed, &Recorder::new()),
    );
    l.put("privcount.round_ms.p14", median(&out.round_ms));
}

fn party(i: usize) -> PartyId {
    PartyId::new(format!("p{i}"))
}

fn threads_now() -> f64 {
    crate::proc::status_field("Threads:").unwrap_or(0) as f64
}

fn net(l: &mut Ledger, seed: u64) {
    let backends: [(FabricChoice, [&'static str; 2], [&'static str; 2]); 2] = [
        (
            FabricChoice::PerLink,
            ["net.per-link.small_frames_per_s", "net.per-link.bulk_MBps"],
            ["net.per-link.small", "net.per-link.bulk"],
        ),
        (
            FabricChoice::Wire(WireShape::default()),
            ["net.wire.small_frames_per_s", "net.wire.bulk_MBps"],
            ["net.wire.small", "net.wire.bulk"],
        ),
    ];
    for (choice, names, spans) in backends {
        // Many small frames: 13 senders fan 64-byte frames in to one
        // receiver (the PrivCount shape).
        const PER_SENDER: usize = 200;
        let s = l.time(spans[0], "net", 7, 1, || {
            let fabric = choice.build(FaultConfig::none());
            let sink = fabric.register(party(0));
            let senders: Vec<_> = (1..14).map(|i| fabric.register(party(i))).collect();
            let frame = Frame::new(1, bytes::Bytes::from(vec![7u8; 64]));
            for _ in 0..PER_SENDER {
                for ep in &senders {
                    ep.send(sink.id(), frame.clone()).expect("send");
                }
            }
            for _ in 0..PER_SENDER * senders.len() {
                black_box(sink.recv().expect("recv"));
            }
        });
        l.put(names[0], (PER_SENDER * 13) as f64 / s);

        // Few large frames: 1 MiB ping-pong between two parties (the
        // PSC shape: a 7-day campaign moves 60 frames, 18 MB).
        const TRIPS: usize = 4;
        let s = l.time(spans[1], "net", 7, 1, || {
            let fabric = choice.build(FaultConfig::none());
            let a = fabric.register(party(0));
            let b = fabric.register(party(1));
            let frame = Frame::new(2, bytes::Bytes::from(vec![9u8; 1 << 20]));
            for _ in 0..TRIPS {
                a.send(b.id(), frame.clone()).expect("send");
                let got = b.recv().expect("recv");
                b.send(a.id(), got.frame).expect("send");
                black_box(a.recv().expect("recv"));
            }
        });
        l.put(names[1], (2 * TRIPS) as f64 * 1.048_576 / s);
    }

    // Bringing up a 14-party wire mesh: listeners, then one dial per
    // ordered link (182), each proven by a delivered frame. Threads of
    // earlier fabrics exit on their own time, so wait for the count to
    // settle before reading how many the first mesh adds.
    let mut settled = threads_now();
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let now = threads_now();
        if now == settled {
            break;
        }
        settled = now;
    }
    let mut threads = None;
    let s = l.time("net.wire.setup.p14", "net", 3, 1, || {
        let fabric = FabricChoice::Wire(WireShape::default()).build(FaultConfig::none());
        let eps: Vec<_> = (0..14).map(|i| fabric.register(party(i))).collect();
        let frame = Frame::new(3, bytes::Bytes::from_static(b"hi"));
        for from in &eps {
            for to in &eps {
                if from.id() != to.id() {
                    from.send(to.id(), frame.clone()).expect("send");
                }
            }
        }
        for ep in &eps {
            for _ in 0..13 {
                black_box(ep.recv().expect("recv"));
            }
        }
        threads.get_or_insert(threads_now() - settled);
    });
    l.put("net.wire.setup_ms.p14", s * 1e3);
    l.put("net.wire.threads.p14", threads.unwrap_or(0.0));

    // Per-round latency over the wire: 200 rounds, so p95 has ten
    // samples beyond it.
    let wire = FabricChoice::Wire(WireShape::default());
    let out = l.rep(
        "net.wire.rounds.p14",
        "net",
        privcount_rounds(l.pick(200, 3), wire, seed, &Recorder::new()),
    );
    l.put("net.wire.round_ms_p50", median(&out.round_ms));
    l.put("net.wire.round_ms_p95", quantile(&out.round_ms, 0.95));

    let frame = Frame::new(4, bytes::Bytes::from(vec![5u8; 64 << 10]));
    let s = l.time("net.frame.codec.64KiB", "net", 9, 20, || {
        black_box(Frame::from_wire(black_box(&frame).to_wire()).expect("round trip"));
    });
    l.put("net.frame.codec_MBps", 0.065_536 / s);
}

fn stats_layer(l: &mut Ledger) {
    // A quarter-full table plus 3 x 64 noise flips, as a round publishes.
    for (name, span, bins, spans) in [
        (
            "stats.psc_ci_ms.b4096",
            "stats.psc_ci.b4096",
            l.pick(4096u64, 256),
            3,
        ),
        (
            "stats.psc_ci_ms.b65536",
            "stats.psc_ci.b65536",
            l.pick(65536, 512),
            1,
        ),
    ] {
        let s = l.time(span, "stats", spans, 1, || {
            black_box(pm_stats::psc_ci::psc_confidence_interval(
                black_box(bins),
                (bins / 4 + 96) as i64,
                192,
                0.95,
            ));
        });
        l.put(name, s * 1e3);
    }
}

fn core_and_study(l: &mut Ledger, seed: u64) {
    let s = l.time("core.deployment_setup", "core", 7, 1, || {
        black_box(Deployment::at_scale(0.1, seed));
    });
    l.put("core.deployment_setup_ms", s * 1e3);

    // The tor_day plan on one worker and on every core, at a fifth of
    // the workload's volume.
    let dep = Deployment::at_scale(l.pick(0.02, 2e-3), seed);
    for (name, span, workers) in [
        ("core.run_plan.seq_s", "core.run_plan.seq", 1),
        ("core.run_plan.par_s", "core.run_plan.par", nproc()),
    ] {
        let s = l.time(span, "core", 1, 1, || {
            black_box(run_plan(&dep, tor_day_plan(), workers));
        });
        l.put(name, s);
    }

    let s = l.time("study.campaign_new", "study", 7, 1, || {
        black_box(
            Campaign::new(CampaignConfig::new(17, 2e-4, seed))
                .rounds()
                .len(),
        );
    });
    l.put("study.campaign_new_ms", s * 1e3);
    let report = Campaign::new(CampaignConfig::new(2, 1e-4, seed)).run(nproc());
    let s = l.time("study.render", "study", 7, 10, || {
        black_box(report.render_text());
        black_box(report.render_csv());
        black_box(report.render_json());
    });
    l.put("study.render_ms", s * 1e3);
}

fn obs(l: &mut Ledger) {
    // What threading a Recorder through every layer costs per call when
    // profiling is off.
    let inert = Recorder::new();
    let s = l.time(
        "obs.inert_span",
        "obs",
        7,
        l.pick(1_000_000, 10_000),
        || {
            drop(black_box(inert.span("perf.probe", "obs")));
        },
    );
    l.put("obs.inert_span_ns", s * 1e9);
    let s = l.time("obs.counter_add", "obs", 7, 100_000, || {
        inert.add(black_box("perf.probe"), 1);
    });
    l.put("obs.counter_add_ns", s * 1e9);
}

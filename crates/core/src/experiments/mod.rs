//! One module per reproduced table/figure.
//!
//! Every experiment follows the same shape: build the event generators
//! from the deployment's ground truth and the measurement date's weight
//! fraction, run the real PrivCount or PSC protocol, apply §3.3's
//! inference, and emit a [`crate::report::Report`] comparing measured,
//! ground truth, and paper values.

pub mod extras;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod tab1;
pub mod tab2;
pub mod tab3;
pub mod tab4;
pub mod tab5;
pub mod tab6;
pub mod tab7;
pub mod tab8;

use crate::deployment::{Deployment, MAX_CONCURRENT_PSC_ROUNDS, NUM_CPS, NUM_SKS};
use pm_dp::bounds::Sensitivity;
use pm_stats::sampling::derive_seed;
use std::sync::Arc;
use torsim::ids::RelayId;
use torsim::stream::{EventStream, StreamSim};

/// A [`StreamSim`] attributing one DC's events to its relay, seeded for
/// the experiment.
fn dc_stream_sim(dep: &Deployment, relay: u32, label: &str) -> StreamSim {
    StreamSim::new(
        Arc::clone(&dep.sites),
        Arc::clone(&dep.geo),
        vec![RelayId(relay)],
        derive_seed(dep.seed, label),
    )
}

/// One stream per DC: DC `i` is attributed to relay `first_relay + i`
/// and seeded by `"{label}/dc{i}"`; `build` draws its stream from that
/// DC's simulator under that label. Streams are deferred, so the
/// `gen.streams` span covers only what construction does eagerly —
/// sampling tables — and a table rebuilt per stream shows up there.
fn per_dc(
    dep: &Deployment,
    first_relay: u32,
    num_dcs: usize,
    label: &str,
    build: impl Fn(&StreamSim, &str) -> EventStream,
) -> Vec<EventStream> {
    let mut span = dep.recorder.span("gen.streams", "torsim");
    span.note("dcs", num_dcs);
    span.note("label", label);
    (0..num_dcs)
        .map(|i| {
            let label = format!("{label}/dc{i}");
            build(&dc_stream_sim(dep, first_relay + i as u32, &label), &label)
        })
        .collect()
}

/// Builds one exit-stream event stream per DC; each DC carries an equal
/// slice of the measuring set's weight and ingests `dep.shards` shards
/// in parallel.
pub(crate) fn exit_streams(
    dep: &Deployment,
    fraction: f64,
    only_initial: bool,
    num_dcs: usize,
    label: &str,
) -> Vec<EventStream> {
    let share = fraction / num_dcs as f64;
    per_dc(dep, 0, num_dcs, label, |sim, label| {
        sim.exit_streams(
            &dep.workload.exit,
            share,
            dep.scale,
            only_initial,
            dep.shards,
            label,
        )
    })
}

/// Builds client-traffic streams (connections/circuits/bytes), one per
/// DC.
pub fn client_traffic_streams(
    dep: &Deployment,
    fraction: f64,
    num_dcs: usize,
    label: &str,
) -> Vec<EventStream> {
    client_traffic(dep, fraction, true, num_dcs, label)
}

/// [`client_traffic_streams`], skipping circuits unless `circuits` is
/// set — for rounds that never read them.
pub(crate) fn client_traffic(
    dep: &Deployment,
    fraction: f64,
    circuits: bool,
    num_dcs: usize,
    label: &str,
) -> Vec<EventStream> {
    let share = fraction / num_dcs as f64;
    per_dc(dep, 6, num_dcs, label, |sim, label| {
        sim.client_traffic(
            &dep.workload.clients,
            share,
            dep.scale,
            circuits,
            dep.shards,
            label,
        )
    })
}

/// Builds the unique-client-IP pool stream for a day (PSC measurements
/// split the pool across DCs internally; union semantics make the split
/// irrelevant).
pub fn client_ip_stream(dep: &Deployment, observe_prob: f64, day: u64, label: &str) -> EventStream {
    dc_stream_sim(dep, 6, label).client_ips(
        &dep.workload.clients,
        observe_prob,
        dep.scale,
        day,
        dep.shards,
        label,
    )
}

/// Builds the HSDir publish stream.
pub(crate) fn publish_stream(dep: &Deployment, observe_prob: f64, label: &str) -> EventStream {
    dc_stream_sim(dep, 6, label).hsdir_publishes(
        &dep.workload.onion,
        observe_prob,
        dep.scale,
        dep.shards,
        label,
    )
}

/// Builds HSDir fetch streams, one per DC.
pub(crate) fn fetch_streams(
    dep: &Deployment,
    event_fraction: f64,
    addr_observe_prob: f64,
    num_dcs: usize,
    label: &str,
) -> Vec<EventStream> {
    // Events split across DCs; each DC keeps the full address-level
    // observation probability so the success stream is never starved
    // (address identity across DCs only matters for PSC uniqueness
    // rounds, which use num_dcs = 1).
    let share = event_fraction / num_dcs as f64;
    per_dc(dep, 6, num_dcs, label, |sim, label| {
        sim.hsdir_fetches(
            &dep.workload.onion,
            share,
            addr_observe_prob,
            dep.scale,
            dep.shards,
            label,
        )
    })
}

/// Builds rendezvous streams, one per DC.
pub(crate) fn rend_streams(
    dep: &Deployment,
    fraction: f64,
    num_dcs: usize,
    label: &str,
) -> Vec<EventStream> {
    let share = fraction / num_dcs as f64;
    per_dc(dep, 6, num_dcs, label, |sim, label| {
        sim.rendezvous(&dep.workload.onion, share, dep.scale, dep.shards, label)
    })
}

/// Default PrivCount round config for a deployment.
pub fn privcount_round(
    dep: &Deployment,
    schema: privcount::counter::Schema,
    label: &str,
) -> privcount::round::RoundConfig {
    privcount::round::RoundConfig {
        counters: dep.scaled_specs(schema.counters),
        mapper: schema.mapper,
        num_sks: NUM_SKS,
        noise: privcount::round::NoiseAllocation::Equal,
        seed: derive_seed(dep.seed, label),
        faults: pm_net::transport::FaultConfig::none(),
        fabric: dep.fabric,
        adversary: privcount::adversary::Attack::None,
        recorder: dep.recorder.clone(),
    }
}

/// Default PSC round config for a deployment. `expected_unique` sizes
/// the table (4× the expectation keeps collision corrections small);
/// `sensitivity`, the round's Table 1 action over its days, calibrates
/// the per-CP binomial noise.
pub fn psc_round(
    dep: &Deployment,
    expected_unique: f64,
    sensitivity: Sensitivity,
    label: &str,
) -> psc::round::PscConfig {
    let sensitivity = sensitivity.value() as u64;
    let table_size = ((expected_unique * 4.0) as u32)
        .next_power_of_two()
        .max(256);
    // Each honest CP's noise must alone satisfy (ε, δ); the calibration
    // uses the paper's ε with a practical δ for the binomial mechanism.
    // Like the Gaussian σ, the noise shrinks with the deployment scale:
    // each synthetic user stands for 1/scale real users, so per-user
    // sensitivity (and thus flips, which grow as k²) scales by scale².
    let mut calibrate_span = dep.recorder.span("dp.calibrate", "dp");
    calibrate_span.note("k", sensitivity);
    let full = pm_dp::mechanism::binomial_flips_for(sensitivity, dep.eps(), 1e-6);
    calibrate_span.note("flips", full);
    drop(calibrate_span);
    let flips = ((full as f64 * dep.scale * dep.scale).ceil() as u32).max(16);
    // Batch-phase threads share the machine with up to
    // `MAX_CONCURRENT_PSC_ROUNDS` sibling rounds under the parallel
    // runner; splitting the parallelism between them avoids
    // oversubscription without changing a single transcript byte.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mix_threads = (cores / MAX_CONCURRENT_PSC_ROUNDS).max(1);
    psc::round::PscConfig {
        table_size,
        noise_flips_per_cp: flips,
        num_cps: NUM_CPS,
        verify: false,
        seed: derive_seed(dep.seed, label),
        faults: pm_net::transport::FaultConfig::none(),
        fabric: dep.fabric,
        mix: psc::cp::MixStrategy::Batched {
            threads: mix_threads,
        },
        recorder: dep.recorder.clone(),
        ..Default::default()
    }
}

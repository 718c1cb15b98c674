//! Sampled-observation generation: the paper-scale mode's kernels.
//!
//! Given a ground-truth [`Workload`](crate::workload::Workload) and the
//! instrumented relays' observation fractions, these generators emit
//! exactly the events the instrumented relays would see — a
//! Poisson/binomial thinning of the network-wide truth. That preserves
//! the measured semantics because every estimator consumes only
//! observed events plus the observation fraction, and both are
//! reproduced faithfully here.
//!
//! The kernels are crate-private methods on [`StreamSim`]: each draws
//! one partition's slice of a mean-split source, or a replayed source's
//! whole base sequence, from the RNG it is handed. [`crate::stream`]
//! owns seeding and sharding and is the only caller; its six
//! `StreamSim` builders are the public surface.
//!
//! All generators take a `scale` in (0, 1]: totals are multiplied by it
//! so tests can run the identical pipeline at 1/1000 scale. Experiments
//! record the scale and rescale inferred totals when comparing with the
//! paper.

use crate::events::{AddrKind, DescFetchOutcome, PortClass, RendOutcome, TorEvent};
use crate::geo::GeoDb;
use crate::ids::{CountryCode, IpAddr, OnionAddr, RelayId};
use crate::stream::StreamSim;
use crate::workload::{ClientTruth, DomainSampler, ExitTruth, OnionTruth};
use pm_dp::mechanism::sample_gaussian;
use pm_stats::sampling::{AliasTable, ZipfSampler};
use rand::Rng;

/// Pre-built per-country sampling tables for the client-traffic
/// kernel: the expensive setup (three alias tables over ~250
/// countries), built once per stream and shared across partitions.
/// Table index `i` is [`GeoDb`] block `i`.
pub(crate) struct ClientTrafficTables {
    conn_alias: AliasTable,
    circ_alias: AliasTable,
    byte_alias: AliasTable,
}

impl ClientTrafficTables {
    /// Builds the samplers for the three statistics.
    pub(crate) fn new(geo: &GeoDb, truth: &ClientTruth) -> ClientTrafficTables {
        let countries: Vec<CountryCode> = geo.countries().collect();
        let conn_w: Vec<f64> = countries.iter().map(|c| geo.share(*c)).collect();
        let boost = |boosts: &[(CountryCode, f64)], c: CountryCode| -> f64 {
            boosts
                .iter()
                .find(|(bc, _)| *bc == c)
                .map(|(_, m)| *m)
                .unwrap_or(1.0)
        };
        let circ_w: Vec<f64> = countries
            .iter()
            .zip(&conn_w)
            .map(|(c, w)| w * boost(&truth.circuit_boost, *c))
            .collect();
        let byte_w: Vec<f64> = countries
            .iter()
            .zip(&conn_w)
            .map(|(c, w)| w * boost(&truth.byte_boost, *c))
            .collect();
        ClientTrafficTables {
            conn_alias: AliasTable::new(&conn_w),
            circ_alias: AliasTable::new(&circ_w),
            byte_alias: AliasTable::new(&byte_w),
        }
    }
}

/// Draws a Poisson(mean) count. Means ≥ 50 use the normal
/// approximation, whose error is negligible at that size — the stream
/// sources call it with means in the thousands. Smaller means — e.g.
/// the timeline's daily relay-join process at `relay_joins_per_day`
/// ≈ a dozen — take Knuth's exact inversion method, so small-count
/// draws follow the true Poisson distribution (skew, P(0), integer
/// support) rather than a rounded Gaussian.
pub fn poisson_approx<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 50.0 {
        // Knuth's method for small means.
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    let draw = mean + mean.sqrt() * sample_gaussian(1.0, rng);
    draw.max(0.0).round() as u64
}

/// Draws Binomial(n, p) via normal approximation with exact fallback
/// for small n.
pub fn binomial_approx<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!((0.0..=1.0).contains(&p));
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 1024 || mean < 50.0 || (n as f64 * (1.0 - p)) < 50.0 {
        let mut k = 0u64;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                k += 1;
            }
        }
        return k;
    }
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    let draw = mean + sd * sample_gaussian(1.0, rng);
    draw.clamp(0.0, n as f64).round() as u64
}

/// Whether a synthetic onion address is in the public (ahmia-like)
/// index, matching the parity scheme of the HSDir fetch generator.
pub fn is_public_address(addr_index: u64) -> bool {
    addr_index.is_multiple_of(2) && addr_index < 1_000_000_000
}

/// One fetch stream's shared state: the observed-address support and
/// the popularity tables the kernel draws from. A stream builds it
/// once — the support from its dedicated support RNG, the tables from
/// the truth alone — and shares it across partitions.
pub(crate) struct FetchSupport {
    /// Which of the network's fetched addresses have one of our relays
    /// in their responsible HSDir set.
    observed: Vec<u64>,
    /// Fetch popularity over `observed`; `None` when it is empty.
    popularity: Option<ZipfSampler>,
    /// Popularity over the outdated bot list driving NotFound failures.
    stale: ZipfSampler,
}

/// Draws the observed-address support for fetch generation
/// (`addr_observe_prob` is `1 − (1−w)^6` for v2) and builds the Zipf
/// tables over it and over the stale list.
pub(crate) fn fetch_support<R: Rng + ?Sized>(
    truth: &OnionTruth,
    addr_observe_prob: f64,
    scale: f64,
    rng: &mut R,
) -> FetchSupport {
    let universe = (truth.fetched_addresses as f64 * scale) as u64;
    let mut observed: Vec<u64> = Vec::new();
    for idx in 0..universe {
        if rng.gen::<f64>() < addr_observe_prob {
            observed.push(idx);
        }
    }
    let stale = (truth.stale_list_size as f64 * scale).max(16.0) as usize;
    FetchSupport {
        popularity: (!observed.is_empty())
            .then(|| ZipfSampler::new(observed.len(), truth.fetch_popularity_zipf)),
        stale: ZipfSampler::new(stale, 0.8),
        observed,
    }
}

impl StreamSim {
    /// Events are attributed to the instrumented relays round-robin.
    fn relay_for(&self, i: u64) -> RelayId {
        self.relays[(i % self.relays.len() as u64) as usize]
    }

    /// Generates exit-stream events observed at `fraction` of exit
    /// weight. When `only_initial` is set, subsequent (non-initial)
    /// streams are skipped — used by domain experiments that never read
    /// them (the full Figure 1 run keeps them). `sampler` must have been
    /// built over `self.sites`.
    #[allow(clippy::too_many_arguments)] // one partition's parameters plus the shared sampler
    pub(crate) fn exit_streams_part<R: Rng + ?Sized>(
        &self,
        sampler: &DomainSampler,
        truth: &ExitTruth,
        fraction: f64,
        scale: f64,
        only_initial: bool,
        rng: &mut R,
        mut f: impl FnMut(TorEvent),
    ) {
        let total = truth.streams_per_day * fraction * scale;
        let initial_total = poisson_approx(total * truth.initial_fraction, rng);
        let subsequent_total = if only_initial {
            0
        } else {
            poisson_approx(total * (1.0 - truth.initial_fraction), rng)
        };
        for i in 0..subsequent_total {
            f(TorEvent::ExitStream {
                relay: self.relay_for(i),
                initial: false,
                addr: AddrKind::Hostname,
                port: PortClass::Web,
                domain: None, // subsequent streams are not classified
            });
        }
        for i in 0..initial_total {
            let u: f64 = rng.gen();
            let addr = if u < truth.ipv4_literal_fraction {
                AddrKind::Ipv4Literal
            } else if u < truth.ipv4_literal_fraction + truth.ipv6_literal_fraction {
                AddrKind::Ipv6Literal
            } else {
                AddrKind::Hostname
            };
            let port = if addr == AddrKind::Hostname && rng.gen::<f64>() < truth.other_port_fraction
            {
                PortClass::Other
            } else {
                PortClass::Web
            };
            let domain = if addr == AddrKind::Hostname && port == PortClass::Web {
                Some(sampler.sample(&self.sites, rng))
            } else {
                None
            };
            f(TorEvent::ExitStream {
                relay: self.relay_for(i),
                initial: true,
                addr,
                port,
                domain,
            });
        }
    }

    /// Generates entry-side traffic events (connections, circuits,
    /// bytes) for Table 4 and Figure 4. `fraction` is the guard
    /// selection probability of the instrumented relays. When `circuits`
    /// is unset, circuits are skipped — for rounds that never read them.
    /// They are drawn last, so every other event is unchanged.
    #[allow(clippy::too_many_arguments)] // one partition's parameters plus the shared tables
    pub(crate) fn client_traffic_part<R: Rng + ?Sized>(
        &self,
        tables: &ClientTrafficTables,
        truth: &ClientTruth,
        fraction: f64,
        scale: f64,
        circuits: bool,
        rng: &mut R,
        mut f: impl FnMut(TorEvent),
    ) {
        let ClientTrafficTables {
            conn_alias,
            circ_alias,
            byte_alias,
        } = tables;

        let n_conn = poisson_approx(truth.connections_per_day * fraction * scale, rng);
        let n_circ = poisson_approx(truth.circuits_per_day * fraction * scale, rng);
        let total_bytes = truth.bytes_per_day * fraction * scale;
        // Bytes are reported per connection; mean bytes/connection ≈ 3.7
        // MiB with heavy skew.
        let bytes_events = n_conn.max(1);
        let mean_bytes = total_bytes / bytes_events as f64;

        let sample_ip = |alias: &AliasTable, rng: &mut R| -> IpAddr {
            self.geo.sample_ip_in_block(alias.sample(rng), rng)
        };

        for i in 0..n_conn {
            let ip = sample_ip(conn_alias, rng);
            f(TorEvent::EntryConnection {
                relay: self.relay_for(i),
                client_ip: ip,
            });
            // Attach the byte report to the connection (as Tor does at
            // connection end), but with byte-weighted country so the
            // Figure 4 byte panel can differ from the connection panel.
            let bip = sample_ip(byte_alias, rng);
            // Log-normal-ish positive skew around the mean.
            let factor = (sample_gaussian(0.75, rng)).exp();
            let bytes = (mean_bytes * factor / 1.32) as u64; // E[e^N(0,.75²)]≈1.32
            f(TorEvent::EntryBytes {
                relay: self.relay_for(i),
                client_ip: bip,
                bytes,
            });
        }
        if !circuits {
            return;
        }
        for i in 0..n_circ {
            let ip = sample_ip(circ_alias, rng);
            f(TorEvent::EntryCircuit {
                relay: self.relay_for(i),
                client_ip: ip,
            });
        }
    }

    /// Generates entry connections carrying the *unique-IP pool* for the
    /// PSC client measurements (Tables 3 and 5). Each observed client IP
    /// appears in at least one connection event.
    ///
    /// `observe_prob` is `1 − (1−w)^g` for selective clients (computed
    /// by the caller from the relay subset's weight); promiscuous
    /// clients are always observed.
    pub(crate) fn client_ips_base<R: Rng + ?Sized>(
        &self,
        truth: &ClientTruth,
        observe_prob: f64,
        scale: f64,
        day: u64,
        rng: &mut R,
    ) -> Vec<TorEvent> {
        let mut events = Vec::new();
        let selective = (truth.selective_ips as f64 * scale) as u64;
        let promiscuous = (truth.promiscuous_ips as f64 * scale).ceil() as u64;
        let n_selective_observed = binomial_approx(selective, observe_prob, rng);
        let churn = crate::churn::ChurnModel::new(
            n_selective_observed.max(1),
            ((n_selective_observed as f64) * truth.daily_churn_fraction) as u64,
            0xC1A0 ^ (scale.to_bits()),
        );
        let mut i = 0u64;
        for ip in churn.ips_for_day(day, &self.geo) {
            events.push(TorEvent::EntryConnection {
                relay: self.relay_for(i),
                client_ip: ip,
            });
            i += 1;
        }
        // Promiscuous clients: stable IPs, always present.
        use rand::SeedableRng;
        for p in 0..promiscuous {
            let mut prng = rand::rngs::StdRng::seed_from_u64(0xBEEF ^ p);
            let ip = self.geo.sample_ip(&mut prng);
            events.push(TorEvent::EntryConnection {
                relay: self.relay_for(i + p),
                client_ip: ip,
            });
        }
        events
    }

    /// Generates HSDir descriptor-publish events (Table 6). The caller
    /// supplies the address-level observation probability (for v2
    /// publishes: `1 − (1−w)^2`, the replica-level extrapolation §6.1).
    pub(crate) fn hsdir_publishes_base<R: Rng + ?Sized>(
        &self,
        truth: &OnionTruth,
        observe_prob: f64,
        scale: f64,
        rng: &mut R,
    ) -> Vec<TorEvent> {
        let mut events = Vec::new();
        let universe = (truth.published_addresses as f64 * scale) as u64;
        let mut i = 0u64;
        for idx in 0..universe {
            if rng.gen::<f64>() >= observe_prob {
                continue;
            }
            let addr = OnionAddr::from_index(idx);
            // Publishes land on the holder relay(s); at least one event.
            let n = poisson_approx(truth.publishes_per_address / 6.0, rng).max(1);
            for _ in 0..n {
                events.push(TorEvent::HsDescPublish {
                    relay: self.relay_for(i),
                    addr,
                });
                i += 1;
            }
        }
        events
    }

    /// Generates HSDir descriptor-fetch events (Tables 6 and 7) over
    /// the observed-address support [`fetch_support`] drew.
    /// `event_fraction` is the fraction of network fetch *events* seen
    /// (the HSDir fetch weight).
    pub(crate) fn hsdir_fetches_part<R: Rng + ?Sized>(
        &self,
        truth: &OnionTruth,
        support: &FetchSupport,
        event_fraction: f64,
        scale: f64,
        rng: &mut R,
        mut f: impl FnMut(TorEvent),
    ) {
        let success_events = poisson_approx(
            truth.fetch_attempts_per_day
                * (1.0 - truth.fetch_fail_fraction)
                * event_fraction
                * scale,
            rng,
        );
        let fail_events = poisson_approx(
            truth.fetch_attempts_per_day * truth.fetch_fail_fraction * event_fraction * scale,
            rng,
        );
        // Popularity over observed addresses; public addresses (even
        // indices, matching `public_address_fraction` = 0.5) receive
        // `public_fetch_fraction` of successful fetches.
        let mut i = 0u64;
        if let Some(popularity) = &support.popularity {
            for _ in 0..success_events {
                let idx = support.observed[popularity.sample_index(rng)];
                // Map to a public or private address index by parity,
                // biased to the configured public fetch share.
                let make_public = rng.gen::<f64>() < truth.public_fetch_fraction;
                let addr_idx = if make_public { idx * 2 } else { idx * 2 + 1 };
                f(TorEvent::HsDescFetch {
                    relay: self.relay_for(i),
                    addr: Some(OnionAddr::from_index(addr_idx)),
                    outcome: DescFetchOutcome::Success,
                });
                i += 1;
            }
        }
        for _ in 0..fail_events {
            let (addr, outcome) = if rng.gen::<f64>() < truth.malformed_fraction {
                (None, DescFetchOutcome::Malformed)
            } else {
                // Outdated bot lists: addresses that are never published.
                let idx = 1_000_000_000 + support.stale.sample_index(rng) as u64;
                (Some(OnionAddr::from_index(idx)), DescFetchOutcome::NotFound)
            };
            f(TorEvent::HsDescFetch {
                relay: self.relay_for(i),
                addr,
                outcome,
            });
            i += 1;
        }
    }

    /// Generates rendezvous-circuit events (Table 8). `fraction` is the
    /// rendezvous selection weight of the instrumented relays.
    pub(crate) fn rendezvous_part<R: Rng + ?Sized>(
        &self,
        truth: &OnionTruth,
        fraction: f64,
        scale: f64,
        rng: &mut R,
        mut f: impl FnMut(TorEvent),
    ) {
        let n = poisson_approx(truth.rend_circuits_per_day * fraction * scale, rng);
        let mean_payload = truth.mean_payload_per_active_circuit();
        // Log-normal parameters with the requested mean:
        // mean = exp(μ + σ²/2) ⇒ μ = ln(mean) − σ²/2.
        let sigma = truth.rend_payload_sigma;
        let mu = mean_payload.ln() - sigma * sigma / 2.0;
        for i in 0..n {
            let u: f64 = rng.gen();
            let (outcome, payload) = if u < truth.rend_success {
                let draw = (mu + sigma * sample_gaussian(1.0, rng)).exp();
                (RendOutcome::ActiveSuccess, draw as u64)
            } else if u < truth.rend_success + truth.rend_connclosed {
                (RendOutcome::ConnClosed, 0)
            } else if u < truth.rend_success + truth.rend_connclosed + truth.rend_expired {
                (RendOutcome::Expired, 0)
            } else {
                (RendOutcome::InactiveOther, 0)
            };
            f(TorEvent::RendCircuit {
                relay: self.relay_for(i),
                outcome,
                payload_bytes: payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{SiteList, SiteListConfig};
    use crate::workload::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The kernels draw only from the RNG a test hands them; the
    /// builder's own seed is never read here.
    fn setup(relays: Vec<RelayId>) -> StreamSim {
        let sites = SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 100_000,
            seed: 5,
        });
        StreamSim::new(Arc::new(sites), Arc::new(GeoDb::paper_default()), relays, 0)
    }

    #[test]
    fn poisson_and_binomial_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0u64;
        let trials = 2000;
        for _ in 0..trials {
            sum += poisson_approx(100.0, &mut rng);
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 100.0).abs() < 2.0, "{mean}");

        let mut sum = 0u64;
        for _ in 0..trials {
            sum += binomial_approx(1000, 0.25, &mut rng);
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 250.0).abs() < 2.5, "{mean}");
        assert_eq!(binomial_approx(10, 0.0, &mut rng), 0);
        assert_eq!(binomial_approx(10, 1.0, &mut rng), 10);
        assert_eq!(poisson_approx(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_small_mean_follows_distribution() {
        // The Knuth branch (mean < 50) must reproduce the true Poisson
        // distribution, not a rounded Gaussian: check mean, variance,
        // and the point masses P(0) = e^{-λ} and P(1) = λe^{-λ} at the
        // relay-join-sized mean the timeline actually uses.
        let mut rng = StdRng::seed_from_u64(9);
        let mean = 3.0;
        let trials = 40_000u64;
        let mut sum = 0u64;
        let mut sum_sq = 0u64;
        let mut zeros = 0u64;
        let mut ones = 0u64;
        for _ in 0..trials {
            let k = poisson_approx(mean, &mut rng);
            sum += k;
            sum_sq += k * k;
            match k {
                0 => zeros += 1,
                1 => ones += 1,
                _ => {}
            }
        }
        let m = sum as f64 / trials as f64;
        let var = sum_sq as f64 / trials as f64 - m * m;
        assert!((m - mean).abs() < 0.05, "mean {m}");
        assert!((var - mean).abs() < 0.15, "variance {var}");
        let p0 = zeros as f64 / trials as f64;
        let p1 = ones as f64 / trials as f64;
        assert!((p0 - (-mean).exp()).abs() < 0.01, "P(0) {p0}");
        assert!((p1 - mean * (-mean).exp()).abs() < 0.01, "P(1) {p1}");
    }

    #[test]
    fn exit_stream_totals_scale() {
        let sim = setup(vec![RelayId(0), RelayId(1)]);
        let truth = Workload::paper_default().exit;
        let sampler = DomainSampler::new(&sim.sites, &truth.mix);
        let mut rng = StdRng::seed_from_u64(2);
        let mut total = 0u64;
        let mut initial = 0u64;
        // 1.5% weight at 1e-4 scale → expect ~3000 streams.
        sim.exit_streams_part(&sampler, &truth, 0.015, 1e-4, false, &mut rng, |ev| {
            if let TorEvent::ExitStream { initial: init, .. } = ev {
                total += 1;
                if init {
                    initial += 1;
                }
            }
        });
        let expect = 2.0e9 * 0.015 * 1e-4;
        assert!((total as f64 - expect).abs() < expect * 0.1, "{total}");
        let init_frac = initial as f64 / total as f64;
        assert!((init_frac - 0.05).abs() < 0.01, "{init_frac}");
    }

    #[test]
    fn client_traffic_countries_weighted() {
        let sim = setup(vec![RelayId(0)]);
        let truth = Workload::paper_default().clients;
        let tables = ClientTrafficTables::new(&sim.geo, &truth);
        let geo = &sim.geo;
        let mut rng = StdRng::seed_from_u64(3);
        let mut conn_us = 0u64;
        let mut conn = 0u64;
        let mut circ_ae = 0u64;
        let mut circ = 0u64;
        sim.client_traffic_part(
            &tables,
            &truth,
            0.0144,
            8e-4,
            true,
            &mut rng,
            |ev| match ev {
                TorEvent::EntryConnection { client_ip, .. } => {
                    conn += 1;
                    if geo.country_of(client_ip) == CountryCode::new("US") {
                        conn_us += 1;
                    }
                }
                TorEvent::EntryCircuit { client_ip, .. } => {
                    circ += 1;
                    if geo.country_of(client_ip) == CountryCode::new("AE") {
                        circ_ae += 1;
                    }
                }
                _ => {}
            },
        );
        assert!(conn > 100 && circ > 1000);
        let us_frac = conn_us as f64 / conn as f64;
        assert!((us_frac - 0.21).abs() < 0.05, "US conn {us_frac}");
        // The AE circuit anomaly: far above its 0.6% connection share.
        let ae_frac = circ_ae as f64 / circ as f64;
        assert!(ae_frac > 0.05, "AE circuits {ae_frac}");
    }

    #[test]
    fn client_ips_unique_pool_size() {
        let sim = setup(vec![RelayId(0)]);
        let truth = Workload::paper_default().clients;
        let mut rng = StdRng::seed_from_u64(4);
        let observe = 1.0 - (1.0f64 - 0.0119).powi(3);
        let mut ips = std::collections::HashSet::new();
        for ev in sim.client_ips_base(&truth, observe, 1e-2, 0, &mut rng) {
            if let TorEvent::EntryConnection { client_ip, .. } = ev {
                ips.insert(client_ip);
            }
        }
        // Expected: 11e6×0.01×0.0354 + 185 ≈ 3.9k + 185.
        let expect = 11.0e6 * 1e-2 * observe + 185.0;
        let got = ips.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.1,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn hsdir_fetch_failure_rate() {
        let sim = setup(vec![RelayId(0)]);
        let truth = Workload::paper_default().onion;
        let mut rng = StdRng::seed_from_u64(5);
        let mut success = 0u64;
        let mut fail = 0u64;
        // 1e-2 scale keeps the observed-address support comfortably
        // non-empty (at 1e-3 the Binomial(60, 0.0276) support is empty
        // ~19% of the time) and the fail-rate sd inside the tolerance.
        let support = fetch_support(&truth, 0.0276, 1e-2, &mut rng);
        sim.hsdir_fetches_part(&truth, &support, 0.00465, 1e-2, &mut rng, |ev| {
            if let TorEvent::HsDescFetch { outcome, .. } = ev {
                match outcome {
                    DescFetchOutcome::Success => success += 1,
                    _ => fail += 1,
                }
            }
        });
        let fail_frac = fail as f64 / (success + fail) as f64;
        assert!((fail_frac - 0.909).abs() < 0.01, "{fail_frac}");
    }

    #[test]
    fn rendezvous_outcomes_and_payload() {
        let sim = setup(vec![RelayId(0)]);
        let truth = Workload::paper_default().onion;
        let mut rng = StdRng::seed_from_u64(6);
        let mut n = 0u64;
        let mut active = 0u64;
        let mut payload = 0u64;
        sim.rendezvous_part(&truth, 0.0088, 1e-3, &mut rng, |ev| {
            if let TorEvent::RendCircuit {
                outcome,
                payload_bytes,
                ..
            } = ev
            {
                n += 1;
                if outcome == RendOutcome::ActiveSuccess {
                    active += 1;
                    payload += payload_bytes;
                }
            }
        });
        let active_frac = active as f64 / n as f64;
        assert!((active_frac - 0.0808).abs() < 0.01, "{active_frac}");
        let mean_payload = payload as f64 / active as f64;
        let expect = truth.mean_payload_per_active_circuit();
        assert!(
            (mean_payload - expect).abs() < expect * 0.25,
            "mean {mean_payload} vs {expect}"
        );
    }

    #[test]
    fn publish_unique_addresses() {
        let sim = setup(vec![RelayId(0)]);
        let truth = Workload::paper_default().onion;
        let mut rng = StdRng::seed_from_u64(7);
        let observe = 1.0 - (1.0f64 - 0.0275).powi(2);
        let mut addrs = std::collections::HashSet::new();
        for ev in sim.hsdir_publishes_base(&truth, observe, 0.1, &mut rng) {
            if let TorEvent::HsDescPublish { addr, .. } = ev {
                addrs.insert(addr);
            }
        }
        let expect = 70_826.0 * 0.1 * observe;
        let got = addrs.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.15,
            "got {got}, expect {expect}"
        );
    }
}

//! The paper's concrete PrivCount counter schemas.
//!
//! Each builder returns a [`Schema`] whose σ values are calibrated from
//! the Table 1 action bounds and the round's (ε, δ) budget, split
//! equally across the round's counters (δ additionally splits across
//! counters; see `pm_dp::budget`). Sensitivities follow §3.2: the
//! number of counter units a single user's bounded 24-hour activity can
//! contribute.

use crate::counter::{CounterSpec, EventMapper, Schema};
use pm_dp::bounds::{bound_for, Action};
use pm_dp::budget::allocate_delta;
use std::sync::Arc;
use torsim::events::{AddrKind, DescFetchOutcome, PortClass, RendOutcome, TorEvent};
use torsim::geo::GeoDb;
use torsim::ids::CountryCode;
use torsim::sites::{Family, SiteList, MEASURED_TLDS};

/// Streams per protected domain connection: a site visit loads embedded
/// resources over subsequent streams; 100/visit is the generous per-user
/// allowance used for the total-streams sensitivity.
pub const STREAMS_PER_DOMAIN: f64 = 100.0;

fn specs_equal_budget(names_and_sens: &[(&str, f64)], eps: f64, delta: f64) -> Vec<CounterSpec> {
    let n = names_and_sens.len();
    let eps_each = eps / n as f64;
    let delta_each = allocate_delta(n, delta);
    names_and_sens
        .iter()
        .map(|(name, sens)| CounterSpec::calibrated(*name, *sens, eps_each, delta_each))
        .collect()
}

/// The specs of a histogram with a running total, laid out `bins` in
/// order, then `total`. The bins partition the events (parallel
/// composition: every bin is calibrated at the bins' whole budget); the
/// total is one additional sequential query, so bins and total each
/// get (ε/2, δ/2).
fn bins_and_total<N: Into<String>>(
    bins: impl IntoIterator<Item = N>,
    total: &str,
    sensitivity: f64,
    eps: f64,
    delta: f64,
) -> Vec<CounterSpec> {
    bins.into_iter()
        .map(Into::into)
        .chain([total.to_string()])
        .map(|name| CounterSpec::calibrated(name, sensitivity, eps / 2.0, delta / 2.0))
        .collect()
}

/// Figure 1: stream-type breakdown at exits.
pub fn exit_streams(eps: f64, delta: f64) -> Schema {
    let d = bound_for(Action::ConnectToDomain) as f64;
    let specs = specs_equal_budget(
        &[
            ("streams.total", d * STREAMS_PER_DOMAIN),
            ("streams.initial", d),
            ("initial.hostname", d),
            ("initial.ipv4", d),
            ("initial.ipv6", d),
            ("hostname.web", d),
            ("hostname.other", d),
        ],
        eps,
        delta,
    );
    let mapper: EventMapper = Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
        if let TorEvent::ExitStream {
            initial,
            addr,
            port,
            ..
        } = ev
        {
            counts[0] += 1;
            if !initial {
                return;
            }
            counts[1] += 1;
            match addr {
                AddrKind::Hostname => {
                    counts[2] += 1;
                    match port {
                        PortClass::Web => counts[5] += 1,
                        PortClass::Other => counts[6] += 1,
                    }
                }
                AddrKind::Ipv4Literal => counts[3] += 1,
                AddrKind::Ipv6Literal => counts[4] += 1,
            }
        }
    });
    Schema::new(specs, mapper)
}

/// Figure 2 (top): primary domains by Alexa rank set, with
/// torproject.org separated.
pub fn alexa_rank_histogram(sites: Arc<SiteList>, eps: f64, delta: f64) -> Schema {
    let d = bound_for(Action::ConnectToDomain) as f64;
    let specs = bins_and_total(
        [
            "rank.(0,10]",
            "rank.(10,100]",
            "rank.(100,1k]",
            "rank.(1k,10k]",
            "rank.(10k,100k]",
            "rank.(100k,1m]",
            "rank.other",
            "rank.torproject",
        ],
        "rank.total",
        d,
        eps,
        delta,
    );
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        let Some(domain) = ev.primary_domain() else {
            return;
        };
        counts[8] += 1;
        if sites.family(domain) == Some(Family::Torproject) {
            counts[7] += 1;
            return;
        }
        match sites.rank(domain) {
            Some(rank) => counts[SiteList::rank_set_index(rank)] += 1,
            None => counts[6] += 1,
        }
    });
    Schema::new(specs, mapper)
}

/// Figure 2 (bottom): primary domains by top-10 sibling family.
pub fn alexa_siblings_histogram(sites: Arc<SiteList>, eps: f64, delta: f64) -> Schema {
    let d = bound_for(Action::ConnectToDomain) as f64;
    let families = Family::ALL
        .iter()
        .map(|f| format!("family.{}", f.basename()));
    let specs = bins_and_total(
        families.chain(["family.other".to_string()]),
        "family.total",
        d,
        eps,
        delta,
    );
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        let Some(domain) = ev.primary_domain() else {
            return;
        };
        counts[Family::ALL.len() + 1] += 1; // total
        match sites.family(domain) {
            Some(f) => {
                // lint:allow(panic) Family::ALL enumerates every Family variant
                let idx = Family::ALL.iter().position(|g| *g == f).expect("family");
                counts[idx] += 1;
            }
            None => counts[Family::ALL.len()] += 1,
        }
    });
    Schema::new(specs, mapper)
}

/// Figure 3: primary domains by TLD. With `alexa_only`, only domains in
/// the Alexa list are classified (and torproject.org is separated, as
/// in the paper's second TLD measurement).
pub fn tld_histogram(sites: Arc<SiteList>, alexa_only: bool, eps: f64, delta: f64) -> Schema {
    let d = bound_for(Action::ConnectToDomain) as f64;
    let tlds = MEASURED_TLDS.iter().map(|t| format!("tld.{t}"));
    let specs = bins_and_total(
        tlds.chain(["tld.other".to_string(), "tld.torproject".to_string()]),
        "tld.total",
        d,
        eps,
        delta,
    );
    let other_idx = MEASURED_TLDS.len();
    let torproject_idx = other_idx + 1;
    let total_idx = other_idx + 2;
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        let Some(domain) = ev.primary_domain() else {
            return;
        };
        counts[total_idx] += 1;
        if alexa_only && !sites.in_alexa(domain) {
            // The Alexa-only measurement still normalizes over all
            // primary domains; non-members land in "other" (this is why
            // the paper's Alexa-row "other" jumps to 26.1%).
            counts[other_idx] += 1;
            return;
        }
        if alexa_only && sites.family(domain) == Some(Family::Torproject) {
            // The Alexa-only measurement used a separate torproject
            // counter; the all-sites wildcard measurement could not.
            counts[torproject_idx] += 1;
            return;
        }
        let tld = sites.tld(domain);
        match MEASURED_TLDS.iter().position(|t| *t == tld) {
            Some(i) => counts[i] += 1,
            None => counts[other_idx] += 1,
        }
    });
    Schema::new(specs, mapper)
}

/// Table 4: client connections, circuits, and bytes at guards.
pub fn client_traffic(eps: f64, delta: f64) -> Schema {
    let specs = specs_equal_budget(
        &[
            (
                "client.connections",
                bound_for(Action::TcpConnectionToGuard) as f64,
            ),
            (
                "client.circuits",
                bound_for(Action::CircuitThroughGuard) as f64,
            ),
            ("client.bytes", bound_for(Action::EntryData) as f64),
        ],
        eps,
        delta,
    );
    let mapper: EventMapper = Arc::new(|ev: &TorEvent, counts: &mut [i64]| match ev {
        TorEvent::EntryConnection { .. } => counts[0] += 1,
        TorEvent::EntryCircuit { .. } => counts[1] += 1,
        TorEvent::EntryBytes { bytes, .. } => counts[2] += *bytes as i64,
        _ => {}
    });
    Schema::new(specs, mapper)
}

/// Which client statistic a per-country histogram counts (Figure 4's
/// three panels; the paper ran them as separate measurements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountryStat {
    /// Client connections.
    Connections,
    /// Client bytes.
    Bytes,
    /// Client circuits.
    Circuits,
}

impl CountryStat {
    /// The client IP and increment `ev` contributes to this statistic,
    /// if it is one of the events the statistic counts.
    fn observe(self, ev: &TorEvent) -> Option<(torsim::ids::IpAddr, i64)> {
        match (self, ev) {
            (CountryStat::Connections, TorEvent::EntryConnection { client_ip, .. })
            | (CountryStat::Circuits, TorEvent::EntryCircuit { client_ip, .. }) => {
                Some((*client_ip, 1))
            }
            (
                CountryStat::Bytes,
                TorEvent::EntryBytes {
                    client_ip, bytes, ..
                },
            ) => Some((*client_ip, *bytes as i64)),
            _ => None,
        }
    }
}

/// Figure 4: one counter per country for the chosen statistic.
pub fn country_histogram(geo: Arc<GeoDb>, stat: CountryStat, eps: f64, delta: f64) -> Schema {
    let sens = match stat {
        CountryStat::Connections => bound_for(Action::TcpConnectionToGuard) as f64,
        CountryStat::Bytes => bound_for(Action::EntryData) as f64,
        CountryStat::Circuits => bound_for(Action::CircuitThroughGuard) as f64,
    };
    let countries: Vec<CountryCode> = geo.countries().collect();
    // The country bins partition the events (one client IP maps to one
    // country), so parallel composition applies: every bin gets the full
    // round budget, as PrivCount's independent-bin histograms do (§2.3).
    let specs: Vec<CounterSpec> = countries
        .iter()
        .map(|c| CounterSpec::calibrated(format!("country.{c}"), sens, eps, delta))
        .collect();
    // A country's events land in the last counter carrying its code
    // (counters and `GeoDb` blocks share one order, so the two indices
    // differ only for a database that repeats a code). Resolved here,
    // once per block, so the mapper below is two array reads per event.
    let index: std::collections::BTreeMap<CountryCode, usize> =
        countries.iter().enumerate().map(|(i, c)| (*c, i)).collect();
    let counter_of_block: Vec<usize> = countries.iter().map(|c| index[c]).collect();
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        if let Some((ip, delta_v)) = stat.observe(ev) {
            counts[counter_of_block[geo.block_of(ip)]] += delta_v;
        }
    });
    Schema::new(specs, mapper)
}

/// Table 7: descriptor fetch outcomes at HSDirs, with the ahmia-style
/// public/unknown split of successful fetches. `is_public` classifies
/// an address as publicly indexed.
pub fn hsdir_fetches(
    is_public: Arc<dyn Fn(&torsim::ids::OnionAddr) -> bool + Send + Sync>,
    eps: f64,
    delta: f64,
) -> Schema {
    let d = bound_for(Action::FetchDescriptor) as f64;
    let specs = specs_equal_budget(
        &[
            ("desc.fetched", d),
            ("desc.succeeded", d),
            ("desc.failed", d),
            ("desc.failed.malformed", d),
            ("desc.public", d),
            ("desc.unknown", d),
        ],
        eps,
        delta,
    );
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        if let TorEvent::HsDescFetch { addr, outcome, .. } = ev {
            counts[0] += 1;
            match outcome {
                DescFetchOutcome::Success => {
                    counts[1] += 1;
                    if let Some(a) = addr {
                        if is_public(a) {
                            counts[4] += 1;
                        } else {
                            counts[5] += 1;
                        }
                    }
                }
                DescFetchOutcome::NotFound => counts[2] += 1,
                DescFetchOutcome::Malformed => {
                    counts[2] += 1;
                    counts[3] += 1;
                }
            }
        }
    });
    Schema::new(specs, mapper)
}

/// Table 8: rendezvous circuit outcomes and payload at RPs.
pub fn rendezvous(eps: f64, delta: f64) -> Schema {
    // A rendezvous connection creates up to 2 circuits at the RP.
    let circ = bound_for(Action::RendezvousConnection) as f64 * 2.0;
    let bytes = bound_for(Action::RendezvousData) as f64;
    let specs = specs_equal_budget(
        &[
            ("rend.circuits", circ),
            ("rend.succeeded", circ),
            ("rend.failed.connclosed", circ),
            ("rend.failed.expired", circ),
            ("rend.payload_bytes", bytes),
        ],
        eps,
        delta,
    );
    let mapper: EventMapper = Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
        if let TorEvent::RendCircuit {
            outcome,
            payload_bytes,
            ..
        } = ev
        {
            counts[0] += 1;
            match outcome {
                RendOutcome::ActiveSuccess => {
                    counts[1] += 1;
                    counts[4] += *payload_bytes as i64;
                }
                RendOutcome::ConnClosed => counts[2] += 1,
                RendOutcome::Expired => counts[3] += 1,
                RendOutcome::InactiveOther => {}
            }
        }
    });
    Schema::new(specs, mapper)
}

/// §4.3 "Alexa Categories": one counter per category (Alexa caps
/// categories at 50 sites each), plus uncategorized and total.
pub fn category_histogram(sites: Arc<SiteList>, eps: f64, delta: f64) -> Schema {
    let d = bound_for(Action::ConnectToDomain) as f64;
    let num_categories = 17usize;
    let categories = (0..num_categories).map(|c| format!("category.{c}"));
    let specs = bins_and_total(
        categories.chain(["category.none".to_string()]),
        "category.total",
        d,
        eps,
        delta,
    );
    let none_idx = num_categories;
    let total_idx = num_categories + 1;
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        let Some(domain) = ev.primary_domain() else {
            return;
        };
        counts[total_idx] += 1;
        match sites.category(domain) {
            Some(c) if c < num_categories => counts[c] += 1,
            _ => counts[none_idx] += 1,
        }
    });
    Schema::new(specs, mapper)
}

/// §5.2 "Network Diversity": one counter per CAIDA top-1000 AS rank
/// bucket plus the outside-top-1000 remainder, for hotspot detection.
/// Buckets of 50 ranks keep the schema at 21 counters while preserving
/// the top-1000 vs rest comparison.
pub fn as_histogram(asdb: Arc<torsim::asn::AsDb>, eps: f64, delta: f64) -> Schema {
    let sens = bound_for(Action::TcpConnectionToGuard) as f64;
    let buckets = 20usize; // ranks 1..=1000 in buckets of 50
    let ranks = (0..buckets).map(|b| format!("as.rank{}-{}", b * 50 + 1, (b + 1) * 50));
    let specs = bins_and_total(
        ranks.chain(["as.outside_top1000".to_string()]),
        "as.total",
        sens,
        eps,
        delta,
    );
    let outside_idx = buckets;
    let total_idx = buckets + 1;
    let mapper: EventMapper = Arc::new(move |ev: &TorEvent, counts: &mut [i64]| {
        if let TorEvent::EntryConnection { client_ip, .. } = ev {
            counts[total_idx] += 1;
            let rank = asdb.rank_of(asdb.as_of(*client_ip));
            if rank <= 1000 {
                counts[((rank - 1) / 50) as usize] += 1;
            } else {
                counts[outside_idx] += 1;
            }
        }
    });
    Schema::new(specs, mapper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torsim::ids::{DomainId, IpAddr, OnionAddr, RelayId};
    use torsim::sites::SiteListConfig;

    fn sites() -> Arc<SiteList> {
        Arc::new(SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 1_000,
            seed: 1,
        }))
    }

    fn run_schema(schema: &Schema, events: &[TorEvent]) -> Vec<i64> {
        let mut counts = vec![0i64; schema.len()];
        for ev in events {
            (schema.mapper)(ev, &mut counts);
        }
        counts
    }

    fn initial_stream(domain: DomainId) -> TorEvent {
        TorEvent::ExitStream {
            relay: RelayId(0),
            initial: true,
            addr: AddrKind::Hostname,
            port: PortClass::Web,
            domain: Some(domain),
        }
    }

    #[test]
    fn exit_streams_classification() {
        let schema = exit_streams(0.3, 1e-11);
        let events = vec![
            initial_stream(DomainId(0)),
            TorEvent::ExitStream {
                relay: RelayId(0),
                initial: false,
                addr: AddrKind::Hostname,
                port: PortClass::Web,
                domain: None,
            },
            TorEvent::ExitStream {
                relay: RelayId(0),
                initial: true,
                addr: AddrKind::Ipv4Literal,
                port: PortClass::Web,
                domain: None,
            },
            TorEvent::ExitStream {
                relay: RelayId(0),
                initial: true,
                addr: AddrKind::Hostname,
                port: PortClass::Other,
                domain: None,
            },
        ];
        let c = run_schema(&schema, &events);
        assert_eq!(c[0], 4); // total
        assert_eq!(c[1], 3); // initial
        assert_eq!(c[2], 2); // hostname
        assert_eq!(c[3], 1); // ipv4
        assert_eq!(c[5], 1); // web
        assert_eq!(c[6], 1); // other port
    }

    #[test]
    fn rank_histogram_routes_torproject_separately() {
        let s = sites();
        let schema = alexa_rank_histogram(s.clone(), 0.3, 1e-11);
        let events = vec![
            initial_stream(s.domain_of_rank(1)),      // set 0
            initial_stream(s.domain_of_rank(500)),    // set 2
            initial_stream(s.domain_of_rank(10_244)), // torproject
            initial_stream(s.long_tail_domain(3)),    // other
        ];
        let c = run_schema(&schema, &events);
        assert_eq!(c[0], 1);
        assert_eq!(c[2], 1);
        assert_eq!(c[7], 1); // torproject
        assert_eq!(c[6], 1); // other
        assert_eq!(c[8], 4); // total
    }

    #[test]
    fn siblings_histogram_families() {
        let s = sites();
        let schema = alexa_siblings_histogram(s.clone(), 0.3, 1e-11);
        let events = vec![
            initial_stream(s.domain_of_rank(10)), // amazon head
            initial_stream(s.domain_of_rank(11)), // non-family
        ];
        let c = run_schema(&schema, &events);
        let amazon_idx = Family::ALL
            .iter()
            .position(|f| *f == Family::Amazon)
            .unwrap();
        assert_eq!(c[amazon_idx], 1);
        assert_eq!(c[Family::ALL.len()], 1); // other
        assert_eq!(c[Family::ALL.len() + 1], 2); // total
    }

    #[test]
    fn tld_histogram_alexa_only_filters() {
        let s = sites();
        let all = tld_histogram(s.clone(), false, 0.3, 1e-11);
        let alexa = tld_histogram(s.clone(), true, 0.3, 1e-11);
        let events = vec![
            initial_stream(s.domain_of_rank(10_244)), // torproject (.org)
            initial_stream(s.long_tail_domain(5)),    // non-Alexa
        ];
        let call = run_schema(&all, &events);
        let calexa = run_schema(&alexa, &events);
        let total_idx = MEASURED_TLDS.len() + 2;
        let tp_idx = MEASURED_TLDS.len() + 1;
        let org_idx = MEASURED_TLDS.iter().position(|t| *t == "org").unwrap();
        // All-sites: torproject counts under .org (no separate counter
        // possible with wildcards); both events counted.
        assert_eq!(call[total_idx], 2);
        assert_eq!(call[org_idx], 1);
        // Alexa-only: long-tail domain counted as "other"; torproject
        // separated out of .org.
        assert_eq!(calexa[total_idx], 2);
        assert_eq!(calexa[tp_idx], 1);
        assert_eq!(calexa[org_idx], 0);
        let other_idx = MEASURED_TLDS.len();
        assert_eq!(calexa[other_idx], 1);
    }

    #[test]
    fn client_traffic_counts() {
        let schema = client_traffic(0.3, 1e-11);
        let events = vec![
            TorEvent::EntryConnection {
                relay: RelayId(0),
                client_ip: IpAddr(1),
            },
            TorEvent::EntryCircuit {
                relay: RelayId(0),
                client_ip: IpAddr(1),
            },
            TorEvent::EntryBytes {
                relay: RelayId(0),
                client_ip: IpAddr(1),
                bytes: 1 << 20,
            },
        ];
        let c = run_schema(&schema, &events);
        assert_eq!(c, vec![1, 1, 1 << 20]);
    }

    #[test]
    fn country_histogram_attribution() {
        let geo = Arc::new(GeoDb::paper_default());
        let schema = country_histogram(geo.clone(), CountryStat::Connections, 0.3, 1e-11);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let us_ip = geo.sample_ip_in(CountryCode::new("US"), &mut rng).unwrap();
        let events = vec![TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: us_ip,
        }];
        let c = run_schema(&schema, &events);
        let us_idx = schema.index_of("country.US").unwrap();
        assert_eq!(c[us_idx], 1);
        assert_eq!(c.iter().sum::<i64>(), 1);
    }

    #[test]
    fn connection_byte_and_as_histograms_ignore_circuits() {
        // Rounds over these schemas generate their traffic without
        // circuits; that is only sound if a circuit never moves a counter.
        let geo = Arc::new(GeoDb::paper_default());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let circuits: Vec<TorEvent> = (0..200)
            .map(|_| TorEvent::EntryCircuit {
                relay: RelayId(0),
                client_ip: IpAddr(rand::Rng::gen(&mut rng)),
            })
            .collect();
        let asdb = Arc::new(torsim::asn::AsDb::paper_default());
        for schema in [
            country_histogram(geo.clone(), CountryStat::Connections, 0.3, 1e-11),
            country_histogram(geo.clone(), CountryStat::Bytes, 0.3, 1e-11),
            as_histogram(asdb, 0.3, 1e-11),
        ] {
            let counts = run_schema(&schema, &circuits);
            assert!(counts.iter().all(|c| *c == 0), "circuits moved {counts:?}");
        }
    }

    #[test]
    fn country_histogram_matches_search_then_map_classification() {
        use torsim::stream::StreamSim;
        use torsim::workload::ClientTruth;
        // A repeated code is where a block's index and its counter's
        // differ: both "AA" blocks count into the later "AA" counter.
        let repeated: Vec<(CountryCode, f64)> = ["AA", "BB", "AA", "CC", "BB", "DD"]
            .map(CountryCode::new)
            .into_iter()
            .zip([3.0, 1.0, 2.0, 0.5, 1.5, 1.0])
            .collect();
        for geo in [GeoDb::paper_default(), GeoDb::from_shares(&repeated)] {
            let geo = Arc::new(geo);
            let sim = StreamSim::new(sites(), geo.clone(), vec![RelayId(0), RelayId(1)], 11);
            let mut events = Vec::new();
            sim.client_traffic(&ClientTruth::paper_default(), 0.01, 1e-3, true, 1, "ct")
                .for_each(|ev| events.push(ev));
            let index: std::collections::BTreeMap<CountryCode, usize> =
                geo.countries().enumerate().map(|(i, c)| (c, i)).collect();
            for stat in [
                CountryStat::Connections,
                CountryStat::Bytes,
                CountryStat::Circuits,
            ] {
                let schema = country_histogram(geo.clone(), stat, 0.3, 1e-11);
                // The mapper this schema had before counters were
                // indexed by block: search for the country, then look
                // its counter up.
                let mut want = vec![0i64; schema.len()];
                for (ip, v) in events.iter().filter_map(|ev| stat.observe(ev)) {
                    if let Some(idx) = index.get(&geo.country_of(ip)) {
                        want[*idx] += v;
                    }
                }
                assert_eq!(run_schema(&schema, &events), want, "{stat:?}");
                assert!(want.iter().sum::<i64>() > 1_000, "{stat:?} saw no traffic");
                if geo.len() == repeated.len() {
                    assert!(want[0] == 0 && want[2] > 0, "{stat:?}: {want:?}");
                }
            }
        }
    }

    #[test]
    fn hsdir_fetch_outcomes() {
        let is_public = Arc::new(|a: &OnionAddr| a.0[0].is_multiple_of(2));
        let schema = hsdir_fetches(is_public.clone(), 0.3, 1e-11);
        // Find one public and one private address under the classifier.
        let mut public = None;
        let mut private = None;
        for i in 0..100 {
            let a = OnionAddr::from_index(i);
            if a.0[0].is_multiple_of(2) && public.is_none() {
                public = Some(a);
            }
            if a.0[0] % 2 == 1 && private.is_none() {
                private = Some(a);
            }
        }
        let events = vec![
            TorEvent::HsDescFetch {
                relay: RelayId(0),
                addr: Some(public.unwrap()),
                outcome: DescFetchOutcome::Success,
            },
            TorEvent::HsDescFetch {
                relay: RelayId(0),
                addr: Some(private.unwrap()),
                outcome: DescFetchOutcome::Success,
            },
            TorEvent::HsDescFetch {
                relay: RelayId(0),
                addr: None,
                outcome: DescFetchOutcome::Malformed,
            },
            TorEvent::HsDescFetch {
                relay: RelayId(0),
                addr: Some(OnionAddr::from_index(999)),
                outcome: DescFetchOutcome::NotFound,
            },
        ];
        let c = run_schema(&schema, &events);
        assert_eq!(c[0], 4); // fetched
        assert_eq!(c[1], 2); // succeeded
        assert_eq!(c[2], 2); // failed
        assert_eq!(c[3], 1); // malformed
        assert_eq!(c[4], 1); // public
        assert_eq!(c[5], 1); // unknown
    }

    #[test]
    fn rendezvous_payload_only_on_success() {
        let schema = rendezvous(0.3, 1e-11);
        let events = vec![
            TorEvent::RendCircuit {
                relay: RelayId(0),
                outcome: RendOutcome::ActiveSuccess,
                payload_bytes: 1000,
            },
            TorEvent::RendCircuit {
                relay: RelayId(0),
                outcome: RendOutcome::Expired,
                payload_bytes: 0,
            },
            TorEvent::RendCircuit {
                relay: RelayId(0),
                outcome: RendOutcome::ConnClosed,
                payload_bytes: 0,
            },
            TorEvent::RendCircuit {
                relay: RelayId(0),
                outcome: RendOutcome::InactiveOther,
                payload_bytes: 0,
            },
        ];
        let c = run_schema(&schema, &events);
        assert_eq!(c[0], 4);
        assert_eq!(c[1], 1);
        assert_eq!(c[2], 1);
        assert_eq!(c[3], 1);
        assert_eq!(c[4], 1000);
    }

    #[test]
    fn histogram_bins_use_parallel_composition() {
        // Partitioning bins share the budget via parallel composition:
        // a 250-bin country histogram must NOT have 250× the noise of a
        // 2-bin one.
        let geo = Arc::new(GeoDb::paper_default());
        let h = country_histogram(geo, CountryStat::Connections, 0.3, 1e-11);
        let single = CounterSpec::calibrated("solo", 12.0, 0.3, 1e-11);
        assert!((h.counters[0].sigma - single.sigma).abs() < 1e-9);
        // Overlapping counters still split sequentially.
        let few = exit_streams(0.3, 1e-11);
        let s_total = few
            .counters
            .iter()
            .find(|c| c.name == "streams.initial")
            .unwrap()
            .sigma;
        let s_solo = CounterSpec::calibrated("solo", 20.0, 0.3, 1e-11).sigma;
        assert!(s_total > s_solo);
    }
}

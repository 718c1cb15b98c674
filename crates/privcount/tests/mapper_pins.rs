//! Value pins for every `privcount::queries` mapper: one fixed event
//! mix — every `TorEvent` kind, domains with and without Alexa ranks
//! and families, client IPs across the `GeoDb` blocks — folded through
//! each builder's schema by the DC's ingestion path, one FNV-1a digest
//! per counter vector. The digests were computed with mappers that
//! reported each increment through an `emit(index, delta)` callback; a
//! change to how a mapper reaches its counters must leave every vector
//! as it is.

use privcount::queries::{self, CountryStat};
use privcount::shard::ingest_stream;
use privcount::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use torsim::asn::AsDb;
use torsim::events::{AddrKind, DescFetchOutcome, PortClass, RendOutcome, TorEvent};
use torsim::geo::GeoDb;
use torsim::ids::{DomainId, IpAddr, OnionAddr, RelayId};
use torsim::sites::{Family, SiteList, SiteListConfig};
use torsim::stream::EventStream;

const EPS: f64 = 0.3;
const DELTA: f64 = 1e-11;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(counts: &[i64]) -> u64 {
    let bytes: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Every family's head and siblings, torproject, ranks in every
/// Figure 2 rank set and the category range, random Alexa ranks and
/// long-tail domains.
fn domains(sites: &SiteList, rng: &mut StdRng) -> Vec<DomainId> {
    let cfg = sites.config();
    let mut ranks: Vec<u64> = (1..=20).collect();
    for fam in Family::ALL {
        ranks.push(fam.head_rank());
        ranks.extend(sites.sibling_ranks(fam).iter().take(6));
    }
    ranks.extend((1..=900).step_by(25));
    ranks.extend([849, 850, 851, 1_000, 1_001]);
    ranks.extend([9_999, 10_000, 10_001, 99_999, 100_000, 100_001]);
    ranks.extend((0..1_000).map(|_| rng.gen_range(1..=cfg.alexa_size)));
    let mut out: Vec<DomainId> = ranks.iter().map(|r| sites.domain_of_rank(*r)).collect();
    out.extend((0..200).map(|_| sites.long_tail_domain(rng.gen_range(0..cfg.long_tail_size))));
    out
}

/// One IP in every country's blocks, a stride across the address
/// space, and random addresses.
fn client_ips(geo: &GeoDb, rng: &mut StdRng) -> Vec<IpAddr> {
    let mut ips: Vec<IpAddr> = geo
        .countries()
        .filter_map(|c| geo.sample_ip_in(c, rng))
        .collect();
    ips.extend((0..512u32).map(|i| IpAddr(i.wrapping_mul(0x0080_0001))));
    ips.extend([IpAddr(0), IpAddr(u32::MAX)]);
    ips.extend((0..300).map(|_| IpAddr(rng.gen())));
    ips
}

fn event_mix() -> (Arc<SiteList>, Arc<GeoDb>, Vec<TorEvent>) {
    let sites = Arc::new(SiteList::new(SiteListConfig {
        alexa_size: 200_000,
        long_tail_size: 50_000,
        seed: 7,
    }));
    let geo = Arc::new(GeoDb::paper_default());
    let mut rng = StdRng::seed_from_u64(2018);
    let mut events = Vec::new();
    let relay = |i: usize| RelayId((i % 5) as u32);
    let addrs = [
        AddrKind::Hostname,
        AddrKind::Ipv4Literal,
        AddrKind::Ipv6Literal,
    ];
    let ports = [PortClass::Web, PortClass::Other];
    for (i, d) in domains(&sites, &mut rng).into_iter().enumerate() {
        for initial in [true, false] {
            for addr in addrs {
                for port in ports {
                    let domain = (addr == AddrKind::Hostname).then_some(d);
                    events.push(TorEvent::ExitStream {
                        relay: relay(i),
                        initial,
                        addr,
                        port,
                        domain,
                    });
                }
            }
        }
        // A hostname stream whose domain is unknown.
        if i.is_multiple_of(7) {
            events.push(TorEvent::ExitStream {
                relay: relay(i),
                initial: true,
                addr: AddrKind::Hostname,
                port: PortClass::Web,
                domain: None,
            });
        }
    }
    for (i, ip) in client_ips(&geo, &mut rng).into_iter().enumerate() {
        events.push(TorEvent::EntryConnection {
            relay: relay(i),
            client_ip: ip,
        });
        for _ in 0..i % 3 {
            events.push(TorEvent::EntryCircuit {
                relay: relay(i + 1),
                client_ip: ip,
            });
        }
        events.push(TorEvent::EntryBytes {
            relay: relay(i + 2),
            client_ip: ip,
            bytes: rng.gen_range(0..1u64 << 24),
        });
    }
    let outcomes = [
        DescFetchOutcome::Success,
        DescFetchOutcome::NotFound,
        DescFetchOutcome::Malformed,
    ];
    let rends = [
        RendOutcome::ActiveSuccess,
        RendOutcome::ConnClosed,
        RendOutcome::Expired,
        RendOutcome::InactiveOther,
    ];
    for i in 0..300u64 {
        let addr = OnionAddr::from_index(i % 120);
        events.push(TorEvent::HsDescPublish {
            relay: relay(i as usize),
            addr,
        });
        events.push(TorEvent::HsDescFetch {
            relay: relay(i as usize),
            addr: (!i.is_multiple_of(11)).then_some(addr),
            outcome: outcomes[(i % 3) as usize],
        });
        events.push(TorEvent::RendCircuit {
            relay: relay(i as usize),
            outcome: rends[(i % 4) as usize],
            payload_bytes: rng.gen_range(0..1u64 << 20),
        });
    }
    (sites, geo, events)
}

/// Every builder in `privcount::queries`, by name.
fn schemas(sites: &Arc<SiteList>, geo: &Arc<GeoDb>) -> Vec<(&'static str, Schema)> {
    let asdb = Arc::new(AsDb::paper_default());
    let is_public = Arc::new(|a: &OnionAddr| a.0[0].is_multiple_of(3));
    vec![
        ("exit_streams", queries::exit_streams(EPS, DELTA)),
        (
            "alexa_rank_histogram",
            queries::alexa_rank_histogram(sites.clone(), EPS, DELTA),
        ),
        (
            "alexa_siblings_histogram",
            queries::alexa_siblings_histogram(sites.clone(), EPS, DELTA),
        ),
        (
            "tld_histogram(all)",
            queries::tld_histogram(sites.clone(), false, EPS, DELTA),
        ),
        (
            "tld_histogram(alexa)",
            queries::tld_histogram(sites.clone(), true, EPS, DELTA),
        ),
        ("client_traffic", queries::client_traffic(EPS, DELTA)),
        (
            "country_histogram(connections)",
            queries::country_histogram(geo.clone(), CountryStat::Connections, EPS, DELTA),
        ),
        (
            "country_histogram(bytes)",
            queries::country_histogram(geo.clone(), CountryStat::Bytes, EPS, DELTA),
        ),
        (
            "country_histogram(circuits)",
            queries::country_histogram(geo.clone(), CountryStat::Circuits, EPS, DELTA),
        ),
        (
            "hsdir_fetches",
            queries::hsdir_fetches(is_public, EPS, DELTA),
        ),
        ("rendezvous", queries::rendezvous(EPS, DELTA)),
        (
            "category_histogram",
            queries::category_histogram(sites.clone(), EPS, DELTA),
        ),
        ("as_histogram", queries::as_histogram(asdb, EPS, DELTA)),
    ]
}

const PINS: [(&str, u64); 13] = [
    ("exit_streams", 0x525b_725a_a64e_9a1b),
    ("alexa_rank_histogram", 0xf575_73bf_256c_4eac),
    ("alexa_siblings_histogram", 0x0dd1_1f5b_d46e_5daa),
    ("tld_histogram(all)", 0x5f37_9ba5_60c2_c703),
    ("tld_histogram(alexa)", 0x22f1_232e_b61f_f5fb),
    ("client_traffic", 0x28df_bfe8_e1c5_a1a9),
    ("country_histogram(connections)", 0x00b4_bd64_c122_a2a1),
    ("country_histogram(bytes)", 0x7113_411d_9c02_c607),
    ("country_histogram(circuits)", 0x6f83_ee3f_b309_f0bc),
    ("hsdir_fetches", 0x3ec5_9eb9_cab5_0cb6),
    ("rendezvous", 0x63d5_0237_9ce1_9be0),
    ("category_histogram", 0x8ea7_29e3_4349_67ce),
    ("as_histogram", 0x07f2_14ae_8d71_1328),
];

#[test]
fn every_query_mapper_matches_its_pinned_counter_digest() {
    let (sites, geo, events) = event_mix();
    let mut got = Vec::new();
    for (name, schema) in schemas(&sites, &geo) {
        let one = ingest_stream(EventStream::from_events(events.clone(), 1), &schema);
        let three = ingest_stream(EventStream::from_events(events.clone(), 3), &schema);
        assert_eq!(one, three, "{name}: shard count changed the totals");
        assert_eq!(one.len(), schema.len(), "{name}");
        assert!(
            one.iter().any(|c| *c != 0),
            "{name}: the mix moved no counter"
        );
        got.push((name, digest(&one)));
    }
    let want: Vec<(&str, u64)> = PINS.to_vec();
    assert_eq!(got, want, "got {got:#x?}");
}

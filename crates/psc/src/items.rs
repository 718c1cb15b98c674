//! Item extractors: which byte string a PSC round counts distinct values
//! of, per paper statistic.

use std::sync::Arc;
use torsim::asn::AsDb;
use torsim::events::{DescFetchOutcome, TorEvent};
use torsim::geo::GeoDb;
use torsim::sites::SiteList;

/// Extracts the (optional) item from an event. Returning `None` skips
/// the event.
pub type ItemExtractor = Arc<dyn Fn(&TorEvent) -> Option<Vec<u8>> + Send + Sync>;

/// Unique client IPs at guards (Tables 3 and 5).
pub fn unique_client_ips() -> ItemExtractor {
    Arc::new(|ev| match ev {
        TorEvent::EntryConnection { client_ip, .. } => Some(client_ip.to_bytes().to_vec()),
        _ => None,
    })
}

/// Unique client countries (Table 5).
pub fn unique_countries(geo: Arc<GeoDb>) -> ItemExtractor {
    Arc::new(move |ev| match ev {
        TorEvent::EntryConnection { client_ip, .. } => Some(geo.country_of(*client_ip).0.to_vec()),
        _ => None,
    })
}

/// Unique client ASes (Table 5).
pub fn unique_ases(asdb: Arc<AsDb>) -> ItemExtractor {
    Arc::new(move |ev| match ev {
        TorEvent::EntryConnection { client_ip, .. } => {
            Some(asdb.as_of(*client_ip).0.to_be_bytes().to_vec())
        }
        _ => None,
    })
}

/// Unique second-level domains of primary exit streams (Table 2). With
/// `alexa_only`, restricted to domains in the Alexa list.
pub fn unique_slds(sites: Arc<SiteList>, alexa_only: bool) -> ItemExtractor {
    Arc::new(move |ev| {
        let domain = ev.primary_domain()?;
        if alexa_only && !sites.in_alexa(domain) {
            return None;
        }
        Some(sites.sld(domain).into_bytes())
    })
}

/// Unique onion addresses published to our HSDirs (Table 6).
pub fn unique_onions_published() -> ItemExtractor {
    Arc::new(|ev| match ev {
        TorEvent::HsDescPublish { addr, .. } => Some(addr.to_bytes().to_vec()),
        _ => None,
    })
}

/// Unique onion addresses successfully fetched from our HSDirs
/// (Table 6).
pub fn unique_onions_fetched() -> ItemExtractor {
    Arc::new(|ev| match ev {
        TorEvent::HsDescFetch {
            addr: Some(addr),
            outcome: DescFetchOutcome::Success,
            ..
        } => Some(addr.to_bytes().to_vec()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use torsim::events::{AddrKind, PortClass};
    use torsim::ids::{DomainId, IpAddr, OnionAddr, RelayId};
    use torsim::sites::SiteListConfig;

    #[test]
    fn ip_extractor() {
        let ex = unique_client_ips();
        let ev = TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: IpAddr(0x01020304),
        };
        assert_eq!(ex(&ev), Some(vec![1, 2, 3, 4]));
        let other = TorEvent::EntryCircuit {
            relay: RelayId(0),
            client_ip: IpAddr(1),
        };
        assert_eq!(ex(&other), None);
    }

    #[test]
    fn country_extractor_canonicalizes() {
        let geo = Arc::new(GeoDb::paper_default());
        let ex = unique_countries(geo.clone());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let us1 = geo
            .sample_ip_in(torsim::ids::CountryCode::new("US"), &mut rng)
            .unwrap();
        let us2 = geo
            .sample_ip_in(torsim::ids::CountryCode::new("US"), &mut rng)
            .unwrap();
        let e1 = TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: us1,
        };
        let e2 = TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: us2,
        };
        // Different IPs, same country item.
        assert_eq!(ex(&e1), ex(&e2));
        assert_eq!(ex(&e1), Some(b"US".to_vec()));
    }

    #[test]
    fn sld_extractor_respects_alexa_filter() {
        let sites = Arc::new(SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 100,
            seed: 2,
        }));
        let all = unique_slds(sites.clone(), false);
        let alexa = unique_slds(sites.clone(), true);
        let in_list = TorEvent::ExitStream {
            relay: RelayId(0),
            initial: true,
            addr: AddrKind::Hostname,
            port: PortClass::Web,
            domain: Some(sites.domain_of_rank(5)),
        };
        let tail = TorEvent::ExitStream {
            relay: RelayId(0),
            initial: true,
            addr: AddrKind::Hostname,
            port: PortClass::Web,
            domain: Some(sites.long_tail_domain(3)),
        };
        assert!(all(&in_list).is_some());
        assert!(all(&tail).is_some());
        assert!(alexa(&in_list).is_some());
        assert_eq!(alexa(&tail), None);
        // Non-initial streams never produce items.
        let subsequent = TorEvent::ExitStream {
            relay: RelayId(0),
            initial: false,
            addr: AddrKind::Hostname,
            port: PortClass::Web,
            domain: Some(DomainId(1)),
        };
        assert_eq!(all(&subsequent), None);
    }

    #[test]
    fn onion_extractors() {
        let pubs = unique_onions_published();
        let fetched = unique_onions_fetched();
        let addr = OnionAddr::from_index(9);
        let pub_ev = TorEvent::HsDescPublish {
            relay: RelayId(0),
            addr,
        };
        let fetch_ok = TorEvent::HsDescFetch {
            relay: RelayId(0),
            addr: Some(addr),
            outcome: DescFetchOutcome::Success,
        };
        let fetch_fail = TorEvent::HsDescFetch {
            relay: RelayId(0),
            addr: Some(addr),
            outcome: DescFetchOutcome::NotFound,
        };
        assert_eq!(pubs(&pub_ev), Some(addr.to_bytes().to_vec()));
        assert_eq!(pubs(&fetch_ok), None);
        assert_eq!(fetched(&fetch_ok), Some(addr.to_bytes().to_vec()));
        assert_eq!(
            fetched(&fetch_fail),
            None,
            "failed fetches carry no descriptor"
        );
    }
}

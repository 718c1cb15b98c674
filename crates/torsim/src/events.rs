//! The PrivCount event vocabulary.
//!
//! The paper's enhanced Tor emits events to its attached Data Collector
//! describing connections, circuits, streams, and onion-service
//! directory usage (§3.1). These are the events our simulated relays
//! emit; both `privcount` and `psc` consume them through the
//! `EventSink` interfaces in those crates.

use crate::ids::{DomainId, IpAddr, OnionAddr, RelayId};

/// How the client specified the stream destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AddrKind {
    /// A DNS hostname (the overwhelmingly common case, Fig. 1b).
    Hostname,
    /// An IPv4 literal.
    Ipv4Literal,
    /// An IPv6 literal.
    Ipv6Literal,
}

/// Destination port classification (Fig. 1c).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortClass {
    /// Port 80 or 443.
    Web,
    /// Anything else.
    Other,
}

/// Outcome of an onion-service descriptor fetch at an HSDir (§6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DescFetchOutcome {
    /// Descriptor present in the HSDir cache; returned to the client.
    Success,
    /// Address valid but no descriptor stored (inactive service or
    /// outdated address list).
    NotFound,
    /// The request itself was malformed.
    Malformed,
}

/// Outcome of a rendezvous circuit at the RP (§6.3, Table 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RendOutcome {
    /// Rendezvous completed and at least one payload cell flowed.
    ActiveSuccess,
    /// Connection to the RP closed before the service completed the
    /// rendezvous protocol.
    ConnClosed,
    /// Circuit expired (timed out) before completion.
    Expired,
    /// Completed but never carried a payload cell.
    InactiveOther,
}

/// An event observed at an instrumented relay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TorEvent {
    /// A stream ended at an exit relay.
    ExitStream {
        /// Observing relay.
        relay: RelayId,
        /// True if this was the circuit's first stream (the "primary
        /// domain" indicator, §4.1).
        initial: bool,
        /// Destination address kind.
        addr: AddrKind,
        /// Destination port class.
        port: PortClass,
        /// The destination domain, when `addr` is a hostname.
        domain: Option<DomainId>,
    },
    /// A client TCP connection to a guard ended.
    EntryConnection {
        /// Observing relay.
        relay: RelayId,
        /// Client address (never stored by PSC; hashed obliviously).
        client_ip: IpAddr,
    },
    /// A client circuit through a guard ended.
    EntryCircuit {
        /// Observing relay.
        relay: RelayId,
        /// Client address.
        client_ip: IpAddr,
    },
    /// Entry bytes transferred on a client connection (reported in
    /// aggregate at connection end).
    EntryBytes {
        /// Observing relay.
        relay: RelayId,
        /// Client address.
        client_ip: IpAddr,
        /// Bytes read + written.
        bytes: u64,
    },
    /// A v2 onion-service descriptor was published to this HSDir.
    HsDescPublish {
        /// Observing relay.
        relay: RelayId,
        /// The onion address in the descriptor.
        addr: OnionAddr,
    },
    /// A v2 descriptor fetch was attempted at this HSDir.
    HsDescFetch {
        /// Observing relay.
        relay: RelayId,
        /// The requested address (`None` when the request is malformed).
        addr: Option<OnionAddr>,
        /// Outcome.
        outcome: DescFetchOutcome,
    },
    /// A rendezvous circuit ended at this RP.
    RendCircuit {
        /// Observing relay.
        relay: RelayId,
        /// Outcome.
        outcome: RendOutcome,
        /// Payload bytes carried in cells (0 unless ActiveSuccess).
        payload_bytes: u64,
    },
}

impl TorEvent {
    /// The relay that observed the event.
    pub fn relay(&self) -> RelayId {
        match self {
            TorEvent::ExitStream { relay, .. }
            | TorEvent::EntryConnection { relay, .. }
            | TorEvent::EntryCircuit { relay, .. }
            | TorEvent::EntryBytes { relay, .. }
            | TorEvent::HsDescPublish { relay, .. }
            | TorEvent::HsDescFetch { relay, .. }
            | TorEvent::RendCircuit { relay, .. } => *relay,
        }
    }

    /// The primary domain of the event: the destination of an initial,
    /// hostname, web-port exit stream (§4.1).
    pub fn primary_domain(&self) -> Option<DomainId> {
        match self {
            TorEvent::ExitStream {
                initial: true,
                addr: AddrKind::Hostname,
                port: PortClass::Web,
                domain,
                ..
            } => *domain,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_accessor_covers_all_variants() {
        let r = RelayId(3);
        let events = [
            TorEvent::ExitStream {
                relay: r,
                initial: true,
                addr: AddrKind::Hostname,
                port: PortClass::Web,
                domain: Some(DomainId(1)),
            },
            TorEvent::EntryConnection {
                relay: r,
                client_ip: IpAddr(1),
            },
            TorEvent::EntryCircuit {
                relay: r,
                client_ip: IpAddr(1),
            },
            TorEvent::EntryBytes {
                relay: r,
                client_ip: IpAddr(1),
                bytes: 10,
            },
            TorEvent::HsDescPublish {
                relay: r,
                addr: OnionAddr::from_index(0),
            },
            TorEvent::HsDescFetch {
                relay: r,
                addr: None,
                outcome: DescFetchOutcome::Malformed,
            },
            TorEvent::RendCircuit {
                relay: r,
                outcome: RendOutcome::Expired,
                payload_bytes: 0,
            },
        ];
        for e in events {
            assert_eq!(e.relay(), r);
        }
    }
}

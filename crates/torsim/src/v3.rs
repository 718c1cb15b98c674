//! v3 onion-service descriptor identifiers and key blinding.
//!
//! The paper measures only *v2* onion addresses (§6.1): "We don't
//! measure version 3 onion service descriptors because the onion
//! address is obscured using key blinding." This module models exactly
//! that property: a v3 service's descriptor is stored under a *blinded*
//! identifier derived from its public key and the time period, so an
//! HSDir (or a measurement system at an HSDir) observes identifiers that
//! are unlinkable to the service address and unlinkable across periods.
//! The unit tests demonstrate both properties — the justification for
//! the paper's v2-only scope — while rendezvous circuits (Table 8)
//! remain measurable for both versions since RPs never see addresses.

use pm_crypto::sha256::sha256_concat;

/// A v3 onion-service identity (stand-in for the ed25519 public key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct V3Identity(pub [u8; 32]);

impl V3Identity {
    /// Derives an identity from a service index.
    pub fn from_index(i: u64) -> V3Identity {
        V3Identity(sha256_concat(&[b"v3-identity", &i.to_be_bytes()]))
    }
}

/// The blinded descriptor identifier a v3 service publishes under
/// during one time period.
///
/// Real Tor computes `blinded_key = h·A` on ed25519 with a
/// period-derived scalar `h`; what matters for measurement semantics is
/// that the map `(identity, period) → blinded id` is (a) deterministic
/// for the service and its clients, (b) one-way, and (c) unlinkable
/// across periods and services without the identity key. A keyed hash
/// models those three properties faithfully.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlindedId(pub [u8; 32]);

/// Blinds an identity for a time period.
pub fn blind(identity: &V3Identity, period: u64) -> BlindedId {
    BlindedId(sha256_concat(&[
        b"v3-blind",
        &identity.0,
        &period.to_be_bytes(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn clients_and_service_agree() {
        // Both sides derive the same blinded id for the same period —
        // the DHT lookup works.
        let id = V3Identity::from_index(7);
        assert_eq!(blind(&id, 100), blind(&id, 100));
    }

    #[test]
    fn unlinkable_across_periods() {
        // The property that defeats v2-style unique-address counting:
        // the same service yields a fresh identifier every period, so a
        // PSC round would count each period's id as a distinct item.
        let id = V3Identity::from_index(7);
        let ids: HashSet<BlindedId> = (0..50).map(|p| blind(&id, p)).collect();
        assert_eq!(ids.len(), 50, "every period must look distinct");
    }

    #[test]
    fn unlinkable_across_services() {
        let p = 42;
        let ids: HashSet<BlindedId> = (0..100)
            .map(|i| blind(&V3Identity::from_index(i), p))
            .collect();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn psc_over_blinded_ids_counts_periods_not_services() {
        // Demonstrate the §6.1 scope decision end to end: marking
        // blinded ids in an oblivious table over 4 periods yields ~4×
        // the true service count — the statistic the paper wants (unique
        // services) is NOT measurable for v3.
        use psc_table_stub::count_distinct;

        let services = 25u64;
        let periods = 4u64;
        let mut items = Vec::new();
        for s in 0..services {
            let id = V3Identity::from_index(s);
            for p in 0..periods {
                items.push(blind(&id, p).0.to_vec());
            }
        }
        let distinct = count_distinct(&items);
        assert_eq!(distinct, (services * periods) as usize);

        // Whereas v2 addresses are period-stable: the descriptor ID
        // varies by day, but the address *inside* the descriptor does
        // not — that is what the paper counts (Table 6).
    }

    /// Minimal local stand-in for a PSC uniqueness count (a HashSet —
    /// the real protocol is exercised in the psc crate's tests).
    mod psc_table_stub {
        pub fn count_distinct(items: &[Vec<u8>]) -> usize {
            items.iter().collect::<std::collections::HashSet<_>>().len()
        }
    }
}

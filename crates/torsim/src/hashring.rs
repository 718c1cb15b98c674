//! The onion-service directory (HSDir) distributed hash table.
//!
//! v2 descriptor placement (§2.1): the descriptor ID is derived from the
//! onion address, a replica index, and the time period; the descriptor
//! is stored on the `spread` HSDir-flagged relays whose ring positions
//! follow the descriptor ID, for each of `replicas` replica indices —
//! 2 × 3 = 6 directories for v2 (8 for older versions).

use crate::ids::{OnionAddr, RelayId};
use pm_crypto::sha256::sha256_concat;

/// The HSDir consistent-hash ring.
#[derive(Clone, Debug)]
pub struct HsDirRing {
    /// (ring position, relay id), sorted by position.
    ring: Vec<([u8; 32], RelayId)>,
    /// Replica count (2 for v2).
    pub replicas: u32,
    /// Spread: consecutive directories per replica (3 for v2).
    pub spread: u32,
}

impl HsDirRing {
    /// Builds a ring from the HSDir-flagged relays.
    fn new(hsdirs: &[RelayId], replicas: u32, spread: u32) -> HsDirRing {
        assert!(!hsdirs.is_empty(), "need at least one HSDir");
        assert!(replicas >= 1 && spread >= 1);
        let mut ring: Vec<([u8; 32], RelayId)> = hsdirs
            .iter()
            .map(|id| {
                let pos = sha256_concat(&[b"hsdir-ring-pos", &id.0.to_be_bytes()]);
                (pos, *id)
            })
            .collect();
        ring.sort();
        HsDirRing {
            ring,
            replicas,
            spread,
        }
    }

    /// The v2 parameters: 2 replicas × 3 spread.
    pub fn v2(hsdirs: &[RelayId]) -> HsDirRing {
        HsDirRing::new(hsdirs, 2, 3)
    }

    /// Descriptor ID for (address, replica, day).
    fn descriptor_id(addr: &OnionAddr, replica: u32, day: u64) -> [u8; 32] {
        sha256_concat(&[
            b"desc-id",
            &addr.to_bytes(),
            &replica.to_be_bytes(),
            &day.to_be_bytes(),
        ])
    }

    /// The responsible HSDirs for a descriptor ID: the `spread` relays
    /// clockwise from the ID's position.
    fn responsible_for_id(&self, desc_id: &[u8; 32]) -> Vec<RelayId> {
        let n = self.ring.len();
        let take = (self.spread as usize).min(n);
        let start = self
            .ring
            .partition_point(|(pos, _)| pos.as_slice() <= desc_id.as_slice());
        (0..take).map(|k| self.ring[(start + k) % n].1).collect()
    }

    /// All HSDirs responsible for an address on a given day, over all
    /// replicas (deduplicated; order unspecified).
    pub fn responsible(&self, addr: &OnionAddr, day: u64) -> Vec<RelayId> {
        let mut out = Vec::new();
        for r in 0..self.replicas {
            let id = Self::descriptor_id(addr, r, day);
            for relay in self.responsible_for_id(&id) {
                if !out.contains(&relay) {
                    out.push(relay);
                }
            }
        }
        out
    }

    /// Number of relays on the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the ring is empty (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relays(n: u32) -> Vec<RelayId> {
        (0..n).map(RelayId).collect()
    }

    #[test]
    fn v2_places_six_dirs() {
        let ring = HsDirRing::v2(&relays(100));
        let addr = OnionAddr::from_index(42);
        let dirs = ring.responsible(&addr, 0);
        // 2 replicas × 3 spread, collisions possible but unlikely at 100.
        assert!(dirs.len() >= 4 && dirs.len() <= 6, "{}", dirs.len());
    }

    #[test]
    fn placement_deterministic() {
        let ring = HsDirRing::v2(&relays(50));
        let addr = OnionAddr::from_index(7);
        assert_eq!(ring.responsible(&addr, 3), ring.responsible(&addr, 3));
    }

    #[test]
    fn placement_changes_with_day() {
        let ring = HsDirRing::v2(&relays(200));
        let addr = OnionAddr::from_index(7);
        assert_ne!(ring.responsible(&addr, 0), ring.responsible(&addr, 1));
    }

    #[test]
    fn wraparound_works() {
        // A descriptor ID beyond every ring position must wrap to the
        // start of the ring.
        let ring = HsDirRing::new(&relays(5), 1, 3);
        let id = [0xffu8; 32];
        let dirs = ring.responsible_for_id(&id);
        assert_eq!(dirs.len(), 3);
    }

    #[test]
    fn spread_larger_than_ring() {
        let ring = HsDirRing::new(&relays(2), 2, 3);
        let dirs = ring.responsible(&OnionAddr::from_index(1), 0);
        assert_eq!(dirs.len(), 2); // all relays, deduplicated
    }

    #[test]
    fn load_roughly_balanced() {
        // Over many addresses, each HSDir should get a reasonable share.
        let n = 40u32;
        let ring = HsDirRing::v2(&relays(n));
        let mut load = vec![0u64; n as usize];
        for i in 0..4000 {
            for id in ring.responsible(&OnionAddr::from_index(i), 0) {
                load[id.0 as usize] += 1;
            }
        }
        let total: u64 = load.iter().sum();
        let mean = total as f64 / n as f64;
        // Consistent hashing with one position per node balances only
        // coarsely: every dir must get SOME load, none a dominant share.
        for (i, l) in load.iter().enumerate() {
            assert!(*l > 0, "dir {i} got no load");
            assert!((*l as f64) < mean * 6.0, "dir {i} load {l} vs mean {mean}");
        }
    }

    #[test]
    fn replica_ids_differ() {
        let addr = OnionAddr::from_index(3);
        assert_ne!(
            HsDirRing::descriptor_id(&addr, 0, 5),
            HsDirRing::descriptor_id(&addr, 1, 5)
        );
    }
}

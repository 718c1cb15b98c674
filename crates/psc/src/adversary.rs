//! Attack injection: seed-deterministic Byzantine behaviour for the
//! adversarial scenario suite.
//!
//! The PSC threat model (§2 of the PSC paper, §3 of the measurement
//! study) assumes data collectors and computation parties can
//! misbehave or die mid-round; the protocol's job is to make every
//! such failure *detectable* — by the verifying tally server, by the
//! runner's deadlock detector, or statistically in the published
//! count. This module injects those behaviours on demand so the study
//! harness can assert each one is detected (or cleanly degrades)
//! rather than panicking the campaign.
//!
//! Like the `pm-net` fault injector, every attack is **deterministic
//! in the round seed**: a skewed DC draws its bogus items from the
//! same seeded RNG as its honest marking, so an attacked round renders
//! bit-identically across schedules and shard counts.
//!
//! | Attack | Behaviour | Detected by |
//! |---|---|---|
//! | [`Attack::MalformedTable`] | DC submits a wrong-size table | TS structural check (`DC table size mismatch`) |
//! | [`Attack::SkewedShares`] | DC marks `extra_marks` bogus items | statistically, by the caller (implausible count) |
//! | [`Attack::CpDeath`] | CP stops after N handled messages | runner deadlock detector |
//! | [`Attack::InvalidProof`] | CP swaps exponentiation proofs mid-mix | TS proof verification (requires `verify`) |
//! | [`Attack::NoiseExhaustion`] | CP's noise budget is smaller than the required flips | the exhausted CP itself, which refuses to publish under-noised cells |
//!
//! An attack reaches its party in one step. The round door hands each
//! party's one constructor the round's attack narrowed to that party —
//! `Attack::on_dc(i)` for DC `i`, `Attack::on_cp(i)` for CP `i` — which
//! is the attack when it names that party and [`Attack::None`]
//! otherwise, so an out-of-range index injects nothing. The node keeps
//! that one value and matches on it where it acts: a DC when it sizes
//! and marks its table, a CP as each message arrives and when it mixes.
//!
//! Attacks need the deterministic scheduler, which every round over
//! the in-process board runs on: the threaded runner has no deadlock
//! detector, so a dead keeper would hang it forever instead of failing
//! loudly. The wire fabric runs one thread per party, so
//! [`pm_net::party::run`] refuses a round with an active attack there.

/// A Byzantine behaviour to inject into one PSC round.
///
/// Party indices refer to the round's DC/CP ordering
/// (`psc-dc-{i}` / `psc-cp-{i}`); an out-of-range index injects
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Attack {
    /// Honest round (the default).
    #[default]
    None,
    /// DC `dc` submits a table of the wrong size — the coarsest
    /// malformed-share attack, caught by the TS before mixing starts.
    MalformedTable {
        /// Index of the Byzantine DC.
        dc: usize,
    },
    /// DC `dc` marks `extra_marks` bogus items on top of its honest
    /// observations — a statistically-skewed share. The protocol
    /// cannot distinguish bogus marks from real ones (that is the
    /// point of oblivious counters), so detection is the *caller's*
    /// job: the published count lands implausibly far above the
    /// population the table was provisioned for.
    SkewedShares {
        /// Index of the Byzantine DC.
        dc: usize,
        /// Bogus items to mark, drawn from the DC's seeded RNG.
        extra_marks: u32,
    },
    /// CP `cp` stops participating after handling `after_messages`
    /// messages — a share keeper dying mid-round. The round can no
    /// longer complete; the deterministic runner's deadlock detector
    /// reports the stuck parties.
    CpDeath {
        /// Index of the dying CP.
        cp: usize,
        /// Messages the CP handles before going silent.
        after_messages: u32,
    },
    /// CP `cp` emits an invalid exponentiation proof mid-mix (its
    /// per-cell Chaum–Pedersen proofs are swapped so each verifies
    /// against the wrong transcript). Only detectable when the round
    /// verifies proofs.
    InvalidProof {
        /// Index of the cheating CP.
        cp: usize,
    },
    /// CP `cp` has only `budget` noise encryptions left — fewer than
    /// the configured flips. Publishing under-noised cells would
    /// silently weaken the round's differential privacy, so the CP
    /// fails its mixing hop loudly instead.
    NoiseExhaustion {
        /// Index of the exhausted CP.
        cp: usize,
        /// Noise cells the CP can still afford.
        budget: u32,
    },
}

impl Attack {
    /// True when any behaviour is injected.
    pub fn is_active(&self) -> bool {
        *self != Attack::None
    }

    /// The attack when it names DC `i`, [`Attack::None`] otherwise.
    pub(crate) fn on_dc(self, i: usize) -> Attack {
        match self {
            Attack::MalformedTable { dc } | Attack::SkewedShares { dc, .. } if dc == i => self,
            _ => Attack::None,
        }
    }

    /// The attack when it names CP `i`, [`Attack::None`] otherwise.
    pub(crate) fn on_cp(self, i: usize) -> Attack {
        match self {
            Attack::CpDeath { cp, .. }
            | Attack::InvalidProof { cp }
            | Attack::NoiseExhaustion { cp, .. }
                if cp == i =>
            {
                self
            }
            _ => Attack::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::round::{run_psc_round, PscConfig};
    use pm_net::party::NodeError;
    use pm_net::transport::FabricChoice;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};

    fn generators(ip_sets: Vec<Vec<u32>>) -> Vec<crate::dc::EventGenerator> {
        ip_sets
            .into_iter()
            .map(|ips| {
                let g: crate::dc::EventGenerator = Box::new(move |sink| {
                    for ip in ips {
                        sink(TorEvent::EntryConnection {
                            relay: RelayId(0),
                            client_ip: IpAddr(ip),
                        });
                    }
                });
                g
            })
            .collect()
    }

    fn cfg(adversary: Attack) -> PscConfig {
        PscConfig {
            table_size: 64,
            noise_flips_per_cp: 8,
            num_cps: 2,
            seed: 9,
            adversary,
            ..Default::default()
        }
    }

    #[test]
    fn malformed_table_detected_by_ts() {
        let err = run_psc_round(
            cfg(Attack::MalformedTable { dc: 0 }),
            items::unique_client_ips(),
            generators(vec![vec![1, 2], vec![3]]),
        )
        .unwrap_err();
        assert_eq!(err.detected_by().map(|p| p.as_str()), Some("psc-ts"));
        assert!(err.reason().contains("table size mismatch"), "{err}");
    }

    #[test]
    fn skewed_shares_inflate_the_count_deterministically() {
        let run = |attack| {
            run_psc_round(
                PscConfig {
                    noise_flips_per_cp: 0,
                    ..cfg(attack)
                },
                items::unique_client_ips(),
                generators(vec![vec![1, 2], vec![3]]),
            )
            .unwrap()
            .raw
            .marked
        };
        let honest = run(Attack::None);
        let skewed = run(Attack::SkewedShares {
            dc: 0,
            extra_marks: 48,
        });
        assert_eq!(honest, 3);
        assert!(skewed > 20, "skew must saturate the table: {skewed}");
        // Seed-deterministic: the same attacked round twice.
        assert_eq!(
            skewed,
            run(Attack::SkewedShares {
                dc: 0,
                extra_marks: 48
            })
        );
    }

    #[test]
    fn cp_death_is_caught_by_the_deadlock_detector() {
        let err = run_psc_round(
            cfg(Attack::CpDeath {
                cp: 1,
                after_messages: 1,
            }),
            items::unique_client_ips(),
            generators(vec![vec![1]]),
        )
        .unwrap_err();
        assert!(err.detected_by().is_none(), "runner-level: {err}");
        assert!(err.reason().contains("deadlock"), "{err}");
        assert!(err.reason().contains("psc-ts"), "{err}");
    }

    #[test]
    fn invalid_proof_fails_verification() {
        let err = run_psc_round(
            PscConfig {
                verify: true,
                table_size: 16,
                noise_flips_per_cp: 2,
                ..cfg(Attack::InvalidProof { cp: 0 })
            },
            items::unique_client_ips(),
            generators(vec![vec![1, 2]]),
        )
        .unwrap_err();
        assert_eq!(err.detected_by().map(|p| p.as_str()), Some("psc-ts"));
        assert!(err.reason().contains("proof"), "{err}");
    }

    #[test]
    fn noise_exhaustion_fails_the_mixing_hop() {
        let err = run_psc_round(
            cfg(Attack::NoiseExhaustion { cp: 1, budget: 3 }),
            items::unique_client_ips(),
            generators(vec![vec![1]]),
        )
        .unwrap_err();
        assert_eq!(err.detected_by().map(|p| p.as_str()), Some("psc-cp-1"));
        assert!(err.reason().contains("noise"), "{err}");
    }

    #[test]
    fn out_of_range_attack_index_is_inert() {
        let result = run_psc_round(
            cfg(Attack::MalformedTable { dc: 9 }),
            items::unique_client_ips(),
            generators(vec![vec![1, 2], vec![3]]),
        )
        .unwrap();
        assert!(result.raw.marked >= 3);
    }

    /// Every attack aimed at the first party, at the last one and past
    /// the end of three DCs and three CPs: each outcome is pinned, so
    /// an attack that lands on the wrong party (or on none) changes a
    /// count or the detector an error names.
    #[test]
    fn each_attack_lands_on_the_party_it_names() {
        let table = [
            (Attack::None, "marked 9"),
            (Attack::MalformedTable { dc: 0 }, "protocol error: DC table size mismatch (detected by psc-ts)"),
            (Attack::MalformedTable { dc: 2 }, "protocol error: DC table size mismatch (detected by psc-ts)"),
            (Attack::MalformedTable { dc: 9 }, "marked 9"),
            (Attack::SkewedShares { dc: 0, extra_marks: 5 }, "marked 11"),
            (Attack::SkewedShares { dc: 2, extra_marks: 5 }, "marked 11"),
            (Attack::SkewedShares { dc: 9, extra_marks: 5 }, "marked 9"),
            (Attack::CpDeath { cp: 0, after_messages: 1 }, "protocol error: deadlock: no messages in flight but parties not done: psc-ts (psc-ts), psc-cp-1 (psc-cp), psc-cp-2 (psc-cp)"),
            (Attack::CpDeath { cp: 2, after_messages: 1 }, "protocol error: deadlock: no messages in flight but parties not done: psc-ts (psc-ts), psc-cp-0 (psc-cp), psc-cp-1 (psc-cp)"),
            (Attack::CpDeath { cp: 9, after_messages: 1 }, "marked 9"),
            (Attack::InvalidProof { cp: 0 }, "protocol error: exponentiation proof (a) failed at cell 0 (detected by psc-ts)"),
            (Attack::InvalidProof { cp: 2 }, "protocol error: exponentiation proof (a) failed at cell 0 (detected by psc-ts)"),
            (Attack::InvalidProof { cp: 9 }, "marked 9"),
            (Attack::NoiseExhaustion { cp: 0, budget: 1 }, "protocol error: noise budget exhausted: 1 of 2 required flips available (detected by psc-cp-0)"),
            (Attack::NoiseExhaustion { cp: 2, budget: 1 }, "protocol error: noise budget exhausted: 1 of 2 required flips available (detected by psc-cp-2)"),
            (Attack::NoiseExhaustion { cp: 9, budget: 1 }, "marked 9"),
        ];
        for (attack, want) in table {
            let name = format!("{attack:?}");
            let got = match run_psc_round(
                PscConfig {
                    table_size: 16,
                    noise_flips_per_cp: 2,
                    num_cps: 3,
                    verify: matches!(attack, Attack::InvalidProof { .. }),
                    ..cfg(attack)
                },
                items::unique_client_ips(),
                generators(vec![vec![1, 2], vec![3], vec![4, 5]]),
            ) {
                Ok(result) => format!("marked {}", result.raw.marked),
                Err(e) => e.to_string(),
            };
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn wire_fabric_refuses_an_active_attack() {
        let err = run_psc_round(
            PscConfig {
                fabric: FabricChoice::Wire(Default::default()),
                ..cfg(Attack::InvalidProof { cp: 0 })
            },
            items::unique_client_ips(),
            generators(vec![vec![1]]),
        )
        .unwrap_err();
        assert!(matches!(err, NodeError::Protocol(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "protocol error: adversarial scenarios need the deterministic scheduler, \
             which the wire fabric cannot provide"
        );
    }
}

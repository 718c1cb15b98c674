//! Attack injection: seed-deterministic Byzantine behaviour for the
//! adversarial scenario suite.
//!
//! PrivCount's threat model (§2 of the PrivCount paper, §3 of the
//! measurement study) tolerates misbehaving Data Collectors and Share
//! Keepers as long as the failure is *visible*: either a party detects
//! the malformed input and refuses to continue, or the round wedges
//! and the runner's deadlock detector names the stuck parties, or the
//! published total is implausible enough for the caller's statistical
//! checks. This module injects each of those behaviours on demand so
//! the study harness can assert the detection actually happens instead
//! of the campaign panicking.
//!
//! Every attack is **deterministic in the round seed**: an inflating
//! DC multiplies its honest totals, a corrupting DC truncates the
//! ciphertext it would have sent anyway, so an attacked round renders
//! bit-identically across schedules and shard counts.
//!
//! | Attack | Behaviour | Detected by |
//! |---|---|---|
//! | [`Attack::MalformedRegisters`] | DC publishes too few registers | TS structural check (`DC result length mismatch`) |
//! | [`Attack::InflatedCounts`] | DC multiplies every observed increment | statistically, by the caller (implausible total) |
//! | [`Attack::SkDeath`] | SK stops after N handled messages | runner deadlock detector |
//! | [`Attack::BadSharePayload`] | DC truncates an encrypted blinding-share payload | the receiving SK (`invalid length`) |
//! | [`Attack::NoiseExhaustion`] | DC's noise budget covers fewer counters than configured | the exhausted DC itself, which refuses to run under-noised |
//!
//! An attack reaches its party in one step. The round door hands each
//! party's one constructor the round's attack narrowed to that party —
//! `Attack::on_dc(i)` for DC `i`, `Attack::on_sk(i)` for SK `i` — which
//! is the attack when it names that party and [`Attack::None`]
//! otherwise, so an out-of-range index injects nothing. The node keeps
//! that one value and matches on it where it acts: a DC when it
//! configures, folds and publishes, an SK as each message arrives.
//!
//! Attacks need the deterministic scheduler, which every round over
//! the in-process board runs on: the threaded runner has no deadlock
//! detector, so a dead keeper would hang it forever instead of failing
//! loudly. The wire fabric runs one thread per party, so
//! [`pm_net::party::run`] refuses a round with an active attack there.

/// A Byzantine behaviour to inject into one PrivCount round.
///
/// Party indices refer to the round's DC/SK ordering
/// (`dc-{i}` / `sk-{i}`); an out-of-range index injects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Attack {
    /// Honest round (the default).
    #[default]
    None,
    /// DC `dc` publishes one register too few — the coarsest
    /// malformed-share attack, caught by the TS's structural check.
    MalformedRegisters {
        /// Index of the Byzantine DC.
        dc: usize,
    },
    /// DC `dc` multiplies every observed increment by `factor` — a
    /// statistically-skewed share. Blinding makes bogus increments
    /// indistinguishable from real ones at the protocol layer, so
    /// detection is the *caller's* job: the published total lands
    /// implausibly far above the honest population.
    InflatedCounts {
        /// Index of the Byzantine DC.
        dc: usize,
        /// Multiplier applied to each observed increment.
        factor: i64,
    },
    /// SK `sk` stops participating after handling `after_messages`
    /// messages — a share keeper dying mid-round. The TS can never
    /// telescope the blinding away; the deterministic runner's
    /// deadlock detector reports the stuck parties.
    SkDeath {
        /// Index of the dying SK.
        sk: usize,
        /// Messages the SK handles before going silent.
        after_messages: u32,
    },
    /// DC `dc` truncates the encrypted blinding-share payload it sends
    /// to the first SK. The stream cipher decrypts the stump to a
    /// wrong-length share vector, which the SK rejects by name.
    BadSharePayload {
        /// Index of the Byzantine DC.
        dc: usize,
    },
    /// DC `dc` has only `budget` noise draws left — fewer than the
    /// configured counters. Publishing under-noised registers would
    /// silently weaken the round's differential privacy, so the DC
    /// refuses to configure and fails the round loudly instead.
    NoiseExhaustion {
        /// Index of the exhausted DC.
        dc: usize,
        /// Per-counter noise draws the DC can still afford.
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
            Attack::MalformedRegisters { dc }
            | Attack::InflatedCounts { dc, .. }
            | Attack::BadSharePayload { dc }
            | Attack::NoiseExhaustion { dc, .. }
                if dc == i =>
            {
                self
            }
            _ => Attack::None,
        }
    }

    /// The attack when it names SK `i`, [`Attack::None`] otherwise.
    pub(crate) fn on_sk(self, i: usize) -> Attack {
        match self {
            Attack::SkDeath { sk, .. } if sk == i => self,
            _ => Attack::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterSpec;
    use crate::dc::EventGenerator;
    use crate::round::{run_round, NoiseAllocation, RoundConfig};
    use pm_net::party::NodeError;
    use pm_net::transport::{FabricChoice, FaultConfig};
    use std::sync::Arc;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};

    fn generators(counts: &[u64]) -> Vec<EventGenerator> {
        counts
            .iter()
            .map(|&n| {
                let g: EventGenerator = Box::new(move |sink| {
                    for i in 0..n {
                        sink(TorEvent::EntryConnection {
                            relay: RelayId(0),
                            client_ip: IpAddr(i as u32),
                        });
                    }
                });
                g
            })
            .collect()
    }

    fn cfg(adversary: Attack) -> RoundConfig {
        RoundConfig {
            counters: vec![CounterSpec::with_sigma("connections", 0.0)],
            mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
                if matches!(ev, TorEvent::EntryConnection { .. }) {
                    counts[0] += 1;
                }
            }),
            num_sks: 2,
            noise: NoiseAllocation::None,
            seed: 11,
            faults: FaultConfig::none(),
            fabric: Default::default(),
            adversary,
            recorder: Default::default(),
        }
    }

    #[test]
    fn malformed_registers_detected_by_ts() {
        let err = run_round(
            cfg(Attack::MalformedRegisters { dc: 1 }),
            generators(&[5, 7]),
        )
        .unwrap_err();
        assert_eq!(err.detected_by().map(|p| p.as_str()), Some("ts"));
        assert!(err.reason().contains("DC result length mismatch"), "{err}");
    }

    #[test]
    fn inflated_counts_skew_the_total_deterministically() {
        let run = |attack| {
            run_round(cfg(attack), generators(&[5, 7]))
                .unwrap()
                .total("connections")
        };
        assert_eq!(run(Attack::None), 12);
        let inflated = run(Attack::InflatedCounts { dc: 0, factor: 100 });
        assert_eq!(inflated, 5 * 100 + 7);
        // Seed-deterministic: the same attacked round twice.
        assert_eq!(inflated, run(Attack::InflatedCounts { dc: 0, factor: 100 }));
    }

    #[test]
    fn sk_death_is_caught_by_the_deadlock_detector() {
        let err = run_round(
            cfg(Attack::SkDeath {
                sk: 0,
                after_messages: 1,
            }),
            generators(&[3]),
        )
        .unwrap_err();
        assert!(err.detected_by().is_none(), "runner-level: {err}");
        assert!(err.reason().contains("deadlock"), "{err}");
        assert!(err.reason().contains("ts"), "{err}");
    }

    #[test]
    fn bad_share_payload_is_rejected_by_the_sk() {
        let err =
            run_round(cfg(Attack::BadSharePayload { dc: 0 }), generators(&[3, 4])).unwrap_err();
        assert_eq!(err.detected_by().map(|p| p.as_str()), Some("sk-0"));
        assert!(err.reason().contains("invalid length"), "{err}");
        assert!(err.reason().contains("dc-0"), "{err}");
    }

    #[test]
    fn noise_exhaustion_refuses_to_configure() {
        let mut config = cfg(Attack::NoiseExhaustion { dc: 1, budget: 0 });
        config.counters.push(CounterSpec::with_sigma("bytes", 0.0));
        let err = run_round(config, generators(&[3, 4])).unwrap_err();
        assert_eq!(err.detected_by().map(|p| p.as_str()), Some("dc-1"));
        assert!(err.reason().contains("noise budget exhausted"), "{err}");
    }

    #[test]
    fn out_of_range_attack_index_is_inert() {
        let result = run_round(
            cfg(Attack::MalformedRegisters { dc: 9 }),
            generators(&[5, 7]),
        )
        .unwrap();
        assert_eq!(result.total("connections"), 12);
    }

    /// Every attack aimed at the first party, at the last one and past
    /// the end of three DCs and three SKs: each outcome is pinned, so
    /// an attack that lands on the wrong party (or on none) changes a
    /// total or the detector an error names.
    #[test]
    fn each_attack_lands_on_the_party_it_names() {
        let table = [
            (Attack::None, "total 15"),
            (Attack::MalformedRegisters { dc: 0 }, "protocol error: DC result length mismatch (detected by ts)"),
            (Attack::MalformedRegisters { dc: 2 }, "protocol error: DC result length mismatch (detected by ts)"),
            (Attack::MalformedRegisters { dc: 9 }, "total 15"),
            (Attack::InflatedCounts { dc: 0, factor: 10 }, "total 42"),
            (Attack::InflatedCounts { dc: 2, factor: 10 }, "total 78"),
            (Attack::InflatedCounts { dc: 9, factor: 10 }, "total 15"),
            (Attack::SkDeath { sk: 0, after_messages: 1 }, "protocol error: deadlock: no messages in flight but parties not done: ts (privcount-ts), sk-1 (privcount-sk), sk-2 (privcount-sk), dc-0 (privcount-dc), dc-1 (privcount-dc), dc-2 (privcount-dc)"),
            (Attack::SkDeath { sk: 2, after_messages: 1 }, "protocol error: deadlock: no messages in flight but parties not done: ts (privcount-ts), sk-0 (privcount-sk), sk-1 (privcount-sk), dc-0 (privcount-dc), dc-1 (privcount-dc), dc-2 (privcount-dc)"),
            (Attack::SkDeath { sk: 9, after_messages: 1 }, "total 15"),
            (Attack::BadSharePayload { dc: 0 }, "protocol error: share payload from dc-0 has invalid length 5 (detected by sk-0)"),
            (Attack::BadSharePayload { dc: 2 }, "protocol error: share payload from dc-2 has invalid length 5 (detected by sk-0)"),
            (Attack::BadSharePayload { dc: 9 }, "total 15"),
            (Attack::NoiseExhaustion { dc: 0, budget: 0 }, "protocol error: noise budget exhausted: 0 of 1 counter draws available (detected by dc-0)"),
            (Attack::NoiseExhaustion { dc: 2, budget: 0 }, "protocol error: noise budget exhausted: 0 of 1 counter draws available (detected by dc-2)"),
            (Attack::NoiseExhaustion { dc: 9, budget: 0 }, "total 15"),
        ];
        for (attack, want) in table {
            let config = RoundConfig {
                num_sks: 3,
                ..cfg(attack)
            };
            let got = match run_round(config, generators(&[3, 5, 7])) {
                Ok(result) => format!("total {}", result.total("connections")),
                Err(e) => e.to_string(),
            };
            assert_eq!(got, want, "{attack:?}");
        }
    }

    #[test]
    fn wire_fabric_refuses_an_active_attack() {
        let config = RoundConfig {
            fabric: FabricChoice::Wire(Default::default()),
            ..cfg(Attack::SkDeath {
                sk: 0,
                after_messages: 1,
            })
        };
        let err = run_round(config, generators(&[3])).unwrap_err();
        assert!(matches!(err, NodeError::Protocol(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "protocol error: adversarial scenarios need the deterministic scheduler, \
             which the wire fabric cannot provide"
        );
    }
}

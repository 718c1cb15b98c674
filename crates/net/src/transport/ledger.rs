//! The send-side admission path every backend shares: fault
//! configuration, per-link fault schedules, and the frame/byte/digest
//! accounting published as the `net.*` metrics. Each ordered link
//! keeps one record behind one lock; board-wide totals are summed from
//! the links, so every frame is counted in exactly one place.

use super::{lock, PartyId};
use crate::frame::flip_wire_bit;
use pm_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Fault-injection knobs, mirroring smoltcp's example options.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability a sent frame is silently dropped.
    pub drop_chance: f64,
    /// Probability a sent frame is delivered twice.
    pub duplicate_chance: f64,
    /// Probability one byte of the frame is flipped in flight.
    pub corrupt_chance: f64,
    /// RNG seed for deterministic fault schedules.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            duplicate_chance: 0.0,
            corrupt_chance: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A lossless configuration (the default).
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// True if any fault is possible.
    pub fn is_active(&self) -> bool {
        self.drop_chance > 0.0 || self.duplicate_chance > 0.0 || self.corrupt_chance > 0.0
    }
}

/// Board-wide delivery statistics: the sum of every link's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames submitted for delivery.
    pub sent: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Extra deliveries due to duplication.
    pub duplicated: u64,
    /// Frames with a byte flipped.
    pub corrupted: u64,
}

/// Per-link delivery statistics: everything that happened on one
/// ordered `(from, to)` link, with corrupted-then-delivered copies
/// counted apart from clean ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames submitted for delivery on this link.
    pub sent: u64,
    /// Wire bytes submitted (pre-corruption; bit flips preserve size).
    pub bytes: u64,
    /// Order-sensitive FNV-1a digest of every wire byte submitted on
    /// this link, in send order (pre-fault, like `bytes`). Two fabrics
    /// carried the *same transcript* on a link exactly when their
    /// digests agree — the wire-vs-in-process equality tests pin this.
    pub digest: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames the duplicate fault delivered twice.
    pub duplicated: u64,
    /// Copies committed for delivery with intact wire bytes.
    pub delivered_clean: u64,
    /// Copies committed for delivery with a flipped bit — the receiver
    /// sees these as checksum failures, the stats see them distinctly.
    pub delivered_corrupted: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_fold(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-link fault-schedule seed: the workspace's labelled seed
/// derivation over the fabric seed and both endpoint names (the same
/// scheme torsim uses for its per-partition RNGs).
fn link_seed(seed: u64, from: &PartyId, to: &PartyId) -> u64 {
    pm_stats::sampling::derive_seed(seed, &format!("link/{from}\u{0}->\u{0}{to}"))
}

/// One ordered `(from, to)` link's state: its statistics (running
/// transcript digest included), how many of its frames had a bit
/// flipped, and its fault RNG. The flipped-frame count is kept apart
/// from [`LinkStats::delivered_corrupted`], which counts *copies*: a
/// corrupted frame the duplicate fault then doubles is one flipped
/// frame and two corrupted copies.
pub(crate) struct LinkState {
    stats: LinkStats,
    corrupted: u64,
    rng: StdRng,
}

/// One ordered link's record: its whole [`LinkState`] behind one lock.
/// The digest and the RNG are order-sensitive, and per-link send order
/// is well-defined — one sender, per-sender FIFO — so a send takes the
/// lock once to account the frame and once to roll its faults. The
/// record outlives any one registration of either endpoint, so a link's
/// schedule continues across a re-registration.
pub(crate) type LinkRecord = Mutex<LinkState>;

/// The admission path every backend shares: the fault configuration,
/// the per-link [`LinkRecord`]s (keyed by ordered `(from, to)`, sorted
/// so iteration is deterministic), and the publish-on-last-drop metrics
/// contract. Board-wide [`FaultStats`] are the sum over the links; no
/// frame is counted anywhere else. A backend's send is
/// [`LinkLedger::tally_send`], its own recipient lookup, then
/// [`LinkLedger::roll`] — the same two calls at the same points on
/// every backend, which is what makes the shared `net.*` counters and
/// the fault schedules backend-invariant (and why a send to an unknown
/// party, which fails between the two, is counted but rolls no dice).
///
/// Lock order: the `links` map, then a record — never a record, then
/// the map.
pub(crate) struct LinkLedger {
    faults: FaultConfig,
    links: Mutex<BTreeMap<(PartyId, PartyId), Arc<LinkRecord>>>,
    recorder: Recorder,
}

impl LinkLedger {
    pub(crate) fn new(faults: FaultConfig, recorder: Recorder) -> LinkLedger {
        LinkLedger {
            faults,
            links: Mutex::new(BTreeMap::new()),
            recorder,
        }
    }

    /// Counts one submitted frame on its link: `sent`, `bytes`, and the
    /// transcript digest (pre-fault wire bytes, in send order). Returns
    /// the link record — created, and its fault RNG seeded from
    /// `(seed, from, to)`, on the link's first frame — for the caller
    /// to [`roll`](LinkLedger::roll) on.
    pub(crate) fn tally_send(&self, from: &PartyId, to: &PartyId, wire: &[u8]) -> Arc<LinkRecord> {
        let record = Arc::clone(
            lock(&self.links)
                .entry((from.clone(), to.clone()))
                .or_insert_with(|| {
                    Arc::new(Mutex::new(LinkState {
                        stats: LinkStats {
                            digest: FNV_OFFSET,
                            ..LinkStats::default()
                        },
                        corrupted: 0,
                        rng: StdRng::seed_from_u64(link_seed(self.faults.seed, from, to)),
                    }))
                }),
        );
        {
            let stats = &mut lock(&record).stats;
            stats.sent += 1;
            stats.bytes += wire.len() as u64;
            stats.digest = fnv1a_fold(stats.digest, wire);
        }
        record
    }

    /// Rolls the link's fault dice for one frame, mutating `wire` on
    /// corruption, and records the outcome on the link. Returns how
    /// many copies to deliver: 0 = dropped, 2 = duplicated. The roll
    /// order (drop, corrupt, duplicate) is fixed, so a given link sees
    /// the same schedule on every backend.
    pub(crate) fn roll(&self, record: &LinkRecord, wire: &mut [u8]) -> usize {
        let faults = &self.faults;
        let link = &mut *lock(record);
        let (mut copies, mut corrupted) = (1, false);
        if faults.is_active() {
            let rng = &mut link.rng;
            if rng.gen::<f64>() < faults.drop_chance {
                link.stats.dropped += 1;
                return 0; // silently dropped, like a lossy link
            }
            corrupted = rng.gen::<f64>() < faults.corrupt_chance && !wire.is_empty();
            if corrupted {
                let idx = rng.gen_range(0..wire.len());
                let bit = rng.gen_range(0..8u32);
                flip_wire_bit(wire, idx, bit);
                link.corrupted += 1;
            }
            if rng.gen::<f64>() < faults.duplicate_chance {
                copies = 2;
                link.stats.duplicated += 1;
            }
        }
        let delivered = if corrupted {
            &mut link.stats.delivered_corrupted
        } else {
            &mut link.stats.delivered_clean
        };
        *delivered += copies as u64;
        copies
    }

    /// Board-wide totals: the sum over every link.
    pub(crate) fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for record in lock(&self.links).values() {
            let link = lock(record);
            total.sent += link.stats.sent;
            total.dropped += link.stats.dropped;
            total.duplicated += link.stats.duplicated;
            total.corrupted += link.corrupted;
        }
        total
    }

    pub(crate) fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)> {
        lock(&self.links)
            .iter()
            .map(|(k, v)| (k.clone(), lock(v).stats))
            .collect()
    }

    /// Folds this fabric's totals into the recorder's metrics registry:
    /// board-wide frame/byte counters plus one `net.link.{from}->{to}.*`
    /// family per link (fault-outcome keys only where the outcome
    /// occurred — the fault schedule is deterministic, so key presence
    /// is too). `extra` carries backend-specific counters (the wire
    /// backend's `net.wire.*` family); they are published after the
    /// shared keys and never under the shared names.
    pub(crate) fn publish_metrics(&self, extra: &[(&str, u64)]) {
        let s = self.fault_stats();
        if s.sent == 0 {
            return; // fabric never carried a frame
        }
        self.recorder.add("net.frames.sent", s.sent);
        self.recorder.add("net.frames.dropped", s.dropped);
        self.recorder.add("net.frames.duplicated", s.duplicated);
        self.recorder.add("net.frames.corrupted", s.corrupted);
        for ((from, to), s) in self.link_stats() {
            self.recorder.add("net.bytes.sent", s.bytes);
            let key = |field: &str| format!("net.link.{from}->{to}.{field}");
            self.recorder.add(&key("sent"), s.sent);
            self.recorder.add(&key("bytes"), s.bytes);
            self.recorder.add(&key("digest"), s.digest);
            if s.dropped > 0 {
                self.recorder.add(&key("dropped"), s.dropped);
            }
            if s.duplicated > 0 {
                self.recorder.add(&key("duplicated"), s.duplicated);
            }
            if s.delivered_corrupted > 0 {
                self.recorder.add(&key("corrupted"), s.delivered_corrupted);
            }
        }
        for (key, value) in extra {
            self.recorder.add(key, *value);
        }
    }
}

//! The send-side admission path every backend shares: fault
//! configuration, per-link fault schedules, and the frame/byte/digest
//! accounting published as the `net.*` metrics.

use super::PartyId;
use crate::frame::flip_wire_bit;
use parking_lot::Mutex;
use pm_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Delivery statistics, for tests and the fault-injection examples.
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

#[derive(Default)]
struct AtomicStats {
    sent: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            sent: self.sent.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
        }
    }
}

/// Per-link delivery statistics: everything that happened on one
/// ordered `(from, to)` link, with corrupted-then-delivered frames
/// counted apart from clean ones (the board-wide [`FaultStats`]
/// aggregate cannot make that distinction per link).
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

/// One ordered `(from, to)` link: its counters, its running transcript
/// digest and its fault RNG. Digest and RNG sit behind mutexes (not
/// atomics) because both are order-sensitive: per-link send order is
/// well-defined — one sender, per-sender FIFO — and they must observe
/// it. The record outlives any one registration of either endpoint, so
/// a link's schedule continues across a re-registration.
pub(crate) struct LinkRecord {
    sent: AtomicU64,
    bytes: AtomicU64,
    digest: Mutex<u64>,
    rng: Mutex<StdRng>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delivered_clean: AtomicU64,
    delivered_corrupted: AtomicU64,
}

impl LinkRecord {
    fn new(seed: u64) -> LinkRecord {
        LinkRecord {
            sent: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            digest: Mutex::new(FNV_OFFSET),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delivered_clean: AtomicU64::new(0),
            delivered_corrupted: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> LinkStats {
        LinkStats {
            sent: self.sent.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            digest: *self.digest.lock(),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delivered_clean: self.delivered_clean.load(Ordering::Relaxed),
            delivered_corrupted: self.delivered_corrupted.load(Ordering::Relaxed),
        }
    }
}

/// The admission path every backend shares: the fault configuration,
/// the board-wide [`FaultStats`], the per-link [`LinkRecord`]s (keyed
/// by ordered `(from, to)`, sorted so iteration is deterministic), and
/// the publish-on-last-drop metrics contract. A backend's send is
/// [`LinkLedger::tally_send`], its own recipient lookup, then
/// [`LinkLedger::roll`] — the same two calls at the same points on
/// every backend, which is what makes the shared `net.*` counters and
/// the fault schedules backend-invariant.
pub(crate) struct LinkLedger {
    faults: FaultConfig,
    stats: AtomicStats,
    links: Mutex<BTreeMap<(PartyId, PartyId), Arc<LinkRecord>>>,
    recorder: Recorder,
}

impl LinkLedger {
    pub(crate) fn new(faults: FaultConfig, recorder: Recorder) -> LinkLedger {
        LinkLedger {
            faults,
            stats: AtomicStats::default(),
            links: Mutex::new(BTreeMap::new()),
            recorder,
        }
    }

    /// Counts one submitted frame: board-wide `sent`, the link's
    /// `sent`/`bytes`, and the link's transcript digest (pre-fault
    /// wire bytes, in send order). Returns the link record — created,
    /// and its fault RNG seeded from `(seed, from, to)`, on the link's
    /// first frame — for the caller to [`roll`](LinkLedger::roll) on.
    pub(crate) fn tally_send(&self, from: &PartyId, to: &PartyId, wire: &[u8]) -> Arc<LinkRecord> {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let record = {
            let mut links = self.links.lock();
            Arc::clone(links.entry((from.clone(), to.clone())).or_insert_with(|| {
                Arc::new(LinkRecord::new(link_seed(self.faults.seed, from, to)))
            }))
        };
        record.sent.fetch_add(1, Ordering::Relaxed);
        record.bytes.fetch_add(wire.len() as u64, Ordering::Relaxed);
        {
            let mut digest = record.digest.lock();
            *digest = fnv1a_fold(*digest, wire);
        }
        record
    }

    /// Rolls the link's fault dice for one frame, mutating `wire` on
    /// corruption, and records the outcome board-wide and on the link.
    /// Returns how many copies to deliver: 0 = dropped, 2 = duplicated.
    /// The roll order (drop, corrupt, duplicate) is fixed, so a given
    /// link sees the same schedule on every backend.
    pub(crate) fn roll(&self, record: &LinkRecord, wire: &mut [u8]) -> usize {
        let faults = &self.faults;
        let (mut copies, mut corrupted) = (1, false);
        if faults.is_active() {
            let mut rng = record.rng.lock();
            if rng.gen::<f64>() < faults.drop_chance {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                record.dropped.fetch_add(1, Ordering::Relaxed);
                return 0; // silently dropped, like a lossy link
            }
            corrupted = rng.gen::<f64>() < faults.corrupt_chance && !wire.is_empty();
            if corrupted {
                let idx = rng.gen_range(0..wire.len());
                let bit = rng.gen_range(0..8u32);
                flip_wire_bit(wire, idx, bit);
                self.stats.corrupted.fetch_add(1, Ordering::Relaxed);
            }
            if rng.gen::<f64>() < faults.duplicate_chance {
                copies = 2;
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                record.duplicated.fetch_add(1, Ordering::Relaxed);
            }
        }
        let delivered = if corrupted {
            &record.delivered_corrupted
        } else {
            &record.delivered_clean
        };
        delivered.fetch_add(copies as u64, Ordering::Relaxed);
        copies
    }

    pub(crate) fn fault_stats(&self) -> FaultStats {
        self.stats.snapshot()
    }

    pub(crate) fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)> {
        self.links
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
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
        let links = self.links.lock();
        if links.is_empty() {
            return; // fabric never carried a frame
        }
        let s = self.stats.snapshot();
        self.recorder.add("net.frames.sent", s.sent);
        self.recorder.add("net.frames.dropped", s.dropped);
        self.recorder.add("net.frames.duplicated", s.duplicated);
        self.recorder.add("net.frames.corrupted", s.corrupted);
        for ((from, to), record) in links.iter() {
            let s = record.snapshot();
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

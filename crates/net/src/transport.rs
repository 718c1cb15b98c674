//! The [`Fabric`] abstraction, the in-memory [`Switchboard`] backend,
//! and the fault-injection layer.
//!
//! Every party registers under a [`PartyId`] and receives an
//! [`Endpoint`]. Sends serialize the frame to wire bytes and enqueue them
//! on the recipient's mailbox; receives parse and checksum-verify. The
//! serialize/parse round trip through real wire bytes is deliberate: it
//! keeps the codecs honest and gives fault injection something faithful
//! to corrupt.
//!
//! # The `Fabric` trait
//!
//! [`Fabric`] is the send/recv/link-stats/metrics-publication surface
//! every protocol driver programs against: register parties, move
//! frames, expose per-link [`LinkStats`], and fold the frame/byte
//! counters into the round's recorder exactly once when the last
//! handle drops. Two backends live in this crate: the in-process
//! [`Switchboard`] below and the socket-backed
//! [`crate::wire::WireFabric`]. [`FabricChoice`] names the backends so
//! round configurations stay `Copy`/`Clone` while the fabric itself is
//! built at round start.
//!
//! # Delivery
//!
//! The switchboard keeps one **mailbox per ordered `(from, to)`
//! link**: serialization, fault rolls, and the queue push all happen
//! under per-link state, so concurrent traffic on disjoint links never
//! convoys behind a shared lock — TS↔CP and TS↔DC phases of a protocol
//! round overlap freely. Per-recipient arrival order is decided by a
//! tiny token queue (one token per delivered frame); within a link,
//! FIFO order is preserved, which is the only ordering the protocols
//! rely on. Fault schedules are **per link**, seeded from
//! `(seed, from, to)`, so one link's schedule is independent of the
//! traffic on every other link.

use crate::frame::{flip_wire_bit, Frame, WireError};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use pm_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A party's stable name on the fabric (e.g. `"ts"`, `"sk-1"`, `"dc-7"`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartyId(pub String);

impl PartyId {
    /// Convenience constructor.
    pub fn new(s: impl Into<String>) -> PartyId {
        PartyId(s.into())
    }

    /// The party name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for PartyId {
    fn from(s: &str) -> PartyId {
        PartyId(s.to_string())
    }
}

/// A received message: sender plus frame.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Who sent it.
    pub from: PartyId,
    /// The delivered frame.
    pub frame: Frame,
}

/// Transport-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Recipient is not registered on the fabric.
    UnknownParty(String),
    /// The party's channel is closed (it has shut down).
    Disconnected,
    /// No message available (non-blocking receive).
    Empty,
    /// The received bytes failed to parse as a frame (or the wire
    /// stream failed to reassemble into frames).
    Wire(WireError),
    /// The per-link token queue and link mailboxes disagree — a
    /// delivery token arrived for a link that has no mailbox or no
    /// queued frame. Indicates a fabric bookkeeping bug (e.g. an
    /// orphaned frame left behind by a failed delivery).
    Desync(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownParty(p) => write!(f, "unknown party: {p}"),
            TransportError::Disconnected => write!(f, "party disconnected"),
            TransportError::Empty => write!(f, "no message available"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
            TransportError::Desync(s) => write!(f, "link desync: {s}"),
        }
    }
}

impl std::error::Error for TransportError {}

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

pub(crate) type WireMessage = (PartyId, Vec<u8>);

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
pub(crate) struct AtomicStats {
    pub(crate) sent: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) corrupted: AtomicU64,
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

/// One link's counters plus its running transcript digest. The digest
/// sits behind a mutex (not an atomic) because it is order-sensitive:
/// per-link send order is well-defined — one sender, per-sender FIFO —
/// and the fold must observe it.
pub(crate) struct LinkRecord {
    sent: AtomicU64,
    bytes: AtomicU64,
    digest: Mutex<u64>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delivered_clean: AtomicU64,
    delivered_corrupted: AtomicU64,
}

impl Default for LinkRecord {
    fn default() -> Self {
        LinkRecord {
            sent: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            digest: Mutex::new(FNV_OFFSET),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delivered_clean: AtomicU64::new(0),
            delivered_corrupted: AtomicU64::new(0),
        }
    }
}

impl LinkRecord {
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

/// What the fault layer decided for one frame.
pub(crate) enum Verdict {
    Deliver { copies: usize, corrupted: bool },
    Drop,
}

/// Rolls the fault dice for one frame, mutating `wire` on corruption.
/// The roll order (drop, corrupt, duplicate) is shared by every
/// backend so a given RNG produces the same schedule on each.
pub(crate) fn roll_faults(
    faults: &FaultConfig,
    rng: &mut StdRng,
    wire: &mut [u8],
    stats: &AtomicStats,
) -> Verdict {
    if !faults.is_active() {
        return Verdict::Deliver {
            copies: 1,
            corrupted: false,
        };
    }
    let drop_roll: f64 = rng.gen();
    if drop_roll < faults.drop_chance {
        stats.dropped.fetch_add(1, Ordering::Relaxed);
        return Verdict::Drop; // silently dropped, like a lossy link
    }
    let corrupt_roll: f64 = rng.gen();
    let corrupted = corrupt_roll < faults.corrupt_chance && !wire.is_empty();
    if corrupted {
        let idx = rng.gen_range(0..wire.len());
        let bit = rng.gen_range(0..8u32);
        flip_wire_bit(wire, idx, bit);
        stats.corrupted.fetch_add(1, Ordering::Relaxed);
    }
    let dup_roll: f64 = rng.gen();
    if dup_roll < faults.duplicate_chance {
        stats.duplicated.fetch_add(1, Ordering::Relaxed);
        Verdict::Deliver {
            copies: 2,
            corrupted,
        }
    } else {
        Verdict::Deliver {
            copies: 1,
            corrupted,
        }
    }
}

/// Per-link fault-schedule seed: the workspace's labelled seed
/// derivation over the fabric seed and both endpoint names (the same
/// scheme torsim uses for its per-partition RNGs). Shared by every
/// backend so a given `(seed, from, to)` link sees the identical fault
/// schedule on the in-process and the socket fabric alike.
pub(crate) fn link_seed(seed: u64, from: &PartyId, to: &PartyId) -> u64 {
    pm_stats::sampling::derive_seed(seed, &format!("link/{from}\u{0}->\u{0}{to}"))
}

/// The send-side accounting every backend shares: the board-wide
/// [`FaultStats`], the per-link [`LinkRecord`]s (keyed by ordered
/// `(from, to)`, sorted so iteration is deterministic), and the
/// publish-on-last-drop metrics contract. Backends embed one and call
/// [`LinkLedger::tally_send`] / [`LinkLedger::tally_verdict`] at the
/// same points, which is what makes the shared `net.*` counters
/// backend-invariant under a lossless schedule.
pub(crate) struct LinkLedger {
    stats: AtomicStats,
    links: Mutex<BTreeMap<(PartyId, PartyId), Arc<LinkRecord>>>,
    recorder: Recorder,
}

impl LinkLedger {
    pub(crate) fn new(recorder: Recorder) -> LinkLedger {
        LinkLedger {
            stats: AtomicStats::default(),
            links: Mutex::new(BTreeMap::new()),
            recorder,
        }
    }

    pub(crate) fn stats(&self) -> &AtomicStats {
        &self.stats
    }

    /// Counts one submitted frame: board-wide `sent`, the link's
    /// `sent`/`bytes`, and the link's transcript digest (pre-fault
    /// wire bytes, in send order). Returns the link record so the
    /// caller can tally the fault verdict on it.
    pub(crate) fn tally_send(&self, from: &PartyId, to: &PartyId, wire: &[u8]) -> Arc<LinkRecord> {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let record = {
            let mut links = self.links.lock();
            Arc::clone(
                links
                    .entry((from.clone(), to.clone()))
                    .or_insert_with(|| Arc::new(LinkRecord::default())),
            )
        };
        record.sent.fetch_add(1, Ordering::Relaxed);
        record.bytes.fetch_add(wire.len() as u64, Ordering::Relaxed);
        {
            let mut digest = record.digest.lock();
            *digest = fnv1a_fold(*digest, wire);
        }
        record
    }

    /// Records the fault verdict for one frame on its link's counters.
    pub(crate) fn tally_verdict(record: &LinkRecord, verdict: &Verdict) {
        match verdict {
            Verdict::Drop => {
                record.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Deliver { copies, corrupted } => {
                if *copies > 1 {
                    record.duplicated.fetch_add(1, Ordering::Relaxed);
                }
                let delivered = if *corrupted {
                    &record.delivered_corrupted
                } else {
                    &record.delivered_clean
                };
                delivered.fetch_add(*copies as u64, Ordering::Relaxed);
            }
        }
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

// ----- the backend abstraction -----

/// A message fabric connecting the parties of a deployment: the
/// send/recv/link-stats/metrics-publication surface protocol drivers
/// program against.
///
/// # Contract
///
/// * **Ordering.** Per-sender FIFO is the only order protocols may
///   rely on, on any backend: frames from one sender to one recipient
///   arrive in send order; cross-sender interleaving is a schedule
///   artifact (token queue, OS scheduler, or TCP timing).
/// * **Accounting.** Every submitted frame is counted in
///   [`Fabric::fault_stats`] and the per-link [`Fabric::link_stats`]
///   at the send site, before delivery can fail — so two backends fed
///   the same transcript report identical counters.
/// * **Metrics.** The fabric folds its counters into its recorder
///   exactly once, when the last handle (fabric clones and endpoints
///   alike) drops. Backends may add keys under their own namespace
///   (e.g. `net.wire.*`) but never diverge the shared `net.frames.*` /
///   `net.bytes.*` / `net.link.*` families.
/// * **Delivery failure.** Sends to an unregistered party fail with
///   [`TransportError::UnknownParty`]. Detection of a *departed* peer
///   may be asynchronous on a socket backend (buffered writes succeed
///   before the broken pipe surfaces), where the in-process fabric
///   fails synchronously.
pub trait Fabric: Send + Sync {
    /// Registers a party and returns its endpoint. Re-registering a
    /// name replaces the previous endpoint (the old receiver
    /// disconnects).
    fn register(&self, id: PartyId) -> Endpoint;

    /// Removes a party from the fabric.
    fn deregister(&self, id: &PartyId);

    /// All registered party ids, sorted.
    fn parties(&self) -> Vec<PartyId>;

    /// Current fault-injection statistics.
    fn fault_stats(&self) -> FaultStats;

    /// Current per-link statistics, in `(from, to)` order.
    fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)>;
}

/// A backend's send half: serialize, roll faults, account, deliver.
pub(crate) trait SendPort: Send + Sync {
    fn deliver(&self, from: &PartyId, to: &PartyId, frame: &Frame) -> Result<(), TransportError>;
}

/// A backend's receive half for one registered party.
pub(crate) trait RecvPort: Send {
    fn recv_wire(&self) -> Result<WireMessage, TransportError>;
    fn try_recv_wire(&self) -> Result<WireMessage, TransportError>;
    fn pending(&self) -> usize;
}

/// Which [`Fabric`] backend a round should run over. `Copy`, so round
/// configurations stay cheap to clone and rebuild; the fabric itself
/// is constructed at round start via [`FabricChoice::build_obs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricChoice {
    /// The default in-process switchboard: per-link mailboxes.
    #[default]
    PerLink,
    /// The socket-backed fabric ([`crate::wire`]): real TCP loopback
    /// links, optionally shaped. Rounds over this backend must run
    /// threaded (blocking receives) — the deterministic scheduler
    /// cannot see frames that are still in flight on a socket.
    Wire(WireShape),
}

impl FabricChoice {
    /// Builds the chosen backend with a detached recorder.
    pub fn build(self, faults: FaultConfig) -> Arc<dyn Fabric> {
        self.build_obs(faults, Recorder::new())
    }

    /// Builds the chosen backend, publishing its counters into
    /// `recorder` when the fabric is dropped.
    pub fn build_obs(self, faults: FaultConfig, recorder: Recorder) -> Arc<dyn Fabric> {
        match self {
            FabricChoice::PerLink => Arc::new(Switchboard::with_faults(faults, recorder)),
            FabricChoice::Wire(shape) => {
                Arc::new(crate::wire::WireFabric::with_shape(shape, faults, recorder))
            }
        }
    }

    /// True for the socket-backed backend.
    pub fn is_wire(&self) -> bool {
        matches!(self, FabricChoice::Wire(_))
    }

    /// Parses the CLI spelling: `per-link`, `wire`, or
    /// `wire:<latency_ms>[,<bw_kbps>]`.
    pub fn parse(s: &str) -> Option<FabricChoice> {
        match s {
            "per-link" => Some(FabricChoice::PerLink),
            "wire" => Some(FabricChoice::Wire(WireShape::default())),
            other => {
                let rest = other.strip_prefix("wire:")?;
                let (lat, bw) = match rest.split_once(',') {
                    Some((l, b)) => (l.trim().parse().ok()?, b.trim().parse().ok()?),
                    None => (rest.trim().parse().ok()?, 0),
                };
                Some(FabricChoice::Wire(WireShape {
                    latency_ms: lat,
                    bw_kbps: bw,
                }))
            }
        }
    }
}

impl fmt::Display for FabricChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricChoice::PerLink => write!(f, "per-link"),
            FabricChoice::Wire(shape) if *shape == WireShape::default() => write!(f, "wire"),
            FabricChoice::Wire(shape) => {
                write!(f, "wire:{},{}", shape.latency_ms, shape.bw_kbps)
            }
        }
    }
}

/// Deterministic latency/bandwidth shaping for the wire backend: each
/// frame's send is delayed by `latency_ms` plus its serialization time
/// at `bw_kbps`, computed purely from the configuration and the
/// frame's byte length — no clock is read, so two runs of the same
/// round see the identical delay schedule. Shaping changes wall-clock
/// only (measurable via the profiling spans and the per-link byte
/// counters); it can never change a transcript byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireShape {
    /// One-way per-frame latency in milliseconds (0 = none).
    pub latency_ms: u32,
    /// Link bandwidth in kilobits per second (0 = unshaped).
    pub bw_kbps: u32,
}

impl WireShape {
    /// The deterministic delay for one frame of `wire_len` bytes.
    pub fn delay_ms(&self, wire_len: usize) -> u64 {
        let serialization = if self.bw_kbps == 0 {
            0
        } else {
            (wire_len as u64 * 8) / self.bw_kbps as u64
        };
        self.latency_ms as u64 + serialization
    }
}

// ----- the in-process backend -----

/// One ordered `(from, to)` link: its queued wire frames and its own
/// fault RNG. Senders on different links never touch each other's state.
struct LinkMailbox {
    queue: Mutex<VecDeque<Vec<u8>>>,
    rng: Mutex<StdRng>,
}

/// A registered party's receiving side.
struct PartySlot {
    /// One token per queued frame; its order decides cross-link arrival
    /// order and its disconnection mirrors deregistration.
    token_tx: Sender<PartyId>,
    /// Per-sender mailboxes, created lazily on first frame.
    // lint:allow(unordered-map) keyed lookup only; the one key iteration (parties()) sorts before returning
    links: Arc<Mutex<HashMap<PartyId, Arc<LinkMailbox>>>>,
}

struct BoardInner {
    // lint:allow(unordered-map) keyed lookup only; the one key iteration (parties()) sorts before returning
    parties: Mutex<HashMap<PartyId, PartySlot>>,
    faults: FaultConfig,
    ledger: LinkLedger,
}

impl Drop for BoardInner {
    /// Every board publishes its metrics exactly once, when the last
    /// handle goes away — round runners drop their boards at round end
    /// on success *and* abort paths alike, so no path skips accounting.
    fn drop(&mut self) {
        self.ledger.publish_metrics(&[]);
    }
}

/// The in-memory message fabric connecting all parties of a deployment.
#[derive(Clone)]
pub struct Switchboard {
    inner: Arc<BoardInner>,
}

impl Default for Switchboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Switchboard {
    /// Creates a lossless switchboard with an inert recorder.
    pub fn new() -> Switchboard {
        Switchboard::with_faults(FaultConfig::none(), Recorder::new())
    }

    /// Creates a switchboard with fault injection enabled, publishing
    /// the board's frame and per-link counters into `recorder` when the
    /// board is dropped.
    pub fn with_faults(faults: FaultConfig, recorder: Recorder) -> Switchboard {
        Switchboard {
            inner: Arc::new(BoardInner {
                // lint:allow(unordered-map) see the BoardInner::parties field note
                parties: Mutex::new(HashMap::new()),
                faults,
                ledger: LinkLedger::new(recorder),
            }),
        }
    }

    /// Registers a party and returns its endpoint. Re-registering a name
    /// replaces the previous endpoint (the old receiver disconnects).
    pub fn register(&self, id: impl Into<PartyId>) -> Endpoint {
        let id = id.into();
        let (token_tx, token_rx) = unbounded();
        // lint:allow(unordered-map) see the PartySlot::links field note
        let links = Arc::new(Mutex::new(HashMap::new()));
        self.inner.parties.lock().insert(
            id.clone(),
            PartySlot {
                token_tx,
                links: Arc::clone(&links),
            },
        );
        let recv = Box::new(RecvHalf { token_rx, links });
        Endpoint::from_parts(id, Arc::new(self.clone()), recv)
    }

    /// Removes a party from the fabric.
    pub fn deregister(&self, id: &PartyId) {
        self.inner.parties.lock().remove(id);
    }

    /// All registered party ids, sorted.
    pub fn parties(&self) -> Vec<PartyId> {
        let mut v: Vec<PartyId> = self.inner.parties.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Current fault-injection statistics.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.ledger.fault_stats()
    }

    /// Current per-link statistics, in `(from, to)` order.
    pub fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)> {
        self.inner.ledger.link_stats()
    }

    fn deliver(&self, from: &PartyId, to: &PartyId, frame: &Frame) -> Result<(), TransportError> {
        let mut wire = frame.to_wire().to_vec();
        let record = self.inner.ledger.tally_send(from, to, &wire);
        let stats = self.inner.ledger.stats();
        // Clone the recipient's handles out of the registry so the
        // registry lock is never held across serialization, fault
        // rolls, or queue pushes.
        let (token_tx, links) = {
            let parties = self.inner.parties.lock();
            let slot = parties
                .get(to)
                .ok_or_else(|| TransportError::UnknownParty(to.0.clone()))?;
            (slot.token_tx.clone(), Arc::clone(&slot.links))
        };
        let link = {
            let mut links = links.lock();
            Arc::clone(links.entry(from.clone()).or_insert_with(|| {
                Arc::new(LinkMailbox {
                    queue: Mutex::new(VecDeque::new()),
                    rng: Mutex::new(StdRng::seed_from_u64(link_seed(
                        self.inner.faults.seed,
                        from,
                        to,
                    ))),
                })
            }))
        };
        let verdict = {
            let mut rng = link.rng.lock();
            roll_faults(&self.inner.faults, &mut rng, &mut wire, stats)
        };
        LinkLedger::tally_verdict(&record, &verdict);
        let copies = match verdict {
            Verdict::Drop => return Ok(()),
            Verdict::Deliver { copies, .. } => copies,
        };
        for _ in 0..copies {
            // Reserve-then-commit: the frame push and its delivery
            // token must land together. If the receiver disconnected
            // mid-round the token send fails — roll the push back, or
            // the orphaned frame would shift per-sender FIFO for every
            // later delivery on this link.
            let mut queue = link.queue.lock();
            queue.push_back(wire.clone());
            if token_tx.send(from.clone()).is_err() {
                queue.pop_back();
                return Err(TransportError::Disconnected);
            }
        }
        Ok(())
    }
}

impl SendPort for Switchboard {
    fn deliver(&self, from: &PartyId, to: &PartyId, frame: &Frame) -> Result<(), TransportError> {
        Switchboard::deliver(self, from, to, frame)
    }
}

impl Fabric for Switchboard {
    fn register(&self, id: PartyId) -> Endpoint {
        Switchboard::register(self, id)
    }

    fn deregister(&self, id: &PartyId) {
        Switchboard::deregister(self, id)
    }

    fn parties(&self) -> Vec<PartyId> {
        Switchboard::parties(self)
    }

    fn fault_stats(&self) -> FaultStats {
        Switchboard::fault_stats(self)
    }

    fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)> {
        Switchboard::link_stats(self)
    }
}

/// A party's receiving machinery: the token queue that orders arrivals
/// across links, and the per-sender mailboxes the tokens point into.
struct RecvHalf {
    token_rx: Receiver<PartyId>,
    // lint:allow(unordered-map) see the PartySlot::links field note
    links: Arc<Mutex<HashMap<PartyId, Arc<LinkMailbox>>>>,
}

impl RecvHalf {
    fn pop_link(&self, from: PartyId) -> Result<WireMessage, TransportError> {
        let link = self
            .links
            .lock()
            .get(&from)
            .map(Arc::clone)
            .ok_or_else(|| {
                TransportError::Desync(format!("delivery token from {from} names an unknown link"))
            })?;
        let wire = link.queue.lock().pop_front().ok_or_else(|| {
            TransportError::Desync(format!(
                "delivery token from {from} arrived but the link queue is empty"
            ))
        })?;
        Ok((from, wire))
    }
}

impl RecvPort for RecvHalf {
    fn recv_wire(&self) -> Result<WireMessage, TransportError> {
        let from = self
            .token_rx
            .recv()
            .map_err(|_| TransportError::Disconnected)?;
        self.pop_link(from)
    }

    fn try_recv_wire(&self) -> Result<WireMessage, TransportError> {
        let from = self.token_rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => TransportError::Empty,
            TryRecvError::Disconnected => TransportError::Disconnected,
        })?;
        self.pop_link(from)
    }

    fn pending(&self) -> usize {
        self.token_rx.len()
    }
}

/// A party's handle on its fabric: send to anyone, receive your own
/// mailbox. Backend-generic — the same endpoint type fronts the
/// in-process switchboard and the socket fabric.
pub struct Endpoint {
    id: PartyId,
    send: Arc<dyn SendPort>,
    recv: Box<dyn RecvPort>,
}

impl Endpoint {
    pub(crate) fn from_parts(
        id: PartyId,
        send: Arc<dyn SendPort>,
        recv: Box<dyn RecvPort>,
    ) -> Endpoint {
        Endpoint { id, send, recv }
    }

    /// This endpoint's party id.
    pub fn id(&self) -> &PartyId {
        &self.id
    }

    /// Sends a frame to `to`.
    pub fn send(&self, to: &PartyId, frame: Frame) -> Result<(), TransportError> {
        self.send.deliver(&self.id, to, &frame)
    }

    /// Sends a frame to every party in `to`.
    pub fn broadcast(&self, to: &[PartyId], frame: Frame) -> Result<(), TransportError> {
        for t in to {
            self.send(t, frame.clone())?;
        }
        Ok(())
    }

    /// Blocking receive. Frames that fail to parse are surfaced as
    /// [`TransportError::Wire`] so callers can count/ignore them.
    pub fn recv(&self) -> Result<Envelope, TransportError> {
        let (from, wire) = self.recv.recv_wire()?;
        match Frame::from_wire(wire.into()) {
            Ok(frame) => Ok(Envelope { from, frame }),
            Err(e) => Err(TransportError::Wire(e)),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Envelope, TransportError> {
        let (from, wire) = self.recv.try_recv_wire()?;
        match Frame::from_wire(wire.into()) {
            Ok(frame) => Ok(Envelope { from, frame }),
            Err(e) => Err(TransportError::Wire(e)),
        }
    }

    /// Number of messages waiting (approximate under concurrency).
    pub fn pending(&self) -> usize {
        self.recv.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn frame(t: u16, body: &'static [u8]) -> Frame {
        Frame::new(t, Bytes::from_static(body))
    }

    fn board_with(faults: FaultConfig) -> Switchboard {
        Switchboard::with_faults(faults, Recorder::new())
    }

    #[test]
    fn basic_send_recv() {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"hi")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(env.frame.msg_type, 1);
        assert_eq!(env.frame.payload.as_ref(), b"hi");
    }

    #[test]
    fn unknown_party_errors() {
        let board = Switchboard::new();
        let a = board.register("a");
        let err = a.send(&PartyId::new("ghost"), frame(1, b"x")).unwrap_err();
        assert_eq!(err, TransportError::UnknownParty("ghost".into()));
    }

    #[test]
    fn broadcast_reaches_all() {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        let c = board.register("c");
        a.broadcast(&[b.id().clone(), c.id().clone()], frame(9, b"all"))
            .unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 9);
        assert_eq!(c.recv().unwrap().frame.msg_type, 9);
    }

    #[test]
    fn try_recv_empty() {
        let board = Switchboard::new();
        let a = board.register("a");
        assert_eq!(a.try_recv().unwrap_err(), TransportError::Empty);
    }

    #[test]
    fn fifo_per_sender() {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        for i in 0..10u16 {
            a.send(b.id(), frame(i, b"seq")).unwrap();
        }
        for i in 0..10u16 {
            assert_eq!(b.recv().unwrap().frame.msg_type, i);
        }
    }

    #[test]
    fn interleaved_links_preserve_per_link_fifo() {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        let c = board.register("c");
        for i in 0..5u16 {
            a.send(c.id(), frame(i, b"a")).unwrap();
            b.send(c.id(), frame(100 + i, b"b")).unwrap();
        }
        let mut from_a = Vec::new();
        let mut from_b = Vec::new();
        for _ in 0..10 {
            let env = c.recv().unwrap();
            match env.from.as_str() {
                "a" => from_a.push(env.frame.msg_type),
                _ => from_b.push(env.frame.msg_type),
            }
        }
        assert_eq!(from_a, vec![0, 1, 2, 3, 4]);
        assert_eq!(from_b, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn drop_faults_lose_messages() {
        let board = board_with(FaultConfig {
            drop_chance: 1.0,
            ..Default::default()
        });
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"gone")).unwrap();
        assert_eq!(b.try_recv().unwrap_err(), TransportError::Empty);
        assert_eq!(board.fault_stats().dropped, 1);
    }

    #[test]
    fn corrupt_faults_caught_by_checksum() {
        let board = board_with(FaultConfig {
            corrupt_chance: 1.0,
            seed: 3,
            ..Default::default()
        });
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"precious data")).unwrap();
        match b.recv() {
            Err(TransportError::Wire(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
        assert_eq!(board.fault_stats().corrupted, 1);
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let board = board_with(FaultConfig {
            duplicate_chance: 1.0,
            ..Default::default()
        });
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"twice")).unwrap();
        assert!(b.recv().is_ok());
        assert!(b.recv().is_ok());
        assert_eq!(b.try_recv().unwrap_err(), TransportError::Empty);
    }

    #[test]
    fn deterministic_fault_schedule() {
        let run = |seed| {
            let board = board_with(FaultConfig {
                drop_chance: 0.5,
                seed,
                ..Default::default()
            });
            let a = board.register("a");
            let b = board.register("b");
            for _ in 0..100 {
                a.send(b.id(), frame(1, b"x")).unwrap();
            }
            board.fault_stats().dropped
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // overwhelmingly likely
    }

    #[test]
    fn per_link_fault_schedule_is_link_independent() {
        // The schedule a→c sees must not depend on unrelated traffic
        // b→c interleaved with it.
        let faults = FaultConfig {
            drop_chance: 0.5,
            seed: 11,
            ..Default::default()
        };
        let delivered_alone = {
            let board = board_with(faults);
            let a = board.register("a");
            let c = board.register("c");
            for i in 0..50u16 {
                a.send(c.id(), frame(i, b"x")).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(env) = c.try_recv() {
                got.push(env.frame.msg_type);
            }
            got
        };
        let delivered_interleaved = {
            let board = board_with(faults);
            let a = board.register("a");
            let b = board.register("b");
            let c = board.register("c");
            for i in 0..50u16 {
                a.send(c.id(), frame(i, b"x")).unwrap();
                b.send(c.id(), frame(1000, b"noise")).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(env) = c.try_recv() {
                if env.from.as_str() == "a" {
                    got.push(env.frame.msg_type);
                }
            }
            got
        };
        assert_eq!(delivered_alone, delivered_interleaved);
        assert!(!delivered_alone.is_empty() && delivered_alone.len() < 50);
    }

    #[test]
    fn cross_thread_delivery() {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        let handle = std::thread::spawn(move || {
            let env = b.recv().unwrap();
            env.frame.msg_type
        });
        a.send(&PartyId::new("b"), frame(42, b"cross-thread"))
            .unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }

    #[test]
    fn deregistered_party_disconnects() {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"before")).unwrap();
        board.deregister(&PartyId::new("b"));
        // Queued traffic drains, then the receiver observes the
        // disconnection; new sends see an unknown party.
        assert!(b.recv().is_ok());
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(
            a.send(&PartyId::new("b"), frame(2, b"after")).unwrap_err(),
            TransportError::UnknownParty("b".into())
        );
    }

    #[test]
    fn disconnect_mid_round_errors() {
        // A receiver whose endpoint is gone (process died mid-round)
        // but which was never deregistered: sends must fail loudly
        // with Disconnected, not succeed silently.
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        drop(b);
        for _ in 0..3 {
            assert_eq!(
                a.send(&PartyId::new("b"), frame(1, b"mid-round"))
                    .unwrap_err(),
                TransportError::Disconnected
            );
        }
    }

    #[test]
    fn failed_token_send_rolls_back_queued_frame() {
        // White box: after a failed delivery the per-link queue must
        // not retain the orphaned frame — an orphan would shift
        // per-sender FIFO for every later frame on the link.
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        // Establish the a→b link mailbox with a real delivery first.
        a.send(b.id(), frame(1, b"live")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 1);
        let links = Arc::clone(
            &board
                .inner
                .parties
                .lock()
                .get(&PartyId::new("b"))
                .unwrap()
                .links,
        );
        drop(b);
        for _ in 0..3 {
            assert_eq!(
                a.send(&PartyId::new("b"), frame(2, b"orphan")).unwrap_err(),
                TransportError::Disconnected
            );
        }
        let link = Arc::clone(links.lock().get(&PartyId::new("a")).unwrap());
        assert_eq!(
            link.queue.lock().len(),
            0,
            "failed deliveries left orphaned frames queued"
        );
    }

    #[test]
    fn link_stats_track_per_link_outcomes() {
        let board = board_with(FaultConfig {
            corrupt_chance: 1.0,
            seed: 3,
            ..Default::default()
        });
        let a = board.register("a");
        let b = board.register("b");
        let c = board.register("c");
        a.send(b.id(), frame(1, b"to b")).unwrap();
        a.send(c.id(), frame(1, b"to c!")).unwrap();
        a.send(c.id(), frame(1, b"to c again")).unwrap();
        let stats = board.link_stats();
        assert_eq!(stats.len(), 2);
        let ab = &stats[0];
        assert_eq!(ab.0, (PartyId::new("a"), PartyId::new("b")));
        assert_eq!(ab.1.sent, 1);
        let ac = &stats[1];
        assert_eq!(ac.0, (PartyId::new("a"), PartyId::new("c")));
        assert_eq!(ac.1.sent, 2);
        assert!(ac.1.bytes > ab.1.bytes);
        // Every delivery was corrupted-then-delivered, and the
        // stats say so — corrupted copies are not folded into the
        // clean count.
        assert_eq!(ab.1.delivered_corrupted, 1);
        assert_eq!(ab.1.delivered_clean, 0);
        assert_eq!(ac.1.delivered_corrupted, 2);
    }

    #[test]
    fn link_stats_split_drop_and_duplicate_outcomes() {
        let board = board_with(FaultConfig {
            drop_chance: 1.0,
            ..Default::default()
        });
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"gone")).unwrap();
        let stats = board.link_stats();
        assert_eq!(stats[0].1.dropped, 1);
        assert_eq!(
            stats[0].1.delivered_clean + stats[0].1.delivered_corrupted,
            0
        );

        let board = board_with(FaultConfig {
            duplicate_chance: 1.0,
            ..Default::default()
        });
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"twice")).unwrap();
        let stats = board.link_stats();
        assert_eq!(stats[0].1.duplicated, 1);
        assert_eq!(stats[0].1.delivered_clean, 2);
    }

    #[test]
    fn link_digest_tracks_send_order_and_content() {
        // The transcript digest is a pure function of the link's sent
        // wire bytes, in order: same sends → same digest, reordered or
        // altered sends → different digest.
        let send_seq = |msgs: &[(u16, &'static [u8])]| {
            let board = Switchboard::new();
            let a = board.register("a");
            let b = board.register("b");
            for (t, body) in msgs {
                a.send(b.id(), Frame::new(*t, Bytes::from_static(body)))
                    .unwrap();
            }
            board.link_stats()[0].1.digest
        };
        let base = send_seq(&[(1, b"x"), (2, b"y")]);
        assert_eq!(base, send_seq(&[(1, b"x"), (2, b"y")]));
        assert_ne!(base, send_seq(&[(2, b"y"), (1, b"x")]));
        assert_ne!(base, send_seq(&[(1, b"x"), (2, b"z")]));
    }

    #[test]
    fn dropping_the_board_publishes_metrics_once() {
        let rec = Recorder::new();
        {
            let board = Switchboard::with_faults(FaultConfig::none(), rec.clone());
            let a = board.register("a");
            let b = board.register("b");
            a.send(b.id(), frame(1, b"counted")).unwrap();
            let _ = b.recv().unwrap();
            // Endpoints hold board clones; nothing published yet.
            assert_eq!(rec.read_counter("net.frames.sent"), 0);
        }
        assert_eq!(rec.read_counter("net.frames.sent"), 1);
        assert_eq!(rec.read_counter("net.link.a->b.sent"), 1);
        assert!(rec.read_counter("net.bytes.sent") > 0);
        assert!(rec.read_counter("net.link.a->b.digest") > 0);
        assert_eq!(rec.read_counter("net.frames.dropped"), 0);
        // Fault-outcome link keys appear only when the outcome occurred.
        assert!(rec
            .read_snapshot()
            .entries
            .iter()
            .all(|(k, _)| !k.ends_with(".corrupted") || !k.starts_with("net.link.")));
    }

    #[test]
    fn unused_board_publishes_nothing() {
        let rec = Recorder::new();
        drop(Switchboard::with_faults(FaultConfig::none(), rec.clone()));
        assert!(rec.read_snapshot().entries.is_empty());
    }

    #[test]
    fn parties_listing() {
        let board = Switchboard::new();
        let _a = board.register("ts");
        let _b = board.register("dc-1");
        let _c = board.register("sk-1");
        assert_eq!(
            board.parties(),
            vec![
                PartyId::new("dc-1"),
                PartyId::new("sk-1"),
                PartyId::new("ts")
            ]
        );
        board.deregister(&PartyId::new("dc-1"));
        assert_eq!(board.parties().len(), 2);
    }

    #[test]
    fn fabric_choice_parses_cli_spellings() {
        assert_eq!(FabricChoice::parse("per-link"), Some(FabricChoice::PerLink));
        assert_eq!(
            FabricChoice::parse("wire"),
            Some(FabricChoice::Wire(WireShape::default()))
        );
        assert_eq!(
            FabricChoice::parse("wire:50,1000"),
            Some(FabricChoice::Wire(WireShape {
                latency_ms: 50,
                bw_kbps: 1000
            }))
        );
        assert_eq!(
            FabricChoice::parse("wire:5"),
            Some(FabricChoice::Wire(WireShape {
                latency_ms: 5,
                bw_kbps: 0
            }))
        );
        assert_eq!(FabricChoice::parse("single-lock"), None);
        assert_eq!(FabricChoice::parse("carrier-pigeon"), None);
        assert_eq!(FabricChoice::parse("wire:fast"), None);
        // Display round-trips through parse.
        for s in ["per-link", "wire", "wire:5,1000"] {
            let c = FabricChoice::parse(s).unwrap();
            assert_eq!(c.to_string(), s);
            assert_eq!(FabricChoice::parse(&c.to_string()), Some(c), "{s}");
        }
    }

    #[test]
    fn wire_shape_delay_is_latency_plus_serialization() {
        let unshaped = WireShape::default();
        assert_eq!(unshaped.delay_ms(1 << 20), 0);
        let shaped = WireShape {
            latency_ms: 20,
            bw_kbps: 8,
        };
        // 1000 bytes = 8000 bits at 8 kbps = 1000 ms, plus latency.
        assert_eq!(shaped.delay_ms(1000), 1020);
        let latency_only = WireShape {
            latency_ms: 7,
            bw_kbps: 0,
        };
        assert_eq!(latency_only.delay_ms(123_456), 7);
    }

    #[test]
    fn fabric_trait_object_round_trip() {
        // The trait surface alone suffices to run a delivery.
        let board: Arc<dyn Fabric> = FabricChoice::PerLink.build(FaultConfig::none());
        let a = board.register(PartyId::new("a"));
        let b = board.register(PartyId::new("b"));
        a.send(b.id(), frame(4, b"dyn")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 4);
        assert_eq!(board.fault_stats().sent, 1);
        assert_eq!(board.link_stats().len(), 1);
        assert_eq!(board.parties().len(), 2);
    }
}

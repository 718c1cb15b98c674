//! The [`Fabric`] abstraction, the in-memory [`Switchboard`] backend,
//! and the fault-injection layer.
//!
//! Every party registers under a [`PartyId`] and receives an
//! [`Endpoint`]. Sends serialize the frame to wire bytes and push them
//! onto the recipient's inbox; receives parse and checksum-verify. The
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
//! [`Switchboard`] and the socket-backed [`crate::wire::WireFabric`].
//! [`FabricChoice`] names the backends so round configurations stay
//! `Copy`/`Clone` while the fabric itself is built at round start.
//!
//! # Delivery
//!
//! Each registered party owns **one inbox**: a `std::sync::mpsc`
//! channel whose receiver sits in the party's [`Endpoint`]. A send
//! serializes the frame, accounts it on its ordered `(from, to)` link,
//! looks the recipient up, rolls the link's fault dice, and pushes the
//! surviving copies onto the recipient's inbox. One sender thread per
//! party and one FIFO per recipient give per-sender FIFO, the only
//! ordering the protocols rely on; on the switchboard a recipient's
//! arrival order across senders is simply the order the sends ran in.
//!
//! What is **per link** is the admission path, not the queue: fault
//! schedules (seeded from `(seed, from, to)`, so one link's schedule is
//! independent of the traffic on every other link), frame/byte
//! accounting, and transcript digests. That state lives in the
//! fabric's ledger for the fabric's whole life, so a link's schedule
//! continues across a re-registration of either endpoint on every
//! backend (no protocol round re-registers a party).
//!
//! # Passes over a frame's bytes
//!
//! On the switchboard a frame's bytes are read or written this many
//! times between two protocol codecs:
//!
//! 1. [`Frame::wire_image`](crate::frame::Frame) builds the wire image
//!    once, as an owned buffer: one copy of the payload behind the
//!    header, one checksum pass over both (the Fletcher sum's 16-lane
//!    block form, about 0.2 ns a byte).
//! 2. The ledger folds the image into the link's FNV-1a transcript
//!    digest, byte by byte (about 1.4 ns a byte: the floor of this
//!    path, kept because every report prints its value in the
//!    `net.link.*.digest` lines).
//! 3. A corruption fault flips one bit in place; the image then moves
//!    into the recipient's inbox, and only a duplicate is copied.
//! 4. The receiver's [`Frame::from_wire`](crate::frame::Frame::from_wire)
//!    checksums the body again and hands out the payload as a slice of
//!    the same buffer, without copying it.
//!
//! A frame sent to several recipients shares its encoded payload; each
//! delivery builds its own image. The wire backend adds the socket
//! blob's copy after step 3 and the stream reassembly's before step 4.

mod ledger;
mod switchboard;

pub(crate) use ledger::LinkLedger;
pub use ledger::{FaultConfig, FaultStats, LinkStats};
pub use switchboard::Switchboard;

use crate::frame::{Frame, WireError};
use pm_obs::Recorder;
use std::fmt;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownParty(p) => write!(f, "unknown party: {p}"),
            TransportError::Disconnected => write!(f, "party disconnected"),
            TransportError::Empty => write!(f, "no message available"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// What sits in a party's inbox: the sender and one frame's wire bytes.
pub(crate) type WireMessage = (PartyId, Vec<u8>);

/// Locks `m`; every lock in this crate goes through here. A holder's
/// panic hands the data to the next locker instead of poisoning the
/// lock, as `torstudy::runner::run_jobs` does.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A message fabric connecting the parties of a deployment: the
/// send/recv/link-stats/metrics-publication surface protocol drivers
/// program against.
///
/// # Contract
///
/// * **Ordering.** Per-sender FIFO is the only order protocols may
///   rely on, on any backend: frames from one sender to one recipient
///   arrive in send order; cross-sender interleaving is a schedule
///   artifact (send order, OS scheduler, or TCP timing).
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
    /// name replaces the previous endpoint: the old receiver
    /// disconnects, later sends reach the new one, and the fault
    /// schedules of the links into and out of the name continue.
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

/// Which [`Fabric`] backend a round should run over. `Copy`, so round
/// configurations stay cheap to clone and rebuild; the fabric itself
/// is constructed at round start via [`FabricChoice::build_obs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricChoice {
    /// The default in-process switchboard: one inbox per party, fault
    /// schedules and accounting per link.
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

/// A party's handle on its fabric: send to anyone, receive your own
/// inbox. Backend-generic — the same endpoint type fronts the
/// in-process switchboard and the socket fabric; a backend differs
/// only in what feeds the inbox. It is `Send` but not `Sync`: one
/// party's receive end belongs to one thread.
pub struct Endpoint {
    id: PartyId,
    send: Arc<dyn SendPort>,
    inbox: Receiver<WireMessage>,
}

impl Endpoint {
    pub(crate) fn from_parts(
        id: PartyId,
        send: Arc<dyn SendPort>,
        inbox: Receiver<WireMessage>,
    ) -> Endpoint {
        Endpoint { id, send, inbox }
    }

    /// This endpoint's party id.
    pub fn id(&self) -> &PartyId {
        &self.id
    }

    /// Sends a frame to `to`.
    pub fn send(&self, to: &PartyId, frame: Frame) -> Result<(), TransportError> {
        self.send.deliver(&self.id, to, &frame)
    }

    /// Blocking receive. Frames that fail to parse are surfaced as
    /// [`TransportError::Wire`] so callers can count/ignore them.
    pub fn recv(&self) -> Result<Envelope, TransportError> {
        let message = self.inbox.recv();
        parse(message.map_err(|_| TransportError::Disconnected)?)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Envelope, TransportError> {
        let message = self.inbox.try_recv();
        parse(message.map_err(|e| match e {
            TryRecvError::Empty => TransportError::Empty,
            TryRecvError::Disconnected => TransportError::Disconnected,
        })?)
    }
}

fn parse((from, wire): WireMessage) -> Result<Envelope, TransportError> {
    match Frame::from_wire(wire.into()) {
        Ok(frame) => Ok(Envelope { from, frame }),
        Err(e) => Err(TransportError::Wire(e)),
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
    fn try_recv_empty() {
        let board = Switchboard::new();
        let a = board.register("a");
        assert_eq!(a.try_recv().unwrap_err(), TransportError::Empty);
    }

    #[test]
    fn poisoned_lock_still_usable() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
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

    /// The two copies of a duplicated frame are the same wire bytes:
    /// the sent image when the link left it intact, the one corrupted
    /// image (one bit off the sent one) when it did not.
    #[test]
    fn duplicated_copies_are_identical_clean_or_corrupted() {
        for corrupt_chance in [0.0, 1.0] {
            let board = board_with(FaultConfig {
                duplicate_chance: 1.0,
                corrupt_chance,
                seed: 5,
                ..Default::default()
            });
            let a = board.register("a");
            let b = board.register("b");
            let sent = frame(9, b"a frame worth two copies");
            a.send(b.id(), sent.clone()).unwrap();
            let (from1, first) = b.inbox.try_recv().unwrap();
            let (from2, second) = b.inbox.try_recv().unwrap();
            assert_eq!(b.inbox.try_recv().unwrap_err(), TryRecvError::Empty);
            assert_eq!((from1.as_str(), from2.as_str()), ("a", "a"));
            assert_eq!(first, second, "corrupt_chance {corrupt_chance}");
            let image = sent.to_wire();
            let flipped: u32 = first
                .iter()
                .zip(image.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            assert_eq!(first.len(), image.len());
            if corrupt_chance == 0.0 {
                assert_eq!(flipped, 0);
                assert_eq!(Frame::from_wire(first.into()).unwrap(), sent);
            } else {
                assert_eq!(flipped, 1);
                assert!(Frame::from_wire(first.into()).is_err());
            }
            let stats = board.fault_stats();
            assert_eq!((stats.sent, stats.duplicated), (1, 1));
        }
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
        a.send(b.id(), frame(2, b"before")).unwrap();
        board.deregister(&PartyId::new("b"));
        // Queued traffic drains, then the receiver observes the
        // disconnection on both receive paths (never `Empty`); new
        // sends see an unknown party.
        assert_eq!(b.recv().unwrap().frame.msg_type, 1);
        assert_eq!(b.try_recv().unwrap().frame.msg_type, 2);
        assert_eq!(b.try_recv().unwrap_err(), TransportError::Disconnected);
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
    fn reregistered_party_receives_only_later_frames() {
        // Sends that failed against a dropped receiver must leave
        // nothing behind: once the party re-registers, its inbox holds
        // exactly the frames sent afterwards, in order.
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        a.send(b.id(), frame(1, b"live")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 1);
        drop(b);
        for _ in 0..3 {
            assert_eq!(
                a.send(&PartyId::new("b"), frame(2, b"lost")).unwrap_err(),
                TransportError::Disconnected
            );
        }
        let b = board.register("b");
        a.send(b.id(), frame(3, b"after")).unwrap();
        a.send(b.id(), frame(4, b"after")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 3);
        assert_eq!(b.recv().unwrap().frame.msg_type, 4);
        assert_eq!(b.try_recv().unwrap_err(), TransportError::Empty);
        // Failed sends were still submitted frames.
        assert_eq!(board.fault_stats().sent, 6);
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

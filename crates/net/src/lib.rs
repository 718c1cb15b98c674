//! # pm-net — deployment messaging for the measurement systems
//!
//! The original PrivCount and PSC deployments connect their parties
//! (tally server, share keepers / computation parties, data collectors)
//! over TLS/TCP. This crate reproduces that layer as an explicit,
//! inspectable substrate in the style of an event-driven network stack:
//!
//! * [`frame`] — a length-prefixed, type-tagged, checksummed wire format
//!   built directly on [`bytes`] (hand-written codecs, no serde on the
//!   wire);
//! * [`transport`] — the [`transport::Fabric`] trait and the in-memory
//!   [`transport::Switchboard`] backend: one inbox per party, with
//!   fault injection (smoltcp-style drop/duplicate/corrupt knobs),
//!   accounting and transcript digests kept per ordered `(from, to)`
//!   link;
//! * [`wire`] — the socket-backed [`wire::WireFabric`]: the same frame
//!   codec length-prefixed onto real TCP loopback links, with
//!   deterministic latency/bandwidth shaping for WAN-like wall-clock
//!   measurements;
//! * [`party`] — an event-loop runner that drives protocol state
//!   machines to completion over any fabric: a deterministic
//!   single-threaded scheduler on the in-process backend, one OS
//!   thread per party (as a real deployment would run one process per
//!   party) on the wire.
//!
//! Protocol crates (`privcount`, `psc`) define their message types as
//! [`frame::WireEncode`]/[`frame::WireDecode`] implementations and state
//! machines implementing [`party::Node`].
//!
//! # Fabric backends
//!
//! Everything above the transport — protocol nodes, round drivers, the
//! campaign plumbing — is generic over [`transport::Fabric`] and picks
//! a backend with [`transport::FabricChoice`]:
//!
//! | choice        | backend                | delivery                           |
//! |---------------|------------------------|------------------------------------|
//! | `PerLink`     | [`transport::Switchboard`] | in-process, one inbox per party |
//! | `Wire(shape)` | [`wire::WireFabric`]   | TCP loopback sockets, optionally shaped |
//!
//! "Per link" names the admission path — fault schedules, accounting
//! and digests are kept per ordered `(from, to)` link — not a queue:
//! both backends deliver into one inbox per party.
//!
//! The trait contract protocols may rely on, on **any** backend:
//!
//! * **Per-sender FIFO is the only ordering guarantee.** Frames from
//!   one sender to one recipient arrive in send order; the interleaving
//!   of different senders is a schedule artifact (send order, OS
//!   scheduler, or TCP timing) and must never affect a transcript byte.
//! * Every submitted frame is counted in the fault/link statistics at
//!   the send site, so backends fed the same transcript report the
//!   identical shared `net.*` counters (the wire backend adds its own
//!   `net.wire.*` family; it never diverges the shared ones).
//! * Counters are published into the fabric's recorder exactly once,
//!   when the last handle drops.
//!
//! Under a lossless schedule the same round produces byte-identical
//! per-link transcripts on every backend — pinned by the per-link
//! transcript digests in [`transport::LinkStats`] and the cross-backend
//! equality tests.

pub mod frame;
pub mod party;
pub mod transport;
pub mod wire;

pub use frame::{Frame, WireDecode, WireEncode, WireError};
pub use party::{Node, Step};
pub use transport::{
    Endpoint, Fabric, FabricChoice, FaultConfig, PartyId, Switchboard, TransportError, WireShape,
};
pub use wire::WireFabric;

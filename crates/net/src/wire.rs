//! The wire-real fabric: the workspace frame codec on std TCP loopback
//! sockets, behind the same [`Fabric`] trait as the in-process
//! [`Switchboard`](crate::transport::Switchboard).
//!
//! # Architecture
//!
//! Registration binds one blocking `TcpListener` per party on
//! `127.0.0.1:0`; nothing listens on it in the background. Sending
//! dials **one TCP connection per ordered `(from, to)` link** on first
//! use, and the dialing sender accepts that connection itself from the
//! recipient's listener — the pending connection whose peer address is
//! the dialed socket's local address, so a stray connection to the
//! port can never stand in for the link. The accepted end gets its own
//! reader thread, told the sender's id at spawn, that reassembles the
//! byte stream and forwards `(sender, frame-bytes)` into the
//! recipient's inbox channel — the same one-inbox-per-party
//! [`Endpoint`] the in-process fabric feeds directly. Re-registering or
//! deregistering a party evicts the connections dialed into its old
//! listener, so the next send on each of those links redials. One
//! party instance is pinned per thread (or per process): a party's
//! endpoint is its only handle on its sockets.
//!
//! **Per-sender FIFO** — the only ordering the [`Fabric`] contract
//! grants — holds because each ordered link is exactly one TCP
//! connection (in-order byte stream) drained by exactly one reader
//! thread into one channel. Cross-link arrival order is TCP timing and
//! scheduler whim; rounds over this backend therefore run threaded,
//! with blocking receives, exactly like a real deployment.
//!
//! # Stream framing
//!
//! Every message on a connection is a length-prefixed blob: a `u32`
//! big-endian byte length followed by that many bytes, and every blob
//! is one frame's wire image, checksummed by the inner frame codec
//! itself. There is no handshake: the reader learns the sender when it
//! is spawned. [`StreamDecoder`] reassembles blobs from arbitrary read
//! chunkings; a stream that ends mid-blob is a truncation
//! ([`TransportError::Wire`] with [`WireError::Truncated`]), never a
//! panic.
//!
//! # Determinism and shaping
//!
//! Fault schedules come from the shared ledger's per-link RNGs (seeded
//! from `(seed, from, to)`, kept for the fabric's life), so a given
//! link sees the identical drop/duplicate/corrupt schedule on either
//! backend, re-registrations included. The optional
//! [`WireShape`] delays each send by a time computed purely from the
//! configuration and the frame length — no clock is read — so WAN-like
//! wall-clock is measurable via the profiling spans and the per-link
//! byte counters while transcripts stay byte-identical to the
//! in-process fabric.
//!
//! # Threat model: what fault injection means on the wire path
//!
//! Faults are applied **sender-side, before the bytes reach the
//! socket**, modelling a lossy/adversarial network rather than a
//! compromised TCP stack: a *drop* means the frame is never written, a
//! *duplicate* writes the frame twice onto the same connection, and a
//! *corrupt* flips one bit of the wire image so the receiver's
//! checksum rejects it on parse — the same observable outcomes as on
//! the in-process fabric, under the same per-link schedule. What the
//! wire path cannot model identically is *failure detection*: a
//! departed peer's socket buffers writes until TCP notices, so
//! [`TransportError::Disconnected`] surfaces asynchronously here where
//! the in-process fabric fails synchronously. Protocols already treat
//! missing messages as an abort (no retransmission layer), so the
//! degradation mode is the same — only its latency differs.

use crate::frame::{Frame, WireError};
use crate::transport::{
    lock, Endpoint, Fabric, FaultConfig, FaultStats, LinkLedger, LinkStats, PartyId, SendPort,
    TransportError, WireMessage, WireShape,
};
use pm_obs::Recorder;
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on a single length-prefixed blob (16 MiB). A prefix
/// beyond this is stream desync or hostile input, not a real frame.
pub const MAX_BLOB_LEN: usize = 16 << 20;

/// Encodes one blob for the stream: `u32` big-endian length, then the
/// bytes.
pub fn encode_blob(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + data.len());
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(data);
    out
}

/// Reassembles length-prefixed blobs from an arbitrarily chunked byte
/// stream. Feed whatever each `read` returned to [`StreamDecoder::push`];
/// call [`StreamDecoder::finish`] at end-of-stream to detect a
/// truncated final blob.
#[derive(Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
}

impl StreamDecoder {
    /// Consumes the next chunk of stream bytes, returning every blob it
    /// completed (possibly none). Chunk boundaries are arbitrary: a
    /// blob may arrive across many pushes, and one push may complete
    /// many blobs.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        let mut cursor = 0usize;
        while self.buf.len() - cursor >= 4 {
            let len = u32::from_be_bytes([
                self.buf[cursor],
                self.buf[cursor + 1],
                self.buf[cursor + 2],
                self.buf[cursor + 3],
            ]) as usize;
            if len > MAX_BLOB_LEN {
                return Err(TransportError::Wire(WireError::Invalid(
                    "wire blob length exceeds bound",
                )));
            }
            if self.buf.len() - cursor < 4 + len {
                break;
            }
            out.push(self.buf[cursor + 4..cursor + 4 + len].to_vec());
            cursor += 4 + len;
        }
        self.buf.drain(..cursor);
        Ok(out)
    }

    /// End-of-stream check: leftover bytes mean the final blob was
    /// truncated mid-flight.
    pub fn finish(&self) -> Result<(), TransportError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(TransportError::Wire(WireError::Truncated))
        }
    }
}

/// One registered party's socket-side state: the listener its senders
/// dial and accept from, and the inbox its reader threads feed. The
/// held sender also keeps the endpoint's channel open while the party
/// is registered, so its receiver blocks rather than reports
/// Disconnected before any link is dialed.
struct PartyRecord {
    listener: TcpListener,
    inbox: Sender<WireMessage>,
}

/// One dialed `(from, to)` link: its connection.
type LinkConn = Arc<Mutex<TcpStream>>;

struct WireInner {
    shape: WireShape,
    ledger: LinkLedger,
    registry: Mutex<BTreeMap<PartyId, PartyRecord>>,
    /// Locked after `registry`, never before it.
    conns: Mutex<BTreeMap<(PartyId, PartyId), LinkConn>>,
    /// Links dialed, each of which accepted its own connection.
    links: AtomicU64,
}

impl Drop for WireInner {
    /// Mirrors the in-process fabric's publish-on-last-drop contract,
    /// adding the wire-only `net.wire.*` family. Reader threads exit
    /// when the dialed connections drop with this struct.
    fn drop(&mut self) {
        let links = self.links.load(Ordering::Relaxed);
        self.ledger.publish_metrics(&[
            ("net.wire.conns.dialed", links),
            ("net.wire.conns.accepted", links),
        ]);
    }
}

/// The socket-backed [`Fabric`]: real TCP loopback links carrying the
/// workspace frame codec, with the same per-link fault schedules and
/// the same shared metrics as the in-process fabric. Build one via
/// [`crate::transport::FabricChoice::Wire`] or the constructors here.
#[derive(Clone)]
pub struct WireFabric {
    inner: Arc<WireInner>,
}

impl Default for WireFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl WireFabric {
    /// A lossless, unshaped wire fabric with an inert recorder.
    pub fn new() -> WireFabric {
        WireFabric::with_shape(WireShape::default(), FaultConfig::none(), Recorder::new())
    }

    /// A wire fabric with shaping and fault injection, publishing its
    /// counters into `recorder` when the last handle (fabric clones and
    /// endpoints alike) drops.
    pub fn with_shape(shape: WireShape, faults: FaultConfig, recorder: Recorder) -> WireFabric {
        WireFabric {
            inner: Arc::new(WireInner {
                shape,
                ledger: LinkLedger::new(faults, recorder),
                registry: Mutex::new(BTreeMap::new()),
                conns: Mutex::new(BTreeMap::new()),
                links: AtomicU64::new(0),
            }),
        }
    }

    fn register_endpoint(&self, id: PartyId) -> Endpoint {
        // Loopback bind failure is environment-fatal (out of ports or
        // no loopback interface), not a protocol condition any caller
        // can handle.
        let listener = TcpListener::bind(("127.0.0.1", 0))
            // lint:allow(panic) environment-fatal, see above
            .expect("bind wire fabric listener on loopback");
        let (inbox, inbox_rx) = channel();
        let record = PartyRecord { listener, inbox };
        let mut registry = lock(&self.inner.registry);
        // Re-registration replaces the previous endpoint: its listener
        // closes and its inbox sender drops here.
        if registry.insert(id.clone(), record).is_some() {
            self.evict_conns_into(&id);
        }
        Endpoint::from_parts(id, Arc::new(self.clone()), inbox_rx)
    }

    /// Forgets every connection dialed into `to`'s previous listener so
    /// the next send on each of those links redials the current one.
    /// Called with the registry lock held, so a sender that looks the
    /// party up afterwards never pairs the new listener (or its
    /// absence) with a stale connection.
    fn evict_conns_into(&self, to: &PartyId) {
        lock(&self.inner.conns).retain(|(_, t), _| t != to);
    }
}

/// Dials `to`'s listener and accepts the far end of that very
/// connection — the pending one whose peer address is the dialed
/// socket's local address; any other pending connection is a stray and
/// is closed — then spawns the reader that feeds `to`'s inbox as
/// `from`.
fn dial(from: &PartyId, to: &PartyRecord) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(to.listener.local_addr()?)?;
    let _ = stream.set_nodelay(true);
    let near = stream.local_addr()?;
    loop {
        let (far, peer) = to.listener.accept()?;
        if peer == near {
            let (from, inbox) = (from.clone(), to.inbox.clone());
            std::thread::spawn(move || read_loop(far, from, inbox));
            return Ok(stream);
        }
    }
}

/// Drains one link's accepted connection: every blob is one frame's
/// wire image, forwarded to the recipient's inbox as sent by `from`.
/// Exits on stream close, decode error, or a gone receiver.
fn read_loop(mut stream: TcpStream, from: PartyId, inbox: Sender<WireMessage>) {
    let mut decoder = StreamDecoder::default();
    let mut buf = [0u8; 4096];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let Ok(blobs) = decoder.push(&buf[..n]) else {
            return; // desynced stream: drop the connection
        };
        for blob in blobs {
            if inbox.send((from.clone(), blob)).is_err() {
                return; // receiver endpoint is gone
            }
        }
    }
}

impl SendPort for WireFabric {
    fn deliver(&self, from: &PartyId, to: &PartyId, frame: &Frame) -> Result<(), TransportError> {
        let inner = &*self.inner;
        let mut wire = frame.wire_image();
        // Accounting happens at the send site, before delivery can
        // fail — the same order as the in-process fabric, which is
        // what keeps the shared counters backend-invariant.
        let record = inner.ledger.tally_send(from, to, &wire);
        let conn = {
            let registry = lock(&inner.registry);
            let party = registry
                .get(to)
                .ok_or_else(|| TransportError::UnknownParty(to.0.clone()))?;
            match lock(&inner.conns).entry((from.clone(), to.clone())) {
                Entry::Occupied(link) => Arc::clone(link.get()),
                // First frame on this ordered link (or the first since
                // its recipient re-registered).
                Entry::Vacant(link) => {
                    let stream = dial(from, party).map_err(|_| TransportError::Disconnected)?;
                    inner.links.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(link.insert(Arc::new(Mutex::new(stream))))
                }
            }
        };
        let copies = inner.ledger.roll(&record, &mut wire);
        if copies == 0 {
            return Ok(()); // modelled loss: never written
        }
        let blob = encode_blob(&wire);
        let delay = inner.shape.delay_ms(wire.len());
        let mut stream = lock(&conn);
        for _ in 0..copies {
            if delay > 0 {
                // Deterministic shaping: a pure function of config and
                // frame length, applied while holding the link's
                // stream lock so the link's serialization time is
                // modelled, not just a fixed offset.
                std::thread::sleep(Duration::from_millis(delay));
            }
            stream
                .write_all(&blob)
                .map_err(|_| TransportError::Disconnected)?;
        }
        stream.flush().map_err(|_| TransportError::Disconnected)
    }
}

impl Fabric for WireFabric {
    fn register(&self, id: PartyId) -> Endpoint {
        self.register_endpoint(id)
    }

    fn deregister(&self, id: &PartyId) {
        let mut registry = lock(&self.inner.registry);
        if registry.remove(id).is_some() {
            self.evict_conns_into(id);
        }
    }

    fn parties(&self) -> Vec<PartyId> {
        lock(&self.inner.registry).keys().cloned().collect()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.ledger.fault_stats()
    }

    fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)> {
        self.inner.ledger.link_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Switchboard;
    use bytes::Bytes;

    fn frame(t: u16, body: &'static [u8]) -> Frame {
        Frame::new(t, Bytes::from_static(body))
    }

    #[test]
    fn decoder_reassembles_across_arbitrary_chunks() {
        let blobs: Vec<Vec<u8>> = vec![b"one".to_vec(), vec![], b"three!".to_vec()];
        let mut stream = Vec::new();
        for b in &blobs {
            stream.extend_from_slice(&encode_blob(b));
        }
        // Byte-at-a-time is the worst chunking.
        let mut dec = StreamDecoder::default();
        let mut got = Vec::new();
        for byte in &stream {
            got.extend(dec.push(std::slice::from_ref(byte)).unwrap());
        }
        assert_eq!(got, blobs);
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_flags_truncated_tail() {
        let blob = encode_blob(b"whole");
        for cut in 1..blob.len() {
            let mut dec = StreamDecoder::default();
            assert!(dec.push(&blob[..cut]).unwrap().is_empty(), "cut={cut}");
            assert_eq!(
                dec.finish().unwrap_err(),
                TransportError::Wire(WireError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn decoder_rejects_absurd_length_prefix() {
        let mut dec = StreamDecoder::default();
        let bad = (MAX_BLOB_LEN as u32 + 1).to_be_bytes();
        assert!(matches!(
            dec.push(&bad).unwrap_err(),
            TransportError::Wire(WireError::Invalid(_))
        ));
    }

    #[test]
    fn wire_send_recv_round_trip() {
        let fabric = WireFabric::new();
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        a.send(b.id(), frame(7, b"over tcp")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(env.frame.msg_type, 7);
        assert_eq!(env.frame.payload.as_ref(), b"over tcp");
    }

    #[test]
    fn wire_preserves_per_sender_fifo() {
        let fabric = WireFabric::new();
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        for i in 0..50u16 {
            a.send(b.id(), frame(i, b"seq")).unwrap();
        }
        for i in 0..50u16 {
            assert_eq!(b.recv().unwrap().frame.msg_type, i);
        }
    }

    #[test]
    fn wire_unknown_party_errors() {
        let fabric = WireFabric::new();
        let a = fabric.register(PartyId::new("a"));
        assert_eq!(
            a.send(&PartyId::new("ghost"), frame(1, b"x")).unwrap_err(),
            TransportError::UnknownParty("ghost".into())
        );
    }

    #[test]
    fn wire_parties_listing_sorted() {
        let fabric = WireFabric::new();
        let _ts = fabric.register(PartyId::new("ts"));
        let _dc = fabric.register(PartyId::new("dc-1"));
        assert_eq!(
            fabric.parties(),
            vec![PartyId::new("dc-1"), PartyId::new("ts")]
        );
        fabric.deregister(&PartyId::new("dc-1"));
        assert_eq!(fabric.parties(), vec![PartyId::new("ts")]);
    }

    #[test]
    fn wire_faults_follow_the_per_link_schedule() {
        // The same (seed, from, to) link must see the same fault
        // schedule on the wire fabric as on the in-process fabric.
        let faults = FaultConfig {
            drop_chance: 0.5,
            seed: 11,
            ..Default::default()
        };
        let run_wire = || {
            let fabric = WireFabric::with_shape(WireShape::default(), faults, Recorder::new());
            let a = fabric.register(PartyId::new("a"));
            let b = fabric.register(PartyId::new("b"));
            for i in 0..50u16 {
                a.send(b.id(), frame(i, b"x")).unwrap();
            }
            let mut got = Vec::new();
            // Blocking recv until the expected number of survivors
            // arrived: the sender-side stats say how many were written.
            let expected = fabric.fault_stats().sent - fabric.fault_stats().dropped;
            for _ in 0..expected {
                got.push(b.recv().unwrap().frame.msg_type);
            }
            got
        };
        let in_process = {
            let board = Switchboard::with_faults(faults, Recorder::new());
            let a = board.register("a");
            let b = board.register("b");
            for i in 0..50u16 {
                a.send(b.id(), frame(i, b"x")).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(env) = b.try_recv() {
                got.push(env.frame.msg_type);
            }
            got
        };
        assert_eq!(run_wire(), in_process);
        assert_eq!(run_wire(), in_process);
    }

    #[test]
    fn wire_counters_match_in_process_under_lossless_schedule() {
        // Same sends on both backends → identical FaultStats and
        // per-link LinkStats, including the transcript digest.
        let drive = |fabric: &dyn Fabric| {
            let a = fabric.register(PartyId::new("a"));
            let b = fabric.register(PartyId::new("b"));
            let c = fabric.register(PartyId::new("c"));
            a.send(b.id(), frame(1, b"to b")).unwrap();
            a.send(c.id(), frame(2, b"to c, longer")).unwrap();
            c.send(a.id(), frame(3, b"back")).unwrap();
            // Drain so nothing is in flight when stats are read.
            b.recv().unwrap();
            a.recv().unwrap();
            c.recv().unwrap();
            (fabric.fault_stats(), fabric.link_stats())
        };
        let board = Switchboard::new();
        let wire = WireFabric::new();
        assert_eq!(drive(&board), drive(&wire));
    }

    /// Blocks for the `copies` next arrivals on `ep` (a corrupted copy
    /// arrives as a checksum failure) and returns the intact frames'
    /// message types.
    fn arrivals(ep: &Endpoint, copies: u64) -> Vec<u16> {
        (0..copies)
            .filter_map(|_| match ep.recv() {
                Ok(env) => Some(env.frame.msg_type),
                Err(TransportError::Wire(_)) => None,
                Err(e) => panic!("arrival lost: {e}"),
            })
            .collect()
    }

    fn both_backends(faults: FaultConfig) -> [Arc<dyn Fabric>; 2] {
        [
            Arc::new(Switchboard::with_faults(faults, Recorder::new())),
            Arc::new(WireFabric::with_shape(
                WireShape::default(),
                faults,
                Recorder::new(),
            )),
        ]
    }

    #[test]
    fn wire_reregistration_redials() {
        // A connection dialed into a party's old listener must not
        // outlive the registration: the next send reaches the new
        // endpoint instead of vanishing into the dead socket.
        let fabric = WireFabric::new();
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        a.send(b.id(), frame(1, b"old")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 1);
        drop(b);
        let b = fabric.register(PartyId::new("b"));
        a.send(b.id(), frame(2, b"new")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 2);
        // Same through deregister + register.
        fabric.deregister(b.id());
        let b = fabric.register(PartyId::new("b"));
        a.send(b.id(), frame(3, b"newer")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 3);
    }

    #[test]
    fn unknown_party_send_is_counted_and_rolls_no_fault() {
        // A send to an unregistered party fails before the link's
        // fault dice are touched: whatever is delivered on the link
        // later gets the verdict it would have had anyway.
        let faults = FaultConfig {
            drop_chance: 0.4,
            duplicate_chance: 0.2,
            seed: 11,
            ..Default::default()
        };
        let ab = (PartyId::new("a"), PartyId::new("b"));
        let run = |fabric: &dyn Fabric, early: u64| {
            let a = fabric.register(ab.0.clone());
            for _ in 0..early {
                assert_eq!(
                    a.send(&ab.1, frame(999, b"early")).unwrap_err(),
                    TransportError::UnknownParty("b".into())
                );
            }
            let b = fabric.register(ab.1.clone());
            for i in 0..40u16 {
                a.send(b.id(), frame(i, b"x")).unwrap();
            }
            assert_eq!(fabric.fault_stats().sent, early + 40);
            let (link, stats) = fabric.link_stats().remove(0);
            assert_eq!((link, stats.sent), (ab.clone(), early + 40));
            assert!(stats.dropped > 0 && stats.duplicated > 0);
            arrivals(&b, stats.delivered_clean)
        };
        let [board, _] = both_backends(faults);
        let undisturbed = run(&*board, 0);
        for early in [0, 5] {
            for fabric in both_backends(faults) {
                assert_eq!(run(&*fabric, early), undisturbed, "early={early}");
            }
        }
    }

    #[test]
    fn fault_schedule_continues_across_reregistration_on_both_backends() {
        // The link's fault RNG lives in the ledger, not in the
        // recipient's registration or the dialed connection: when the
        // recipient re-registers mid-sequence both backends carry on
        // with the same schedule and report identical per-link stats.
        let faults = FaultConfig {
            drop_chance: 0.3,
            duplicate_chance: 0.3,
            corrupt_chance: 0.3,
            seed: 5,
        };
        let delivered = |fabric: &dyn Fabric| {
            let s = fabric.link_stats()[0].1;
            (s.delivered_clean, s.delivered_clean + s.delivered_corrupted)
        };
        let drive = |fabric: &dyn Fabric| {
            let a = fabric.register(PartyId::new("a"));
            let b = fabric.register(PartyId::new("b"));
            for i in 0..30u16 {
                a.send(b.id(), frame(i, b"first registration")).unwrap();
            }
            let (clean_before, copies_before) = delivered(fabric);
            let got_before = arrivals(&b, copies_before);
            let b = fabric.register(PartyId::new("b"));
            for i in 30..60u16 {
                a.send(b.id(), frame(i, b"second registration")).unwrap();
            }
            let (clean, copies) = delivered(fabric);
            let got_after = arrivals(&b, copies - copies_before);
            assert_eq!(got_before.len() as u64, clean_before);
            assert_eq!(got_after.len() as u64, clean - clean_before);
            assert!(got_after.iter().all(|t| *t >= 30));
            (
                got_before,
                got_after,
                fabric.fault_stats(),
                fabric.link_stats(),
            )
        };
        let [board, wire] = both_backends(faults);
        let in_process = drive(&*board);
        let s = in_process.3[0].1;
        assert!(s.dropped > 0 && s.duplicated > 0 && s.delivered_corrupted > 0);
        assert_eq!(drive(&*wire), in_process);
        // And the sequence is the one an undisturbed link would see.
        let undisturbed = Switchboard::with_faults(faults, Recorder::new());
        let a = undisturbed.register("a");
        let b = undisturbed.register("b");
        for i in 0..30u16 {
            a.send(b.id(), frame(i, b"first registration")).unwrap();
        }
        for i in 30..60u16 {
            a.send(b.id(), frame(i, b"second registration")).unwrap();
        }
        assert_eq!(undisturbed.link_stats(), in_process.3);
    }

    #[test]
    fn faulted_schedule_accounting_is_pinned_on_both_backends() {
        // A scripted send sequence under drop, duplicate and corrupt
        // faults, with one send to an unregistered party mid-script:
        // the board totals, every link's stats (digest included) and
        // the published shared `net.*` snapshot are pinned, so a change
        // to the one ledger both backends share cannot pass as parity.
        let faults = FaultConfig {
            drop_chance: 0.2,
            duplicate_chance: 0.2,
            corrupt_chance: 0.2,
            seed: 2018,
        };
        let fnv = |text: &str| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let bodies: [&'static [u8]; 3] = [b"", b"share", b"a longer table row"];
        for wire in [false, true] {
            let rec = Recorder::new();
            let fabric: Arc<dyn Fabric> = if wire {
                Arc::new(WireFabric::with_shape(
                    WireShape::default(),
                    faults,
                    rec.clone(),
                ))
            } else {
                Arc::new(Switchboard::with_faults(faults, rec.clone()))
            };
            let ids = ["dc-1", "dc-2", "sk-1", "ts"].map(PartyId::new);
            let eps: Vec<Endpoint> = ids.iter().map(|id| fabric.register(id.clone())).collect();
            let (dc1, dc2, sk, ts) = (&eps[0], &eps[1], &eps[2], &eps[3]);
            for i in 0..24u16 {
                let body = bodies[usize::from(i) % 3];
                dc1.send(ts.id(), frame(i, body)).unwrap();
                dc2.send(ts.id(), frame(100 + i, body)).unwrap();
                ts.send(sk.id(), frame(200 + i, body)).unwrap();
                sk.send(ts.id(), frame(300 + i, body)).unwrap();
                if i == 12 {
                    assert_eq!(
                        ts.send(&PartyId::new("ghost"), frame(999, b"lost"))
                            .unwrap_err(),
                        TransportError::UnknownParty("ghost".into())
                    );
                }
            }
            let totals = fabric.fault_stats();
            let links = format!("{:?}", fabric.link_stats());
            drop(eps);
            drop(fabric);
            let shared: String = rec
                .read_snapshot()
                .entries
                .iter()
                .filter(|(k, _)| k.starts_with("net.") && !k.starts_with("net.wire."))
                .map(|(k, v)| format!("{k}={v}\n"))
                .collect();
            assert_eq!(
                totals,
                FaultStats {
                    sent: 97,
                    dropped: 15,
                    duplicated: 10,
                    corrupted: 14,
                }
            );
            assert_eq!(
                (fnv(&links), fnv(&shared)),
                (0xb33e_2ffb_1dbe_42aa, 0x24cf_be73_886e_5fd4),
                "wire={wire}\n{links}\n{shared}"
            );
        }
    }

    #[test]
    fn wire_corruption_caught_by_frame_checksum() {
        let fabric = WireFabric::with_shape(
            WireShape::default(),
            FaultConfig {
                corrupt_chance: 1.0,
                seed: 3,
                ..Default::default()
            },
            Recorder::new(),
        );
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        a.send(b.id(), frame(1, b"precious data")).unwrap();
        match b.recv() {
            Err(TransportError::Wire(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
        assert_eq!(fabric.fault_stats().corrupted, 1);
    }

    #[test]
    fn wire_duplicates_deliver_twice() {
        let fabric = WireFabric::with_shape(
            WireShape::default(),
            FaultConfig {
                duplicate_chance: 1.0,
                ..Default::default()
            },
            Recorder::new(),
        );
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        a.send(b.id(), frame(1, b"twice")).unwrap();
        assert!(b.recv().is_ok());
        assert!(b.recv().is_ok());
    }

    #[test]
    fn dropping_the_wire_fabric_publishes_metrics_with_wire_family() {
        let rec = Recorder::new();
        {
            let fabric =
                WireFabric::with_shape(WireShape::default(), FaultConfig::none(), rec.clone());
            let a = fabric.register(PartyId::new("a"));
            let b = fabric.register(PartyId::new("b"));
            a.send(b.id(), frame(1, b"counted")).unwrap();
            let _ = b.recv().unwrap();
            assert_eq!(rec.read_counter("net.frames.sent"), 0);
        }
        assert_eq!(rec.read_counter("net.frames.sent"), 1);
        assert_eq!(rec.read_counter("net.link.a->b.sent"), 1);
        assert_eq!(rec.read_counter("net.wire.conns.dialed"), 1);
        assert_eq!(rec.read_counter("net.wire.conns.accepted"), 1);
    }

    #[test]
    fn stray_connection_cannot_capture_a_link() {
        // A connection that reaches b's listener before a's first send
        // — here one that even speaks a valid frame — is not mistaken
        // for the a->b link: a's dial accepts its own connection, the
        // stray is closed, and only a's frame arrives, from a.
        let fabric = WireFabric::new();
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        let addr = lock(&fabric.inner.registry)[b.id()]
            .listener
            .local_addr()
            .unwrap();
        let mut stray = TcpStream::connect(addr).unwrap();
        stray
            .write_all(&encode_blob(&frame(66, b"impostor").to_wire()))
            .unwrap();
        a.send(b.id(), frame(7, b"genuine")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(env.frame.payload.as_ref(), b"genuine");
        // Closed with its frame unread, the stray sees a reset or EOF;
        // left open, its read would time out.
        stray
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match stray.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
            Ok(_) => panic!("stray received bytes"),
        }
        a.send(b.id(), frame(8, b"again")).unwrap();
        assert_eq!(b.recv().unwrap().frame.msg_type, 8);
        assert!(b.try_recv().is_err(), "the stray's frame was delivered");
    }

    #[test]
    fn full_mesh_accepts_exactly_the_links_it_dials() {
        let rec = Recorder::new();
        {
            let fabric =
                WireFabric::with_shape(WireShape::default(), FaultConfig::none(), rec.clone());
            let eps: Vec<_> = (0..14)
                .map(|i| fabric.register(PartyId::new(format!("p{i}"))))
                .collect();
            for from in &eps {
                for to in eps.iter().filter(|to| to.id() != from.id()) {
                    from.send(to.id(), frame(3, b"hi")).unwrap();
                }
            }
            for ep in &eps {
                let mut senders: Vec<_> = (0..13).map(|_| ep.recv().unwrap().from).collect();
                senders.sort();
                senders.dedup();
                assert_eq!(senders.len(), 13, "{} heard a sender twice", ep.id());
            }
        }
        assert_eq!(rec.read_counter("net.wire.conns.dialed"), 182);
        assert_eq!(rec.read_counter("net.wire.conns.accepted"), 182);
    }

    #[test]
    fn cross_thread_wire_delivery() {
        let fabric = WireFabric::new();
        let a = fabric.register(PartyId::new("a"));
        let b = fabric.register(PartyId::new("b"));
        let handle = std::thread::spawn(move || b.recv().unwrap().frame.msg_type);
        a.send(&PartyId::new("b"), frame(42, b"cross-thread"))
            .unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }
}

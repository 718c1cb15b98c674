//! The in-process backend: one inbox channel per registered party.

use super::ledger::{FaultConfig, FaultStats, LinkLedger, LinkStats};
use super::{lock, Endpoint, Fabric, PartyId, SendPort, TransportError, WireMessage};
use crate::frame::Frame;
use pm_obs::Recorder;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

struct BoardInner {
    /// Each registered party's inbox sender; the matching receiver
    /// lives in the party's [`Endpoint`]. Removing or replacing an
    /// entry drops the only long-lived sender, which is how the old
    /// receiver observes deregistration.
    parties: Mutex<BTreeMap<PartyId, Sender<WireMessage>>>,
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
                parties: Mutex::new(BTreeMap::new()),
                ledger: LinkLedger::new(faults, recorder),
            }),
        }
    }

    /// Registers a party and returns its endpoint. Re-registering a name
    /// replaces the previous endpoint (the old receiver disconnects).
    pub fn register(&self, id: impl Into<PartyId>) -> Endpoint {
        let id = id.into();
        let (inbox_tx, inbox_rx) = channel();
        lock(&self.inner.parties).insert(id.clone(), inbox_tx);
        Endpoint::from_parts(id, Arc::new(self.clone()), inbox_rx)
    }

    /// Removes a party from the fabric.
    pub fn deregister(&self, id: &PartyId) {
        lock(&self.inner.parties).remove(id);
    }

    /// All registered party ids, sorted.
    pub fn parties(&self) -> Vec<PartyId> {
        lock(&self.inner.parties).keys().cloned().collect()
    }
}

impl SendPort for Switchboard {
    fn deliver(&self, from: &PartyId, to: &PartyId, frame: &Frame) -> Result<(), TransportError> {
        let mut wire = frame.wire_image();
        let record = self.inner.ledger.tally_send(from, to, &wire);
        // The sender is cloned out so the registry lock is never held
        // across fault rolls or inbox pushes.
        let inbox = lock(&self.inner.parties)
            .get(to)
            .cloned()
            .ok_or_else(|| TransportError::UnknownParty(to.0.clone()))?;
        let copies = self.inner.ledger.roll(&record, &mut wire);
        if copies == 0 {
            return Ok(());
        }
        // The image moves into the inbox; only a duplicate is a copy.
        for _ in 1..copies {
            inbox
                .send((from.clone(), wire.clone()))
                .map_err(|_| TransportError::Disconnected)?;
        }
        inbox
            .send((from.clone(), wire))
            .map_err(|_| TransportError::Disconnected)
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
        self.inner.ledger.fault_stats()
    }

    fn link_stats(&self) -> Vec<((PartyId, PartyId), LinkStats)> {
        self.inner.ledger.link_stats()
    }
}

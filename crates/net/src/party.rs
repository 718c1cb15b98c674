//! Protocol party runner: drives [`Node`] state machines over any
//! [`Fabric`] backend.
//!
//! A round door hands [`run`] its parties and the backend it chose;
//! the backend fixes the execution mode:
//!
//! * The in-process switchboard runs on a single-threaded round-robin
//!   scheduler. Messages are delivered in a reproducible order, which
//!   makes protocol tests deterministic and debuggable, and a round
//!   that wedges fails with a deadlock report naming the stuck
//!   parties. The scheduler equates "no message immediately available"
//!   with "nothing in flight", which is false on a socket fabric where
//!   frames sit in kernel buffers.
//! * The wire fabric runs one OS thread per party, matching how a real
//!   deployment runs one process per party. It has no deadlock
//!   detector, so a dead party would hang it: [`run`] refuses an
//!   attacked round over the wire.
//!
//! Both run until every node reports [`Step::Done`] and return
//! `Ok(())`, or stop at the first failure with a typed [`NodeError`]
//! (attributed to the party that raised it). A node hands its results
//! out through state it shares with its caller, never through the
//! runner; frames that fail their checksum are dropped, and counted
//! once, by the fabric's ledger at the send site.
//!
//! The runner is backend-generic: it holds an `Arc<dyn Fabric>` and
//! registers its parties through the trait. Protocol state machines
//! may rely on per-sender FIFO order only — cross-sender arrival order
//! is a schedule artifact on every backend (send order, OS scheduler,
//! or TCP timing).

use crate::transport::{
    Endpoint, Envelope, Fabric, FabricChoice, FaultConfig, PartyId, TransportError,
};
use pm_obs::Recorder;
use std::fmt;
use std::sync::Arc;

/// What a node wants after handling an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Keep delivering messages.
    Continue,
    /// This node has completed its role in the protocol.
    Done,
}

/// Errors surfaced by protocol nodes.
#[derive(Debug, Clone)]
pub enum NodeError {
    /// The node received a message it considers fatal to the round.
    Protocol(String),
    /// Transport failure.
    Transport(TransportError),
    /// A failure attributed to the party that raised — and thereby
    /// *detected* — it. The runner wraps node errors in this variant
    /// so callers can report who observed the fault (a verifying TS, a
    /// share keeper rejecting a malformed payload, …). Runner-level
    /// failures such as deadlock detection stay unattributed.
    Detected {
        /// The party whose state machine raised the error.
        by: PartyId,
        /// The underlying failure.
        source: Box<NodeError>,
    },
}

impl NodeError {
    /// Wraps the error with the party that raised it; already-attributed
    /// errors keep their original (innermost) detector.
    fn attributed_to(self, by: &PartyId) -> NodeError {
        match self {
            NodeError::Detected { .. } => self,
            other => NodeError::Detected {
                by: by.clone(),
                source: Box::new(other),
            },
        }
    }

    /// The party that detected the failure, if it was attributed.
    pub fn detected_by(&self) -> Option<&PartyId> {
        match self {
            NodeError::Detected { by, .. } => Some(by),
            _ => None,
        }
    }

    /// The failure description without the attribution wrapper.
    pub fn reason(&self) -> String {
        match self {
            NodeError::Detected { source, .. } => source.reason(),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Protocol(s) => write!(f, "protocol error: {s}"),
            NodeError::Transport(e) => write!(f, "transport error: {e}"),
            NodeError::Detected { by, source } => write!(f, "{source} (detected by {by})"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<TransportError> for NodeError {
    fn from(e: TransportError) -> Self {
        NodeError::Transport(e)
    }
}

/// A protocol state machine.
///
/// Nodes never block: they are handed their endpoint on start (to send
/// opening messages) and then receive one envelope at a time.
pub trait Node: Send {
    /// Called once before any message delivery; the node may send its
    /// opening messages through `ep`.
    fn on_start(&mut self, ep: &Endpoint) -> Result<Step, NodeError>;

    /// Called for each delivered message.
    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError>;

    /// Human-readable role for diagnostics.
    fn role(&self) -> &'static str {
        "node"
    }
}

/// Runs one protocol round: `parties` over the backend `fabric` builds
/// (its counters published into `recorder`, `faults` injected), in the
/// execution mode that backend fixes (see the module docs). An
/// `adversarial` round needs the deterministic scheduler's deadlock
/// detector, so over the wire fabric it is refused before any backend
/// is built.
pub fn run(
    fabric: FabricChoice,
    faults: FaultConfig,
    recorder: &Recorder,
    adversarial: bool,
    parties: Vec<(PartyId, Box<dyn Node>)>,
) -> Result<(), NodeError> {
    if fabric.is_wire() && adversarial {
        return Err(NodeError::Protocol(
            "adversarial scenarios need the deterministic scheduler, which the \
             wire fabric cannot provide"
                .into(),
        ));
    }
    let mut runner = Runner::over(fabric.build_obs(faults, recorder.clone()));
    for (id, node) in parties {
        runner.add(id, node);
    }
    if fabric.is_wire() {
        runner.run_threaded()
    } else {
        runner.run_deterministic()
    }
}

/// Binds nodes to party ids and runs them over a [`Fabric`] backend.
struct Runner {
    board: Arc<dyn Fabric>,
    nodes: Vec<(PartyId, Box<dyn Node>)>,
}

impl Runner {
    /// Creates a runner over a shared fabric handle.
    fn over(board: Arc<dyn Fabric>) -> Runner {
        Runner {
            board,
            nodes: Vec::new(),
        }
    }

    /// Adds a node under a party id.
    fn add(&mut self, id: impl Into<PartyId>, node: Box<dyn Node>) -> &mut Self {
        self.nodes.push((id.into(), node));
        self
    }

    /// Runs all nodes on a single thread with round-robin delivery until
    /// all are done and no messages remain in flight. A frame that fails
    /// its checksum is dropped and the round goes on; the ledger already
    /// counted it at the send site (`net.frames.corrupted`).
    fn run_deterministic(self) -> Result<(), NodeError> {
        let mut endpoints: Vec<Endpoint> = Vec::new();
        let mut nodes = Vec::new();
        for (id, node) in self.nodes {
            endpoints.push(self.board.register(id.clone()));
            nodes.push((id, node, false)); // (id, node, done)
        }
        // Start phase.
        for (i, (id, node, done)) in nodes.iter_mut().enumerate() {
            let step = node
                .on_start(&endpoints[i])
                .map_err(|e| e.attributed_to(id))?;
            if matches!(step, Step::Done) {
                *done = true;
            }
        }
        // Delivery loop.
        loop {
            let mut delivered_any = false;
            for (i, (id, node, done)) in nodes.iter_mut().enumerate() {
                loop {
                    match endpoints[i].try_recv() {
                        Ok(env) => {
                            delivered_any = true;
                            if *done {
                                // Late message to a finished node: ignore.
                                continue;
                            }
                            let step = node
                                .on_message(&endpoints[i], env)
                                .map_err(|e| e.attributed_to(id))?;
                            if matches!(step, Step::Done) {
                                *done = true;
                            }
                        }
                        Err(TransportError::Empty) => break,
                        Err(TransportError::Wire(_)) => delivered_any = true,
                        Err(e) => return Err(NodeError::from(e).attributed_to(id)),
                    }
                }
            }
            let all_done = nodes.iter().all(|(_, _, done)| *done);
            if !delivered_any {
                if all_done {
                    return Ok(());
                }
                // No progress and not done: the protocol is stuck.
                let stuck: Vec<String> = nodes
                    .iter()
                    .filter(|(_, _, d)| !d)
                    .map(|(id, node, _)| format!("{id} ({})", node.role()))
                    .collect();
                return Err(NodeError::Protocol(format!(
                    "deadlock: no messages in flight but parties not done: {}",
                    stuck.join(", ")
                )));
            }
        }
    }

    /// Runs each node on its own OS thread (blocking receive loop), as a
    /// real per-process deployment would. Checksum failures are dropped
    /// as in [`Runner::run_deterministic`]; a node thread that panics
    /// fails the run, attributed to its party.
    fn run_threaded(self) -> Result<(), NodeError> {
        // Register all endpoints BEFORE any thread starts so early sends
        // never hit UnknownParty.
        let prepared: Vec<(PartyId, Box<dyn Node>, Endpoint)> = self
            .nodes
            .into_iter()
            .map(|(id, node)| {
                let ep = self.board.register(id.clone());
                (id, node, ep)
            })
            .collect();
        let handles: Vec<_> = prepared
            .into_iter()
            .map(|(id, mut node, ep)| {
                let handle = std::thread::spawn(move || -> Result<(), NodeError> {
                    let mut step = node.on_start(&ep)?;
                    while step == Step::Continue {
                        match ep.recv() {
                            Ok(env) => step = node.on_message(&ep, env)?,
                            Err(TransportError::Wire(_)) => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Ok(())
                });
                (id, handle)
            })
            .collect();
        for (id, handle) in handles {
            handle
                .join()
                .unwrap_or_else(|_| Err(NodeError::Protocol("node thread panicked".into())))
                .map_err(|e| e.attributed_to(&id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::transport::Switchboard;
    use bytes::Bytes;

    /// Ping: sends `count` pings to "pong", expects echoes back.
    struct Ping {
        peer: PartyId,
        count: u32,
        acked: u32,
    }

    /// Pong: echoes until told to stop (msg_type 2).
    struct Pong {
        expected: u32,
        seen: u32,
    }

    impl Node for Ping {
        fn on_start(&mut self, ep: &Endpoint) -> Result<Step, NodeError> {
            for _ in 0..self.count {
                ep.send(&self.peer, Frame::new(1, Bytes::from_static(b"ping")))?;
            }
            Ok(Step::Continue)
        }
        fn on_message(&mut self, ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
            self.acked += 1;
            if self.acked == self.count {
                ep.send(&self.peer, Frame::new(2, Bytes::from_static(b"stop")))?;
                return Ok(Step::Done);
            }
            Ok(Step::Continue)
        }
        fn role(&self) -> &'static str {
            "ping"
        }
    }

    impl Node for Pong {
        fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
            Ok(Step::Continue)
        }
        fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
            if env.frame.msg_type == 2 {
                assert_eq!(self.seen, self.expected);
                return Ok(Step::Done);
            }
            self.seen += 1;
            ep.send(&env.from, Frame::new(1, Bytes::from_static(b"pong")))?;
            Ok(Step::Continue)
        }
        fn role(&self) -> &'static str {
            "pong"
        }
    }

    fn build(count: u32) -> Runner {
        let mut runner = Runner::over(Arc::new(Switchboard::new()));
        runner.add(
            "ping",
            Box::new(Ping {
                peer: PartyId::new("pong"),
                count,
                acked: 0,
            }),
        );
        runner.add(
            "pong",
            Box::new(Pong {
                expected: count,
                seen: 0,
            }),
        );
        runner
    }

    #[test]
    fn deterministic_run_completes() {
        build(5).run_deterministic().unwrap();
    }

    #[test]
    fn threaded_run_completes() {
        build(50).run_threaded().unwrap();
    }

    #[test]
    fn deadlock_detected() {
        // A node that waits forever for a message nobody sends.
        struct Waiter;
        impl Node for Waiter {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                Ok(Step::Continue)
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
        }
        let mut runner = Runner::over(Arc::new(Switchboard::new()));
        runner.add("waiter", Box::new(Waiter));
        match runner.run_deterministic() {
            Err(NodeError::Protocol(msg)) => assert!(msg.contains("deadlock"), "{msg}"),
            other => panic!("expected deadlock, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn node_errors_are_attributed_to_the_detecting_party() {
        struct Refuser;
        impl Node for Refuser {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                Err(NodeError::Protocol("bad share".into()))
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                unreachable!()
            }
        }
        let mut runner = Runner::over(Arc::new(Switchboard::new()));
        runner.add("sk-1", Box::new(Refuser));
        let err = match runner.run_deterministic() {
            Err(e) => e,
            Ok(_) => panic!("refusing node must fail the run"),
        };
        assert_eq!(err.detected_by().map(PartyId::as_str), Some("sk-1"));
        assert_eq!(err.reason(), "protocol error: bad share");
        assert!(err.to_string().contains("detected by sk-1"), "{err}");
        // Deadlock stays unattributed: the runner, not a party, sees it.
        struct Waiter;
        impl Node for Waiter {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                Ok(Step::Continue)
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
        }
        let mut runner = Runner::over(Arc::new(Switchboard::new()));
        runner.add("waiter", Box::new(Waiter));
        match runner.run_deterministic() {
            Err(e) => assert!(e.detected_by().is_none()),
            Ok(_) => panic!("stuck node must deadlock"),
        }
    }

    #[test]
    fn panicking_node_thread_is_attributed_to_its_party() {
        struct Quick;
        impl Node for Quick {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
        }
        struct Crasher;
        impl Node for Crasher {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                panic!("share keeper crashed")
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
        }
        let mut runner = Runner::over(Arc::new(Switchboard::new()));
        runner.add("ts", Box::new(Quick));
        runner.add("sk-1", Box::new(Crasher));
        let err = match runner.run_threaded() {
            Err(e) => e,
            Ok(_) => panic!("a panicking node must fail the run"),
        };
        assert_eq!(err.detected_by().map(PartyId::as_str), Some("sk-1"));
        assert_eq!(err.reason(), "protocol error: node thread panicked");
    }

    #[test]
    fn corrupted_frames_are_dropped_and_the_round_continues() {
        // Frames 0..8 under a seeded corrupt-only schedule: the
        // receiver sees exactly the intact ones, the runner drops the
        // checksum failures, and the run ends when the last frame lands.
        struct Burst;
        impl Node for Burst {
            fn on_start(&mut self, ep: &Endpoint) -> Result<Step, NodeError> {
                for t in 0..8 {
                    ep.send(
                        &PartyId::new("sink"),
                        Frame::new(t, Bytes::from_static(b"row")),
                    )?;
                }
                Ok(Step::Done)
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
        }
        struct Sink(Arc<std::sync::Mutex<Vec<u16>>>);
        impl Node for Sink {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                Ok(Step::Continue)
            }
            fn on_message(&mut self, _ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
                self.0.lock().unwrap().push(env.frame.msg_type);
                Ok(if env.frame.msg_type == 7 {
                    Step::Done
                } else {
                    Step::Continue
                })
            }
        }
        let faults = crate::transport::FaultConfig {
            corrupt_chance: 0.5,
            seed: 7,
            ..Default::default()
        };
        let board: Arc<dyn Fabric> =
            Arc::new(Switchboard::with_faults(faults, pm_obs::Recorder::new()));
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut runner = Runner::over(Arc::clone(&board));
        runner.add("burst", Box::new(Burst));
        runner.add("sink", Box::new(Sink(Arc::clone(&seen))));
        assert!(runner.run_deterministic().is_ok());
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen, [3, 4, 5, 7]);
        assert_eq!(board.fault_stats().corrupted, 8 - seen.len() as u64);
    }

    #[test]
    fn immediate_done_on_start() {
        struct Quick;
        impl Node for Quick {
            fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
                Ok(Step::Done)
            }
            fn on_message(&mut self, _ep: &Endpoint, _env: Envelope) -> Result<Step, NodeError> {
                unreachable!()
            }
        }
        let mut runner = Runner::over(Arc::new(Switchboard::new()));
        runner.add("quick", Box::new(Quick));
        runner.run_deterministic().unwrap();
    }
}

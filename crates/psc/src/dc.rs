//! The PSC Data Collector node.
//!
//! Extracts items from observed Tor events and marks them in the
//! oblivious counter table; IP addresses and onion addresses are never
//! stored (§5.1, §6.1 — "PSC uses oblivious counters").

use crate::adversary::Attack;
use crate::items::ItemExtractor;
use crate::messages::{self, tag};
use crate::table::ObliviousTable;
use pm_crypto::elgamal::PublicKey;
use pm_crypto::group::GroupParams;
use pm_net::party::{Node, NodeError, Step};
use pm_net::transport::{Endpoint, Envelope, PartyId};
use pm_net::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;
use torsim::stream::EventStream;

/// The boxed event generator a caller may hand a DC in place of a
/// stream (a one-shard [`EventStream`]).
pub use torsim::stream::ShardFn as EventGenerator;

/// A PSC Data Collector.
pub struct PscDcNode {
    ts: PartyId,
    extractor: ItemExtractor,
    /// The collection period's events: crypto-free shard-parallel
    /// accumulation, then one marking pass over the merged cells (see
    /// [`crate::shard`]).
    stream: Option<EventStream>,
    rng: StdRng,
    /// The attack aimed at this DC ([`Attack::None`] when honest).
    attack: Attack,
}

impl PscDcNode {
    /// Creates a DC with its item extractor, the event stream of its
    /// collection period, and the attack it carries out (see
    /// [`crate::adversary`]).
    pub fn new(
        ts: PartyId,
        extractor: ItemExtractor,
        stream: EventStream,
        seed: u64,
        attack: Attack,
    ) -> PscDcNode {
        PscDcNode {
            ts,
            extractor,
            stream: Some(stream),
            rng: StdRng::seed_from_u64(seed),
            attack,
        }
    }
}

impl Node for PscDcNode {
    fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
        Ok(Step::Continue) // wait for Configure
    }

    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
        match env.frame.msg_type {
            tag::CONFIGURE => {
                let cfg: messages::PscConfigure = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad configure: {e}")))?;
                let gp = GroupParams::default_params();
                if !gp.is_element(&cfg.joint_key) {
                    return Err(NodeError::Protocol("joint key not a group element".into()));
                }
                // A malformed DC provisions the wrong table size; the
                // TS's structural check rejects it before mixing.
                let table_size = match self.attack {
                    Attack::MalformedTable { .. } => (cfg.table_size as usize / 2).max(1),
                    _ => cfg.table_size as usize,
                };
                let mut table =
                    ObliviousTable::new(gp, PublicKey(cfg.joint_key), cfg.salt, table_size);
                let stream = self
                    .stream
                    .take()
                    .ok_or_else(|| NodeError::Protocol("collection started twice".into()))?;
                crate::shard::mark_stream(stream, &self.extractor, &mut table, &mut self.rng);
                // A skewed DC stuffs bogus items after honest
                // ingestion: indistinguishable from real marks at the
                // protocol layer, detectable only statistically.
                if let Attack::SkewedShares { extra_marks, .. } = self.attack {
                    for i in 0..extra_marks {
                        let bogus = format!("byzantine-skew-{i}");
                        table.mark_cell(table.cell_of(bogus.as_bytes()), &mut self.rng);
                    }
                }
                let msg = messages::Cells {
                    cells: table.into_cells(),
                };
                ep.send(&self.ts, Frame::encode_msg(tag::DC_TABLE, &msg))?;
                Ok(Step::Done)
            }
            other => Err(NodeError::Protocol(format!(
                "PSC DC received unexpected message type {other}"
            ))),
        }
    }

    fn role(&self) -> &'static str {
        "psc-dc"
    }
}

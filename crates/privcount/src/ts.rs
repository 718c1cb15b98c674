//! The Tally Server node: round orchestration and final aggregation.
//!
//! The TS is untrusted for privacy (it sees only blinded registers and
//! encrypted shares); it exists to coordinate and to publish the final
//! noisy totals.

use crate::counter::CounterSpec;
use crate::messages::{self, tag};
use pm_crypto::group::GroupElement;
use pm_crypto::secret::unblind_total;
use pm_net::party::{Node, NodeError, Step};
use pm_net::transport::{Endpoint, Envelope, PartyId};
use pm_net::Frame;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Shared slot where the TS deposits the round's totals.
pub type ResultSlot = Arc<Mutex<Option<Vec<i64>>>>;

#[allow(clippy::enum_variant_names)] // every phase awaits a protocol message
enum Phase {
    AwaitSkKeys,
    AwaitShares,
    // SKs ack forwards, which leave only once every share is in.
    AwaitAcks,
    AwaitDcResults,
    AwaitSkResults,
}

/// The Tally Server.
pub struct TsNode {
    counters: Vec<CounterSpec>,
    dc_names: Vec<PartyId>,
    sk_names: Vec<PartyId>,
    phase: Phase,
    // Ordered so no code path can ever observe hash order: the DC
    // configure message sorts keys by party name, and a BTreeMap makes
    // that invariant structural rather than a downstream `sort`.
    sk_keys: BTreeMap<PartyId, GroupElement>,
    // Held until every DC has sent one per SK, then forwarded keyed by
    // (sender's index in `dc_names`, SK): each SK sees its shares in
    // DC order whatever order they arrived in, so a round's per-link
    // transcripts are the same on every fabric.
    shares: BTreeMap<(usize, String), messages::EncryptedShares>,
    acks_seen: usize,
    dc_results: Vec<Vec<u64>>,
    sk_results: Vec<Vec<u64>>,
    result: ResultSlot,
}

impl TsNode {
    /// Creates a TS coordinating the given DCs and SKs; totals are
    /// deposited into `result`.
    pub fn new(
        counters: Vec<CounterSpec>,
        dc_names: Vec<PartyId>,
        sk_names: Vec<PartyId>,
        result: ResultSlot,
    ) -> TsNode {
        assert!(!dc_names.is_empty() && !sk_names.is_empty());
        TsNode {
            counters,
            dc_names,
            sk_names,
            phase: Phase::AwaitSkKeys,
            sk_keys: BTreeMap::new(),
            shares: BTreeMap::new(),
            acks_seen: 0,
            dc_results: Vec::new(),
            sk_results: Vec::new(),
            result,
        }
    }

    fn configure_dcs(&mut self, ep: &Endpoint) -> Result<(), NodeError> {
        let mut sk_keys: Vec<(String, GroupElement)> = Vec::with_capacity(self.sk_names.len());
        for name in &self.sk_names {
            let key = self.sk_keys.get(name).copied().ok_or_else(|| {
                NodeError::Protocol(format!("configure before SK key from {name}"))
            })?;
            sk_keys.push((name.as_str().to_string(), key));
        }
        sk_keys.sort_by(|a, b| a.0.cmp(&b.0));
        let cfg = messages::Configure {
            counter_names: self.counters.iter().map(|c| c.name.clone()).collect(),
            sk_keys,
        };
        for dc in &self.dc_names {
            ep.send(dc, Frame::encode_msg(tag::CONFIGURE, &cfg))?;
        }
        Ok(())
    }

    fn finalize(&mut self) {
        let n = self.counters.len();
        let mut totals = Vec::with_capacity(n);
        for i in 0..n {
            let dc_vals: Vec<u64> = self.dc_results.iter().map(|r| r[i]).collect();
            let sk_vals: Vec<u64> = self.sk_results.iter().map(|r| r[i]).collect();
            totals.push(unblind_total(&dc_vals, &sk_vals));
        }
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(totals);
    }
}

impl Node for TsNode {
    fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
        Ok(Step::Continue)
    }

    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
        match (&self.phase, env.frame.msg_type) {
            (Phase::AwaitSkKeys, tag::SK_KEY) => {
                let msg: messages::SkKey = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad SK key: {e}")))?;
                if !self.sk_names.contains(&env.from) {
                    return Err(NodeError::Protocol(format!(
                        "SK key from unknown party {}",
                        env.from
                    )));
                }
                self.sk_keys.insert(env.from.clone(), msg.key);
                if self.sk_keys.len() == self.sk_names.len() {
                    self.configure_dcs(ep)?;
                    self.phase = Phase::AwaitShares;
                }
                Ok(Step::Continue)
            }
            (Phase::AwaitShares, tag::SHARES) => {
                let msg: messages::EncryptedShares = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad shares: {e}")))?;
                let dc = self
                    .dc_names
                    .iter()
                    .position(|dc| *dc == env.from)
                    .ok_or_else(|| {
                        NodeError::Protocol(format!("shares from unknown party {}", env.from))
                    })?;
                self.shares.insert((dc, msg.sk_name.clone()), msg);
                if self.shares.len() == self.dc_names.len() * self.sk_names.len() {
                    // Forward to the destination SKs (DCs have no SK links).
                    for msg in std::mem::take(&mut self.shares).into_values() {
                        let sk = PartyId::new(msg.sk_name.clone());
                        ep.send(&sk, Frame::encode_msg(tag::SHARES_FWD, &msg))?;
                    }
                    self.phase = Phase::AwaitAcks;
                }
                Ok(Step::Continue)
            }
            (Phase::AwaitAcks, tag::SHARES_ACK) => {
                self.acks_seen += 1;
                if self.acks_seen == self.dc_names.len() * self.sk_names.len() {
                    for dc in &self.dc_names {
                        ep.send(
                            dc,
                            Frame::encode_msg(tag::START, &messages::Registers { values: vec![] }),
                        )?;
                    }
                    self.phase = Phase::AwaitDcResults;
                }
                Ok(Step::Continue)
            }
            (Phase::AwaitDcResults, tag::DC_RESULT) => {
                let msg: messages::Registers = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad DC result: {e}")))?;
                if msg.values.len() != self.counters.len() {
                    return Err(NodeError::Protocol("DC result length mismatch".into()));
                }
                self.dc_results.push(msg.values);
                if self.dc_results.len() == self.dc_names.len() {
                    for sk in &self.sk_names {
                        ep.send(
                            sk,
                            Frame::encode_msg(tag::STOP, &messages::Registers { values: vec![] }),
                        )?;
                    }
                    self.phase = Phase::AwaitSkResults;
                }
                Ok(Step::Continue)
            }
            (Phase::AwaitSkResults, tag::SK_RESULT) => {
                let msg: messages::Registers = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad SK result: {e}")))?;
                if msg.values.len() != self.counters.len() {
                    return Err(NodeError::Protocol("SK result length mismatch".into()));
                }
                self.sk_results.push(msg.values);
                if self.sk_results.len() == self.sk_names.len() {
                    self.finalize();
                    return Ok(Step::Done);
                }
                Ok(Step::Continue)
            }
            (_, other) => Err(NodeError::Protocol(format!(
                "TS received message type {other} out of phase"
            ))),
        }
    }

    fn role(&self) -> &'static str {
        "privcount-ts"
    }
}

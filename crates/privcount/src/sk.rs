//! The Share Keeper node.
//!
//! Holds one blinding-share accumulator per counter. PrivCount's privacy
//! rests on at least one SK being honest: the sum it publishes at round
//! end is useless without every other party's registers.

use crate::adversary::Attack;
use crate::messages::{self, tag};
use pm_crypto::elgamal::{hybrid_decrypt, keygen, KeyPair};
use pm_crypto::group::GroupParams;
use pm_crypto::secret::{BlindingShare, ShareAccumulator};
use pm_net::party::{Node, NodeError, Step};
use pm_net::transport::{Endpoint, Envelope, PartyId};
use pm_net::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Share Keeper.
pub struct SkNode {
    ts: PartyId,
    gp: GroupParams,
    keypair: KeyPair,
    accumulators: Vec<ShareAccumulator>,
    expected_dcs: usize,
    seen_dcs: usize,
    /// The attack aimed at this SK ([`Attack::None`] when honest). A
    /// dying SK counts its remaining messages down in place.
    attack: Attack,
}

impl SkNode {
    /// Creates an SK expecting shares from `expected_dcs` Data
    /// Collectors and carrying out `attack` (see [`crate::adversary`]).
    pub fn new(ts: PartyId, expected_dcs: usize, seed: u64, attack: Attack) -> SkNode {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let keypair = keygen(&gp, &mut rng);
        SkNode {
            ts,
            gp,
            keypair,
            accumulators: Vec::new(),
            expected_dcs,
            seen_dcs: 0,
            attack,
        }
    }

    fn absorb(&mut self, msg: messages::EncryptedShares) -> Result<(), NodeError> {
        let plain = hybrid_decrypt(&self.gp, &self.keypair.secret, &msg.ciphertext());
        if !plain.len().is_multiple_of(8) {
            return Err(NodeError::Protocol(format!(
                "share payload from {} has invalid length {}",
                msg.dc_name,
                plain.len()
            )));
        }
        let shares: Vec<u64> = plain
            .chunks_exact(8)
            // lint:allow(panic) chunks_exact(8) guarantees the width
            .map(|c| u64::from_be_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        if self.accumulators.is_empty() {
            self.accumulators = vec![ShareAccumulator::default(); shares.len()];
        }
        if shares.len() != self.accumulators.len() {
            return Err(NodeError::Protocol(format!(
                "DC {} sent {} shares, expected {}",
                msg.dc_name,
                shares.len(),
                self.accumulators.len()
            )));
        }
        for (acc, s) in self.accumulators.iter_mut().zip(shares) {
            acc.absorb(BlindingShare(s));
        }
        self.seen_dcs += 1;
        Ok(())
    }
}

impl Node for SkNode {
    fn on_start(&mut self, ep: &Endpoint) -> Result<Step, NodeError> {
        let msg = messages::SkKey {
            key: self.keypair.public.0,
        };
        ep.send(&self.ts, Frame::encode_msg(tag::SK_KEY, &msg))?;
        Ok(Step::Continue)
    }

    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
        // A dying SK pretends to finish: it stops reading without
        // error, leaving the rest of the round stuck mid-protocol.
        if let Attack::SkDeath { after_messages, .. } = &mut self.attack {
            if *after_messages == 0 {
                return Ok(Step::Done);
            }
            *after_messages -= 1;
        }
        match env.frame.msg_type {
            tag::SHARES_FWD => {
                let msg: messages::EncryptedShares = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad shares: {e}")))?;
                let dc_name = msg.dc_name.clone();
                self.absorb(msg)?;
                // Acknowledge so the TS knows when to start collection.
                let ack = messages::EncryptedShares {
                    sk_name: ep.id().as_str().to_string(),
                    dc_name,
                    kem: self.keypair.public.0,
                    payload: Vec::new(),
                };
                ep.send(&self.ts, Frame::encode_msg(tag::SHARES_ACK, &ack))?;
                Ok(Step::Continue)
            }
            tag::STOP => {
                if self.seen_dcs != self.expected_dcs {
                    return Err(NodeError::Protocol(format!(
                        "stop before all shares arrived: {}/{}",
                        self.seen_dcs, self.expected_dcs
                    )));
                }
                let msg = messages::Registers {
                    values: self.accumulators.iter().map(|a| a.publish()).collect(),
                };
                ep.send(&self.ts, Frame::encode_msg(tag::SK_RESULT, &msg))?;
                Ok(Step::Done)
            }
            other => Err(NodeError::Protocol(format!(
                "SK received unexpected message type {other}"
            ))),
        }
    }

    fn role(&self) -> &'static str {
        "privcount-sk"
    }
}

//! The Data Collector node: one per instrumented relay.

use crate::adversary::Attack;
use crate::counter::Schema;
use crate::messages::{self, tag};
use pm_crypto::elgamal::{hybrid_encrypt, PublicKey};
use pm_crypto::group::GroupParams;
use pm_crypto::secret::BlindedCounter;
use pm_dp::mechanism::sample_gaussian;
use pm_net::party::{Node, NodeError, Step};
use pm_net::transport::{Endpoint, Envelope, PartyId};
use pm_net::Frame;
use pm_obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use torsim::stream::EventStream;

/// The boxed event generator a caller may hand a DC in place of a
/// stream (a one-shard [`EventStream`]).
pub use torsim::stream::ShardFn as EventGenerator;

/// A Data Collector.
pub struct DcNode {
    ts: PartyId,
    schema: Schema,
    /// The collection period's events, folded shard-parallel with
    /// per-shard accumulators and a single batched register update at
    /// merge (see [`crate::shard`]).
    stream: Option<EventStream>,
    gp: GroupParams,
    /// Noise σ multiplier for this DC (1/√num_dcs under equal
    /// allocation; 0.0 when noise is off).
    noise_scale: f64,
    registers: Vec<BlindedCounter>,
    rng: StdRng,
    /// The attack aimed at this DC ([`Attack::None`] when honest).
    attack: Attack,
    /// Where the `dc.ingest` span lands.
    recorder: Recorder,
}

impl DcNode {
    /// Creates a DC bound to a tally server, with its local schema,
    /// the event stream of its collection period, its noise share, the
    /// attack it carries out (see [`crate::adversary`]) and the round's
    /// recorder: the collection period's fold is its `dc.ingest` span,
    /// with a `shards` note, when the recorder profiles.
    pub fn new(
        ts: PartyId,
        schema: Schema,
        stream: EventStream,
        noise_scale: f64,
        seed: u64,
        attack: Attack,
        recorder: Recorder,
    ) -> DcNode {
        DcNode {
            ts,
            schema,
            stream: Some(stream),
            gp: GroupParams::default_params(),
            noise_scale,
            registers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            attack,
            recorder,
        }
    }

    fn on_configure(&mut self, ep: &Endpoint, cfg: messages::Configure) -> Result<(), NodeError> {
        // Sanity: counter alignment with our local schema.
        let ours: Vec<&String> = self.schema.counters.iter().map(|c| &c.name).collect();
        if cfg.counter_names.len() != ours.len()
            || cfg.counter_names.iter().zip(&ours).any(|(a, b)| &a != b)
        {
            return Err(NodeError::Protocol(format!(
                "counter schema mismatch at {}",
                ep.id()
            )));
        }
        let num_sks = cfg.sk_keys.len();
        if num_sks == 0 {
            return Err(NodeError::Protocol("no share keepers configured".into()));
        }
        // An exhausted DC cannot noise every counter; running anyway
        // would silently weaken the round's differential privacy, so
        // it refuses the round loudly instead (the campaign layer
        // turns this into an aborted round, not a panic).
        if let Attack::NoiseExhaustion { budget, .. } = self.attack {
            let needed = self.schema.counters.len();
            if (budget as usize) < needed {
                return Err(NodeError::Protocol(format!(
                    "noise budget exhausted: {budget} of {needed} counter draws available"
                )));
            }
        }
        // Initialize each register with this DC's noise contribution and
        // fresh blinding shares.
        let mut per_sk_shares: Vec<Vec<u64>> = vec![Vec::with_capacity(ours.len()); num_sks];
        self.registers.clear();
        for spec in &self.schema.counters {
            let noise =
                sample_gaussian(spec.sigma * self.noise_scale, &mut self.rng).round() as i64;
            let (reg, shares) = BlindedCounter::blind(noise, num_sks, &mut self.rng);
            self.registers.push(reg);
            for (k, s) in shares.into_iter().enumerate() {
                per_sk_shares[k].push(s.0);
            }
        }
        // Encrypt each SK's share vector to that SK and route via TS.
        for (k, (sk_name, sk_key)) in cfg.sk_keys.iter().enumerate() {
            let mut plain = Vec::with_capacity(per_sk_shares[k].len() * 8);
            for v in &per_sk_shares[k] {
                plain.extend_from_slice(&v.to_be_bytes());
            }
            let ct = hybrid_encrypt(&self.gp, &PublicKey(*sk_key), &plain, &mut self.rng);
            // A corrupting DC truncates the first SK's ciphertext; the
            // stream cipher decrypts the stump to a wrong-length share
            // vector, which the SK rejects naming this DC.
            let mut payload = ct.payload;
            if matches!(self.attack, Attack::BadSharePayload { .. }) && k == 0 {
                payload.truncate(payload.len().saturating_sub(3));
            }
            let msg = messages::EncryptedShares {
                sk_name: sk_name.clone(),
                dc_name: ep.id().as_str().to_string(),
                kem: ct.kem,
                payload,
            };
            ep.send(&self.ts, Frame::encode_msg(tag::SHARES, &msg))?;
        }
        Ok(())
    }

    fn on_start(&mut self, ep: &Endpoint) -> Result<(), NodeError> {
        let stream = self
            .stream
            .take()
            .ok_or_else(|| NodeError::Protocol("collection started twice".into()))?;
        // Run the collection period: shard-parallel fold, then one
        // batched update per counter. The registers already carry this
        // DC's noise and blinding from Configure; the merge applies the
        // observed totals exactly once.
        // An inflating DC scales every observed increment — blinding
        // makes the skew invisible at the protocol layer, so detection
        // is statistical, at the campaign layer.
        let factor = match self.attack {
            Attack::InflatedCounts { factor, .. } => factor,
            _ => 1,
        };
        let mut span = self.recorder.span("dc.ingest", "privcount");
        let (totals, shards) = crate::shard::ingest_shards(stream, &self.schema);
        span.note("shards", shards);
        drop(span);
        for (reg, total) in self.registers.iter_mut().zip(totals) {
            reg.increment(total * factor);
        }
        // Publish the blinded registers (a malformed DC drops one —
        // the TS's structural check rejects the short vector).
        let mut values: Vec<u64> = self.registers.iter().map(|r| r.publish()).collect();
        if let Attack::MalformedRegisters { .. } = self.attack {
            values.pop();
        }
        let msg = messages::Registers { values };
        ep.send(&self.ts, Frame::encode_msg(tag::DC_RESULT, &msg))?;
        Ok(())
    }
}

impl Node for DcNode {
    fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
        Ok(Step::Continue) // wait for Configure
    }

    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
        match env.frame.msg_type {
            tag::CONFIGURE => {
                let cfg: messages::Configure = env
                    .frame
                    .decode_msg()
                    .map_err(|e| NodeError::Protocol(format!("bad configure: {e}")))?;
                self.on_configure(ep, cfg)?;
                Ok(Step::Continue)
            }
            tag::START => {
                self.on_start(ep)?;
                Ok(Step::Done)
            }
            other => Err(NodeError::Protocol(format!(
                "DC received unexpected message type {other}"
            ))),
        }
    }

    fn role(&self) -> &'static str {
        "privcount-dc"
    }
}

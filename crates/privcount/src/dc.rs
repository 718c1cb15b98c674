//! The Data Collector node: one per instrumented relay.

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
    /// Byzantine knob: publish one register too few.
    malformed: bool,
    /// Byzantine knob: multiply every observed increment.
    inflate_factor: Option<i64>,
    /// Byzantine knob: truncate the encrypted share payload sent to
    /// the first SK.
    corrupt_shares: bool,
    /// Byzantine knob: the DC can afford only this many per-counter
    /// noise draws; fewer than the schema requires means it refuses to
    /// configure rather than run under-noised.
    noise_budget: Option<u32>,
    /// Where the `dc.ingest` span lands (detached by default).
    recorder: Recorder,
}

impl DcNode {
    /// Creates a DC bound to a tally server, with its local schema,
    /// the event stream of its collection period, and its noise share.
    pub fn new(
        ts: PartyId,
        schema: Schema,
        stream: EventStream,
        noise_scale: f64,
        seed: u64,
    ) -> DcNode {
        DcNode {
            ts,
            schema,
            stream: Some(stream),
            gp: GroupParams::default_params(),
            noise_scale,
            registers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            malformed: false,
            inflate_factor: None,
            corrupt_shares: false,
            noise_budget: None,
            recorder: Recorder::new(),
        }
    }

    /// Attaches the round's recorder: the collection period's fold is
    /// its `dc.ingest` span, with a `shards` note, when the recorder
    /// profiles.
    pub(crate) fn with_recorder(mut self, recorder: Recorder) -> DcNode {
        self.recorder = recorder;
        self
    }

    /// Byzantine variant
    /// ([`crate::adversary::Attack::MalformedRegisters`]): the DC
    /// publishes one register too few.
    pub fn malformed(mut self) -> DcNode {
        self.malformed = true;
        self
    }

    /// Byzantine variant ([`crate::adversary::Attack::InflatedCounts`]):
    /// the DC multiplies every observed increment by `factor`.
    pub fn inflating(mut self, factor: i64) -> DcNode {
        self.inflate_factor = Some(factor);
        self
    }

    /// Byzantine variant
    /// ([`crate::adversary::Attack::BadSharePayload`]): the DC
    /// truncates the encrypted blinding-share payload it sends to the
    /// first SK.
    pub fn corrupting_shares(mut self) -> DcNode {
        self.corrupt_shares = true;
        self
    }

    /// Failure variant ([`crate::adversary::Attack::NoiseExhaustion`]):
    /// the DC can afford only `budget` noise draws.
    pub fn with_noise_budget(mut self, budget: u32) -> DcNode {
        self.noise_budget = Some(budget);
        self
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
        if let Some(budget) = self.noise_budget {
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
            if self.corrupt_shares && k == 0 {
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
        let factor = self.inflate_factor.unwrap_or(1);
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
        if self.malformed {
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

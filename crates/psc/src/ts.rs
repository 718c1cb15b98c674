//! The PSC Tally Server: coordinates the round and verifies proofs.
//!
//! The TS is this paper's addition to the original PSC design (§3.1):
//! it sequences the DCs and CPs, relays the mixing pipeline, verifies
//! every zero-knowledge argument (all proofs are non-interactive and
//! publicly verifiable, so any party could re-check them), and publishes
//! the final noisy marked-cell count.
//!
//! # Verification threading
//!
//! A verified hop is 2n Chaum–Pedersen proofs and a 16-round shuffle
//! argument over n cells; a verified decryption is n more proofs per
//! CP. The proofs of one message share their `y` — the hop's `exp_key`,
//! the decrypting CP's key share — so the TS checks them as one batch
//! ([`pm_crypto::zkp::DleqProof::verify_batch`]: membership and the
//! challenge per proof, then two weighted products for the whole
//! message), and checks the shuffle argument's openings against the
//! joint key's fixed-base tables (256 KiB, beside the process-wide
//! generator table; built once per round, at the first verified hop,
//! and none when proofs are off), sixteen cells of a
//! round per lane-kernel batch, each compared with its target cell.
//! Both run through [`pm_crypto::batch::par_map_indexed`] on the thread
//! count the round's [`crate::cp::MixStrategy`] already gives the CPs.
//!
//! A failing batch falls back to the per-proof scan, and the error
//! names the *lowest* failing cell, side (a) before side (b) — exactly
//! what a sequential scan reports — so an `Aborted{detected_by}` record
//! reads the same at every thread count.

use crate::cp::{dec_transcript, exp_transcript, CpNode};
use crate::messages::{self, tag};
use crate::round::PscConfig;
use crate::table::combine_tables;
use pm_crypto::batch::PrecomputedKey;
use pm_crypto::elgamal::{Ciphertext, PublicKey};
use pm_crypto::group::{GroupElement, GroupParams};
use pm_crypto::zkp::{DleqClaim, DleqProof};
use pm_net::party::{Node, NodeError, Step};
use pm_net::transport::{Endpoint, Envelope, PartyId};
use pm_net::Frame;
use pm_obs::Recorder;
use std::sync::{Arc, Mutex, OnceLock};

/// The raw outcome the TS publishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawCount {
    /// Non-identity cells in the decrypted table (occupied + noise).
    pub marked: u64,
    /// Table size `b` (noise cells excluded).
    pub table_size: u64,
    /// Total noise cells appended across CPs.
    pub noise_total: u64,
}

/// Shared slot for the round outcome.
pub type PscResultSlot = Arc<Mutex<Option<RawCount>>>;

enum Phase {
    AwaitCpKeys,
    AwaitTables,
    Mixing { stage: usize },
    AwaitPartials,
}

/// The PSC Tally Server.
pub struct PscTsNode {
    gp: GroupParams,
    dc_names: Vec<PartyId>,
    cp_names: Vec<PartyId>,
    table_size: u32,
    noise_flips: u32,
    salt: [u8; 32],
    verify: bool,
    phase: Phase,
    cp_keys: Vec<Option<GroupElement>>,
    joint_key: Option<GroupElement>,
    /// The joint key's fixed-base tables: built at the round's first
    /// verified hop, read by every hop after it.
    joint_table: OnceLock<PrecomputedKey>,
    tables: Vec<Vec<Ciphertext>>,
    /// The input the TS handed to the CP currently mixing.
    mix_input: Vec<Ciphertext>,
    final_table: Vec<Ciphertext>,
    partials: Vec<Option<Vec<GroupElement>>>,
    result: PscResultSlot,
    /// Threads for proof verification (1 = inline).
    threads: usize,
    /// Observability handle: `ts.*` phase spans (profiling plane only).
    recorder: Recorder,
}

impl PscTsNode {
    /// Creates the TS for a round of `cfg` between `dc_names` and
    /// `cp_names`, publishing into `result`. It verifies proofs (when
    /// `cfg.verify` asks) on `cfg.mix`'s thread count — verdicts and
    /// error strings do not depend on it (see the module docs) — and
    /// records its `ts.*` spans into `cfg.recorder` when that profiles.
    pub fn new(
        cfg: &PscConfig,
        dc_names: Vec<PartyId>,
        cp_names: Vec<PartyId>,
        result: PscResultSlot,
    ) -> PscTsNode {
        assert!(!dc_names.is_empty() && !cp_names.is_empty());
        let ncp = cp_names.len();
        // Per-round salt, derived from the seed (all parties receive it
        // in Configure; a deployment would draw it jointly).
        let salt = pm_crypto::sha256::sha256_concat(&[b"psc-round-salt", &cfg.seed.to_be_bytes()]);
        PscTsNode {
            gp: GroupParams::default_params(),
            dc_names,
            cp_names,
            table_size: cfg.table_size,
            noise_flips: cfg.noise_flips_per_cp,
            salt,
            verify: cfg.verify,
            phase: Phase::AwaitCpKeys,
            cp_keys: vec![None; ncp],
            joint_key: None,
            joint_table: OnceLock::new(),
            tables: Vec::new(),
            mix_input: Vec::new(),
            final_table: Vec::new(),
            partials: vec![None; ncp],
            result,
            threads: cfg.mix.threads(),
            recorder: cfg.recorder.clone(),
        }
    }

    fn cp_index(&self, id: &PartyId) -> Result<usize, NodeError> {
        self.cp_names
            .iter()
            .position(|c| c == id)
            .ok_or_else(|| NodeError::Protocol(format!("message from unknown CP {id}")))
    }

    fn verify_mix(&self, msg: &messages::MixResult) -> Result<(), NodeError> {
        let joint = PublicKey(self.joint_key.ok_or_else(|| {
            NodeError::Protocol("mix result before the round was configured".into())
        })?);
        let mut span = self.recorder.span("ts.verify_mix", "psc");
        span.note("cells", msg.with_noise.len());
        span.note("threads", self.threads);
        let n_in = self.mix_input.len();
        if msg.with_noise.len() != n_in + self.noise_flips as usize {
            return Err(NodeError::Protocol("noise extension length wrong".into()));
        }
        if msg.with_noise[..n_in] != self.mix_input[..] {
            return Err(NodeError::Protocol("CP altered the input table".into()));
        }
        if msg.post_exp.len() != msg.with_noise.len() || msg.output.len() != msg.with_noise.len() {
            return Err(NodeError::Protocol("mix stage length mismatch".into()));
        }
        // `k = 0` would send every cell to an encryption of the
        // identity — marks and noise erased — under proofs that verify
        // (`y = d = 1`, `s = w`). Part of the statement, checked even
        // when proofs are off.
        if msg.exp_key == self.gp.identity() {
            return Err(NodeError::Protocol(
                "exponentiation key is the identity".into(),
            ));
        }
        if self.verify {
            if msg.exp_proofs.len() != msg.with_noise.len() {
                return Err(NodeError::Protocol("missing exponentiation proofs".into()));
            }
            let gp = &self.gp;
            // Proof 2j is cell j's side (a), 2j + 1 its side (b): the
            // lowest failing proof is where a sequential scan stops.
            let claim = |i: usize| {
                let (j, b_side) = (i / 2, i % 2 == 1);
                let (pre, post, (pa, pb)) =
                    (&msg.with_noise[j], &msg.post_exp[j], &msg.exp_proofs[j]);
                let (a, d, proof) = if b_side {
                    (&pre.b, &post.b, pb)
                } else {
                    (&pre.a, &post.a, pa)
                };
                DleqClaim {
                    a,
                    d,
                    proof,
                    transcript: exp_transcript(j, b_side),
                }
            };
            let proofs = 2 * msg.with_noise.len();
            let mut dleq_span = self.recorder.span("ts.verify_dleq", "psc");
            dleq_span.note("cells", msg.with_noise.len());
            let verdict = DleqProof::verify_batch(gp, &msg.exp_key, proofs, self.threads, claim);
            drop(dleq_span);
            if let Err(i) = verdict {
                let side = if i % 2 == 0 { 'a' } else { 'b' };
                return Err(NodeError::Protocol(format!(
                    "exponentiation proof ({side}) failed at cell {}",
                    i / 2
                )));
            }
            let proof = msg
                .shuffle_proof
                .as_ref()
                .ok_or_else(|| NodeError::Protocol("missing shuffle proof".into()))?;
            let mut shuffle_span = self.recorder.span("ts.verify_shuffle", "psc");
            shuffle_span.note("cells", msg.post_exp.len());
            let joint = self
                .joint_table
                .get_or_init(|| PrecomputedKey::new(gp, &joint));
            if !proof.verify_with(gp, joint, &msg.post_exp, &msg.output, self.threads) {
                return Err(NodeError::Protocol("shuffle proof failed".into()));
            }
        }
        Ok(())
    }

    /// Checks CP `from`'s partial decryptions of the final table
    /// against the key share it registered.
    fn verify_partials(&self, from: &PartyId, msg: &messages::PartialDec) -> Result<(), NodeError> {
        let mut span = self.recorder.span("ts.verify_dec", "psc");
        span.note("cells", msg.partials.len());
        span.note("threads", self.threads);
        if msg.partials.len() != self.final_table.len() {
            return Err(NodeError::Protocol("partials length mismatch".into()));
        }
        if self.verify {
            if msg.proofs.len() != msg.partials.len() {
                return Err(NodeError::Protocol("missing decryption proofs".into()));
            }
            let claim = |j: usize| DleqClaim {
                a: &self.final_table[j].a,
                d: &msg.partials[j],
                proof: &msg.proofs[j],
                transcript: dec_transcript(j),
            };
            let n = msg.partials.len();
            if let Err(j) = DleqProof::verify_batch(&self.gp, &msg.share, n, self.threads, claim) {
                return Err(NodeError::Protocol(format!(
                    "decryption proof from {from} failed at cell {j}"
                )));
            }
        }
        Ok(())
    }

    fn finalize(&mut self) -> Result<(), NodeError> {
        let mut span = self.recorder.span("ts.finalize", "psc");
        span.note("cells", self.final_table.len());
        let mut partials: Vec<&Vec<GroupElement>> = Vec::with_capacity(self.partials.len());
        for (i, p) in self.partials.iter().enumerate() {
            partials.push(p.as_ref().ok_or_else(|| {
                NodeError::Protocol(format!("finalize without a partial decryption from CP {i}"))
            })?);
        }
        // A cell decrypts to the identity iff `b = Π dᵢ`: comparing the
        // product needs no inverse.
        let mut marked = 0u64;
        for (j, cell) in self.final_table.iter().enumerate() {
            let mut shared = self.gp.identity();
            for p in &partials {
                shared = self.gp.mul(&shared, &p[j]);
            }
            if cell.b != shared {
                marked += 1;
            }
        }
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(RawCount {
            marked,
            table_size: self.table_size as u64,
            noise_total: self.noise_flips as u64 * self.cp_names.len() as u64,
        });
        Ok(())
    }
}

impl Node for PscTsNode {
    fn on_start(&mut self, _ep: &Endpoint) -> Result<Step, NodeError> {
        Ok(Step::Continue)
    }

    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
        match (&self.phase, env.frame.msg_type) {
            (Phase::AwaitCpKeys, tag::CP_KEY) => {
                let msg: messages::CpKey =
                    messages::decode(&self.recorder, "ts.decode", &env.frame, "CP key")?;
                let idx = self.cp_index(&env.from)?;
                let mut transcript = CpNode::key_transcript(env.from.as_str());
                if !msg.proof.verify(&self.gp, &msg.share, &mut transcript) {
                    return Err(NodeError::Protocol(format!(
                        "key-share proof from {} failed",
                        env.from
                    )));
                }
                self.cp_keys[idx] = Some(msg.share);
                if self.cp_keys.iter().all(|k| k.is_some()) {
                    let mut joint = self.gp.identity();
                    for k in self.cp_keys.iter().flatten() {
                        joint = self.gp.mul(&joint, k);
                    }
                    self.joint_key = Some(joint);
                    let cfg = messages::PscConfigure {
                        joint_key: joint,
                        table_size: self.table_size,
                        noise_flips: self.noise_flips,
                        salt: self.salt,
                        verify: self.verify,
                    };
                    // Encoded once; each recipient's frame shares the payload.
                    let frame = Frame::encode_msg(tag::CONFIGURE, &cfg);
                    for p in self.dc_names.iter().chain(self.cp_names.iter()) {
                        ep.send(p, frame.clone())?;
                    }
                    self.phase = Phase::AwaitTables;
                }
                Ok(Step::Continue)
            }
            (Phase::AwaitTables, tag::DC_TABLE) => {
                let msg: messages::Cells =
                    messages::decode(&self.recorder, "ts.decode", &env.frame, "DC table")?;
                if msg.cells.len() != self.table_size as usize {
                    return Err(NodeError::Protocol("DC table size mismatch".into()));
                }
                self.tables.push(msg.cells);
                if self.tables.len() == self.dc_names.len() {
                    let combined = {
                        let mut span = self.recorder.span("ts.combine_tables", "psc");
                        span.note("tables", self.tables.len());
                        combine_tables(&self.gp, &self.tables)
                    };
                    self.tables.clear();
                    let task = messages::Cells { cells: combined };
                    ep.send(&self.cp_names[0], Frame::encode_msg(tag::MIX_TASK, &task))?;
                    self.mix_input = task.cells;
                    self.phase = Phase::Mixing { stage: 0 };
                }
                Ok(Step::Continue)
            }
            (Phase::Mixing { stage }, tag::MIX_RESULT) => {
                let stage = *stage;
                let idx = self.cp_index(&env.from)?;
                if idx != stage {
                    return Err(NodeError::Protocol(format!(
                        "mix result from CP {idx} during stage {stage}"
                    )));
                }
                let msg: messages::MixResult =
                    messages::decode(&self.recorder, "ts.decode", &env.frame, "mix result")?;
                self.verify_mix(&msg)?;
                if stage + 1 < self.cp_names.len() {
                    let task = messages::Cells { cells: msg.output };
                    ep.send(
                        &self.cp_names[stage + 1],
                        Frame::encode_msg(tag::MIX_TASK, &task),
                    )?;
                    self.mix_input = task.cells;
                    self.phase = Phase::Mixing { stage: stage + 1 };
                } else {
                    let task = messages::Cells { cells: msg.output };
                    let frame = Frame::encode_msg(tag::DECRYPT_TASK, &task);
                    for cp in &self.cp_names {
                        ep.send(cp, frame.clone())?;
                    }
                    self.final_table = task.cells;
                    self.phase = Phase::AwaitPartials;
                }
                Ok(Step::Continue)
            }
            (Phase::AwaitPartials, tag::PARTIAL_DEC) => {
                let msg: messages::PartialDec =
                    messages::decode(&self.recorder, "ts.decode", &env.frame, "partial dec")?;
                let idx = self.cp_index(&env.from)?;
                // The share must be the one registered during keygen —
                // otherwise a CP could decrypt under a different key.
                if Some(msg.share) != self.cp_keys[idx] {
                    return Err(NodeError::Protocol(format!(
                        "CP {} partial decryption under wrong key share",
                        env.from
                    )));
                }
                self.verify_partials(&env.from, &msg)?;
                self.partials[idx] = Some(msg.partials);
                if self.partials.iter().all(|p| p.is_some()) {
                    self.finalize()?;
                    return Ok(Step::Done);
                }
                Ok(Step::Continue)
            }
            (_, other) => Err(NodeError::Protocol(format!(
                "PSC TS received message type {other} out of phase"
            ))),
        }
    }

    fn role(&self) -> &'static str {
        "psc-ts"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::{mix_message_batched, MixStrategy, SHUFFLE_ROUNDS};
    use pm_crypto::elgamal::{encrypt, keygen, partial_decrypt, KeyPair};
    use pm_crypto::group::Scalar;
    use pm_crypto::shuffle::{apply_shuffle, shuffle, RoundOpening, ShuffleProof};
    use pm_crypto::zkp::Transcript;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOISE: u32 = 2;

    /// A TS that has just handed `input` to its only CP.
    fn ts_mixing(
        joint: &PublicKey,
        input: &[Ciphertext],
        verify: bool,
        threads: usize,
    ) -> PscTsNode {
        let cfg = PscConfig {
            table_size: input.len() as u32,
            noise_flips_per_cp: NOISE,
            verify,
            mix: MixStrategy::Batched { threads },
            ..Default::default()
        };
        let mut ts = PscTsNode::new(
            &cfg,
            vec![PartyId::new("dc")],
            vec![PartyId::new("cp")],
            Arc::new(Mutex::new(None)),
        );
        ts.joint_key = Some(joint.0);
        ts.mix_input = input.to_vec();
        ts.phase = Phase::Mixing { stage: 0 };
        ts
    }

    fn table(gp: &GroupParams, kp: &KeyPair, n: usize, rng: &mut StdRng) -> Vec<Ciphertext> {
        (0..n)
            .map(|i| {
                let m = if i % 2 == 0 {
                    gp.identity()
                } else {
                    gp.random_non_identity(rng)
                };
                encrypt(gp, &kp.public, &m, rng)
            })
            .collect()
    }

    /// Membership as the parent tested it: `x^q == 1`.
    fn member(gp: &GroupParams, e: &GroupElement) -> bool {
        !e.0.is_zero() && e.0 < *gp.p() && gp.pow(e, &Scalar(*gp.q())) == gp.identity()
    }

    /// Chaum–Pedersen verification as the parent wrote it: four
    /// exponentiations, no tables, no two-base trick.
    fn dleq_plain(
        gp: &GroupParams,
        p: &DleqProof,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        mut t: Transcript,
    ) -> bool {
        if ![a, y, d, &p.commit_g, &p.commit_a]
            .into_iter()
            .all(|e| member(gp, e))
        {
            return false;
        }
        t.append_element(b"dleq.a", a);
        t.append_element(b"dleq.y", y);
        t.append_element(b"dleq.d", d);
        t.append_element(b"dleq.t1", &p.commit_g);
        t.append_element(b"dleq.t2", &p.commit_a);
        let c = t.challenge_scalar(gp, b"dleq.c");
        gp.pow(&gp.generator(), &p.response) == gp.mul(&p.commit_g, &gp.pow(y, &c))
            && gp.pow(a, &p.response) == gp.mul(&p.commit_a, &gp.pow(d, &c))
    }

    /// Shuffle verification as the parent wrote it: recompute each
    /// opened side without tables and compare it whole.
    fn shuffle_plain(
        gp: &GroupParams,
        y: &PublicKey,
        proof: &ShuffleProof,
        input: &[Ciphertext],
        output: &[Ciphertext],
    ) -> bool {
        let mut tr = Transcript::new(b"pm-crypto/shuffle-proof/v1");
        tr.append_element(b"pk", &y.0);
        for (label, cells) in [(&b"input"[..], input), (b"output", output)]
            .into_iter()
            .chain(proof.shadows.iter().map(|s| (&b"shadow"[..], s.as_slice())))
        {
            tr.append(label, &(cells.len() as u64).to_be_bytes());
            for ct in cells {
                tr.append_element(b"ct.a", &ct.a);
                tr.append_element(b"ct.b", &ct.b);
            }
        }
        let bits = tr.challenge_bits(b"rounds", proof.shadows.len());
        proof.shadows.len() == proof.openings.len()
            && proof.shadows.iter().zip(&proof.openings).zip(bits).all(
                |((shadow, opening), bit)| match (bit, opening) {
                    (false, RoundOpening::InputToShadow { perm, rerand }) => {
                        perm.is_valid() && &apply_shuffle(gp, y, input, perm, rerand) == shadow
                    }
                    (true, RoundOpening::ShadowToOutput { perm, rerand }) => {
                        perm.is_valid() && apply_shuffle(gp, y, shadow, perm, rerand) == output
                    }
                    _ => false,
                },
            )
    }

    /// The parent's `verify_mix` proof checks: one sequential scan that
    /// stops at the first failing cell.
    fn verify_mix_plain(
        gp: &GroupParams,
        y: &PublicKey,
        msg: &messages::MixResult,
    ) -> Result<(), String> {
        for (j, ((pre, post), (pa, pb))) in msg
            .with_noise
            .iter()
            .zip(&msg.post_exp)
            .zip(&msg.exp_proofs)
            .enumerate()
        {
            if !dleq_plain(
                gp,
                pa,
                &pre.a,
                &msg.exp_key,
                &post.a,
                exp_transcript(j, false),
            ) {
                return Err(format!(
                    "protocol error: exponentiation proof (a) failed at cell {j}"
                ));
            }
            if !dleq_plain(
                gp,
                pb,
                &pre.b,
                &msg.exp_key,
                &post.b,
                exp_transcript(j, true),
            ) {
                return Err(format!(
                    "protocol error: exponentiation proof (b) failed at cell {j}"
                ));
            }
        }
        let proof = msg.shuffle_proof.as_ref().expect("verified hop");
        if !shuffle_plain(gp, y, proof, &msg.post_exp, &msg.output) {
            return Err("protocol error: shuffle proof failed".into());
        }
        Ok(())
    }

    /// A non-residue: in range, outside the subgroup.
    fn outside(gp: &GroupParams) -> GroupElement {
        (2u64..)
            .map(|h| GroupElement(pm_crypto::U256::from_u64(h)))
            .find(|e| !gp.is_element(e))
            .expect("half of Z_p^* is non-residues")
    }

    #[test]
    fn tampered_hop_names_the_same_cell_as_the_plain_scan_at_every_thread_count() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(16);
        let kp = keygen(&gp, &mut rng);
        let input = table(&gp, &kp, 6, &mut rng);
        let honest = mix_message_batched(&gp, &kp.public, NOISE, true, input.clone(), &mut rng, 2);
        let other = gp.random_element(&mut rng);
        let one = gp.scalar_from_u64(1);
        // Paired edits that cancel in an unweighted product of a batch
        // (scaled by h and by h⁻¹, or responses moved by +1 and −1):
        // only the weights tell them apart.
        let h = gp.random_non_identity(&mut rng);
        let h_inv = gp.inv(&h);
        let scale = move |e: &mut GroupElement, by: &GroupElement| *e = gp.mul(e, by);

        type Tamper = Box<dyn Fn(&mut messages::MixResult)>;
        let cases: Vec<(&str, Tamper, Option<&str>)> = vec![
            ("honest", Box::new(|_| {}), None),
            (
                "commit_g",
                Box::new(move |m| m.exp_proofs[3].0.commit_g = other),
                Some("exponentiation proof (a) failed at cell 3"),
            ),
            (
                "commit_a",
                Box::new(move |m| m.exp_proofs[2].1.commit_a = other),
                Some("exponentiation proof (b) failed at cell 2"),
            ),
            (
                "non-member commit_a",
                Box::new(move |m| m.exp_proofs[1].1.commit_a = outside(&gp)),
                Some("exponentiation proof (b) failed at cell 1"),
            ),
            (
                "response",
                Box::new(move |m| {
                    let r = &mut m.exp_proofs[5].0.response;
                    *r = gp.scalar_add(r, &one);
                }),
                Some("exponentiation proof (a) failed at cell 5"),
            ),
            (
                "post_exp[j]",
                Box::new(move |m| m.post_exp[4].b = other),
                Some("exponentiation proof (b) failed at cell 4"),
            ),
            (
                "exp_key",
                Box::new(move |m| m.exp_key = other),
                Some("exponentiation proof (a) failed at cell 0"),
            ),
            (
                "two cells: the lowest is named",
                Box::new(move |m| {
                    m.exp_proofs[7].1.commit_g = other;
                    m.exp_proofs[2].0.commit_g = other;
                }),
                Some("exponentiation proof (a) failed at cell 2"),
            ),
            (
                "both sides of a cell: (a) is named",
                Box::new(move |m| {
                    m.exp_proofs[6].1.commit_g = other;
                    m.exp_proofs[6].0.commit_a = other;
                }),
                Some("exponentiation proof (a) failed at cell 6"),
            ),
            (
                "cancelling commit_a pair",
                Box::new(move |m| {
                    scale(&mut m.exp_proofs[4].1.commit_a, &h_inv);
                    scale(&mut m.exp_proofs[1].1.commit_a, &h);
                }),
                Some("exponentiation proof (b) failed at cell 1"),
            ),
            (
                "cancelling commit_a pair within a cell",
                Box::new(move |m| {
                    scale(&mut m.exp_proofs[3].0.commit_a, &h);
                    scale(&mut m.exp_proofs[3].1.commit_a, &h_inv);
                }),
                Some("exponentiation proof (a) failed at cell 3"),
            ),
            (
                "cancelling commit_g pair",
                Box::new(move |m| {
                    scale(&mut m.exp_proofs[2].0.commit_g, &h);
                    scale(&mut m.exp_proofs[7].1.commit_g, &h_inv);
                }),
                Some("exponentiation proof (a) failed at cell 2"),
            ),
            (
                "cancelling post_exp pair",
                Box::new(move |m| {
                    scale(&mut m.post_exp[5].b, &h);
                    scale(&mut m.post_exp[2].a, &h_inv);
                }),
                Some("exponentiation proof (a) failed at cell 2"),
            ),
            (
                "cancelling response pair",
                Box::new(move |m| {
                    let r = &mut m.exp_proofs[6].1.response;
                    *r = gp.scalar_sub(r, &one);
                    let r = &mut m.exp_proofs[0].1.response;
                    *r = gp.scalar_add(r, &one);
                }),
                Some("exponentiation proof (b) failed at cell 0"),
            ),
            (
                "shadow cell",
                Box::new(move |m| {
                    let shadow = &mut m.shuffle_proof.as_mut().unwrap().shadows[9];
                    shadow[3].a = other;
                }),
                Some("shuffle proof failed"),
            ),
            (
                "opening scalar",
                Box::new(move |m| {
                    match &mut m.shuffle_proof.as_mut().unwrap().openings[SHUFFLE_ROUNDS - 1] {
                        RoundOpening::InputToShadow { rerand, .. }
                        | RoundOpening::ShadowToOutput { rerand, .. } => {
                            rerand[7] = gp.scalar_add(&rerand[7], &one)
                        }
                    }
                }),
                Some("shuffle proof failed"),
            ),
        ];
        for (name, tamper, expect) in &cases {
            let mut msg = honest.clone();
            tamper(&mut msg);
            let plain = verify_mix_plain(&gp, &kp.public, &msg);
            assert_eq!(
                plain.clone().err(),
                expect.map(|e| format!("protocol error: {e}")),
                "{name}: plain scan"
            );
            for threads in [1, 2, 5] {
                let ts = ts_mixing(&kp.public, &input, true, threads);
                let got = ts.verify_mix(&msg).map_err(|e| e.reason());
                assert_eq!(got, plain, "{name}, threads {threads}");
            }
        }
    }

    /// A hop of 17 cells plus noise: every round's 19 openings are a
    /// full batch of sixteen and a trailing three. Tampering with the
    /// trailing batch's last cell — a shadow element, an opening
    /// scalar — must fail the hop at every thread count, as the plain
    /// scan does.
    #[test]
    fn tampered_hop_in_a_trailing_partial_batch_fails_at_every_thread_count() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(19);
        let kp = keygen(&gp, &mut rng);
        let input = table(&gp, &kp, 17, &mut rng);
        let honest = mix_message_batched(&gp, &kp.public, NOISE, true, input.clone(), &mut rng, 2);
        let last = input.len() + NOISE as usize - 1;
        assert_eq!(last % 16, 2, "cell {last} is the third of a trailing batch");
        // A round that opens input → shadow checks its shadow's cells
        // in place: cell `last` in the trailing batch.
        let round = honest
            .shuffle_proof
            .as_ref()
            .unwrap()
            .openings
            .iter()
            .position(|o| matches!(o, RoundOpening::InputToShadow { .. }));
        let round = round.expect("some round opens input → shadow");
        let other = gp.random_element(&mut rng);
        let one = gp.scalar_from_u64(1);
        type Tamper = Box<dyn Fn(&mut messages::MixResult)>;
        let cases: Vec<(&str, Tamper, Option<&str>)> = vec![
            ("honest", Box::new(|_| {}), None),
            (
                "last shadow element of a trailing batch",
                Box::new(move |m| m.shuffle_proof.as_mut().unwrap().shadows[round][last].b = other),
                Some("shuffle proof failed"),
            ),
            (
                "last opening scalar of a trailing batch",
                Box::new(
                    move |m| match &mut m.shuffle_proof.as_mut().unwrap().openings[11] {
                        RoundOpening::InputToShadow { rerand, .. }
                        | RoundOpening::ShadowToOutput { rerand, .. } => {
                            rerand[last] = gp.scalar_add(&rerand[last], &one)
                        }
                    },
                ),
                Some("shuffle proof failed"),
            ),
        ];
        for (name, tamper, expect) in &cases {
            let mut msg = honest.clone();
            tamper(&mut msg);
            let plain = verify_mix_plain(&gp, &kp.public, &msg);
            assert_eq!(
                plain.clone().err(),
                expect.map(|e| format!("protocol error: {e}")),
                "{name}: plain scan"
            );
            for threads in [1, 2, 5] {
                let ts = ts_mixing(&kp.public, &input, true, threads);
                let got = ts.verify_mix(&msg).map_err(|e| e.reason());
                assert_eq!(got, plain, "{name}, threads {threads}");
            }
        }
    }

    #[test]
    fn tampered_partial_decryption_names_the_same_cell_at_every_thread_count() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(17);
        let kp = keygen(&gp, &mut rng);
        let cells = table(&gp, &kp, 8, &mut rng);
        let partials: Vec<GroupElement> = cells
            .iter()
            .map(|c| partial_decrypt(&gp, &kp.secret, c))
            .collect();
        let proofs: Vec<DleqProof> = (0..cells.len())
            .map(|j| {
                let (a, d, y) = (&cells[j].a, &partials[j], &kp.public.0);
                DleqProof::prove(&gp, &kp.secret.0, a, y, d, &mut dec_transcript(j), &mut rng)
            })
            .collect();
        let honest = messages::PartialDec {
            share: kp.public.0,
            partials,
            proofs,
        };
        let other = gp.random_element(&mut rng);
        let from = PartyId::new("cp");

        let mut one_partial = honest.clone();
        one_partial.partials[3] = other;
        let mut two_proofs = honest.clone();
        two_proofs.proofs[4].commit_a = other;
        two_proofs.proofs[1].response = Scalar::ZERO;
        let mut wrong_share = honest.clone();
        wrong_share.share = other;
        // Scaled by h and by h⁻¹: they cancel in an unweighted product.
        let h = gp.random_non_identity(&mut rng);
        let h_inv = gp.inv(&h);
        let mut partial_pair = honest.clone();
        partial_pair.partials[6] = gp.mul(&partial_pair.partials[6], &h);
        partial_pair.partials[2] = gp.mul(&partial_pair.partials[2], &h_inv);
        let mut commit_pair = honest.clone();
        commit_pair.proofs[5].commit_a = gp.mul(&commit_pair.proofs[5].commit_a, &h);
        commit_pair.proofs[7].commit_a = gp.mul(&commit_pair.proofs[7].commit_a, &h_inv);
        for (name, msg, expect) in [
            ("honest", &honest, None),
            ("one partial decryption", &one_partial, Some(3)),
            ("two proofs: the lowest is named", &two_proofs, Some(1)),
            ("every proof under another share", &wrong_share, Some(0)),
            ("cancelling partial pair", &partial_pair, Some(2)),
            ("cancelling commit_a pair", &commit_pair, Some(5)),
        ] {
            let plain = (0..cells.len()).find(|&j| {
                let t = dec_transcript(j);
                !dleq_plain(
                    &gp,
                    &msg.proofs[j],
                    &cells[j].a,
                    &msg.share,
                    &msg.partials[j],
                    t,
                )
            });
            assert_eq!(plain, expect, "{name}: plain scan");
            for threads in [1, 2, 5] {
                let mut ts = ts_mixing(&kp.public, &[], true, threads);
                ts.final_table = cells.clone();
                let got = ts.verify_partials(&from, msg).map_err(|e| e.reason());
                let want = plain.map(|j| {
                    format!("protocol error: decryption proof from cp failed at cell {j}")
                });
                assert_eq!(got.err(), want, "{name}, threads {threads}");
            }
        }
    }

    /// The soundness hole closed in PR 16. With `k = 0` a CP publishes
    /// `exp_key = g^0 = 1` and `post_exp = (1, 1)ⁿ`; every Chaum–Pedersen
    /// proof then verifies (`y = 1`, `d = 1`, `s = w`) and the shuffle of
    /// those cells is honest, yet every mark and every CP's noise is
    /// erased. The parent accepted this message.
    #[test]
    fn identity_exponentiation_key_is_rejected() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(18);
        let kp = keygen(&gp, &mut rng);
        let input = table(&gp, &kp, 6, &mut rng);
        let mut with_noise = input.clone();
        with_noise.extend(table(&gp, &kp, NOISE as usize, &mut rng));
        let one = gp.identity();
        let k = Scalar::ZERO;
        let post_exp = vec![Ciphertext { a: one, b: one }; with_noise.len()];
        let exp_proofs = with_noise
            .iter()
            .enumerate()
            .map(|(j, pre)| {
                let mut side = |b_side: bool, base: &GroupElement| {
                    let mut t = exp_transcript(j, b_side);
                    DleqProof::prove(&gp, &k, base, &one, &one, &mut t, &mut rng)
                };
                (side(false, &pre.a), side(true, &pre.b))
            })
            .collect();
        let (output, w) = shuffle(&gp, &kp.public, &post_exp, &mut rng);
        let shuffle_proof = ShuffleProof::prove(
            &gp,
            &kp.public,
            &post_exp,
            &output,
            &w,
            SHUFFLE_ROUNDS,
            &mut rng,
        );
        let msg = messages::MixResult {
            with_noise,
            exp_key: one,
            post_exp,
            exp_proofs,
            output,
            shuffle_proof: Some(shuffle_proof),
        };
        // Every proof in the message is valid — the parent's checks pass…
        assert_eq!(verify_mix_plain(&gp, &kp.public, &msg), Ok(()));
        // …and every output cell decrypts to the identity.
        for cell in &msg.output {
            assert_eq!(pm_crypto::elgamal::decrypt(&gp, &kp.secret, cell), one);
        }
        for verify in [true, false] {
            let err = ts_mixing(&kp.public, &input, verify, 2)
                .verify_mix(&msg)
                .unwrap_err();
            assert!(matches!(err, NodeError::Protocol(_)), "{err}");
            assert!(
                err.reason().contains("exponentiation key is the identity"),
                "{err}"
            );
        }
    }
}

//! The Computation Party node.
//!
//! CPs hold shares of the ElGamal decryption key and take turns mixing:
//! append Binomial noise cells, exponentiate every cell by a fresh
//! secret (zero-preserving randomization), and shuffle with
//! rerandomization — each step with a zero-knowledge argument when
//! verification is enabled.
//!
//! # Concurrency model
//!
//! A mixing hop is thousands of independent per-cell exponentiations
//! fed by one sequential RNG. The batched execution path
//! ([`MixStrategy::Batched`]) splits the hop into two phases so the
//! cell work parallelizes without the transcript noticing:
//!
//! 1. **Derive** (`MixRandomness::derive`): every scalar, nonce, and
//!    permutation the hop will consume is drawn from the CP's RNG in
//!    the exact order the sequential reference implementation draws
//!    them. This phase is cheap (no group exponentiations) and strictly
//!    sequential.
//! 2. **Batch**: the per-cell ciphertext work — noise encryptions,
//!    zero-preserving exponentiation, Chaum–Pedersen proofs, the
//!    shuffle, and the shadow shuffles of the cut-and-choose argument —
//!    runs chunked across threads
//!    ([`pm_crypto::batch::par_map_indexed`]). Every `g^r`/`y^r` is a
//!    fixed-base table power ([`pm_crypto::batch::PrecomputedKey`]):
//!    the noise plaintexts are one generator batch
//!    ([`PrecomputedKey::g_pow_mul_all`]), and their encryptions, the
//!    output shuffle and each of the 16 shadow shuffles are
//!    rerandomization batches ([`PrecomputedKey::rerandomize_all`]),
//!    sixteen ciphertexts per call of the AVX-512 IFMA lane kernel
//!    where the CPU has it, each lane with its own scalar. The hop's one
//!    exponent `k` meets all `2n` ciphertext components, and the
//!    decryption hop's key share meets every `a`: unverified, each is
//!    one same-exponent batch ([`GroupParams::pow_all`]) on the same
//!    kernel; verified, one batch of raised-and-proved powers
//!    ([`DleqProof::raise_and_prove_all`]), whose proof commitments
//!    `pre^w` and `g^w` take the lanes too, each lane with its own
//!    nonce. The batches are
//!    chunked across the same threads, and each cell owns its output
//!    slot, so the serialized [`messages::MixResult`] is bit-identical
//!    to the sequential reference (scalar throughout) at every thread
//!    count — pinned by the `mix_equivalence` proptests and the
//!    end-to-end transcript tests.
//!
//! The receiving side is parallel too: the tally server checks a hop's
//! proofs on the same thread count ([`MixStrategy::threads`]), one
//! verdict slot per cell, and reports the lowest failing cell — the
//! cell a sequential scan would have stopped at — so accept/reject and
//! the error text are as thread-count-independent as the transcript
//! (see [`crate::ts`]).

use crate::adversary::Attack;
use crate::messages::{self, tag};
use pm_crypto::batch::{par_map_indexed, PrecomputedKey};
use pm_crypto::elgamal::{encrypt, exponentiate, Ciphertext, PublicKey};
use pm_crypto::group::{GroupElement, GroupParams, Scalar};
use pm_crypto::shuffle::{shuffle, ShuffleProof, ShuffleWitness};
use pm_crypto::zkp::{DleqProof, SchnorrProof, Transcript};
use pm_net::party::{Node, NodeError, Step};
use pm_net::transport::{Endpoint, Envelope, PartyId};
use pm_net::Frame;
use pm_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Soundness parameter for the cut-and-choose shuffle argument.
pub const SHUFFLE_ROUNDS: usize = 16;

/// How a CP executes the per-cell crypto of its mixing and decryption
/// hops. Both strategies produce bit-identical protocol messages from
/// the same RNG state; they differ only in wall-clock shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixStrategy {
    /// The reference implementation: one pass over the cells, drawing
    /// randomness inline. Kept as the equality baseline for tests.
    Sequential,
    /// Randomness derived sequentially up front, then cell work chunked
    /// across `threads` OS threads.
    Batched {
        /// Worker threads for the batch phase (1 = inline).
        threads: usize,
    },
}

impl MixStrategy {
    /// Threads the strategy spreads per-cell work over (CP batch
    /// phases, TS proof verification).
    pub fn threads(&self) -> usize {
        match *self {
            MixStrategy::Sequential => 1,
            MixStrategy::Batched { threads } => threads,
        }
    }
}

impl Default for MixStrategy {
    fn default() -> Self {
        MixStrategy::Batched {
            threads: default_mix_threads(),
        }
    }
}

/// Default batch-phase thread count: the machine's parallelism, capped
/// in line with the ingestion-shard default.
fn default_mix_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

/// A Computation Party.
pub struct CpNode {
    ts: PartyId,
    gp: GroupParams,
    secret: pm_crypto::group::Scalar,
    share: pm_crypto::group::GroupElement,
    cfg: Option<messages::PscConfigure>,
    rng: StdRng,
    strategy: MixStrategy,
    /// The attack aimed at this CP ([`Attack::None`] when honest). A
    /// dying CP counts its remaining messages down in place.
    attack: Attack,
    /// Observability handle: `mix.*` phase spans (profiling plane) and
    /// the `psc.mix.cells` counter (deterministic plane).
    recorder: Recorder,
}

impl CpNode {
    /// Creates a CP bound to the tally server, executing its per-cell
    /// crypto under `strategy`, carrying out `attack` (see
    /// [`crate::adversary`]), and recording into `recorder`: metrics
    /// land in its deterministic registry, spans only when it was
    /// built with profiling enabled.
    pub fn new(
        ts: PartyId,
        seed: u64,
        strategy: MixStrategy,
        attack: Attack,
        recorder: Recorder,
    ) -> CpNode {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = gp.random_nonzero_scalar(&mut rng);
        let share = gp.g_pow(&secret);
        CpNode {
            ts,
            gp,
            secret,
            share,
            cfg: None,
            rng,
            strategy,
            attack,
            recorder,
        }
    }

    /// The transcript binding a CP's key-share proof to its identity.
    pub fn key_transcript(party: &str) -> Transcript {
        let mut t = Transcript::new(b"psc/cp-key/v1");
        t.append(b"party", party.as_bytes());
        t
    }

    fn mix(&mut self, ep: &Endpoint, task: messages::Cells) -> Result<(), NodeError> {
        let cfg = self
            .cfg
            .as_ref()
            .ok_or_else(|| NodeError::Protocol("mix before configure".into()))?
            .clone();
        if let Attack::NoiseExhaustion { budget, .. } = self.attack {
            if budget < cfg.noise_flips {
                // Publishing with less than the calibrated noise would
                // silently weaken the round's differential privacy.
                return Err(NodeError::Protocol(format!(
                    "noise budget exhausted: {budget} of {} required flips available",
                    cfg.noise_flips
                )));
            }
        }
        let key = PublicKey(cfg.joint_key);
        // Deterministic plane: cells entering this hop is fixed by the
        // round config (table size plus upstream noise), never by
        // scheduling.
        self.recorder.add("psc.mix.cells", task.cells.len() as u64);
        let mut msg = match self.strategy {
            MixStrategy::Sequential => {
                let mut span = self.recorder.span("mix.sequential", "psc");
                span.note("cells", task.cells.len());
                mix_message_sequential(
                    &self.gp,
                    &key,
                    cfg.noise_flips,
                    cfg.verify,
                    task.cells,
                    &mut self.rng,
                )
            }
            MixStrategy::Batched { threads } => mix_message_batched_obs(
                &self.gp,
                &key,
                cfg.noise_flips,
                cfg.verify,
                task.cells,
                &mut self.rng,
                threads,
                &self.recorder,
            ),
        };
        if let Attack::InvalidProof { .. } = self.attack {
            // Swap the per-cell proofs so each verifies against the
            // wrong transcript; with a single cell, swap the pair's
            // own components instead.
            if msg.exp_proofs.len() >= 2 {
                msg.exp_proofs.swap(0, 1);
            } else if let Some(p) = msg.exp_proofs.first_mut() {
                std::mem::swap(&mut p.0, &mut p.1);
            }
        }
        ep.send(&self.ts, Frame::encode_msg(tag::MIX_RESULT, &msg))?;
        Ok(())
    }

    fn decrypt(&mut self, ep: &Endpoint, task: messages::Cells) -> Result<(), NodeError> {
        let cfg = self
            .cfg
            .as_ref()
            .ok_or_else(|| NodeError::Protocol("decrypt before configure".into()))?
            .clone();
        let mut dec_span = self.recorder.span("mix.decrypt", "psc");
        dec_span.note("cells", task.cells.len());
        let msg = decrypt_message(
            &self.gp,
            &self.secret,
            &task.cells,
            cfg.verify,
            &mut self.rng,
            self.strategy.threads(),
        );
        ep.send(&self.ts, Frame::encode_msg(tag::PARTIAL_DEC, &msg))?;
        Ok(())
    }
}

/// One CP's decryption hop: its partial decryption `a^x` of every
/// cell under its secret share `x`, with a Chaum–Pedersen proof per
/// cell when `verify` is set. Like mixing, it splits into a sequential
/// nonce-derivation pass and a batch phase on `threads` threads (one
/// [`GroupParams::pow_all`] batch, or verified one
/// [`DleqProof::raise_and_prove_all`]); the message is independent of
/// `threads`.
pub fn decrypt_message<R: Rng + ?Sized>(
    gp: &GroupParams,
    secret: &Scalar,
    cells: &[Ciphertext],
    verify: bool,
    rng: &mut R,
    threads: usize,
) -> messages::PartialDec {
    let share = gp.g_pow(secret);
    let bases: Vec<GroupElement> = cells.iter().map(|c| c.a).collect();
    let (partials, proofs) = if verify {
        let nonces: Vec<Scalar> = cells.iter().map(|_| gp.random_scalar(rng)).collect();
        DleqProof::raise_and_prove_all(gp, secret, &bases, &share, dec_transcript, &nonces, threads)
            .into_iter()
            .unzip()
    } else {
        (gp.pow_all(&bases, secret, threads), Vec::new())
    };
    messages::PartialDec {
        share,
        partials,
        proofs,
    }
}

/// One appended noise cell's randomness: the mark exponent (`Some(r)`
/// encodes the non-identity plaintext `g^r`, `None` the identity) and
/// the encryption randomness.
#[derive(Clone, Debug)]
struct NoisePlan {
    mark_exp: Option<Scalar>,
    enc_r: Scalar,
}

/// Every random draw one mixing hop consumes, in the canonical
/// sequential order. Deriving this up front is what lets the batch
/// phase run on any thread count without perturbing the transcript.
struct MixRandomness {
    noise: Vec<NoisePlan>,
    k: Scalar,
    /// Chaum–Pedersen nonces, cell `j`'s a side at `2j` and b side at
    /// `2j + 1`; empty unless verifying.
    exp_nonces: Vec<Scalar>,
    witness: ShuffleWitness,
    /// One witness per cut-and-choose round; empty unless verifying.
    shadow_witnesses: Vec<ShuffleWitness>,
}

impl MixRandomness {
    /// Draws all randomness for a hop over `n_in` input cells, in
    /// exactly the order [`mix_message_sequential`] draws it.
    fn derive<R: Rng + ?Sized>(
        gp: &GroupParams,
        noise_flips: u32,
        verify: bool,
        n_in: usize,
        rounds: usize,
        rng: &mut R,
    ) -> MixRandomness {
        let n_total = n_in + noise_flips as usize;
        let noise = (0..noise_flips)
            .map(|_| {
                let mark_exp = if rng.gen::<bool>() {
                    // Mirrors `GroupParams::random_non_identity`
                    // draw-for-draw: `g^r` is the identity iff `r = 0`
                    // (g has order q), so the rejection test needs no
                    // exponentiation here.
                    Some(loop {
                        let r = gp.random_scalar(rng);
                        if r != Scalar::ZERO {
                            break r;
                        }
                    })
                } else {
                    None
                };
                let enc_r = gp.random_scalar(rng);
                NoisePlan { mark_exp, enc_r }
            })
            .collect();
        let k = gp.random_nonzero_scalar(rng);
        let exp_nonces = if verify {
            (0..2 * n_total).map(|_| gp.random_scalar(rng)).collect()
        } else {
            Vec::new()
        };
        let witness = ShuffleWitness::random(gp, n_total, rng);
        let shadow_witnesses = if verify {
            (0..rounds)
                .map(|_| ShuffleWitness::random(gp, n_total, rng))
                .collect()
        } else {
            Vec::new()
        };
        MixRandomness {
            noise,
            k,
            exp_nonces,
            witness,
            shadow_witnesses,
        }
    }
}

/// One mixing hop, reference implementation: a single sequential pass
/// drawing randomness inline. This is the transcript baseline the
/// batched path must match bit-for-bit.
pub fn mix_message_sequential<R: Rng + ?Sized>(
    gp: &GroupParams,
    key: &PublicKey,
    noise_flips: u32,
    verify: bool,
    cells: Vec<Ciphertext>,
    rng: &mut R,
) -> messages::MixResult {
    let mut with_noise = cells;
    // Binomial noise: each appended cell is marked w.p. 1/2. Both
    // branches are fresh encryptions and indistinguishable.
    for _ in 0..noise_flips {
        let plain = if rng.gen::<bool>() {
            gp.random_non_identity(rng)
        } else {
            gp.identity()
        };
        with_noise.push(encrypt(gp, key, &plain, rng));
    }
    // Zero-preserving exponentiation with a fresh secret.
    let k = gp.random_nonzero_scalar(rng);
    let exp_key = gp.g_pow(&k);
    let post_exp: Vec<Ciphertext> = with_noise.iter().map(|c| exponentiate(gp, c, &k)).collect();
    let exp_proofs = if verify {
        with_noise
            .iter()
            .zip(&post_exp)
            .enumerate()
            .map(|(j, (pre, post))| {
                let mut ta = exp_transcript(j, false);
                let pa = DleqProof::prove(gp, &k, &pre.a, &exp_key, &post.a, &mut ta, rng);
                let mut tb = exp_transcript(j, true);
                let pb = DleqProof::prove(gp, &k, &pre.b, &exp_key, &post.b, &mut tb, rng);
                (pa, pb)
            })
            .collect()
    } else {
        Vec::new()
    };
    // Rerandomizing shuffle.
    let (output, witness) = shuffle(gp, key, &post_exp, rng);
    let shuffle_proof = if verify {
        Some(ShuffleProof::prove(
            gp,
            key,
            &post_exp,
            &output,
            &witness,
            SHUFFLE_ROUNDS,
            rng,
        ))
    } else {
        None
    };
    messages::MixResult {
        with_noise,
        exp_key,
        post_exp,
        exp_proofs,
        output,
        shuffle_proof,
    }
}

/// One mixing hop, batched: randomness derived sequentially
/// (`MixRandomness::derive`), then the per-cell work chunked across
/// `threads` with shared fixed-base power tables. Bit-identical to
/// [`mix_message_sequential`] from the same RNG state, for every
/// `threads`.
pub fn mix_message_batched<R: Rng + ?Sized>(
    gp: &GroupParams,
    key: &PublicKey,
    noise_flips: u32,
    verify: bool,
    cells: Vec<Ciphertext>,
    rng: &mut R,
    threads: usize,
) -> messages::MixResult {
    mix_message_batched_obs(
        gp,
        key,
        noise_flips,
        verify,
        cells,
        rng,
        threads,
        &Recorder::new(),
    )
}

/// [`mix_message_batched`] with observability: the sequential
/// randomness derivation and the parallel cell phase each get a span
/// (`mix.derive` / `mix.batch`, verified with `mix.prove` and
/// `mix.shadows` inside; recorded only when `recorder` profiles).
/// The transcript is untouched — spans never feed back into the mix.
#[allow(clippy::too_many_arguments)]
fn mix_message_batched_obs<R: Rng + ?Sized>(
    gp: &GroupParams,
    key: &PublicKey,
    noise_flips: u32,
    verify: bool,
    cells: Vec<Ciphertext>,
    rng: &mut R,
    threads: usize,
    recorder: &Recorder,
) -> messages::MixResult {
    let rand = {
        let mut span = recorder.span("mix.derive", "psc");
        span.note("cells", cells.len());
        MixRandomness::derive(gp, noise_flips, verify, cells.len(), SHUFFLE_ROUNDS, rng)
    };
    let mut batch_span = recorder.span("mix.batch", "psc");
    batch_span.note("cells", cells.len());
    batch_span.note("threads", threads);
    let pk = PrecomputedKey::new(gp, key);

    // Noise: each plaintext `g^r · 1` (an unmarked cell's exponent 0
    // gives the identity), then its encryption as the rerandomization
    // of `(1, plaintext)` by the encryption randomness.
    let mut with_noise = cells;
    let noise = &rand.noise;
    let plain = pk.g_pow_mul_all(gp, noise.len(), threads, |i| {
        (noise[i].mark_exp.unwrap_or(Scalar::ZERO), gp.identity())
    });
    with_noise.extend(pk.rerandomize_all(gp, noise.len(), threads, |i| {
        let cell = Ciphertext {
            a: gp.identity(),
            b: plain[i],
        };
        (cell, noise[i].enc_r)
    }));

    let exp_key = gp.g_pow(&rand.k);
    // Every component of every cell goes to the one `k`: part `2j` is
    // cell `j`'s a side, `2j + 1` its b side, as the TS checks them.
    let parts: Vec<GroupElement> = with_noise.iter().flat_map(|c| [c.a, c.b]).collect();
    let (raised, exp_proofs) = if verify {
        let mut span = recorder.span("mix.prove", "psc");
        span.note("cells", with_noise.len());
        let (t, w) = (
            |i: usize| exp_transcript(i / 2, i % 2 == 1),
            &rand.exp_nonces,
        );
        let proved = DleqProof::raise_and_prove_all(gp, &rand.k, &parts, &exp_key, t, w, threads);
        let proofs = proved.chunks_exact(2).map(|p| (p[0].1, p[1].1)).collect();
        (proved.into_iter().map(|(d, _)| d).collect(), proofs)
    } else {
        (gp.pow_all(&parts, &rand.k, threads), Vec::new())
    };
    let post_exp: Vec<Ciphertext> = raised
        .chunks_exact(2)
        .map(|ab| Ciphertext { a: ab[0], b: ab[1] })
        .collect();

    let n = post_exp.len();
    let witness = &rand.witness;
    let output = pk.rerandomize_all(gp, n, threads, |i| {
        (post_exp[witness.perm.0[i]], witness.rerand[i])
    });
    let shuffle_proof = if verify {
        // One task per cut-and-choose round: each shadow is a full
        // shuffle of `post_exp` under its pre-drawn witness.
        let mut span = recorder.span("mix.shadows", "psc");
        span.note("cells", n);
        let shadows = par_map_indexed(rand.shadow_witnesses.len(), threads, |r| {
            let sw = &rand.shadow_witnesses[r];
            pk.rerandomize_all(gp, n, 1, |i| (post_exp[sw.perm.0[i]], sw.rerand[i]))
        });
        drop(span);
        Some(ShuffleProof::from_parts(
            gp,
            key,
            &post_exp,
            &output,
            &rand.witness,
            rand.shadow_witnesses,
            shadows,
        ))
    } else {
        None
    };

    messages::MixResult {
        with_noise,
        exp_key,
        post_exp,
        exp_proofs,
        output,
        shuffle_proof,
    }
}

/// Transcript for the exponentiation proof of cell `j` (`b_side` selects
/// the ciphertext component).
pub fn exp_transcript(j: usize, b_side: bool) -> Transcript {
    let mut t = Transcript::new(b"psc/exp/v1");
    t.append(b"cell", &(j as u64).to_be_bytes());
    t.append(b"side", &[b_side as u8]);
    t
}

/// Transcript for the partial-decryption proof of cell `j`.
pub fn dec_transcript(j: usize) -> Transcript {
    let mut t = Transcript::new(b"psc/dec/v1");
    t.append(b"cell", &(j as u64).to_be_bytes());
    t
}

impl Node for CpNode {
    fn on_start(&mut self, ep: &Endpoint) -> Result<Step, NodeError> {
        let mut transcript = Self::key_transcript(ep.id().as_str());
        let proof = SchnorrProof::prove(
            &self.gp,
            &self.secret,
            &self.share,
            &mut transcript,
            &mut self.rng,
        );
        let msg = messages::CpKey {
            share: self.share,
            proof,
        };
        ep.send(&self.ts, Frame::encode_msg(tag::CP_KEY, &msg))?;
        Ok(Step::Continue)
    }

    fn on_message(&mut self, ep: &Endpoint, env: Envelope) -> Result<Step, NodeError> {
        if let Attack::CpDeath { after_messages, .. } = &mut self.attack {
            if *after_messages == 0 {
                // Dead keeper: drop the message on the floor. The
                // round deadlocks and the deterministic runner's
                // detector reports the stuck parties.
                return Ok(Step::Done);
            }
            *after_messages -= 1;
        }
        match env.frame.msg_type {
            tag::CONFIGURE => {
                let cfg: messages::PscConfigure =
                    messages::decode(&self.recorder, "cp.decode", &env.frame, "configure")?;
                self.cfg = Some(cfg);
                Ok(Step::Continue)
            }
            tag::MIX_TASK => {
                let task: messages::Cells =
                    messages::decode(&self.recorder, "cp.decode", &env.frame, "mix task")?;
                self.mix(ep, task)?;
                Ok(Step::Continue)
            }
            tag::DECRYPT_TASK => {
                let task: messages::Cells =
                    messages::decode(&self.recorder, "cp.decode", &env.frame, "decrypt task")?;
                self.decrypt(ep, task)?;
                Ok(Step::Done)
            }
            other => Err(NodeError::Protocol(format!(
                "CP received unexpected message type {other}"
            ))),
        }
    }

    fn role(&self) -> &'static str {
        "psc-cp"
    }
}

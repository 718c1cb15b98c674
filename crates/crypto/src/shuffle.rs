//! Rerandomizing verifiable shuffle (mix step) for ElGamal ciphertext
//! vectors, with a cut-and-choose zero-knowledge argument.
//!
//! Each PSC computation party permutes and rerandomizes the counter
//! vector so that no party can link output cells to input cells. The
//! proof convinces a verifier that the output is *some* permutation and
//! rerandomization of the input without revealing which: the prover
//! publishes `t` independent "shadow" shuffles and, per Fiat–Shamir
//! challenge bit, opens either (input → shadow) or (shadow → output).
//! Each opened side is a uniformly random permutation, so nothing leaks;
//! a cheating prover survives each round with probability 1/2, giving
//! soundness error `2^-t`.

use crate::batch::{par_map_indexed, PrecomputedKey};
use crate::elgamal::{rerandomize_with, Ciphertext, PublicKey};
use crate::group::{GroupParams, Scalar};
use crate::lanes::BATCH;
use crate::zkp::Transcript;
use rand::Rng;

/// A permutation of `0..n`, stored as the image vector: output slot `i`
/// draws from input slot `perm[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation(pub Vec<usize>);

impl Permutation {
    /// A uniformly random permutation (Fisher–Yates).
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Permutation {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            v.swap(i, j);
        }
        Permutation(v)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Applies the permutation: `out[i] = items[perm[i]]`.
    pub fn apply<T: Clone>(&self, items: &[T]) -> Vec<T> {
        assert_eq!(items.len(), self.0.len());
        self.0.iter().map(|&j| items[j].clone()).collect()
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.0.len()];
        for (i, &j) in self.0.iter().enumerate() {
            inv[j] = i;
        }
        Permutation(inv)
    }

    /// Validates that this is a permutation of `0..n`.
    pub fn is_valid(&self) -> bool {
        let n = self.0.len();
        let mut seen = vec![false; n];
        for &j in &self.0 {
            if j >= n || seen[j] {
                return false;
            }
            seen[j] = true;
        }
        true
    }
}

/// The prover's secret for one shuffle: permutation + rerandomizers.
#[derive(Clone, Debug)]
pub struct ShuffleWitness {
    /// Output slot `i` draws from input slot `perm.0[i]`…
    pub perm: Permutation,
    /// …and was rerandomized with `rerand[i]`.
    pub rerand: Vec<Scalar>,
}

/// Shuffles (permutes + rerandomizes) a ciphertext vector, returning the
/// output and the witness.
pub fn shuffle<R: Rng + ?Sized>(
    gp: &GroupParams,
    y: &PublicKey,
    input: &[Ciphertext],
    rng: &mut R,
) -> (Vec<Ciphertext>, ShuffleWitness) {
    let w = ShuffleWitness::random(gp, input.len(), rng);
    let output = apply_shuffle(gp, y, input, &w.perm, &w.rerand);
    (output, w)
}

impl ShuffleWitness {
    /// Draws a uniformly random witness for `n` cells: the permutation
    /// first, then the `n` rerandomizers (the order [`shuffle`] and
    /// every transcript-pinned caller relies on).
    pub fn random<R: Rng + ?Sized>(gp: &GroupParams, n: usize, rng: &mut R) -> ShuffleWitness {
        ShuffleWitness {
            perm: Permutation::random(n, rng),
            rerand: (0..n).map(|_| gp.random_scalar(rng)).collect(),
        }
    }
}

/// Applies a known permutation + rerandomization.
pub fn apply_shuffle(
    gp: &GroupParams,
    y: &PublicKey,
    input: &[Ciphertext],
    perm: &Permutation,
    rerand: &[Scalar],
) -> Vec<Ciphertext> {
    assert_eq!(input.len(), perm.len());
    assert_eq!(input.len(), rerand.len());
    (0..input.len())
        .map(|i| rerandomize_with(gp, y, &input[perm.0[i]], &rerand[i]))
        .collect()
}

/// One round of the cut-and-choose argument: either the (input→shadow)
/// opening or the (shadow→output) opening.
#[derive(Clone, Debug)]
pub enum RoundOpening {
    /// Challenge bit 0: reveal how the shadow was derived from the input.
    InputToShadow {
        /// Shadow permutation.
        perm: Permutation,
        /// Shadow rerandomizers.
        rerand: Vec<Scalar>,
    },
    /// Challenge bit 1: reveal how the output is derived from the shadow.
    ShadowToOutput {
        /// Composed permutation (real ∘ shadow⁻¹-side); uniformly random.
        perm: Permutation,
        /// Difference rerandomizers.
        rerand: Vec<Scalar>,
    },
}

/// A non-interactive cut-and-choose shuffle argument with `t` rounds.
#[derive(Clone, Debug)]
pub struct ShuffleProof {
    /// The shadow shuffle outputs, one per round.
    pub shadows: Vec<Vec<Ciphertext>>,
    /// Per-round openings as dictated by the Fiat–Shamir challenge.
    pub openings: Vec<RoundOpening>,
}

fn absorb_vector(t: &mut Transcript, label: &[u8], cts: &[Ciphertext]) {
    t.append(label, &(cts.len() as u64).to_be_bytes());
    for ct in cts {
        t.append_element(b"ct.a", &ct.a);
        t.append_element(b"ct.b", &ct.b);
    }
}

impl ShuffleProof {
    /// Proves that `output` is a shuffle of `input` under witness `w`.
    ///
    /// `rounds` is the soundness parameter `t` (error `2^-t`).
    pub fn prove<R: Rng + ?Sized>(
        gp: &GroupParams,
        y: &PublicKey,
        input: &[Ciphertext],
        output: &[Ciphertext],
        w: &ShuffleWitness,
        rounds: usize,
        rng: &mut R,
    ) -> ShuffleProof {
        // Generate shadows: the draws of `rounds` calls to [`shuffle`],
        // then the rerandomizations in batches through fixed-base tables
        // for `g` and `y`.
        let pk = PrecomputedKey::new(gp, y);
        let shadow_witnesses: Vec<ShuffleWitness> = (0..rounds)
            .map(|_| ShuffleWitness::random(gp, input.len(), rng))
            .collect();
        let shadows = shadow_witnesses
            .iter()
            .map(|sw| {
                pk.rerandomize_all(gp, input.len(), 1, |i| (input[sw.perm.0[i]], sw.rerand[i]))
            })
            .collect();
        Self::from_parts(gp, y, input, output, w, shadow_witnesses, shadows)
    }

    /// Assembles the argument from pre-generated shadow shuffles.
    ///
    /// `shadows[r]` must be the shuffle of `input` under
    /// `shadow_witnesses[r]`. PSC's batched mixing computes the shadows
    /// concurrently (their witnesses drawn sequentially up front) and
    /// finishes here; the proof is bit-identical to
    /// [`ShuffleProof::prove`] fed the same witnesses. The Fiat–Shamir
    /// challenge and the openings draw no randomness.
    pub fn from_parts(
        gp: &GroupParams,
        y: &PublicKey,
        input: &[Ciphertext],
        output: &[Ciphertext],
        w: &ShuffleWitness,
        shadow_witnesses: Vec<ShuffleWitness>,
        shadows: Vec<Vec<Ciphertext>>,
    ) -> ShuffleProof {
        let n = input.len();
        debug_assert_eq!(output.len(), n);
        let rounds = shadows.len();
        debug_assert_eq!(shadow_witnesses.len(), rounds);
        // Fiat–Shamir challenge over (input, output, shadows).
        let mut tr = Transcript::new(b"pm-crypto/shuffle-proof/v1");
        tr.append_element(b"pk", &y.0);
        absorb_vector(&mut tr, b"input", input);
        absorb_vector(&mut tr, b"output", output);
        for s in &shadows {
            absorb_vector(&mut tr, b"shadow", s);
        }
        let challenge = tr.challenge_bits(b"rounds", rounds);

        let mut openings = Vec::with_capacity(rounds);
        for (sw, bit) in shadow_witnesses.into_iter().zip(challenge) {
            if !bit {
                openings.push(RoundOpening::InputToShadow {
                    perm: sw.perm,
                    rerand: sw.rerand,
                });
            } else {
                // Output slot i holds input[w.perm[i]] rerandomized by
                // w.rerand[i]. Shadow slot k holds input[sw.perm[k]]
                // rerandomized by sw.rerand[k]. So output slot i equals
                // shadow slot k(i) = sw.perm⁻¹(w.perm[i]) rerandomized by
                // w.rerand[i] - sw.rerand[k(i)].
                let sw_inv = sw.perm.inverse();
                let comp = Permutation((0..n).map(|i| sw_inv.0[w.perm.0[i]]).collect());
                let rerand: Vec<Scalar> = (0..n)
                    .map(|i| gp.scalar_sub(&w.rerand[i], &sw.rerand[comp.0[i]]))
                    .collect();
                openings.push(RoundOpening::ShadowToOutput { perm: comp, rerand });
            }
        }
        ShuffleProof { shadows, openings }
    }

    /// Verifies the argument (builds `y`'s table, one thread).
    pub fn verify(
        &self,
        gp: &GroupParams,
        y: &PublicKey,
        input: &[Ciphertext],
        output: &[Ciphertext],
    ) -> bool {
        self.verify_with(gp, &PrecomputedKey::new(gp, y), input, output, 1)
    }

    /// Verifies the argument with the caller's tables for the key: the
    /// `rounds × n` rerandomizations the openings claim, sixteen cells
    /// of one round per batch ([`PrecomputedKey::rerandomize_all`]'s
    /// batches), spread over up to `threads` threads and each compared
    /// with its target cell. The verdict does not depend on `threads`.
    pub fn verify_with(
        &self,
        gp: &GroupParams,
        pk: &PrecomputedKey,
        input: &[Ciphertext],
        output: &[Ciphertext],
        threads: usize,
    ) -> bool {
        let n = input.len();
        if output.len() != n || self.shadows.len() != self.openings.len() {
            return false;
        }
        let rounds = self.shadows.len();
        let mut tr = Transcript::new(b"pm-crypto/shuffle-proof/v1");
        tr.append_element(b"pk", &pk.key.0);
        absorb_vector(&mut tr, b"input", input);
        absorb_vector(&mut tr, b"output", output);
        for s in &self.shadows {
            if s.len() != n {
                return false;
            }
            absorb_vector(&mut tr, b"shadow", s);
        }
        let challenge = tr.challenge_bits(b"rounds", rounds);

        // Structure first: each opening must answer its challenge bit
        // with a valid permutation and `n` scalars. `sides[r]` is then
        // the (source, target) pair round `r` claims to connect.
        let mut sides = Vec::with_capacity(rounds);
        for ((shadow, opening), bit) in self.shadows.iter().zip(&self.openings).zip(challenge) {
            let (perm, rerand, source, target) = match (bit, opening) {
                (false, RoundOpening::InputToShadow { perm, rerand }) => {
                    (perm, rerand, input, shadow.as_slice())
                }
                (true, RoundOpening::ShadowToOutput { perm, rerand }) => {
                    (perm, rerand, shadow.as_slice(), output)
                }
                // Opening type does not match the challenge bit.
                _ => return false,
            };
            if perm.len() != n || rerand.len() != n || !perm.is_valid() {
                return false;
            }
            sides.push((perm, rerand, source, target));
        }
        // Then every cell of every round, a batch at a time: slot `i` of
        // the target must be the source's slot `perm[i]` rerandomized
        // by `rerand[i]`.
        let batches = n.div_ceil(BATCH);
        par_map_indexed(rounds * batches, threads, |t| {
            let (perm, rerand, source, target) = sides[t / batches];
            let cells = (t % batches) * BATCH..n.min((t % batches + 1) * BATCH);
            let got = pk.rerandomize_batch(gp, cells.clone(), |i| (source[perm.0[i]], rerand[i]));
            cells.zip(got).all(|(i, ct)| ct == target[i])
        })
        .into_iter()
        .all(|ok| ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{decrypt, encrypt, keygen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn permutation_laws() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Permutation::random(20, &mut rng);
        assert!(p.is_valid());
        let inv = p.inverse();
        let items: Vec<u32> = (0..20).collect();
        assert_eq!(inv.apply(&p.apply(&items)), items);
    }

    #[test]
    fn permutation_apply_convention() {
        // out[i] = items[perm[i]]
        let p = Permutation(vec![2, 0, 1]);
        assert_eq!(p.apply(&['a', 'b', 'c']), vec!['c', 'a', 'b']);
    }

    #[test]
    fn invalid_permutations_detected() {
        assert!(!Permutation(vec![0, 0, 1]).is_valid());
        assert!(!Permutation(vec![0, 3, 1]).is_valid());
        assert!(Permutation(vec![]).is_valid());
    }

    #[test]
    fn shuffle_preserves_multiset_of_plaintexts() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(2);
        let kp = keygen(&gp, &mut rng);
        let msgs: Vec<_> = (0..8).map(|_| gp.random_element(&mut rng)).collect();
        let cts: Vec<_> = msgs
            .iter()
            .map(|m| encrypt(&gp, &kp.public, m, &mut rng))
            .collect();
        let (out, w) = shuffle(&gp, &kp.public, &cts, &mut rng);
        let mut decrypted: Vec<_> = out.iter().map(|c| decrypt(&gp, &kp.secret, c)).collect();
        let mut expected = msgs.clone();
        decrypted.sort_by_key(|e| e.to_bytes());
        expected.sort_by_key(|e| e.to_bytes());
        assert_eq!(decrypted, expected);
        // And the permutation is what the witness says.
        for i in 0..cts.len() {
            assert_eq!(decrypt(&gp, &kp.secret, &out[i]), msgs[w.perm.0[i]]);
        }
    }

    #[test]
    fn proof_accepts_honest_shuffle() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(3);
        let kp = keygen(&gp, &mut rng);
        let cts: Vec<_> = (0..6)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        let (out, w) = shuffle(&gp, &kp.public, &cts, &mut rng);
        let proof = ShuffleProof::prove(&gp, &kp.public, &cts, &out, &w, 12, &mut rng);
        assert!(proof.verify(&gp, &kp.public, &cts, &out));
    }

    #[test]
    fn proof_rejects_tampered_output() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(4);
        let kp = keygen(&gp, &mut rng);
        let cts: Vec<_> = (0..5)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        let (mut out, w) = shuffle(&gp, &kp.public, &cts, &mut rng);
        let proof = ShuffleProof::prove(&gp, &kp.public, &cts, &out, &w, 12, &mut rng);
        // Swap a plaintext after proving: the proof must not verify.
        let m = gp.random_element(&mut rng);
        out[0] = encrypt(&gp, &kp.public, &m, &mut rng);
        assert!(!proof.verify(&gp, &kp.public, &cts, &out));
    }

    #[test]
    fn proof_rejects_replaced_cell_at_prove_time() {
        // A prover who *replaces* a ciphertext (rather than shuffling)
        // should fail verification with overwhelming probability.
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(5);
        let kp = keygen(&gp, &mut rng);
        let cts: Vec<_> = (0..4)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        let (mut out, w) = shuffle(&gp, &kp.public, &cts, &mut rng);
        let m = gp.random_element(&mut rng);
        out[2] = encrypt(&gp, &kp.public, &m, &mut rng);
        // The witness no longer describes `out`; an honest prover API can
        // still be abused to produce a proof attempt, which must fail.
        let proof = ShuffleProof::prove(&gp, &kp.public, &cts, &out, &w, 16, &mut rng);
        assert!(!proof.verify(&gp, &kp.public, &cts, &out));
    }

    #[test]
    fn proof_rejects_wrong_input_binding() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(6);
        let kp = keygen(&gp, &mut rng);
        let cts: Vec<_> = (0..4)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        let (out, w) = shuffle(&gp, &kp.public, &cts, &mut rng);
        let proof = ShuffleProof::prove(&gp, &kp.public, &cts, &out, &w, 12, &mut rng);
        // Verifying against different input fails.
        let other: Vec<_> = (0..4)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        assert!(!proof.verify(&gp, &kp.public, &other, &out));
    }

    /// The verifier as written before PR 16: every opened side
    /// recomputed by [`apply_shuffle`] (no key table) and compared whole.
    fn verify_by_recomputation(
        proof: &ShuffleProof,
        gp: &GroupParams,
        y: &PublicKey,
        input: &[Ciphertext],
        output: &[Ciphertext],
    ) -> bool {
        let n = input.len();
        if output.len() != n || proof.shadows.len() != proof.openings.len() {
            return false;
        }
        let mut tr = Transcript::new(b"pm-crypto/shuffle-proof/v1");
        tr.append_element(b"pk", &y.0);
        absorb_vector(&mut tr, b"input", input);
        absorb_vector(&mut tr, b"output", output);
        for s in &proof.shadows {
            if s.len() != n {
                return false;
            }
            absorb_vector(&mut tr, b"shadow", s);
        }
        let challenge = tr.challenge_bits(b"rounds", proof.shadows.len());
        proof
            .shadows
            .iter()
            .zip(&proof.openings)
            .zip(challenge)
            .all(|((shadow, opening), bit)| match (bit, opening) {
                (false, RoundOpening::InputToShadow { perm, rerand }) => {
                    perm.len() == n
                        && rerand.len() == n
                        && perm.is_valid()
                        && &apply_shuffle(gp, y, input, perm, rerand) == shadow
                }
                (true, RoundOpening::ShadowToOutput { perm, rerand }) => {
                    perm.len() == n
                        && rerand.len() == n
                        && perm.is_valid()
                        && apply_shuffle(gp, y, shadow, perm, rerand) == output
                }
                _ => false,
            })
    }

    fn proved_shuffle(seed: u64, n: usize, rounds: usize) -> Fixture {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = keygen(&gp, &mut rng);
        let input: Vec<_> = (0..n)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        let (output, w) = shuffle(&gp, &kp.public, &input, &mut rng);
        let proof = ShuffleProof::prove(&gp, &kp.public, &input, &output, &w, rounds, &mut rng);
        Fixture {
            gp,
            key: kp.public,
            input,
            output,
            proof,
        }
    }

    struct Fixture {
        gp: GroupParams,
        key: PublicKey,
        input: Vec<Ciphertext>,
        output: Vec<Ciphertext>,
        proof: ShuffleProof,
    }

    #[test]
    fn table_prover_matches_the_table_less_one() {
        // `prove` must consume the draws of `rounds` calls to `shuffle`
        // and publish the shadows those calls would have.
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(8);
        let kp = keygen(&gp, &mut rng);
        let input: Vec<_> = (0..7)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        let (output, w) = shuffle(&gp, &kp.public, &input, &mut rng);
        let mut reference_rng = rng.clone();
        let proof = ShuffleProof::prove(&gp, &kp.public, &input, &output, &w, 9, &mut rng);
        let (shadows, witnesses): (Vec<_>, Vec<_>) = (0..9)
            .map(|_| shuffle(&gp, &kp.public, &input, &mut reference_rng))
            .unzip();
        let reference =
            ShuffleProof::from_parts(&gp, &kp.public, &input, &output, &w, witnesses, shadows);
        assert_eq!(proof.shadows, reference.shadows);
        assert_eq!(
            format!("{:?}", proof.openings),
            format!("{:?}", reference.openings)
        );
        assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
    }

    #[test]
    fn verifiers_agree_under_tampering_at_every_thread_count() {
        let Fixture {
            gp,
            key,
            input,
            output,
            proof,
        } = proved_shuffle(9, 6, 12);
        let pk = PrecomputedKey::new(&gp, &key);
        let one = gp.scalar_from_u64(1);
        let mut cases = vec![(proof.clone(), input.clone(), output.clone(), true)];
        // One shadow cell.
        let mut p = proof.clone();
        p.shadows[5][3].b = gp.mul(&p.shadows[5][3].b, &gp.generator());
        cases.push((p, input.clone(), output.clone(), false));
        // One opening scalar, in the last round.
        let mut p = proof.clone();
        match p.openings.last_mut().unwrap() {
            RoundOpening::InputToShadow { rerand, .. }
            | RoundOpening::ShadowToOutput { rerand, .. } => {
                rerand[5] = gp.scalar_add(&rerand[5], &one)
            }
        }
        cases.push((p, input.clone(), output.clone(), false));
        // An opening that is not a permutation.
        let mut p = proof.clone();
        match &mut p.openings[0] {
            RoundOpening::InputToShadow { perm, .. }
            | RoundOpening::ShadowToOutput { perm, .. } => perm.0[0] = perm.0[1],
        }
        cases.push((p, input.clone(), output.clone(), false));
        // An opening answering the other challenge bit.
        let mut p = proof.clone();
        p.openings[2] = match p.openings[2].clone() {
            RoundOpening::InputToShadow { perm, rerand } => {
                RoundOpening::ShadowToOutput { perm, rerand }
            }
            RoundOpening::ShadowToOutput { perm, rerand } => {
                RoundOpening::InputToShadow { perm, rerand }
            }
        };
        cases.push((p, input.clone(), output.clone(), false));
        // One output cell; one input cell; a short output.
        let mut out = output.clone();
        out[4].a = gp.mul(&out[4].a, &gp.generator());
        cases.push((proof.clone(), input.clone(), out, false));
        let mut inp = input.clone();
        inp[0].b = gp.mul(&inp[0].b, &gp.generator());
        cases.push((proof.clone(), inp, output.clone(), false));
        cases.push((proof.clone(), input.clone(), output[..5].to_vec(), false));
        for (i, (proof, input, output, expect)) in cases.iter().enumerate() {
            let reference = verify_by_recomputation(proof, &gp, &key, input, output);
            assert_eq!(reference, *expect, "case {i}: recomputation");
            assert_eq!(
                proof.verify(&gp, &key, input, output),
                reference,
                "case {i}"
            );
            for threads in [1, 2, 5] {
                assert_eq!(
                    proof.verify_with(&gp, &pk, input, output, threads),
                    reference,
                    "case {i}, threads {threads}"
                );
            }
        }
    }

    /// Machine-independent cost of verification: one table
    /// rerandomization per cell per round, nothing else — 2 × 33 lane
    /// products on the lane path (8 cells fill one eight-lane chain, so
    /// no padding), ≤ 64 scalar kernel calls elsewhere (≤ 128 with 4-bit
    /// tables). Without tables a cell-round was two plain ladders and
    /// two two-call products, ≈ 770.
    #[test]
    fn shuffle_verify_kernel_calls_are_pinned() {
        use crate::modarith::ops;
        let Fixture {
            gp,
            key,
            input,
            output,
            proof,
        } = proved_shuffle(10, 8, 16);
        let pk = PrecomputedKey::new(&gp, &key);
        // A zero exponent costs the scalar path nothing and the lanes
        // their full schedule: which path runs here.
        let lanes =
            ops::count(|| pk.g_pow_mul_all(&gp, 1, 1, |_| (Scalar::ZERO, gp.identity()))).1 > 0;
        let (ok, calls) = ops::count(|| proof.verify_with(&gp, &pk, &input, &output, 1));
        assert!(ok);
        if lanes {
            assert_eq!(calls, 2 * 33 * 8 * 16);
        } else {
            assert!(
                calls <= 64 * 8 * 16,
                "{calls} calls for 8 cells × 16 rounds"
            );
            assert!(calls >= 50 * 8 * 16, "the counter saw the work: {calls}");
        }
    }

    /// SHA-256 compressions of a 16-round proof over `n` cells, exactly,
    /// on the kernel path and the scalar one alike: prover and verifier
    /// each hash one transcript of `L = 668 + 1872n` bytes, so
    /// ⌈(L + 9) / 64⌉ blocks. The domain and `pk` make 107 bytes; each
    /// of the 18 vectors (input, output, 16 shadows) its length under a
    /// 5- or 6-byte label (29 or 30 bytes) and 104 bytes a cell (`ct.a`
    /// and `ct.b`, 52 each); the 16 challenge bits one 22-byte suffix.
    #[test]
    fn shuffle_compressions_are_pinned() {
        use crate::sha256::compressions;
        for n in [0u64, 1, 2, 3, 8] {
            let want = (668 + 1872 * n + 9).div_ceil(64);
            let gp = GroupParams::default_params();
            let mut rng = StdRng::seed_from_u64(20 + n);
            let kp = keygen(&gp, &mut rng);
            let input: Vec<_> = (0..n)
                .map(|_| encrypt(&gp, &kp.public, &gp.random_element(&mut rng), &mut rng))
                .collect();
            let (output, w) = shuffle(&gp, &kp.public, &input, &mut rng);
            for scalar in [false, true] {
                let (proof, proved) = compressions::count(scalar, || {
                    ShuffleProof::prove(&gp, &kp.public, &input, &output, &w, 16, &mut rng)
                });
                assert_eq!(proved, want, "prove over {n} cells, scalar {scalar}");
                let (ok, verified) =
                    compressions::count(scalar, || proof.verify(&gp, &kp.public, &input, &output));
                assert!(ok);
                assert_eq!(verified, want, "verify over {n} cells, scalar {scalar}");
            }
        }
    }

    #[test]
    fn empty_vector_shuffle() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(7);
        let kp = keygen(&gp, &mut rng);
        let (out, w) = shuffle(&gp, &kp.public, &[], &mut rng);
        assert!(out.is_empty());
        let proof = ShuffleProof::prove(&gp, &kp.public, &[], &out, &w, 4, &mut rng);
        assert!(proof.verify(&gp, &kp.public, &[], &out));
    }
}

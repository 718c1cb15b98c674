//! Non-interactive zero-knowledge proofs (Fiat–Shamir over SHA-256).
//!
//! * [`SchnorrProof`] — proof of knowledge of a discrete log, used by PSC
//!   computation parties to certify their ElGamal key shares.
//! * [`DleqProof`] — Chaum–Pedersen proof that two pairs share the same
//!   discrete log, used to verify partial decryptions and the
//!   zero-preserving exponentiation step.
//!
//! All challenges are derived from a [`Transcript`], which binds the
//! statement, the prover identity, and protocol context.

use crate::batch::FixedBasePowers;
use crate::group::{GroupElement, GroupParams, Scalar};
use crate::sha256::{Sha256, DIGEST_LEN};
use rand::Rng;

/// A Fiat–Shamir transcript: an append-only hash of labeled messages.
#[derive(Clone)]
pub struct Transcript {
    hasher: Sha256,
}

impl Transcript {
    /// Starts a transcript under a protocol domain label.
    pub fn new(domain: &[u8]) -> Transcript {
        let mut hasher = Sha256::new();
        hasher.update(b"pm-crypto/transcript/v1");
        hasher.update(&(domain.len() as u64).to_be_bytes());
        hasher.update(domain);
        Transcript { hasher }
    }

    /// Appends a labeled byte string.
    pub fn append(&mut self, label: &[u8], data: &[u8]) -> &mut Self {
        self.hasher.update(&(label.len() as u64).to_be_bytes());
        self.hasher.update(label);
        self.hasher.update(&(data.len() as u64).to_be_bytes());
        self.hasher.update(data);
        self
    }

    /// Appends a group element.
    pub fn append_element(&mut self, label: &[u8], e: &GroupElement) -> &mut Self {
        self.append(label, &e.to_bytes())
    }

    /// Derives a challenge scalar, consuming the transcript state so far.
    pub fn challenge_scalar(&self, gp: &GroupParams, label: &[u8]) -> Scalar {
        let digest = self.clone_digest(label);
        gp.hash_to_scalar(b"transcript-challenge", &[&digest])
    }

    /// Derives `n` challenge bits (for cut-and-choose protocols).
    pub fn challenge_bits(&self, label: &[u8], n: usize) -> Vec<bool> {
        let mut bits = Vec::with_capacity(n);
        let mut counter = 0u64;
        while bits.len() < n {
            let mut h = self.hasher.clone();
            h.update(&(label.len() as u64).to_be_bytes());
            h.update(label);
            h.update(&counter.to_be_bytes());
            let digest = h.finalize();
            for byte in digest.iter() {
                for i in 0..8 {
                    if bits.len() == n {
                        break;
                    }
                    bits.push((byte >> i) & 1 == 1);
                }
            }
            counter += 1;
        }
        bits
    }

    fn clone_digest(&self, label: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = self.hasher.clone();
        h.update(&(label.len() as u64).to_be_bytes());
        h.update(label);
        h.finalize()
    }
}

/// Schnorr proof of knowledge of `x` such that `y = g^x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchnorrProof {
    /// Commitment `t = g^w`.
    pub commit: GroupElement,
    /// Response `s = w + c·x mod q`.
    pub response: Scalar,
}

impl SchnorrProof {
    /// Proves knowledge of `x` for statement `y = g^x`.
    pub fn prove<R: Rng + ?Sized>(
        gp: &GroupParams,
        x: &Scalar,
        y: &GroupElement,
        transcript: &mut Transcript,
        rng: &mut R,
    ) -> SchnorrProof {
        let w = gp.random_scalar(rng);
        let t = gp.g_pow(&w);
        transcript.append_element(b"schnorr.y", y);
        transcript.append_element(b"schnorr.t", &t);
        let c = transcript.challenge_scalar(gp, b"schnorr.c");
        let s = gp.scalar_add(&w, &gp.scalar_mul(&c, x));
        SchnorrProof {
            commit: t,
            response: s,
        }
    }

    /// Verifies the proof against statement `y`.
    pub fn verify(&self, gp: &GroupParams, y: &GroupElement, transcript: &mut Transcript) -> bool {
        if !gp.is_element(y) || !gp.is_element(&self.commit) {
            return false;
        }
        transcript.append_element(b"schnorr.y", y);
        transcript.append_element(b"schnorr.t", &self.commit);
        let c = transcript.challenge_scalar(gp, b"schnorr.c");
        // g^s == t · y^c
        gp.g_pow(&self.response) == gp.mul(&self.commit, &gp.pow(y, &c))
    }
}

/// Chaum–Pedersen proof that `log_g(y) == log_a(d)`, i.e. the prover
/// applied the same secret exponent to two bases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DleqProof {
    /// `t1 = g^w`
    pub commit_g: GroupElement,
    /// `t2 = a^w`
    pub commit_a: GroupElement,
    /// `s = w + c·x mod q`
    pub response: Scalar,
}

impl DleqProof {
    /// Proves `y = g^x ∧ d = a^x` for secret `x`.
    pub fn prove<R: Rng + ?Sized>(
        gp: &GroupParams,
        x: &Scalar,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
        rng: &mut R,
    ) -> DleqProof {
        let w = gp.random_scalar(rng);
        Self::prove_with_nonce(gp, x, a, y, d, transcript, &w)
    }

    /// Proves with a caller-supplied commitment nonce `w`.
    ///
    /// Callers that batch proof generation (PSC's parallel mixing) draw
    /// every nonce from a single RNG in a canonical sequential order,
    /// then prove cells concurrently; the proof is identical to
    /// [`DleqProof::prove`] fed the same nonce. `w` must be fresh and
    /// uniform per proof — reuse leaks `x`.
    pub fn prove_with_nonce(
        gp: &GroupParams,
        x: &Scalar,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
        w: &Scalar,
    ) -> DleqProof {
        let w = *w;
        let t1 = gp.g_pow(&w);
        let t2 = gp.pow(a, &w);
        transcript.append_element(b"dleq.a", a);
        transcript.append_element(b"dleq.y", y);
        transcript.append_element(b"dleq.d", d);
        transcript.append_element(b"dleq.t1", &t1);
        transcript.append_element(b"dleq.t2", &t2);
        let c = transcript.challenge_scalar(gp, b"dleq.c");
        let s = gp.scalar_add(&w, &gp.scalar_mul(&c, x));
        DleqProof {
            commit_g: t1,
            commit_a: t2,
            response: s,
        }
    }

    /// Verifies against statement `(a, y, d)`.
    ///
    /// Five membership tests (Jacobi symbols, no exponentiation), then
    /// `g^s == t1 · y^c` with `g^s` through the generator's table, and
    /// the second equation as the single two-base exponentiation
    /// `a^s · d^(-c) == t2` (`d` has order `q`, so `d^(q-c) = d^(-c)`).
    pub fn verify(
        &self,
        gp: &GroupParams,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
    ) -> bool {
        self.verify_inner(gp, a, y, d, transcript, |c, t1| gp.mul(t1, &gp.pow(y, c)))
    }

    /// [`DleqProof::verify`] for a verifier checking many proofs under
    /// one `y` (a hop's `exp_key`, a CP's key share): `y^c` goes through
    /// the caller's table. Same verdict for every input.
    pub fn verify_with_table(
        &self,
        gp: &GroupParams,
        a: &GroupElement,
        y: &FixedBasePowers,
        d: &GroupElement,
        transcript: &mut Transcript,
    ) -> bool {
        self.verify_inner(gp, a, y.base(), d, transcript, |c, t1| y.pow_mul(gp, c, t1))
    }

    /// The one verification path; `t1_y_pow(c, t1)` computes `t1 · y^c`.
    fn verify_inner(
        &self,
        gp: &GroupParams,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
        t1_y_pow: impl FnOnce(&Scalar, &GroupElement) -> GroupElement,
    ) -> bool {
        for e in [a, y, d, &self.commit_g, &self.commit_a] {
            if !gp.is_element(e) {
                return false;
            }
        }
        transcript.append_element(b"dleq.a", a);
        transcript.append_element(b"dleq.y", y);
        transcript.append_element(b"dleq.d", d);
        transcript.append_element(b"dleq.t1", &self.commit_g);
        transcript.append_element(b"dleq.t2", &self.commit_a);
        let c = transcript.challenge_scalar(gp, b"dleq.c");
        gp.g_pow(&self.response) == t1_y_pow(&c, &self.commit_g)
            && gp.pow2(a, &self.response, d, &gp.scalar_neg(&c)) == self.commit_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schnorr_accepts_honest() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(1);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let proof = SchnorrProof::prove(&gp, &x, &y, &mut Transcript::new(b"test"), &mut rng);
        assert!(proof.verify(&gp, &y, &mut Transcript::new(b"test")));
    }

    #[test]
    fn schnorr_rejects_wrong_statement() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(2);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let proof = SchnorrProof::prove(&gp, &x, &y, &mut Transcript::new(b"test"), &mut rng);
        let other = gp.random_element(&mut rng);
        assert!(!proof.verify(&gp, &other, &mut Transcript::new(b"test")));
    }

    #[test]
    fn schnorr_rejects_wrong_domain() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(3);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let proof = SchnorrProof::prove(&gp, &x, &y, &mut Transcript::new(b"ctx-a"), &mut rng);
        assert!(!proof.verify(&gp, &y, &mut Transcript::new(b"ctx-b")));
    }

    #[test]
    fn schnorr_rejects_tampered_response() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(4);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let mut proof = SchnorrProof::prove(&gp, &x, &y, &mut Transcript::new(b"t"), &mut rng);
        proof.response = gp.scalar_add(&proof.response, &gp.scalar_from_u64(1));
        assert!(!proof.verify(&gp, &y, &mut Transcript::new(b"t")));
    }

    #[test]
    fn dleq_accepts_honest() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(5);
        let x = gp.random_scalar(&mut rng);
        let a = gp.random_element(&mut rng);
        let y = gp.g_pow(&x);
        let d = gp.pow(&a, &x);
        let proof = DleqProof::prove(&gp, &x, &a, &y, &d, &mut Transcript::new(b"t"), &mut rng);
        assert!(proof.verify(&gp, &a, &y, &d, &mut Transcript::new(b"t")));
    }

    #[test]
    fn dleq_rejects_mismatched_exponent() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(6);
        let x = gp.random_scalar(&mut rng);
        let x2 = gp.random_scalar(&mut rng);
        let a = gp.random_element(&mut rng);
        let y = gp.g_pow(&x);
        let d = gp.pow(&a, &x2); // wrong exponent on the second base
        let proof = DleqProof::prove(&gp, &x, &a, &y, &d, &mut Transcript::new(b"t"), &mut rng);
        assert!(!proof.verify(&gp, &a, &y, &d, &mut Transcript::new(b"t")));
    }

    #[test]
    fn dleq_binds_partial_decryption() {
        // The PSC use case: prove d = a^x is a correct partial decryption
        // under key share y = g^x.
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(7);
        let kp = crate::elgamal::keygen(&gp, &mut rng);
        let m = gp.random_element(&mut rng);
        let ct = crate::elgamal::encrypt(&gp, &kp.public, &m, &mut rng);
        let d = crate::elgamal::partial_decrypt(&gp, &kp.secret, &ct);
        let proof = DleqProof::prove(
            &gp,
            &kp.secret.0,
            &ct.a,
            &kp.public.0,
            &d,
            &mut Transcript::new(b"psc.decrypt"),
            &mut rng,
        );
        assert!(proof.verify(
            &gp,
            &ct.a,
            &kp.public.0,
            &d,
            &mut Transcript::new(b"psc.decrypt")
        ));
        // A lying decryptor (wrong d) fails.
        let bad = gp.mul(&d, &gp.generator());
        assert!(!proof.verify(
            &gp,
            &ct.a,
            &kp.public.0,
            &bad,
            &mut Transcript::new(b"psc.decrypt")
        ));
    }

    /// The verifier as written before PR 16: membership by `x^q == 1`,
    /// four separate exponentiations, no tables.
    fn verify_plain_formula(
        p: &DleqProof,
        gp: &GroupParams,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
    ) -> bool {
        let order_q = Scalar(*gp.q());
        let member = |e: &GroupElement| {
            !e.0.is_zero() && e.0 < *gp.p() && gp.pow(e, &order_q) == gp.identity()
        };
        if ![a, y, d, &p.commit_g, &p.commit_a].into_iter().all(member) {
            return false;
        }
        transcript.append_element(b"dleq.a", a);
        transcript.append_element(b"dleq.y", y);
        transcript.append_element(b"dleq.d", d);
        transcript.append_element(b"dleq.t1", &p.commit_g);
        transcript.append_element(b"dleq.t2", &p.commit_a);
        let c = transcript.challenge_scalar(gp, b"dleq.c");
        let g = gp.generator();
        gp.pow(&g, &p.response) == gp.mul(&p.commit_g, &gp.pow(y, &c))
            && gp.pow(a, &p.response) == gp.mul(&p.commit_a, &gp.pow(d, &c))
    }

    #[test]
    fn dleq_verifiers_agree_with_the_plain_formula_under_tampering() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(8);
        let x = gp.random_scalar(&mut rng);
        let a = gp.random_element(&mut rng);
        let y = gp.g_pow(&x);
        let d = gp.pow(&a, &x);
        let honest = DleqProof::prove(&gp, &x, &a, &y, &d, &mut Transcript::new(b"t"), &mut rng);
        let other = gp.random_element(&mut rng);
        // A non-residue: in range, outside the subgroup.
        let outside = (2u64..)
            .map(|h| GroupElement(crate::U256::from_u64(h)))
            .find(|e| !gp.is_element(e))
            .unwrap();
        let one = gp.scalar_from_u64(1);
        // (proof, a, y, d, expected verdict)
        let mut cases = vec![(honest, a, y, d, true)];
        for tampered in [
            DleqProof {
                commit_g: other,
                ..honest
            },
            DleqProof {
                commit_a: other,
                ..honest
            },
            DleqProof {
                commit_a: outside,
                ..honest
            },
            DleqProof {
                commit_g: outside,
                ..honest
            },
            DleqProof {
                response: gp.scalar_add(&honest.response, &one),
                ..honest
            },
            // s + q: the same exponent mod q, as an unreduced scalar.
            DleqProof {
                response: Scalar(honest.response.0.wrapping_add(gp.q())),
                ..honest
            },
        ] {
            cases.push((tampered, a, y, d, false));
        }
        // s + q exponentiates identically, so that one still verifies.
        cases.last_mut().unwrap().4 = true;
        cases.push((honest, other, y, d, false));
        cases.push((honest, a, other, d, false));
        cases.push((honest, a, y, other, false));
        cases.push((honest, a, y, outside, false));
        cases.push((honest, a, y, gp.identity(), false));
        cases.push((honest, a, y, GroupElement(*gp.p()), false));
        for (i, (proof, a, y, d, expect)) in cases.iter().enumerate() {
            let plain = verify_plain_formula(proof, &gp, a, y, d, &mut Transcript::new(b"t"));
            assert_eq!(plain, *expect, "case {i}: plain formula");
            assert_eq!(
                proof.verify(&gp, a, y, d, &mut Transcript::new(b"t")),
                plain,
                "case {i}"
            );
            if gp.is_element(y) {
                let table = FixedBasePowers::new(&gp, y);
                let with_table =
                    proof.verify_with_table(&gp, a, &table, d, &mut Transcript::new(b"t"));
                assert_eq!(with_table, plain, "case {i}: table");
            }
        }
    }

    /// Machine-independent cost of one verification, in Montgomery
    /// kernel calls. Before PR 16: five `x^q` membership ladders and
    /// four exponentiations, ≈ 9 × 383 ≈ 3 450.
    #[test]
    fn dleq_kernel_calls_are_pinned() {
        use crate::modarith::ops;
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(9);
        let x = gp.random_scalar(&mut rng);
        let a = gp.random_element(&mut rng);
        let y = gp.g_pow(&x);
        let d = gp.pow(&a, &x);
        let table = FixedBasePowers::new(&gp, &y);
        for _ in 0..20 {
            let (proof, prove) = ops::count(|| {
                DleqProof::prove(&gp, &x, &a, &y, &d, &mut Transcript::new(b"t"), &mut rng)
            });
            // g^w through the table, a^w by the window.
            assert!(prove <= 64 + 331, "prove: {prove}");
            let (ok, with_table) = ops::count(|| {
                proof.verify_with_table(&gp, &a, &table, &d, &mut Transcript::new(b"t"))
            });
            // g^s (≤ 64) + t1·y^c (≤ 64) + two-base a^s·d^-c (≤ 410).
            assert!(ok && with_table <= 538, "verify_with_table: {with_table}");
            let (ok, plain) =
                ops::count(|| proof.verify(&gp, &a, &y, &d, &mut Transcript::new(b"t")));
            // Without a table for y: y^c by the window (≤ 331) and a
            // plain product (2) instead of the ≤ 64.
            assert!(ok && plain <= 64 + 331 + 2 + 410, "verify: {plain}");
        }
    }

    #[test]
    fn challenge_bits_deterministic_and_unbiased_ish() {
        let mut t = Transcript::new(b"bits");
        t.append(b"x", b"y");
        let bits1 = t.challenge_bits(b"c", 256);
        let bits2 = t.challenge_bits(b"c", 256);
        assert_eq!(bits1, bits2);
        let ones = bits1.iter().filter(|b| **b).count();
        // 256 fair coin flips: P(outside [80, 176]) is negligible.
        assert!((80..=176).contains(&ones), "ones = {ones}");
        // Different label gives different bits.
        let bits3 = t.challenge_bits(b"d", 256);
        assert_ne!(bits1, bits3);
    }

    #[test]
    fn transcript_append_changes_challenges() {
        let gp = GroupParams::default_params();
        let mut t1 = Transcript::new(b"x");
        let mut t2 = Transcript::new(b"x");
        t2.append(b"extra", b"data");
        assert_ne!(
            t1.challenge_scalar(&gp, b"c"),
            t2.challenge_scalar(&gp, b"c")
        );
        // Appending then re-deriving is stable.
        t1.append(b"extra", b"data");
        assert_eq!(
            t1.challenge_scalar(&gp, b"c"),
            t2.challenge_scalar(&gp, b"c")
        );
    }
}

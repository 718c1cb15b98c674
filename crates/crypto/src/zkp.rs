//! Non-interactive zero-knowledge proofs (Fiat–Shamir over SHA-256).
//!
//! * [`SchnorrProof`] — proof of knowledge of a discrete log, used by PSC
//!   computation parties to certify their ElGamal key shares.
//! * [`DleqProof`] — Chaum–Pedersen proof that two pairs share the same
//!   discrete log, used to verify partial decryptions and the
//!   zero-preserving exponentiation step. A hop's proofs are made in
//!   sixteen-lane batches ([`DleqProof::raise_and_prove_all`]).
//!
//! All challenges are derived from a [`Transcript`], which binds the
//! statement, the prover identity, and protocol context.

use crate::batch::{multi_exp, par_batches, par_map_indexed};
use crate::group::{GroupElement, GroupParams, Scalar};
use crate::lanes::{self, Radix, BATCH};
use crate::sha256::{Sha256, DIGEST_LEN};
use crate::u256::U256;
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

/// One statement of a [`DleqProof::verify_batch`]: the pair `(a, d)`
/// claimed to share `y`'s discrete log, its proof, and the transcript
/// the proof was made under.
pub struct DleqClaim<'a> {
    /// The second base.
    pub a: &'a GroupElement,
    /// `a` raised to the secret.
    pub d: &'a GroupElement,
    /// The proof of `log_g(y) == log_a(d)`.
    pub proof: &'a DleqProof,
    /// The proof's transcript, before any `dleq.*` label.
    pub transcript: Transcript,
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
        let commits = (gp.g_pow(&w), gp.pow(a, &w));
        Self::respond(gp, x, a, y, d, transcript, &w, commits)
    }

    /// Raises `a` to the secret `x` and proves it: returns `d = a^x`
    /// with the proof [`DleqProof::prove`] would give for that `d` had
    /// it drawn the nonce `w`. One comb
    /// ([`crate::modarith::Modulus::pow_pair`]) serves both `a^x` and
    /// the commitment `a^w`, and `g^w` goes through the generator's
    /// table: [`DleqProof::raise_and_prove_all`]'s scalar path, and its
    /// oracle.
    pub(crate) fn raise_and_prove(
        gp: &GroupParams,
        x: &Scalar,
        a: &GroupElement,
        y: &GroupElement,
        transcript: &mut Transcript,
        w: &Scalar,
    ) -> (GroupElement, DleqProof) {
        let (d, t2) = gp.pow_pair(a, x, w);
        let proof = Self::respond(gp, x, a, y, &d, transcript, w, (gp.g_pow(w), t2));
        (d, proof)
    }

    /// Raises every base to the secret `x` and proves it: `(d_j,
    /// proof_j)` with `d_j = bases[j]^x` and the proof
    /// [`DleqProof::prove`] would give for it under `transcript(j)` had
    /// it drawn the nonce `nonces[j]`, the same bits at every `threads`.
    ///
    /// The bases go sixteen at a time, the batches spread over `threads`
    /// threads ([`crate::batch::par_map_indexed`]). For the shipped
    /// parameters on a CPU with AVX-512F and AVX-512 IFMA, each power of
    /// a batch is one lane-kernel call (`crate::lanes`): the `d_j =
    /// a_j^x` by the shared-exponent kernel (≤ 331 lane products each),
    /// the commitments `a_j^{w_j}` by the per-lane-exponent one (exactly
    /// 331) and `g^{w_j}` through the generator's table (33). Otherwise
    /// each base takes one scalar comb for `a_j^x` and `a_j^{w_j}` and
    /// [`GroupParams::g_pow`] for `g^{w_j}` (≤ 458 + 32 for the shipped
    /// parameters). Challenges and responses are computed per proof on
    /// the batch's thread.
    ///
    /// Callers draw every nonce from a single RNG in a canonical
    /// sequential order (PSC's mixing and decryption hops), so the proofs
    /// do not depend on the schedule. Each `w_j` must be fresh and
    /// uniform — a nonce used twice leaks `x`.
    pub fn raise_and_prove_all(
        gp: &GroupParams,
        x: &Scalar,
        bases: &[GroupElement],
        y: &GroupElement,
        transcript: impl Fn(usize) -> Transcript + Sync,
        nonces: &[Scalar],
        threads: usize,
    ) -> Vec<(GroupElement, DleqProof)> {
        assert_eq!(bases.len(), nonces.len(), "one nonce per base");
        let n = bases.len();
        let k = Radix::new(gp.p_modulus());
        // Padding slots hold `None`; `par_batches` keeps only the first
        // `n`, so the flatten drops nothing.
        par_batches::<_, _, Vec<_>>(n, threads, |range| {
            let (a, w) = (&bases[range.clone()], &nonces[range.clone()]);
            let powers = Self::lane_powers(gp, &k, x, a, w);
            std::array::from_fn(|i| {
                (i < a.len()).then(|| {
                    let t = &mut transcript(range.start + i);
                    match &powers {
                        Some([d, t1, t2]) => {
                            let d = GroupElement(d[i]);
                            let commits = (GroupElement(t1[i]), GroupElement(t2[i]));
                            (d, Self::respond(gp, x, &a[i], y, &d, t, &w[i], commits))
                        }
                        None => Self::raise_and_prove(gp, x, &a[i], y, t, &w[i]),
                    }
                })
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// `[a_i^x, g^{w_i}, a_i^{w_i}]` for a batch of up to [`BATCH`]
    /// proofs, each one lane-kernel call, `g^{w_i}` through the shipped
    /// generator's table; `None` for other parameters or when this CPU
    /// lacks AVX-512F or AVX-512 IFMA.
    fn lane_powers(
        gp: &GroupParams,
        k: &Radix,
        x: &Scalar,
        bases: &[GroupElement],
        nonces: &[Scalar],
    ) -> Option<[[U256; BATCH]; 3]> {
        let (radix, rows) = gp.shipped_g_table()?.lane_rows();
        let n = bases.len();
        let a: [U256; BATCH] = std::array::from_fn(|i| bases.get(i).map_or(U256::ZERO, |e| e.0));
        let w: [U256; BATCH] = std::array::from_fn(|i| nonces.get(i).map_or(U256::ZERO, |s| s.0));
        let (a, w) = (&a[..n], &w[..n]);
        let d = lanes::pow_batch(k, a, &x.0)?;
        let t1 = lanes::fixed_pow_mul_batch(radix, rows, w, &[U256::ONE; BATCH][..n])?;
        let t2 = lanes::pow_each_batch(k, a, w)?;
        Some([d, t1, t2])
    }

    /// The proof for nonce `w` whose commitments `(g^w, a^w)` are
    /// already known.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        gp: &GroupParams,
        x: &Scalar,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
        w: &Scalar,
        (commit_g, commit_a): (GroupElement, GroupElement),
    ) -> DleqProof {
        let mut proof = DleqProof {
            commit_g,
            commit_a,
            response: Scalar::ZERO,
        };
        let c = proof.challenge(gp, a, y, d, transcript);
        proof.response = gp.scalar_add(w, &gp.scalar_mul(&c, x));
        proof
    }

    /// The Fiat–Shamir challenge: the statement and both commitments
    /// appended to `transcript`.
    fn challenge(
        &self,
        gp: &GroupParams,
        a: &GroupElement,
        y: &GroupElement,
        d: &GroupElement,
        transcript: &mut Transcript,
    ) -> Scalar {
        transcript.append_element(b"dleq.a", a);
        transcript.append_element(b"dleq.y", y);
        transcript.append_element(b"dleq.d", d);
        transcript.append_element(b"dleq.t1", &self.commit_g);
        transcript.append_element(b"dleq.t2", &self.commit_a);
        transcript.challenge_scalar(gp, b"dleq.c")
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
        for e in [a, y, d, &self.commit_g, &self.commit_a] {
            if !gp.is_element(e) {
                return false;
            }
        }
        let c = self.challenge(gp, a, y, d, transcript);
        gp.g_pow(&self.response) == gp.mul(&self.commit_g, &gp.pow(y, &c))
            && gp.pow2(a, &self.response, d, &gp.scalar_neg(&c)) == self.commit_a
    }

    /// Verifies `m` proofs that share `y`, `claim(j)` giving the j-th
    /// statement; `Err(j)` names the lowest `j` whose proof
    /// [`DleqProof::verify`] rejects. Work runs on up to `threads`
    /// threads; the verdict does not depend on the count.
    ///
    /// The proofs go sixteen at a time, the batches spread over the
    /// threads ([`crate::batch::par_map_indexed`]). Each element `a_j`,
    /// `d_j`, `t1_j`, `t2_j` is checked for membership (`y` once, by
    /// [`GroupParams::is_element`]) and each challenge `c_j` derived
    /// exactly as [`DleqProof::verify`] does; then, with weights `ρ_j`,
    /// the two equations are checked once for the whole batch:
    ///
    /// `g^(Σ ρ_j s_j) · y^(-Σ ρ_j c_j) == Π t1_j^ρ_j` and
    /// `Π a_j^(ρ_j s_j) · d_j^(-ρ_j c_j) == Π t2_j^ρ_j`,
    ///
    /// each side one bucket-method product (`multi_exp` in
    /// [`crate::batch`]). If anything fails, the per-proof scan runs and
    /// names the cell.
    ///
    /// On a CPU with AVX-512F and AVX-512 IFMA, membership is Euler's
    /// criterion, the subgroup's definition: `0 < x < p` and `x^q == 1`,
    /// one shared-exponent lane batch for each of the `a`, `d`, `t1` and
    /// `t2` of sixteen proofs (a short batch padded to eight or sixteen
    /// lanes). The products go
    /// through the lane bucket kernel, one window per lane: 4-bit windows
    /// over the 64-bit weights (one call of sixteen windows for each `t`
    /// product), 8-bit windows over the 256-bit `a`/`d` exponents (two
    /// calls). Elsewhere membership is a Jacobi symbol per element and
    /// the products scalar bucket folds. The verdicts are the same: the
    /// two tests accept exactly the same values, and both products are
    /// the same residues. On one thread of a 2-vCPU AVX-512 IFMA host,
    /// 896 proofs (one 448-cell mixing hop) took ≈ 6 ms, ≈ 4.1 of it
    /// membership (≈ 1.1 µs an element, where a Jacobi symbol takes
    /// ≈ 1.65), ≈ 1.2 the three products (≈ 3.6 as scalar folds) and
    /// ≈ 0.7 the challenges.
    ///
    /// # Soundness
    ///
    /// The weights are 64 bits each, expanded from one SHA-256 over `y`,
    /// `m` and every `(c_j, s_j)`. Each `c_j` hashes its statement and
    /// commitments, so the weights are fixed only once every value the
    /// prover controls is: a hash over the challenges alone would leave
    /// the responses free after the weights are known, and two free
    /// responses solve the two batch equations for any one bad
    /// statement. Every element passes its membership test (`y` once),
    /// so each equation's error lives in the prime-order group, and a
    /// batch containing a false proof passes for at most one value of
    /// the uniform 64-bit weight of that proof: probability ≤ 2^-64 per
    /// batch the prover can construct. Any failure falls back to the
    /// scan, so a rejected batch reports exactly what the per-proof
    /// check reports, and an honest one is never rejected.
    pub fn verify_batch<'a>(
        gp: &GroupParams,
        y: &GroupElement,
        m: usize,
        threads: usize,
        claim: impl Fn(usize) -> DleqClaim<'a> + Sync,
    ) -> Result<(), usize> {
        if gp.is_element(y) && Self::batch_holds(gp, y, m, threads, &claim) {
            return Ok(());
        }
        let verdicts = par_map_indexed(m, threads, |j| {
            let DleqClaim {
                a,
                d,
                proof,
                mut transcript,
            } = claim(j);
            proof.verify(gp, a, y, d, &mut transcript)
        });
        match verdicts.iter().position(|ok| !ok) {
            Some(j) => Err(j),
            None => Ok(()),
        }
    }

    /// [`DleqProof::verify_batch`]'s batched check for a member `y`.
    fn batch_holds<'a>(
        gp: &GroupParams,
        y: &GroupElement,
        m: usize,
        threads: usize,
        claim: &(impl Fn(usize) -> DleqClaim<'a> + Sync),
    ) -> bool {
        let p = gp.p_modulus();
        let q = gp.q_modulus();
        let k = Radix::new(p);
        // Per proof, sixteen at a time: membership of [a, d, t1, t2], one
        // membership batch per column, then (c, s mod q) and the four
        // elements.
        let rows: Option<Vec<_>> = par_batches(m, threads, |range| {
            let n = range.len();
            let mut claims: [Option<DleqClaim<'a>>; BATCH] =
                std::array::from_fn(|i| (i < n).then(|| claim(range.start + i)));
            let members: [[bool; BATCH]; 4] = std::array::from_fn(|e| {
                let column: [U256; BATCH] = std::array::from_fn(|i| {
                    claims[i].as_ref().map_or(U256::ZERO, |c| c.elements()[e].0)
                });
                gp.are_elements(&k, &column[..n])
            });
            std::array::from_fn(|i| {
                let mut c = claims[i].take()?;
                if !members.iter().all(|column| column[i]) {
                    return None;
                }
                let challenge = c.proof.challenge(gp, c.a, y, c.d, &mut c.transcript);
                let s = q.reduce(&c.proof.response.0);
                Some((challenge.0, s, c.elements().map(|e| e.0)))
            })
        });
        let Some(rows) = rows else {
            return false;
        };
        let rho = batch_weights(y, &rows);
        // ρ_j s_j and -ρ_j c_j, mod q.
        let exps = par_map_indexed(m, threads, |j| {
            let (c, s, _) = &rows[j];
            (q.mul(&rho[j], s), q.neg(&q.mul(&rho[j], c)))
        });
        let (mut sum_s, mut sum_c) = (U256::ZERO, U256::ZERO);
        for (u, v) in &exps {
            sum_s = q.add(&sum_s, u);
            sum_c = q.add(&sum_c, v);
        }
        let column = |k: usize| rows.iter().map(|(_, _, e)| e[k]).collect::<Vec<_>>();
        let t1 = multi_exp(gp, &column(2), &rho, threads);
        let lhs1 = gp.mul(&gp.g_pow(&Scalar(sum_s)), &gp.pow(y, &Scalar(sum_c)));
        if t1 != lhs1.0 {
            return false;
        }
        let mut bases = column(0);
        bases.extend(column(1));
        let mut ad_exps: Vec<U256> = exps.iter().map(|(u, _)| *u).collect();
        ad_exps.extend(exps.iter().map(|(_, v)| *v));
        multi_exp(gp, &bases, &ad_exps, threads) == multi_exp(gp, &column(3), &rho, threads)
    }
}

impl DleqClaim<'_> {
    /// The four elements a batch tests for membership and multiplies:
    /// `[a, d, t1, t2]`.
    fn elements(&self) -> [&GroupElement; 4] {
        [self.a, self.d, &self.proof.commit_g, &self.proof.commit_a]
    }
}

/// The 64-bit weights of a batch: SHA-256 over `y`, the batch size and
/// every `(c_j, s_j)` gives a seed, and block `k` of the seed's
/// expansion, `SHA-256(seed ‖ k)`, gives the weights `4k … 4k + 3`.
fn batch_weights(y: &GroupElement, rows: &[(U256, U256, [U256; 4])]) -> Vec<U256> {
    let mut h = Sha256::new();
    h.update(b"pm-crypto/dleq-batch/v1");
    h.update(&y.to_bytes());
    h.update(&(rows.len() as u64).to_be_bytes());
    for (c, s, _) in rows {
        h.update(&c.to_bytes_be());
        h.update(&s.to_bytes_be());
    }
    let seed = h.finalize();
    let mut weights = Vec::with_capacity(rows.len());
    for k in 0..rows.len().div_ceil(4) as u64 {
        let mut block = Sha256::new();
        block.update(&seed);
        block.update(&k.to_be_bytes());
        for word in block.finalize().chunks_exact(8) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(word);
            weights.push(U256::from_u64(u64::from_be_bytes(bytes)));
        }
    }
    weights.truncate(rows.len());
    weights
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
            let batch = DleqProof::verify_batch(&gp, y, 1, 1, |_| DleqClaim {
                a,
                d,
                proof,
                transcript: Transcript::new(b"t"),
            });
            assert_eq!(batch.is_ok(), plain, "case {i}: batch of one");
        }
    }

    /// `m` honest proofs under one key, each under its own transcript.
    fn honest_batch(
        gp: &GroupParams,
        m: usize,
        rng: &mut StdRng,
    ) -> (GroupElement, Vec<(GroupElement, GroupElement, DleqProof)>) {
        let x = gp.random_scalar(rng);
        let y = gp.g_pow(&x);
        let claims = (0..m)
            .map(|j| {
                let a = gp.random_element(rng);
                let w = gp.random_scalar(rng);
                let mut t = batch_transcript(j);
                let (d, proof) = DleqProof::raise_and_prove(gp, &x, &a, &y, &mut t, &w);
                (a, d, proof)
            })
            .collect();
        (y, claims)
    }

    fn batch_transcript(j: usize) -> Transcript {
        let mut t = Transcript::new(b"batch");
        t.append(b"j", &(j as u64).to_be_bytes());
        t
    }

    fn verify_all(
        gp: &GroupParams,
        y: &GroupElement,
        claims: &[(GroupElement, GroupElement, DleqProof)],
        threads: usize,
    ) -> Result<(), usize> {
        DleqProof::verify_batch(gp, y, claims.len(), threads, |j| {
            let (a, d, proof) = &claims[j];
            DleqClaim {
                a,
                d,
                proof,
                transcript: batch_transcript(j),
            }
        })
    }

    /// The per-proof scan `verify_batch` must agree with.
    fn scan(
        gp: &GroupParams,
        y: &GroupElement,
        claims: &[(GroupElement, GroupElement, DleqProof)],
    ) -> Result<(), usize> {
        match claims
            .iter()
            .enumerate()
            .position(|(j, (a, d, proof))| !proof.verify(gp, a, y, d, &mut batch_transcript(j)))
        {
            Some(j) => Err(j),
            None => Ok(()),
        }
    }

    #[test]
    fn raise_and_prove_matches_prove() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(10);
        let x = gp.random_scalar(&mut rng);
        let (a, y) = (gp.random_element(&mut rng), gp.g_pow(&x));
        for seed in 0..8 {
            let w = gp.random_scalar(&mut StdRng::seed_from_u64(seed));
            let (d, proof) =
                DleqProof::raise_and_prove(&gp, &x, &a, &y, &mut Transcript::new(b"t"), &w);
            assert_eq!(d, gp.pow(&a, &x));
            let expect = DleqProof::prove(
                &gp,
                &x,
                &a,
                &y,
                &d,
                &mut Transcript::new(b"t"),
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(proof, expect);
        }
    }

    /// `n` bases and nonces under `x`, with the per-base calls' results.
    fn per_base(
        gp: &GroupParams,
        n: usize,
        rng: &mut StdRng,
    ) -> (Scalar, GroupElement, Vec<GroupElement>, Vec<Scalar>) {
        let x = gp.random_scalar(rng);
        let bases = (0..n).map(|_| gp.random_element(rng)).collect();
        let nonces = (0..n).map(|_| gp.random_scalar(rng)).collect();
        (x, gp.g_pow(&x), bases, nonces)
    }

    /// The batch equals the per-base call at every length and thread
    /// count, for the shipped group (the lanes, where the CPU has them)
    /// and a generated one (the scalar path on any CPU), and every proof
    /// verifies on its own:
    /// a kernel that gave every lane one lane's nonce would commit
    /// wrongly in the others, and a nonce used twice leaks `x`.
    #[test]
    fn raise_and_prove_all_matches_raise_and_prove() {
        let mut rng = StdRng::seed_from_u64(14);
        let groups = [
            GroupParams::default_params(),
            GroupParams::generate(64, &mut rng),
        ];
        for gp in &groups {
            for n in [0, 1, 15, 16, 17, 33] {
                let (x, y, bases, nonces) = per_base(gp, n, &mut rng);
                let expect: Vec<(GroupElement, DleqProof)> = (0..n)
                    .map(|j| {
                        let t = &mut batch_transcript(j);
                        DleqProof::raise_and_prove(gp, &x, &bases[j], &y, t, &nonces[j])
                    })
                    .collect();
                for threads in [1, 2, 5] {
                    let got = DleqProof::raise_and_prove_all(
                        gp,
                        &x,
                        &bases,
                        &y,
                        batch_transcript,
                        &nonces,
                        threads,
                    );
                    assert_eq!(got, expect, "n = {n}, threads = {threads}");
                }
                for (j, (d, proof)) in expect.iter().enumerate() {
                    assert_eq!(*d, gp.pow(&bases[j], &x));
                    assert!(proof.verify(gp, &bases[j], &y, d, &mut batch_transcript(j)));
                }
            }
        }
    }

    /// Kernel calls per proof of a full batch: on the lane path exactly
    /// `a^x`'s [`crate::modarith::Modulus::pow`] calls, 331 for `a^w`,
    /// 33 for `g^w` and the response's scalar product, a short batch
    /// paying for its padding; elsewhere `raise_and_prove`'s ≤ 458 + 32,
    /// and for other parameters exactly the per-base calls.
    #[test]
    fn raise_and_prove_all_kernel_calls_are_pinned() {
        use crate::modarith::ops;
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(15);
        let (x, y, bases, nonces) = per_base(&gp, BATCH + 1, &mut rng);
        let lanes = lanes::pow_batch(&Radix::new(gp.p_modulus()), &[], &x.0).is_some();
        let pow_x = ops::count(|| gp.pow(&bases[0], &x)).1;
        let respond = ops::count(|| gp.scalar_mul(&x, &x)).1;
        // This `x`: 63 windows, 60 of them nonzero below the top one.
        assert_eq!((pow_x, respond), (15 + 252 + 60 + 1, 2));
        for (n, padded) in [(1, 8), (BATCH, BATCH), (BATCH + 1, BATCH + 8)] {
            let (_, calls) = ops::count(|| {
                DleqProof::raise_and_prove_all(
                    &gp,
                    &x,
                    &bases[..n],
                    &y,
                    batch_transcript,
                    &nonces[..n],
                    1,
                )
            });
            if lanes {
                // 328 + 331 + 33 + 2 = 694 per proof of a full batch.
                let expect = padded as u64 * (pow_x + 331 + 33) + n as u64 * respond;
                assert_eq!(calls, expect, "n = {n}");
            } else {
                assert!(calls <= n as u64 * (458 + 32), "n = {n}: {calls}");
            }
        }
        let gp = GroupParams::generate(64, &mut rng);
        let (x, y, bases, nonces) = per_base(&gp, BATCH + 1, &mut rng);
        let (all, calls) = ops::count(|| {
            DleqProof::raise_and_prove_all(&gp, &x, &bases, &y, batch_transcript, &nonces, 1)
        });
        let (each, per_base_calls) = ops::count(|| {
            (0..=BATCH)
                .map(|j| {
                    let t = &mut batch_transcript(j);
                    DleqProof::raise_and_prove(&gp, &x, &bases[j], &y, t, &nonces[j])
                })
                .collect::<Vec<_>>()
        });
        assert_eq!((all, calls), (each, per_base_calls));
    }

    /// Tampering that a batch check must catch, including a pair of
    /// edits that cancel in the unweighted product of the batch: the
    /// lowest tampered proof is named, as the scan names it.
    #[test]
    fn batch_names_the_same_proof_as_the_scan() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(11);
        let (y, honest) = honest_batch(&gp, 9, &mut rng);
        let h = gp.random_non_identity(&mut rng);
        let h_inv = gp.inv(&h);
        let one = gp.scalar_from_u64(1);
        let outside = (2u64..)
            .map(|v| GroupElement(U256::from_u64(v)))
            .find(|e| !gp.is_element(e))
            .unwrap();
        type Tamper = Box<dyn Fn(&mut Vec<(GroupElement, GroupElement, DleqProof)>)>;
        let cases: Vec<(&str, Tamper, Result<(), usize>)> = vec![
            ("honest", Box::new(|_| {}), Ok(())),
            (
                "cancelling commit_a pair",
                Box::new(move |c| {
                    c[2].2.commit_a = gp.mul(&c[2].2.commit_a, &h);
                    c[6].2.commit_a = gp.mul(&c[6].2.commit_a, &h_inv);
                }),
                Err(2),
            ),
            (
                "cancelling commit_g pair",
                Box::new(move |c| {
                    c[5].2.commit_g = gp.mul(&c[5].2.commit_g, &h_inv);
                    c[1].2.commit_g = gp.mul(&c[1].2.commit_g, &h);
                }),
                Err(1),
            ),
            (
                "cancelling d pair",
                Box::new(move |c| {
                    c[3].1 = gp.mul(&c[3].1, &h);
                    c[4].1 = gp.mul(&c[4].1, &h_inv);
                }),
                Err(3),
            ),
            (
                "response",
                Box::new(move |c| c[8].2.response = gp.scalar_add(&c[8].2.response, &one)),
                Err(8),
            ),
            (
                "unreduced response",
                Box::new(move |c| c[0].2.response = Scalar(c[0].2.response.0.wrapping_add(gp.q()))),
                Ok(()),
            ),
            ("non-member d", Box::new(move |c| c[7].1 = outside), Err(7)),
            ("non-member a", Box::new(move |c| c[0].0 = outside), Err(0)),
        ];
        for (name, tamper, expect) in &cases {
            let mut claims = honest.clone();
            tamper(&mut claims);
            assert_eq!(scan(&gp, &y, &claims), *expect, "{name}: scan");
            for threads in [1, 2, 5] {
                assert_eq!(
                    verify_all(&gp, &y, &claims, threads),
                    *expect,
                    "{name}, {threads}"
                );
            }
        }
        // A non-member y: every proof fails, the first is named.
        assert_eq!(verify_all(&gp, &outside, &honest, 2), Err(0));
        assert_eq!(verify_all(&gp, &y, &[], 2), Ok(()));
    }

    /// An element of a batch statement a tamper case replaces.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Part {
        A,
        D,
        T1,
        T2,
        Y,
    }

    /// An honest batch with its witness (the secret, every base and
    /// every nonce, and the honest `(d, t1, t2)`), so that a tamper case
    /// can make a proof again over its tampered statement, as a cheating
    /// prover would.
    struct Witness {
        x: Scalar,
        y: GroupElement,
        bases: Vec<GroupElement>,
        nonces: Vec<Scalar>,
        powers: Vec<[GroupElement; 3]>,
    }

    impl Witness {
        /// `m` proofs under one key. `y` and, at `spots`, `a`, `d`,
        /// `t1` and `t2` are below `2^256 − p`, so `p + e` is a 256-bit
        /// word for each of them.
        fn new(gp: &GroupParams, m: usize, spots: &[usize], rng: &mut StdRng) -> Witness {
            let room = U256::ZERO.wrapping_sub(gp.p());
            let fits = |e: &GroupElement| e.0 < room;
            let x = loop {
                let x = gp.random_scalar(rng);
                if fits(&gp.g_pow(&x)) {
                    break x;
                }
            };
            let (mut bases, mut nonces, mut powers) = (Vec::new(), Vec::new(), Vec::new());
            for j in 0..m {
                let small = spots.contains(&j);
                let (a, d) = loop {
                    let a = gp.random_element(rng);
                    let d = gp.pow(&a, &x);
                    if !small || fits(&a) && fits(&d) {
                        break (a, d);
                    }
                };
                let (w, t1, t2) = loop {
                    let w = gp.random_scalar(rng);
                    let (t1, t2) = (gp.g_pow(&w), gp.pow(&a, &w));
                    if !small || fits(&t1) && fits(&t2) {
                        break (w, t1, t2);
                    }
                };
                bases.push(a);
                nonces.push(w);
                powers.push([d, t1, t2]);
            }
            Witness {
                x,
                y: gp.g_pow(&x),
                bases,
                nonces,
                powers,
            }
        }

        /// The batch with element `part` of proof `j` (of every proof,
        /// for `y`) replaced by `value` of it. Every proof is made again
        /// over what it sends: `d`, `t1` and `t2`, unless replaced, are
        /// the powers of the sent `a` reduced mod `p`, and the response
        /// answers the challenge over the sent statement. So `p + e`
        /// passes both equations, and `p − e` or `p − 1` the weighted
        /// ones whenever the sign cancels: membership alone stops them.
        fn tampered(
            &self,
            gp: &GroupParams,
            part: Part,
            j: usize,
            value: impl Fn(&U256) -> U256,
        ) -> (GroupElement, Vec<(GroupElement, GroupElement, DleqProof)>) {
            let swap = |which: Part, i: usize, e: GroupElement| {
                let hit = which == part && (part == Part::Y || i == j);
                if hit {
                    GroupElement(value(&e.0))
                } else {
                    e
                }
            };
            let y = swap(Part::Y, 0, self.y);
            let claims = (0..self.bases.len())
                .map(|i| {
                    let (x, w) = (&self.x, &self.nonces[i]);
                    let a = swap(Part::A, i, self.bases[i]);
                    let [d, t1, t2] = if a == self.bases[i] {
                        self.powers[i]
                    } else {
                        let real = GroupElement(gp.p_modulus().reduce(&a.0));
                        [gp.pow(&real, x), gp.g_pow(w), gp.pow(&real, w)]
                    };
                    let d = swap(Part::D, i, d);
                    let commits = (swap(Part::T1, i, t1), swap(Part::T2, i, t2));
                    let t = &mut batch_transcript(i);
                    (a, d, DleqProof::respond(gp, x, &a, &y, &d, t, w, commits))
                })
                .collect();
            (y, claims)
        }

        fn honest(
            &self,
            gp: &GroupParams,
        ) -> (GroupElement, Vec<(GroupElement, GroupElement, DleqProof)>) {
            self.tampered(gp, Part::A, usize::MAX, |e| *e)
        }
    }

    /// The values a tamper case puts in place of an element `e`, none of
    /// them a member: zero, `p` and `p + e` (zero and `e` mod `p`), all
    /// ones, `p − 1` (order 2) and `p − e` (`−e`, outside the subgroup
    /// since `−1` is).
    #[allow(clippy::type_complexity)]
    fn non_members(gp: &GroupParams) -> [(&'static str, Box<dyn Fn(&U256) -> U256>); 6] {
        let p = *gp.p();
        [
            ("0", Box::new(|_| U256::ZERO)),
            ("p", Box::new(move |_| p)),
            ("p + e", Box::new(move |e| p.wrapping_add(e))),
            ("2^256 − 1", Box::new(|_| U256::MAX)),
            ("p − 1", Box::new(move |_| p.wrapping_sub(&U256::ONE))),
            ("−e", Box::new(move |e| p.wrapping_sub(e))),
        ]
    }

    /// Every non-member value in place of `a`, `d`, `t1`, `t2` and `y`,
    /// in the first batch (lanes 0, 7, 8 and 15: each chain's ends) and
    /// in the short last one: the batch names the cell the scan names,
    /// at every thread count. A verifier that let any of them through
    /// membership would accept `p + e`, and `−e` or `p − 1` wherever
    /// the sign cancels in the weighted products.
    #[test]
    fn batch_rejects_non_members_in_every_lane() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(16);
        let spots = [0, 7, 8, 15, BATCH];
        let witness = Witness::new(&gp, BATCH + 1, &spots, &mut rng);
        let (y, honest) = witness.honest(&gp);
        assert_eq!(verify_all(&gp, &y, &honest, 2), Ok(()));
        let mut cases = 0;
        for part in [Part::A, Part::D, Part::T1, Part::T2, Part::Y] {
            let spots: &[usize] = if part == Part::Y { &[0] } else { &spots };
            for (name, value) in &non_members(&gp) {
                for &j in spots {
                    let (y, claims) = witness.tampered(&gp, part, j, value);
                    assert_eq!(scan(&gp, &y, &claims), Err(j), "{part:?} = {name} at {j}");
                    for threads in [1, 2, 5] {
                        assert_eq!(
                            verify_all(&gp, &y, &claims, threads),
                            Err(j),
                            "{part:?} = {name} at {j}, {threads} threads"
                        );
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 4 * 6 * 5 + 6);
    }

    /// Honest batches and tampered ones around the sixteen-proof
    /// batches: the verdict is the scan's at every length and thread
    /// count, with the tampered proof first, in the middle and last.
    #[test]
    fn verify_batch_matches_the_scan_at_every_length() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(17);
        let one = gp.scalar_from_u64(1);
        for m in [1, 15, 16, 17, 33, 64] {
            let spots = [0, m / 2, m - 1];
            let witness = Witness::new(&gp, m, &spots, &mut rng);
            let (y, honest) = witness.honest(&gp);
            let mut cases = vec![(y, honest.clone())];
            for j in spots {
                let mut claims = honest.clone();
                claims[j].2.response = gp.scalar_add(&claims[j].2.response, &one);
                cases.push((y, claims));
                cases.push(witness.tampered(&gp, Part::T1, j, |e| gp.p().wrapping_sub(e)));
                cases.push(witness.tampered(&gp, Part::D, j, |e| gp.p().wrapping_add(e)));
            }
            cases.push(witness.tampered(&gp, Part::Y, 0, |e| gp.p().wrapping_sub(e)));
            for (i, (y, claims)) in cases.iter().enumerate() {
                let expect = scan(&gp, y, claims);
                assert_eq!(expect.is_ok(), i == 0, "m = {m}, case {i}");
                for threads in [1, 2, 5] {
                    assert_eq!(
                        verify_all(&gp, y, claims, threads),
                        expect,
                        "m = {m}, case {i}, {threads} threads"
                    );
                }
            }
        }
    }

    /// A pair of false proofs forged to satisfy both batch equations
    /// with every weight 1: a prover who knows the discrete logs of the
    /// bases picks a wrong `d_1`, recomputes its challenge, and solves
    /// the two unweighted equations for the responses `s_1, s_4`. The
    /// weighted batch must reject it and name proof 1.
    #[test]
    fn batch_rejects_a_pair_forged_against_unit_weights() {
        let gp = GroupParams::default_params();
        let q = gp.q_modulus();
        let mut rng = StdRng::seed_from_u64(13);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let (r, w): (Vec<Scalar>, Vec<Scalar>) = (0..6)
            .map(|_| (gp.random_scalar(&mut rng), gp.random_scalar(&mut rng)))
            .unzip();
        let mut claims: Vec<(GroupElement, GroupElement, DleqProof)> = (0..6)
            .map(|j| {
                let a = gp.g_pow(&r[j]);
                let mut t = batch_transcript(j);
                let (d, proof) = DleqProof::raise_and_prove(&gp, &x, &a, &y, &mut t, &w[j]);
                (a, d, proof)
            })
            .collect();
        assert_eq!(verify_all(&gp, &y, &claims, 2), Ok(()));
        // d_1 = a_1^x · g: log_g d_1 = x·r_1 + 1.
        claims[1].1 = gp.mul(&claims[1].1, &gp.generator());
        let c = |j: usize, claims: &[(GroupElement, GroupElement, DleqProof)]| {
            let (a, d, proof) = &claims[j];
            proof.challenge(&gp, a, &y, d, &mut batch_transcript(j))
        };
        let (c1, c4) = (c(1, &claims), c(4, &claims));
        let (add, mul) = (
            |a: &Scalar, b: &Scalar| gp.scalar_add(a, b),
            |a: &Scalar, b: &Scalar| gp.scalar_mul(a, b),
        );
        // s_1 + s_4 = A makes g^(s_1 + s_4) = t1_1 · t1_4 · y^(c_1 + c_4);
        // r_1 s_1 + r_4 s_4 = B makes a_1^s_1 · a_4^s_4 = t2_1 · t2_4 · d_1^c_1 · d_4^c_4.
        let sum_a = add(&add(&w[1], &w[4]), &mul(&x, &add(&c1, &c4)));
        let log_d1 = add(&mul(&x, &r[1]), &gp.scalar_from_u64(1));
        let sum_b = add(
            &add(&mul(&r[1], &w[1]), &mul(&r[4], &w[4])),
            &add(&mul(&c1, &log_d1), &mul(&c4, &mul(&x, &r[4]))),
        );
        let denominator = Scalar(q.inv_prime(&gp.scalar_sub(&r[4], &r[1]).0));
        let s4 = mul(&gp.scalar_sub(&sum_b, &mul(&r[1], &sum_a)), &denominator);
        claims[4].2.response = s4;
        claims[1].2.response = gp.scalar_sub(&sum_a, &s4);
        // Both unweighted equations hold…
        let (mut lhs1, mut rhs1) = (gp.identity(), gp.identity());
        let (mut lhs2, mut rhs2) = (gp.identity(), gp.identity());
        for (j, (a, d, proof)) in claims.iter().enumerate() {
            let c = c(j, &claims);
            lhs1 = gp.mul(
                &lhs1,
                &gp.mul(&gp.g_pow(&proof.response), &gp.pow(&y, &gp.scalar_neg(&c))),
            );
            rhs1 = gp.mul(&rhs1, &proof.commit_g);
            lhs2 = gp.mul(&lhs2, &gp.pow2(a, &proof.response, d, &gp.scalar_neg(&c)));
            rhs2 = gp.mul(&rhs2, &proof.commit_a);
        }
        assert_eq!(
            (lhs1, lhs2),
            (rhs1, rhs2),
            "the forgery passes unit weights"
        );
        // …while both forged proofs fail alone, and the batch names 1.
        assert_eq!(scan(&gp, &y, &claims), Err(1));
        assert!(!claims[4].2.verify(
            &gp,
            &claims[4].0,
            &y,
            &claims[4].1,
            &mut batch_transcript(4)
        ));
        for threads in [1, 2, 5] {
            assert_eq!(verify_all(&gp, &y, &claims, threads), Err(1));
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
        for _ in 0..20 {
            let (proof, prove) = ops::count(|| {
                DleqProof::prove(&gp, &x, &a, &y, &d, &mut Transcript::new(b"t"), &mut rng)
            });
            // g^w through the table, a^w by the window.
            assert!(prove <= 32 + 331, "prove: {prove}");
            let w = gp.random_scalar(&mut rng);
            let (_, raised) = ops::count(|| {
                DleqProof::raise_and_prove(&gp, &x, &a, &y, &mut Transcript::new(b"t"), &w)
            });
            // a^x and a^w in one comb, g^w through the table: where
            // `exponentiate`'s pow and `prove` paid 331 + 363.
            assert!(raised <= 458 + 32, "raise_and_prove: {raised}");
            let (ok, plain) =
                ops::count(|| proof.verify(&gp, &a, &y, &d, &mut Transcript::new(b"t")));
            // g^s (≤ 32), y^c by the window (≤ 331) and a plain product,
            // two-base a^s·d^-c (≤ 410).
            assert!(ok && plain <= 32 + 331 + 2 + 410, "verify: {plain}");
        }
    }

    /// The batch's cost in kernel calls, exactly on the lane path,
    /// padding included, at m = 516 (32 full batches and one of four):
    ///
    /// * membership: per sixteen-proof batch, four lane batches of
    ///   `x^q` (a short batch padded to eight or sixteen lanes);
    /// * per proof, the challenge and the two weighted exponents;
    /// * the three products, each sixteen windows a lane-kernel call
    ///   ([`lanes::bucket_batch`], 4-bit windows over the 64-bit weights,
    ///   8-bit over the 256-bit `a`/`d` exponents), then the windows
    ///   into Montgomery form and joined;
    /// * `g^(Σ ρ s) · y^(Σ ρ c)`, recomputed here.
    ///
    /// Elsewhere the parent's bound holds: ≤ 116 per proof (where a
    /// verifier with a table for `y` paid ≤ 538 per proof: a 4-bit
    /// table's 64 for g^s, 64 for y^c, 410 for a^s·d^-c).
    #[test]
    fn batch_kernel_calls_are_pinned() {
        use crate::modarith::ops;
        let gp = GroupParams::default_params();
        let (p, q) = (gp.p_modulus(), gp.q_modulus());
        let mut rng = StdRng::seed_from_u64(12);
        let m = 32 * BATCH + 4;
        let (y, claims) = honest_batch(&gp, m, &mut rng);
        let (ok, calls) = ops::count(|| verify_all(&gp, &y, &claims, 1));
        assert_eq!(ok, Ok(()));
        let lanes = lanes::pow_batch(&Radix::new(p), &[], &U256::ONE).is_some();
        if !lanes {
            assert!(
                calls <= 116 * m as u64,
                "verify_batch: {} per proof",
                calls / m as u64
            );
            return;
        }
        let padded = |n: usize| if n > lanes::LANES { BATCH } else { lanes::LANES } as u64;
        let pow_q = ops::count(|| p.pow(&U256::from_u64(2), gp.q())).1;
        let membership = 4 * (32 * padded(BATCH) + padded(4)) * pow_q;
        let (rows, per_proof) = ops::count(|| {
            claims
                .iter()
                .enumerate()
                .map(|(j, (a, d, proof))| {
                    let c = proof.challenge(&gp, a, &y, d, &mut batch_transcript(j));
                    let s = q.reduce(&proof.response.0);
                    (c.0, s, [a.0, d.0, proof.commit_g.0, proof.commit_a.0])
                })
                .collect::<Vec<_>>()
        });
        let rho = batch_weights(&y, &rows);
        let (mut sum_s, mut sum_c, mut bits) = (U256::ZERO, U256::ZERO, 0);
        let (exps, weighted) = ops::count(|| {
            rows.iter()
                .zip(&rho)
                .map(|((c, s, _), r)| (q.mul(r, s), q.neg(&q.mul(r, c))))
                .collect::<Vec<_>>()
        });
        for (u, v) in &exps {
            (sum_s, sum_c) = (q.add(&sum_s, u), q.add(&sum_c, v));
            bits = bits.max(u.bits()).max(v.bits());
        }
        let lhs = ops::count(|| gp.mul(&gp.g_pow(&Scalar(sum_s)), &gp.pow(&y, &Scalar(sum_c)))).1;
        // One bucket product over `n` bases: per call, the lanes' radix
        // conversions, a product per base, the fold and the way out;
        // then the windows in and the join.
        let product = |n: usize, bits: u32, width: u32| {
            let windows = bits.div_ceil(width) as usize;
            let lanes: u64 = (0..windows)
                .step_by(BATCH)
                .map(|w| {
                    let l = padded(windows.min(w + BATCH) - w);
                    l * (n.div_ceil(l as usize) + n + (2 << width) - 4 + 1) as u64
                })
                .sum();
            lanes + (windows + (windows - 1) * (width as usize + 1) + 1) as u64
        };
        let rho_bits = rho.iter().map(U256::bits).max().unwrap();
        assert_eq!((rho_bits, bits), (64, 255));
        assert_eq!((per_proof, weighted), (0, 4 * m as u64));
        let products = 2 * product(m, 64, 4) + product(2 * m, 255, 8);
        assert_eq!(calls, membership + weighted + products + lhs);
        // ≈ 1 318 per proof for membership and ≈ 136 for the products,
        // lane products at about a tenth of a scalar one each.
        assert_eq!(calls / m as u64, 1_459);
    }

    /// SHA-256 compressions, exactly, on the kernel path and the scalar
    /// one alike. A hash of `L` bytes costs ⌈(L + 9) / 64⌉ blocks. A DLEQ
    /// challenge appends 272 bytes to the transcript (five elements of
    /// 32 bytes under 6- and 7-byte labels, each with two 8-byte
    /// lengths) and its 14-byte label, then hashes the digest to a
    /// scalar: 27 + 20 + 32 = 79 bytes, 2 blocks. The weights of `m`
    /// proofs hash 63 + 64m bytes to a seed (m + 2 blocks) and expand
    /// it one 40-byte block per four weights.
    #[test]
    fn dleq_compressions_are_pinned() {
        use crate::sha256::compressions;
        let blocks = |len: u64| (len + 9).div_ceil(64);
        // `Transcript::new(b"t")` holds 32 bytes, `batch_transcript(j)` 61.
        assert_eq!(blocks(32 + 272 + 14) + 2, 8);
        assert_eq!(blocks(61 + 272 + 14) + 2, 8);
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(13);
        let x = gp.random_scalar(&mut rng);
        let a = gp.random_element(&mut rng);
        let y = gp.g_pow(&x);
        let w = gp.random_scalar(&mut rng);
        for scalar in [false, true] {
            let ((d, proof), raised) = compressions::count(scalar, || {
                DleqProof::raise_and_prove(&gp, &x, &a, &y, &mut Transcript::new(b"t"), &w)
            });
            assert_eq!(raised, 8, "raise_and_prove, scalar {scalar}");
            let m = 2 * BATCH + 1;
            let (bases, nonces) = (vec![a; m], vec![w; m]);
            let (all, batch) = compressions::count(scalar, || {
                let t = |_| Transcript::new(b"t");
                DleqProof::raise_and_prove_all(&gp, &x, &bases, &y, t, &nonces, 1)
            });
            assert_eq!(all, vec![(d, proof); m]);
            assert_eq!(batch, 8 * m as u64, "raise_and_prove_all, scalar {scalar}");
            let (ok, verified) = compressions::count(scalar, || {
                proof.verify(&gp, &a, &y, &d, &mut Transcript::new(b"t"))
            });
            assert!(ok);
            assert_eq!(verified, 8, "verify, scalar {scalar}");
            for m in [1u64, 4, 5, 16, 33] {
                let rows = vec![(U256::ONE, U256::ONE, [U256::ONE; 4]); m as usize];
                let (rho, weights) = compressions::count(scalar, || batch_weights(&y, &rows));
                assert_eq!(rho.len() as u64, m);
                assert_eq!(
                    weights,
                    m + 2 + m.div_ceil(4),
                    "weights of {m}, scalar {scalar}"
                );
                let (y, claims) = honest_batch(&gp, m as usize, &mut rng);
                let (ok, batch) = compressions::count(scalar, || verify_all(&gp, &y, &claims, 1));
                assert_eq!(ok, Ok(()));
                // Every challenge, then the weights.
                assert_eq!(batch, 8 * m + m + 2 + m.div_ceil(4), "batch of {m}");
            }
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

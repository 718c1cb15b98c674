//! ElGamal encryption over the Schnorr group, with the homomorphic
//! operations PSC relies on: rerandomization, ciphertext multiplication,
//! plaintext exponentiation, and distributed (multi-party) decryption.
//!
//! A ciphertext is `(a, b) = (g^r, m · y^r)`. Multiplying ciphertexts
//! multiplies plaintexts; raising both components to `k` raises the
//! plaintext to `k` (used by PSC computation parties to randomize
//! non-identity values while fixing the identity); rerandomization
//! multiplies in a fresh encryption of the identity.

use crate::group::{GroupElement, GroupParams, Scalar};
use crate::hmac::{stream_decrypt, stream_encrypt};
use rand::Rng;

/// An ElGamal public key `y = g^x`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub GroupElement);

/// An ElGamal secret key `x`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecretKey(pub Scalar);

/// An ElGamal ciphertext `(a, b) = (g^r, m·y^r)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ciphertext {
    /// `g^r`
    pub a: GroupElement,
    /// `m · y^r`
    pub b: GroupElement,
}

/// A keypair.
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    /// Public half.
    pub public: PublicKey,
    /// Secret half.
    pub secret: SecretKey,
}

/// Generates a fresh keypair.
pub fn keygen<R: Rng + ?Sized>(gp: &GroupParams, rng: &mut R) -> KeyPair {
    let x = gp.random_nonzero_scalar(rng);
    KeyPair {
        public: PublicKey(gp.g_pow(&x)),
        secret: SecretKey(x),
    }
}

/// Combines public-key shares `y_i = g^{x_i}` into the joint key
/// `y = g^{Σ x_i}` (PSC distributed keygen).
pub fn combine_public_keys(gp: &GroupParams, shares: &[PublicKey]) -> PublicKey {
    assert!(!shares.is_empty(), "need at least one key share");
    let mut acc = gp.identity();
    for s in shares {
        acc = gp.mul(&acc, &s.0);
    }
    PublicKey(acc)
}

/// Encrypts `m` under `y` with fresh randomness.
pub fn encrypt<R: Rng + ?Sized>(
    gp: &GroupParams,
    y: &PublicKey,
    m: &GroupElement,
    rng: &mut R,
) -> Ciphertext {
    let r = gp.random_scalar(rng);
    encrypt_with(gp, y, m, &r)
}

/// Encrypts with caller-chosen randomness (used by proofs and tests).
pub fn encrypt_with(gp: &GroupParams, y: &PublicKey, m: &GroupElement, r: &Scalar) -> Ciphertext {
    Ciphertext {
        a: gp.g_pow(r),
        b: gp.mul(m, &gp.pow(&y.0, r)),
    }
}

/// Decrypts with a single full secret key.
pub fn decrypt(gp: &GroupParams, sk: &SecretKey, ct: &Ciphertext) -> GroupElement {
    let shared = gp.pow(&ct.a, &sk.0);
    gp.div(&ct.b, &shared)
}

/// Homomorphic multiplication: plaintexts multiply.
pub fn mul_ciphertexts(gp: &GroupParams, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
    Ciphertext {
        a: gp.mul(&c1.a, &c2.a),
        b: gp.mul(&c1.b, &c2.b),
    }
}

/// Rerandomizes `ct` with fresh `s`: same plaintext, fresh randomness.
pub fn rerandomize<R: Rng + ?Sized>(
    gp: &GroupParams,
    y: &PublicKey,
    ct: &Ciphertext,
    rng: &mut R,
) -> Ciphertext {
    let s = gp.random_scalar(rng);
    rerandomize_with(gp, y, ct, &s)
}

/// Rerandomizes with caller-chosen randomness.
pub fn rerandomize_with(
    gp: &GroupParams,
    y: &PublicKey,
    ct: &Ciphertext,
    s: &Scalar,
) -> Ciphertext {
    Ciphertext {
        a: gp.mul(&ct.a, &gp.g_pow(s)),
        b: gp.mul(&ct.b, &gp.pow(&y.0, s)),
    }
}

/// Raises the plaintext to `k` by exponentiating both components.
/// The identity stays the identity; everything else is randomized when
/// `k` is random (PSC's zero-preserving randomization).
pub fn exponentiate(gp: &GroupParams, ct: &Ciphertext, k: &Scalar) -> Ciphertext {
    Ciphertext {
        a: gp.pow(&ct.a, k),
        b: gp.pow(&ct.b, k),
    }
}

/// One party's contribution to distributed decryption: `d_i = a^{x_i}`.
pub fn partial_decrypt(gp: &GroupParams, share: &SecretKey, ct: &Ciphertext) -> GroupElement {
    gp.pow(&ct.a, &share.0)
}

/// Combines partial decryptions: `m = b / Π d_i`.
pub fn combine_partial_decryptions(
    gp: &GroupParams,
    ct: &Ciphertext,
    partials: &[GroupElement],
) -> GroupElement {
    let mut denom = gp.identity();
    for d in partials {
        denom = gp.mul(&denom, d);
    }
    gp.div(&ct.b, &denom)
}

/// Hybrid encryption: ElGamal KEM + HMAC-stream DEM. Used by PrivCount
/// DCs to deliver blinding shares to Share Keepers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridCiphertext {
    /// Ephemeral KEM share `g^r`.
    pub kem: GroupElement,
    /// Stream-encrypted payload.
    pub payload: Vec<u8>,
}

/// Encrypts an arbitrary byte payload to `y`.
pub fn hybrid_encrypt<R: Rng + ?Sized>(
    gp: &GroupParams,
    y: &PublicKey,
    plaintext: &[u8],
    rng: &mut R,
) -> HybridCiphertext {
    let r = gp.random_nonzero_scalar(rng);
    let kem = gp.g_pow(&r);
    let shared = gp.pow(&y.0, &r);
    let payload = stream_encrypt(&shared.to_bytes(), b"pm-crypto/hybrid/v1", plaintext);
    HybridCiphertext { kem, payload }
}

/// Decrypts a [`HybridCiphertext`].
pub fn hybrid_decrypt(gp: &GroupParams, sk: &SecretKey, ct: &HybridCiphertext) -> Vec<u8> {
    let shared = gp.pow(&ct.kem, &sk.0);
    stream_decrypt(&shared.to_bytes(), b"pm-crypto/hybrid/v1", &ct.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GroupParams, KeyPair, StdRng) {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(42);
        let kp = keygen(&gp, &mut rng);
        (gp, kp, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (gp, kp, mut rng) = setup();
        for _ in 0..10 {
            let m = gp.random_element(&mut rng);
            let ct = encrypt(&gp, &kp.public, &m, &mut rng);
            assert_eq!(decrypt(&gp, &kp.secret, &ct), m);
        }
    }

    #[test]
    fn homomorphic_multiplication() {
        let (gp, kp, mut rng) = setup();
        let m1 = gp.random_element(&mut rng);
        let m2 = gp.random_element(&mut rng);
        let c1 = encrypt(&gp, &kp.public, &m1, &mut rng);
        let c2 = encrypt(&gp, &kp.public, &m2, &mut rng);
        let prod = mul_ciphertexts(&gp, &c1, &c2);
        assert_eq!(decrypt(&gp, &kp.secret, &prod), gp.mul(&m1, &m2));
    }

    #[test]
    fn rerandomization_preserves_plaintext_changes_ciphertext() {
        let (gp, kp, mut rng) = setup();
        let m = gp.random_element(&mut rng);
        let ct = encrypt(&gp, &kp.public, &m, &mut rng);
        let rr = rerandomize(&gp, &kp.public, &ct, &mut rng);
        assert_ne!(ct, rr);
        assert_eq!(decrypt(&gp, &kp.secret, &rr), m);
    }

    #[test]
    fn exponentiation_fixes_identity_randomizes_rest() {
        let (gp, kp, mut rng) = setup();
        let k = gp.random_nonzero_scalar(&mut rng);
        let id_ct = encrypt(&gp, &kp.public, &gp.identity(), &mut rng);
        let id_exp = exponentiate(&gp, &id_ct, &k);
        assert_eq!(decrypt(&gp, &kp.secret, &id_exp), gp.identity());

        let m = gp.random_non_identity(&mut rng);
        let m_ct = encrypt(&gp, &kp.public, &m, &mut rng);
        let m_exp = exponentiate(&gp, &m_ct, &k);
        let pt = decrypt(&gp, &kp.secret, &m_exp);
        assert_ne!(pt, gp.identity());
        assert_eq!(pt, gp.pow(&m, &k));
    }

    #[test]
    fn distributed_decryption() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(43);
        let shares: Vec<KeyPair> = (0..3).map(|_| keygen(&gp, &mut rng)).collect();
        let joint = combine_public_keys(&gp, &shares.iter().map(|k| k.public).collect::<Vec<_>>());
        let m = gp.random_element(&mut rng);
        let ct = encrypt(&gp, &joint, &m, &mut rng);
        let partials: Vec<GroupElement> = shares
            .iter()
            .map(|k| partial_decrypt(&gp, &k.secret, &ct))
            .collect();
        assert_eq!(combine_partial_decryptions(&gp, &ct, &partials), m);
        // Missing a partial decryption must NOT recover the plaintext.
        assert_ne!(combine_partial_decryptions(&gp, &ct, &partials[..2]), m);
    }

    #[test]
    fn deterministic_encrypt_with() {
        let (gp, kp, mut rng) = setup();
        let m = gp.random_element(&mut rng);
        let r = gp.random_scalar(&mut rng);
        assert_eq!(
            encrypt_with(&gp, &kp.public, &m, &r),
            encrypt_with(&gp, &kp.public, &m, &r)
        );
    }

    #[test]
    fn hybrid_roundtrip() {
        let (gp, kp, mut rng) = setup();
        let msg = b"per-counter blinding shares: [1, 2, 3]".to_vec();
        let ct = hybrid_encrypt(&gp, &kp.public, &msg, &mut rng);
        assert_eq!(hybrid_decrypt(&gp, &kp.secret, &ct), msg);
        // Wrong key garbles.
        let other = keygen(&gp, &mut rng);
        assert_ne!(hybrid_decrypt(&gp, &other.secret, &ct), msg);
    }

    #[test]
    fn hybrid_empty_payload() {
        let (gp, kp, mut rng) = setup();
        let ct = hybrid_encrypt(&gp, &kp.public, b"", &mut rng);
        assert_eq!(hybrid_decrypt(&gp, &kp.secret, &ct), Vec::<u8>::new());
    }
}

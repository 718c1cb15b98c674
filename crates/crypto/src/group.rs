//! Schnorr group: the prime-order-`q` subgroup of `Z_p^*` for a safe
//! prime `p = 2q + 1`.
//!
//! Group elements are quadratic residues mod `p`; exponents live in
//! `Z_q`. [`GroupParams`] bundles both moduli and the generator and is the
//! handle through which all group operations are performed (elements and
//! scalars are inert data).
//!
//! # Membership is a Jacobi symbol
//!
//! `Z_p^*` is cyclic of order `p - 1 = 2q`, so it has exactly one
//! subgroup of index two — the squares — and that subgroup has order
//! `q`: for a safe prime the order-`q` subgroup *is* the set of
//! quadratic residues. By Euler's criterion `x^q = x^((p-1)/2)` is the
//! Legendre symbol `(x/p)`, so the textbook test `x^q == 1` and
//! `(x/p) == 1` accept exactly the same `x`, and
//! [`GroupParams::is_element`] evaluates the symbol with the binary
//! Jacobi algorithm ([`crate::modarith::jacobi`]: shifts and
//! subtractions, no exponentiation, ≈ 1.65 µs on a 2.1 GHz Xeon where
//! `x^q` by [`Modulus::pow`] takes ≈ 7.9 µs). The `x^q` form is kept as
//! the test oracle, and it is also what a batch of proof checks uses on
//! a CPU with AVX-512 IFMA: sixteen values' `x^q` in one shared-exponent
//! lane batch cost ≈ 1.08 µs a value (`crate::lanes`), so
//! [`crate::zkp::DleqProof::verify_batch`] tests its elements that way
//! and keeps the Jacobi symbol for CPUs without the lanes.
//!
//! # The generator's table
//!
//! `g` is the base of most exponentiations in the system, so the
//! shipped parameter set gets one process-wide fixed-base table
//! ([`crate::batch::FixedBasePowers`], 256 KiB, built on first use) and
//! [`GroupParams::g_pow`] goes through it. `GroupParams` stays a small
//! `Copy` value: the table hangs off a `OnceLock` keyed on the shipped
//! `(p, g)`, not off the struct, and other parameter sets
//! ([`GroupParams::generate`]) fall back to [`GroupParams::pow`]. As
//! everywhere in this crate, none of it is constant-time.

use crate::batch::{par_batches, FixedBasePowers};
use crate::lanes::{self, Radix, BATCH};
use crate::modarith::{is_probable_prime, jacobi, Modulus};
use crate::sha256::Sha256;
use crate::u256::U256;
use rand::Rng;
use std::sync::OnceLock;

/// An element of the order-`q` subgroup of `Z_p^*` (a quadratic residue).
///
/// Elements are produced and consumed by [`GroupParams`] methods; the raw
/// value is exposed for serialization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupElement(pub U256);

/// An exponent in `Z_q`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Scalar(pub U256);

/// Schnorr group parameters: safe prime `p = 2q + 1`, subgroup order `q`,
/// generator `g` of the order-`q` subgroup.
#[derive(Clone, Copy, Debug)]
pub struct GroupParams {
    p: Modulus,
    q: Modulus,
    g: GroupElement,
}

/// The shipped 256-bit demo parameter set (see crate-level security
/// disclaimer). Found by [`GroupParams::generate`]-equivalent search and
/// re-verified by unit tests.
pub const P_HEX: &str = "c2439cbcc58815e040399147572be16ffa35ecf9ae875e83f2442af7f86ef7fb";
/// Subgroup order for [`P_HEX`]: `q = (p - 1) / 2`.
pub const Q_HEX: &str = "6121ce5e62c40af0201cc8a3ab95f0b7fd1af67cd743af41f922157bfc377bfd";
/// Generator of the order-`q` subgroup for [`P_HEX`].
pub const G_HEX: &str = "4";

impl GroupParams {
    /// Returns the shipped 256-bit parameter set.
    pub fn default_params() -> GroupParams {
        let p = U256::from_hex(P_HEX).expect("valid hex");
        let q = U256::from_hex(Q_HEX).expect("valid hex");
        let g = U256::from_hex(G_HEX).expect("valid hex");
        GroupParams {
            p: Modulus::new(p),
            q: Modulus::new(q),
            g: GroupElement(g),
        }
    }

    /// Generates fresh parameters: a random safe prime with `bits`
    /// significant bits (`bits` ≤ 256) and the generator `h^2` for the
    /// smallest suitable `h`. Slow (safe primes are sparse); used for
    /// parameter rotation, not per-run setup.
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> GroupParams {
        assert!((16..=256).contains(&bits), "bits must be in [16, 256]");
        loop {
            // Random (bits-1)-bit odd q with top bit set.
            let qbits = bits - 1;
            let mut limbs = [0u64; 4];
            let top_limb = ((qbits - 1) / 64) as usize;
            for l in limbs.iter_mut().take(top_limb + 1) {
                *l = rng.gen();
            }
            let top_bit = (qbits - 1) % 64;
            limbs[top_limb] &= (1u64 << top_bit) | ((1u64 << top_bit) - 1);
            limbs[top_limb] |= 1u64 << top_bit;
            for l in limbs.iter_mut().skip(top_limb + 1) {
                *l = 0;
            }
            limbs[0] |= 1;
            let q = U256(limbs);
            if !is_probable_prime(&q, 2, rng) {
                continue;
            }
            let p = q.shl(1).wrapping_add(&U256::ONE);
            if !is_probable_prime(&p, 2, rng) {
                continue;
            }
            if !is_probable_prime(&q, 40, rng) || !is_probable_prime(&p, 40, rng) {
                continue;
            }
            let pm = Modulus::new(p);
            let mut g = U256::from_u64(4);
            for h in 2u64.. {
                let cand = pm.mul(&U256::from_u64(h), &U256::from_u64(h));
                if cand != U256::ONE {
                    g = cand;
                    break;
                }
            }
            return GroupParams {
                p: pm,
                q: Modulus::new(q),
                g: GroupElement(g),
            };
        }
    }

    /// The generator.
    pub fn generator(&self) -> GroupElement {
        self.g
    }

    /// The identity element.
    pub fn identity(&self) -> GroupElement {
        GroupElement(U256::ONE)
    }

    /// Prime modulus `p`.
    pub fn p(&self) -> &U256 {
        self.p.modulus()
    }

    /// Subgroup order `q`.
    pub fn q(&self) -> &U256 {
        self.q.modulus()
    }

    /// Group operation: `a * b mod p`.
    pub fn mul(&self, a: &GroupElement, b: &GroupElement) -> GroupElement {
        GroupElement(self.p.mul(&a.0, &b.0))
    }

    /// Inverse element: `a^-1 mod p`.
    pub fn inv(&self, a: &GroupElement) -> GroupElement {
        GroupElement(self.p.inv_prime(&a.0))
    }

    /// `a / b` in the group.
    pub fn div(&self, a: &GroupElement, b: &GroupElement) -> GroupElement {
        self.mul(a, &self.inv(b))
    }

    /// Exponentiation `base^e mod p`.
    pub fn pow(&self, base: &GroupElement, e: &Scalar) -> GroupElement {
        GroupElement(self.p.pow(&base.0, &e.0))
    }

    /// `base^e` for every base, in order: the same elements as mapping
    /// [`Self::pow`]. On a CPU with AVX-512F and AVX-512 IFMA the bases
    /// go sixteen at a time through the lane kernel (two eight-lane
    /// chains; a short last batch is padded to eight or sixteen), at
    /// about a tenth of the scalar cost; elsewhere each batch runs
    /// [`Self::pow`]. Batches are spread over `threads` threads
    /// ([`crate::batch::par_map_indexed`]).
    pub fn pow_all(&self, bases: &[GroupElement], e: &Scalar, threads: usize) -> Vec<GroupElement> {
        let k = Radix::new(&self.p);
        par_batches(bases.len(), threads, |range| {
            let batch = &bases[range];
            let values: [U256; BATCH] =
                std::array::from_fn(|i| batch.get(i).map_or(U256::ZERO, |b| b.0));
            lanes::pow_batch(&k, &values[..batch.len()], &e.0)
                .unwrap_or_else(|| {
                    std::array::from_fn(|i| {
                        batch.get(i).map_or(U256::ZERO, |b| self.p.pow(&b.0, &e.0))
                    })
                })
                .map(GroupElement)
        })
    }

    /// `a^x · b^y mod p` in one simultaneous exponentiation
    /// ([`Modulus::pow2`]) — about 0.62× the cost of two [`Self::pow`]s.
    pub(crate) fn pow2(
        &self,
        a: &GroupElement,
        x: &Scalar,
        b: &GroupElement,
        y: &Scalar,
    ) -> GroupElement {
        GroupElement(self.p.pow2(&a.0, &x.0, &b.0, &y.0))
    }

    /// `g^e`, the most common exponentiation: through the process-wide
    /// table for the shipped parameters, [`Self::pow`] otherwise.
    pub fn g_pow(&self, e: &Scalar) -> GroupElement {
        match self.shipped_g_table() {
            Some(table) => table.pow(self, e),
            None => self.pow(&self.g, e),
        }
    }

    /// The process-wide fixed-base table for the shipped generator, if
    /// these are the shipped parameters.
    pub(crate) fn shipped_g_table(&self) -> Option<&'static FixedBasePowers> {
        static SHIPPED: OnceLock<(U256, FixedBasePowers)> = OnceLock::new();
        let (p, table) = SHIPPED.get_or_init(|| {
            let gp = GroupParams::default_params();
            (*gp.p(), FixedBasePowers::new(&gp, &gp.g))
        });
        (self.p.modulus() == p && self.g == *table.base()).then_some(table)
    }

    /// The modulus context for `p` (crate-internal: Montgomery-resident
    /// callers multiply through it directly).
    pub(crate) fn p_modulus(&self) -> &Modulus {
        &self.p
    }

    /// The modulus context for `q` (crate-internal: exponent arithmetic
    /// without the `Scalar` wrapper).
    pub(crate) fn q_modulus(&self) -> &Modulus {
        &self.q
    }

    /// `(base^x, base^y)` in one comb ([`Modulus::pow_pair`]) — about
    /// 0.69× the cost of two [`Self::pow`]s.
    pub(crate) fn pow_pair(
        &self,
        base: &GroupElement,
        x: &Scalar,
        y: &Scalar,
    ) -> (GroupElement, GroupElement) {
        let (bx, by) = self.p.pow_pair(&base.0, &x.0, &y.0);
        (GroupElement(bx), GroupElement(by))
    }

    /// True if `x` is a valid element of the order-`q` subgroup:
    /// `0 < x < p` and `(x/p) = 1` (exact for `p = 2q + 1`; see the
    /// module docs).
    pub fn is_element(&self, x: &GroupElement) -> bool {
        !x.0.is_zero() && x.0 < *self.p.modulus() && jacobi(&x.0, self.p.modulus()) == 1
    }

    /// [`Self::is_element`] of up to [`BATCH`] values (entries past
    /// `xs.len()` are `false`). On a CPU with AVX-512F and AVX-512 IFMA
    /// by the subgroup's definition, [`Self::is_element_by_order`]'s
    /// `0 < x < p` and `x^q == 1`, the powers one shared-exponent lane
    /// batch ([`lanes::pow_batch`]); elsewhere a Jacobi symbol per value.
    pub(crate) fn are_elements(&self, k: &Radix, xs: &[U256]) -> [bool; BATCH] {
        let in_range = |x: &U256| !x.is_zero() && x < self.p.modulus();
        match lanes::pow_batch(k, xs, self.q.modulus()) {
            Some(powers) => {
                std::array::from_fn(|i| i < xs.len() && in_range(&xs[i]) && powers[i] == U256::ONE)
            }
            None => std::array::from_fn(|i| {
                xs.get(i)
                    .is_some_and(|x| self.is_element(&GroupElement(*x)))
            }),
        }
    }

    /// Membership by the subgroup's definition, `x^q == 1`: the
    /// exponentiation [`Self::is_element`] avoids, kept as its oracle.
    #[cfg(test)]
    fn is_element_by_order(&self, x: &GroupElement) -> bool {
        !x.0.is_zero() && x.0 < *self.p.modulus() && self.p.pow(&x.0, self.q.modulus()) == U256::ONE
    }

    /// Uniformly random group element (`g^r` for random `r`).
    pub fn random_element<R: Rng + ?Sized>(&self, rng: &mut R) -> GroupElement {
        self.g_pow(&self.random_scalar(rng))
    }

    /// Uniformly random non-identity element.
    pub fn random_non_identity<R: Rng + ?Sized>(&self, rng: &mut R) -> GroupElement {
        loop {
            let e = self.random_element(rng);
            if e != self.identity() {
                return e;
            }
        }
    }

    // ----- scalar (exponent) arithmetic, mod q -----

    /// Uniformly random scalar in `[0, q)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        Scalar(self.q.sample(rng))
    }

    /// Uniformly random nonzero scalar.
    pub fn random_nonzero_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        Scalar(self.q.sample_nonzero(rng))
    }

    /// Scalar from a small integer.
    pub fn scalar_from_u64(&self, x: u64) -> Scalar {
        Scalar(self.q.reduce(&U256::from_u64(x)))
    }

    /// `(a + b) mod q`.
    pub fn scalar_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(self.q.add(&a.0, &b.0))
    }

    /// `(a - b) mod q`.
    pub fn scalar_sub(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(self.q.sub(&a.0, &b.0))
    }

    /// `(a * b) mod q`.
    pub fn scalar_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(self.q.mul(&a.0, &b.0))
    }

    /// `-a mod q`.
    pub fn scalar_neg(&self, a: &Scalar) -> Scalar {
        Scalar(self.q.neg(&a.0))
    }

    /// Hashes labeled byte strings to a scalar (Fiat–Shamir and
    /// item-to-exponent mapping). Domain-separated by `label`.
    pub(crate) fn hash_to_scalar(&self, label: &[u8], parts: &[&[u8]]) -> Scalar {
        let mut h = Sha256::new();
        h.update(b"pm-crypto/hash-to-scalar/v1");
        h.update(label);
        for part in parts {
            h.update(part);
        }
        Scalar(self.q.reduce(&U256::from_bytes_be(&h.finalize())))
    }
}

impl GroupElement {
    /// Canonical 32-byte big-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes_be()
    }

    /// Decodes an encoding produced by [`GroupElement::to_bytes`].
    /// The caller must validate membership via [`GroupParams::is_element`].
    pub fn from_bytes(b: &[u8; 32]) -> GroupElement {
        GroupElement(U256::from_bytes_be(b))
    }
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar(U256::ZERO);

    /// Canonical 32-byte big-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes_be()
    }

    /// Decodes a scalar; the caller must ensure it is reduced mod `q`.
    pub fn from_bytes(b: &[u8; 32]) -> Scalar {
        Scalar(U256::from_bytes_be(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modarith::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> GroupParams {
        GroupParams::default_params()
    }

    #[test]
    fn shipped_params_are_safe_prime_group() {
        let gp = params();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(is_probable_prime(gp.p(), 40, &mut rng), "p must be prime");
        assert!(is_probable_prime(gp.q(), 40, &mut rng), "q must be prime");
        // p = 2q + 1
        assert_eq!(gp.q().shl(1).wrapping_add(&U256::ONE), *gp.p());
        // g generates the order-q subgroup
        assert!(gp.is_element(&gp.generator()));
        assert_ne!(gp.generator(), gp.identity());
    }

    #[test]
    fn group_laws() {
        let gp = params();
        let mut rng = StdRng::seed_from_u64(2);
        let a = gp.random_element(&mut rng);
        let b = gp.random_element(&mut rng);
        let c = gp.random_element(&mut rng);
        // associativity, commutativity, identity, inverse
        assert_eq!(gp.mul(&gp.mul(&a, &b), &c), gp.mul(&a, &gp.mul(&b, &c)));
        assert_eq!(gp.mul(&a, &b), gp.mul(&b, &a));
        assert_eq!(gp.mul(&a, &gp.identity()), a);
        assert_eq!(gp.mul(&a, &gp.inv(&a)), gp.identity());
        assert_eq!(gp.div(&gp.mul(&a, &b), &b), a);
    }

    #[test]
    fn exponent_laws() {
        let gp = params();
        let mut rng = StdRng::seed_from_u64(3);
        let x = gp.random_scalar(&mut rng);
        let y = gp.random_scalar(&mut rng);
        // g^(x+y) = g^x g^y
        let lhs = gp.g_pow(&gp.scalar_add(&x, &y));
        let rhs = gp.mul(&gp.g_pow(&x), &gp.g_pow(&y));
        assert_eq!(lhs, rhs);
        // (g^x)^y = (g^y)^x
        assert_eq!(gp.pow(&gp.g_pow(&x), &y), gp.pow(&gp.g_pow(&y), &x));
        // g^q = 1 (order q)
        assert_eq!(
            gp.pow(&gp.generator(), &Scalar(gp.q().wrapping_sub(&U256::ZERO))),
            gp.identity()
        );
    }

    #[test]
    fn scalar_field_laws() {
        let gp = params();
        let mut rng = StdRng::seed_from_u64(4);
        let a = gp.random_nonzero_scalar(&mut rng);
        let b = gp.random_scalar(&mut rng);
        assert_eq!(gp.scalar_add(&b, &gp.scalar_neg(&b)), Scalar::ZERO);
        assert_eq!(gp.scalar_sub(&gp.scalar_add(&a, &b), &b), a);
    }

    #[test]
    fn element_membership() {
        let gp = params();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            assert!(gp.is_element(&gp.random_element(&mut rng)));
        }
        // 0 and p are not elements; a non-residue is not an element.
        assert!(!gp.is_element(&GroupElement(U256::ZERO)));
        assert!(!gp.is_element(&GroupElement(*gp.p())));
        // g is a square; a generator of the full group (order 2q) is not in
        // the subgroup. Find a non-residue by trial.
        let mut found = false;
        for h in 2u64..50 {
            let cand = GroupElement(U256::from_u64(h));
            if !gp.is_element(&cand) {
                found = true;
                break;
            }
        }
        assert!(found, "some small non-residue exists");
    }

    #[test]
    fn jacobi_membership_matches_the_order_test() {
        let gp = params();
        let p = *gp.p();
        for x in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(3),
            gp.generator().0,
            p.wrapping_sub(&U256::ONE),
            p,
            p.wrapping_add(&U256::ONE),
            U256::MAX,
        ] {
            let x = GroupElement(x);
            assert_eq!(gp.is_element(&x), gp.is_element_by_order(&x), "{x:?}");
        }
        // -1 has order 2: never in the odd-order subgroup.
        assert!(!gp.is_element(&GroupElement(p.wrapping_sub(&U256::ONE))));
        let mut rng = StdRng::seed_from_u64(50);
        let (mut members, mut others) = (0, 0);
        for _ in 0..10_000 {
            // Uniform in [0, p): residues and non-residues, half each.
            let x = GroupElement(gp.p.sample(&mut rng));
            let expect = gp.is_element_by_order(&x);
            assert_eq!(gp.is_element(&x), expect, "{x:?}");
            if expect {
                members += 1;
            } else {
                others += 1;
            }
        }
        assert!(members > 4_000 && others > 4_000, "{members} / {others}");
    }

    /// The batch membership against the order test, every edge in every
    /// lane of batches of every length: zero, one, `p − 1` (order 2),
    /// `p`, `p + 1`, `p + g` (`g` mod `p`), all ones, `g`, members and
    /// non-members.
    #[test]
    fn batch_membership_matches_the_order_test_in_every_lane() {
        let gp = params();
        let k = Radix::new(&gp.p);
        let p = *gp.p();
        let mut rng = StdRng::seed_from_u64(52);
        let mut values = vec![
            U256::ZERO,
            U256::ONE,
            p.wrapping_sub(&U256::ONE),
            p,
            p.wrapping_add(&U256::ONE),
            p.wrapping_add(&gp.generator().0),
            U256::MAX,
            gp.generator().0,
        ];
        values.extend((0..24).map(|_| gp.p.sample(&mut rng)));
        for shift in 0..BATCH {
            for n in [shift + 1, BATCH] {
                let xs: Vec<U256> = (0..n).map(|i| values[(i + shift) % values.len()]).collect();
                let got = gp.are_elements(&k, &xs);
                for (i, x) in xs.iter().enumerate() {
                    let x = GroupElement(*x);
                    assert_eq!(
                        got[i],
                        gp.is_element_by_order(&x),
                        "{x:?} in lane {i} of {n}"
                    );
                }
                assert!(got[n..].iter().all(|member| !member), "padding");
            }
        }
        assert_eq!(gp.are_elements(&k, &[]), [false; BATCH]);
    }

    /// On the lanes, a membership batch costs `x^q`'s [`Modulus::pow`]
    /// calls per lane, padding included; the Jacobi symbols make none.
    #[test]
    fn batch_membership_kernel_calls_are_pinned() {
        let gp = params();
        let k = Radix::new(&gp.p);
        let lanes = lanes::pow_batch(&k, &[], &U256::ONE).is_some();
        let pow_q = ops::count(|| gp.p.pow(&U256::from_u64(2), gp.q())).1;
        // q: 63 windows below the top one, 59 of them nonzero.
        assert_eq!(pow_q, 15 + 252 + 59 + 1);
        let xs = vec![gp.generator().0; BATCH];
        for (n, padded) in [(0, 8), (1, 8), (8, 8), (9, 16), (16, 16)] {
            let (members, calls) = ops::count(|| gp.are_elements(&k, &xs[..n]));
            assert!(members[..n].iter().all(|m| *m));
            assert_eq!(calls, if lanes { padded * pow_q } else { 0 }, "n = {n}");
        }
    }

    proptest::proptest! {
        #[test]
        fn jacobi_membership_matches_on_arbitrary_words(limbs in proptest::prelude::any::<[u64; 4]>()) {
            let gp = params();
            let x = GroupElement(U256(limbs));
            proptest::prop_assert_eq!(gp.is_element(&x), gp.is_element_by_order(&x));
        }
    }

    #[test]
    fn generator_table_and_two_base_pow_match_plain_pow() {
        let mut rng = StdRng::seed_from_u64(51);
        // The shipped parameters go through the process-wide table, a
        // generated set through the fallback.
        let small = GroupParams::generate(64, &mut rng);
        assert!(params().shipped_g_table().is_some());
        assert!(small.shipped_g_table().is_none());
        for gp in [params(), small] {
            let g = gp.generator();
            let edges = [
                Scalar::ZERO,
                gp.scalar_from_u64(1),
                Scalar(gp.q().wrapping_sub(&U256::ONE)),
                Scalar(U256::MAX),
            ];
            let random: Vec<Scalar> = (0..20).map(|_| gp.random_scalar(&mut rng)).collect();
            for e in edges.iter().chain(&random) {
                assert_eq!(gp.g_pow(e), gp.pow(&g, e));
            }
            let (a, b) = (gp.random_element(&mut rng), gp.random_element(&mut rng));
            for (x, y) in random.iter().zip(random.iter().rev()) {
                assert_eq!(
                    gp.pow2(&a, x, &b, y),
                    gp.mul(&gp.pow(&a, x), &gp.pow(&b, y))
                );
            }
        }
    }

    #[test]
    fn hash_to_scalar_deterministic_and_domain_separated() {
        let gp = params();
        let a = gp.hash_to_scalar(b"ctx1", &[b"hello"]);
        let b = gp.hash_to_scalar(b"ctx1", &[b"hello"]);
        let c = gp.hash_to_scalar(b"ctx2", &[b"hello"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.0 < *gp.q());
    }

    #[test]
    fn serialization_roundtrip() {
        let gp = params();
        let mut rng = StdRng::seed_from_u64(6);
        let e = gp.random_element(&mut rng);
        assert_eq!(GroupElement::from_bytes(&e.to_bytes()), e);
        let s = gp.random_scalar(&mut rng);
        assert_eq!(Scalar::from_bytes(&s.to_bytes()), s);
    }

    #[test]
    fn generate_small_params() {
        // Fresh 64-bit parameters: fast enough for a unit test and
        // exercises the generation path end-to-end.
        let mut rng = StdRng::seed_from_u64(7);
        let gp = GroupParams::generate(64, &mut rng);
        assert_eq!(gp.p().bits(), 64);
        assert!(gp.is_element(&gp.generator()));
        let x = gp.random_scalar(&mut rng);
        let y = gp.random_scalar(&mut rng);
        assert_eq!(
            gp.g_pow(&gp.scalar_add(&x, &y)),
            gp.mul(&gp.g_pow(&x), &gp.g_pow(&y))
        );
    }
}

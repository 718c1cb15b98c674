//! Batched group operations: fixed-base precomputation and chunked
//! data-parallel maps.
//!
//! A PSC mixing hop performs thousands of exponentiations, and most of
//! them share one of two bases — the group generator `g` (every
//! encryption and rerandomization computes `g^r`) and the joint public
//! key `y` (the matching `y^r`); a verifying tally server adds a third
//! kind, the per-message `exp_key` or key share every Chaum–Pedersen
//! proof of that message is stated under. [`FixedBasePowers`] trades a
//! one-time table build for a ~5× cheaper exponentiation: with a 4-bit
//! window over a 256-bit exponent, `pow` is one product per nonzero
//! window and nothing else.
//!
//! The table is *Montgomery-resident*: entries are stored in Montgomery
//! form, the accumulator stays there, and the value is converted once —
//! by the last product, which in a rerandomization or encryption is
//! the multiplication by the caller's plain operand anyway. That makes an
//! exponentiation at most 64 kernel calls (the windowed
//! [`GroupParams::pow`] takes ≤ 331) and a table rerandomization or
//! encryption at most 128, pinned by this module's op-count tests. The
//! result is the *same group element* as [`GroupParams::pow`] —
//! callers relying on bit-identical transcripts can adopt the tables
//! freely. Like the rest of the crate the lookups are not
//! constant-time.
//!
//! [`par_map_indexed`] is the execution half: it evaluates a pure
//! per-index function over `0..n` on a bounded number of scoped
//! threads, writing each result into its own slot, so the output vector
//! is independent of the thread count by construction.

use crate::elgamal::{Ciphertext, PublicKey};
use crate::group::{GroupElement, GroupParams, Scalar};
use crate::modarith::Mont;
use std::borrow::Cow;

/// 4-bit fixed-window exponentiation table for one base, held in
/// Montgomery form.
///
/// `table[w][j] = base^(j · 2^(4w))` for `j in 0..16`, covering 256-bit
/// exponents with 64 windows (64 × 16 × 32 B = 32 KiB). The width is a
/// measured constant: 5- and 6-bit windows (53 and 88 KiB a table)
/// were swept in PR 16 and moved `ips7d_mix` by less than its run-to-run
/// spread (numbers in CHANGES.md).
#[derive(Clone, Debug)]
pub struct FixedBasePowers {
    base: GroupElement,
    table: Vec<[Mont; 16]>,
}

/// Number of 4-bit windows in a 256-bit exponent.
const WINDOWS: usize = 64;

impl FixedBasePowers {
    /// Builds the window table for `base` (≈ 960 Montgomery products;
    /// amortized over every subsequent [`Self::pow`]).
    pub fn new(gp: &GroupParams, base: &GroupElement) -> FixedBasePowers {
        let p = gp.p_modulus();
        let mut table = Vec::with_capacity(WINDOWS);
        // `step` is base^(2^(4w)) entering window w.
        let mut step = p.mont_in(&base.0);
        for _ in 0..WINDOWS {
            let mut row = [p.mont_one(); 16];
            for j in 1..16 {
                row[j] = p.mont_mul(&row[j - 1], &step);
            }
            // base^(2^(4(w+1))) = (base^(2^(4w)))^16 = row[15] · step.
            step = p.mont_mul(&row[15], &step);
            table.push(row);
        }
        FixedBasePowers { base: *base, table }
    }

    /// The base this table was built for.
    pub fn base(&self) -> &GroupElement {
        &self.base
    }

    /// `base^e` in Montgomery form; `None` for `e = 0`. One product per
    /// nonzero window after the first: ≤ 63.
    #[inline(always)]
    fn pow_mont(&self, gp: &GroupParams, e: &Scalar) -> Option<Mont> {
        let p = gp.p_modulus();
        let limbs = &e.0 .0;
        let mut acc: Option<Mont> = None;
        for (w, row) in self.table.iter().enumerate() {
            let nibble = ((limbs[w / 16] >> (4 * (w % 16))) & 0xF) as usize;
            if nibble != 0 {
                acc = Some(match acc {
                    None => row[nibble],
                    Some(a) => p.mont_mul(&a, &row[nibble]),
                });
            }
        }
        acc
    }

    /// `base^e`, identical in value to `gp.pow(base, e)` (≤ 64
    /// Montgomery products, the last one leaving Montgomery form).
    pub fn pow(&self, gp: &GroupParams, e: &Scalar) -> GroupElement {
        match self.pow_mont(gp, e) {
            None => gp.identity(),
            Some(acc) => GroupElement(gp.p_modulus().mont_out(&acc)),
        }
    }

    /// `m · base^e`, identical in value to `gp.mul(m, &gp.pow(base, e))`
    /// and still ≤ 64 products: multiplying the Montgomery-form power by
    /// the plain `m` is also what leaves Montgomery form.
    pub(crate) fn pow_mul(&self, gp: &GroupParams, e: &Scalar, m: &GroupElement) -> GroupElement {
        match self.pow_mont(gp, e) {
            None => *m,
            Some(acc) => GroupElement(gp.p_modulus().mont_mul_plain(&acc, &m.0)),
        }
    }
}

/// Fixed-base tables for one ElGamal public key: the generator `g` and
/// the key element `y`, the two bases every encryption and
/// rerandomization exponentiates. For the shipped parameters `g`'s
/// table is the process-wide one, so a key costs one 32 KiB table.
#[derive(Clone, Debug)]
pub struct PrecomputedKey {
    /// The public key the tables serve.
    pub key: PublicKey,
    g: Cow<'static, FixedBasePowers>,
    y: FixedBasePowers,
}

impl PrecomputedKey {
    /// Builds the tables for `key`.
    pub fn new(gp: &GroupParams, key: &PublicKey) -> PrecomputedKey {
        PrecomputedKey {
            key: *key,
            g: match gp.shipped_g_table() {
                Some(table) => Cow::Borrowed(table),
                None => Cow::Owned(FixedBasePowers::new(gp, &gp.generator())),
            },
            y: FixedBasePowers::new(gp, &key.0),
        }
    }

    /// `g^e` through the table.
    pub fn g_pow(&self, gp: &GroupParams, e: &Scalar) -> GroupElement {
        self.g.pow(gp, e)
    }

    /// [`crate::elgamal::encrypt_with`] through the tables: encrypts `m`
    /// under the key with caller-chosen randomness `r` (≤ 128 products).
    pub fn encrypt_with(&self, gp: &GroupParams, m: &GroupElement, r: &Scalar) -> Ciphertext {
        Ciphertext {
            a: self.g.pow(gp, r),
            b: self.y.pow_mul(gp, r, m),
        }
    }

    /// [`crate::elgamal::rerandomize_with`] through the tables (≤ 128
    /// products).
    pub fn rerandomize_with(&self, gp: &GroupParams, ct: &Ciphertext, s: &Scalar) -> Ciphertext {
        Ciphertext {
            a: self.g.pow_mul(gp, s, &ct.a),
            b: self.y.pow_mul(gp, s, &ct.b),
        }
    }
}

/// Evaluates `f(i)` for `i in 0..n` on up to `threads` scoped OS
/// threads, returning results in index order.
///
/// Each index owns exactly one output slot, so the result — unlike the
/// schedule — is independent of the thread count. `threads <= 1` (or a
/// single item) runs inline with no thread spawned.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, slots)| {
                scope.spawn(move || {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(t * chunk + i));
                    }
                })
            })
            .collect();
        // Join each OS thread rather than leave it to the scope, which
        // only waits for the closures to return: a worker still tearing
        // down holds its malloc arena, and a hop issues these maps back
        // to back, so the next map's workers would open fresh arenas
        // instead of reusing the released ones.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_with, keygen, rerandomize_with};
    use crate::modarith::ops;
    use crate::u256::U256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_base_matches_plain_pow() {
        let mut rng = StdRng::seed_from_u64(1);
        // The shipped group and a generated 64-bit one (short modulus,
        // upper limbs zero).
        for gp in [
            GroupParams::default_params(),
            GroupParams::generate(64, &mut rng),
        ] {
            let base = gp.random_element(&mut rng);
            let fb = FixedBasePowers::new(&gp, &base);
            let m = gp.random_element(&mut rng);
            let mut exps = vec![
                Scalar::ZERO,
                gp.scalar_from_u64(1),
                Scalar(gp.q().wrapping_sub(&U256::ONE)),
                Scalar(U256::MAX),
            ];
            exps.extend((0..256).map(|k| Scalar(U256::ONE.shl(k))));
            exps.extend((0..20).map(|_| gp.random_scalar(&mut rng)));
            for e in &exps {
                let expect = gp.pow(&base, e);
                assert_eq!(fb.pow(&gp, e), expect, "{e:?}");
                assert_eq!(fb.pow_mul(&gp, e, &m), gp.mul(&m, &expect), "{e:?}");
            }
        }
    }

    /// Machine-independent cost, in Montgomery kernel calls: one per
    /// nonzero window (the last doubling as the conversion out), so
    /// ≤ 64 per table exponentiation where the pre-PR table paid two
    /// per window (≤ 126) and the plain ladder ≈ 383.
    #[test]
    fn table_kernel_calls_are_pinned() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(3);
        let kp = keygen(&gp, &mut rng);
        let pk = PrecomputedKey::new(&gp, &kp.public);
        let m = gp.random_element(&mut rng);
        let ones = Scalar(U256::MAX);
        assert_eq!(ops::count(|| pk.y.pow(&gp, &ones)).1, 64);
        assert_eq!(ops::count(|| pk.y.pow_mul(&gp, &ones, &m)).1, 64);
        assert_eq!(ops::count(|| pk.y.pow(&gp, &Scalar::ZERO)).1, 0);
        assert_eq!(ops::count(|| gp.g_pow(&ones)).1, 64);
        let ct = pk.encrypt_with(&gp, &m, &ones);
        assert_eq!(ops::count(|| pk.encrypt_with(&gp, &m, &ones)).1, 128);
        assert_eq!(ops::count(|| pk.rerandomize_with(&gp, &ct, &ones)).1, 128);
        for _ in 0..50 {
            let s = gp.random_scalar(&mut rng);
            assert!(ops::count(|| pk.rerandomize_with(&gp, &ct, &s)).1 <= 128);
        }
        // The table-less reference: g through the shared table, y by
        // the windowed ladder, two plain products.
        let (_, plain) = ops::count(|| rerandomize_with(&gp, &kp.public, &ct, &ones));
        assert_eq!(plain, 64 + 331 + 2 + 2);
    }

    #[test]
    fn precomputed_key_matches_reference_ops() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(2);
        let kp = keygen(&gp, &mut rng);
        let pk = PrecomputedKey::new(&gp, &kp.public);
        for _ in 0..10 {
            let m = gp.random_element(&mut rng);
            let r = gp.random_scalar(&mut rng);
            let ct = pk.encrypt_with(&gp, &m, &r);
            assert_eq!(ct, encrypt_with(&gp, &kp.public, &m, &r));
            let s = gp.random_scalar(&mut rng);
            assert_eq!(
                pk.rerandomize_with(&gp, &ct, &s),
                rerandomize_with(&gp, &kp.public, &ct, &s)
            );
        }
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let base: Vec<u64> = (0..97).map(|i| i * i + 1).collect();
        let expect: Vec<u64> = base.iter().map(|x| x.wrapping_mul(31)).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let got = par_map_indexed(base.len(), threads, |i| base[i].wrapping_mul(31));
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }
}

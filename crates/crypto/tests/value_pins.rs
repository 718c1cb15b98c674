//! Value pins for the fixed-base exponentiation paths: digests of
//! `g^e` through the generator's process-wide table, of
//! `FixedBasePowers::pow` for another base, and of table encryptions
//! and rerandomizations, over a grid of exponents. The digests were
//! computed with the 4-bit tables these paths replaced, one scalar
//! table power at a time (the key's powers and rerandomizations now run
//! through its sixteen-lane batches, on the same inputs); the sequential
//! and batched PSC provers share the generator's table, so their
//! equality tests could not notice a wrong one. The same-exponent batch
//! `GroupParams::pow_all` is pinned the same way, by a digest computed
//! with scalar `GroupParams::pow` before the lane kernel existed.

use pm_crypto::batch::{FixedBasePowers, PrecomputedKey};
use pm_crypto::elgamal::keygen;
use pm_crypto::group::{GroupElement, GroupParams, Scalar};
use pm_crypto::U256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Edge exponents, every power of two and every all-ones prefix, and
/// random words (reduced and not).
fn exponent_grid(gp: &GroupParams, rng: &mut StdRng) -> Vec<Scalar> {
    let mut e = vec![
        Scalar::ZERO,
        gp.scalar_from_u64(1),
        Scalar(gp.q().wrapping_sub(&U256::ONE)),
        Scalar(*gp.q()),
        Scalar(U256::MAX),
    ];
    for k in 0..256 {
        e.push(Scalar(U256::ONE.shl(k)));
        e.push(Scalar(U256::MAX.shr(k)));
    }
    e.extend((0..64).map(|_| gp.random_scalar(rng)));
    e.extend((0..16).map(|_| Scalar(U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]))));
    e
}

#[test]
fn fixed_base_powers_match_the_parent_digests() {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(2018);
    let exps = exponent_grid(&gp, &mut rng);
    let base = gp.random_element(&mut rng);
    let table = FixedBasePowers::new(&gp, &base);
    let kp = keygen(&gp, &mut rng);
    let pk = PrecomputedKey::new(&gp, &kp.public);
    let m = gp.random_element(&mut rng);
    // The key's batches, on the inputs the scalar loop drew: `g^e` as
    // `g^e · 1`, and each encryption rerandomized by a fresh scalar.
    let g_batch = pk.g_pow_mul_all(&gp, exps.len(), 2, |i| (exps[i], gp.identity()));
    let cts: Vec<_> = exps
        .iter()
        .map(|e| (pk.encrypt_with(&gp, &m, e), gp.random_scalar(&mut rng)))
        .collect();
    let re = pk.rerandomize_all(&gp, cts.len(), 3, |i| cts[i]);
    let (mut g, mut other, mut key) = (Vec::new(), Vec::new(), Vec::new());
    for (i, e) in exps.iter().enumerate() {
        g.extend(gp.g_pow(e).to_bytes());
        g.extend(g_batch[i].to_bytes());
        other.extend(table.pow(&gp, e).to_bytes());
        let (ct, re) = (cts[i].0, re[i]);
        for x in [ct.a, ct.b, re.a, re.b] {
            key.extend(x.to_bytes());
        }
    }
    let got = [fnv1a64(&g), fnv1a64(&other), fnv1a64(&key)];
    assert_eq!(
        got,
        [
            0x2317_e63b_84a6_6b95,
            0x5dff_5841_fd13_acb2,
            0xe815_fee0_cc1e_4d16
        ],
        "{got:x?}"
    );
}

#[test]
fn pow_all_matches_the_scalar_digest() {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(2018);
    let exps = exponent_grid(&gp, &mut rng);
    let mut bases = vec![
        GroupElement(U256::ZERO),
        gp.identity(),
        gp.generator(),
        GroupElement(gp.p().wrapping_sub(&U256::ONE)),
    ];
    bases.extend((0..22).map(|_| gp.random_element(&mut rng)));
    let mut out = Vec::new();
    // Batch lengths around the lane width, at shifting offsets, on one
    // to three threads.
    for (i, e) in exps.iter().enumerate() {
        let n = [0, 1, 7, 8, 9, 17, 26][i % 7];
        let batch = &bases[(i % 5).min(26 - n)..][..n];
        for x in gp.pow_all(batch, e, 1 + i % 3) {
            out.extend(x.to_bytes());
        }
    }
    assert_eq!(out.len(), 5_781 * 32);
    let got = fnv1a64(&out);
    assert_eq!(got, 0x416b_a17f_f42c_4836, "{got:x}");
}

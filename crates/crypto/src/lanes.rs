//! Same-exponent exponentiations in lock step, on AVX-512 IFMA.
//!
//! A PSC hop raises many bases to one exponent: the mixing hop raises
//! both components of every ciphertext to its `k`, the decryption hop
//! every `a` to the CP's key share. [`pow_batch`] runs up to sixteen
//! such exponentiations at once, one per 64-bit lane of a 512-bit
//! register, in two independent chains of eight lanes. The exponent is
//! shared, so every lane follows the same control flow: the 4-bit fixed
//! window of [`Modulus::pow`], same table, same squarings, same skipped
//! zero windows.
//!
//! # The lane product
//!
//! A residue is five 52-bit digits, and the eight lanes are
//! digit-sliced: register `j` holds digit `j` of every lane. The
//! Montgomery product scans the digits of `a`; per digit it adds
//! `a_i · b` and `q · m` through `vpmadd52luq`/`vpmadd52huq` (the low and
//! high 52 bits of a 52 × 52-bit product, added into 64-bit
//! accumulators) and shifts down one digit, carrying only the low
//! digit's overflow. An accumulator collects at most 20 sums below
//! `2^52`, which its 12 spare bits hold, so the other carries are
//! propagated once, at the end. Each digit step is a dependent
//! `q` → carry → next-digit path, so one chain leaves the multipliers
//! idle for most of its latency; the two chains' steps interleave,
//! which measured 1.5× the throughput of one chain (three chains
//! measured no faster than two). The radix is `R = 2^260 > 4m`: inputs
//! below `2m` give a product below `2m`, so no lane ever subtracts, and
//! values are reduced once, when they leave the kernel. Bases enter the
//! Montgomery domain by one product with `2^520 mod m`, so they need
//! only be below `2^256`.
//!
//! # Cost
//!
//! Per lane, exactly [`Modulus::pow`]'s kernel calls (≤ 331 for a
//! 256-bit exponent). The op counter of the unit tests ticks once per
//! lane per product, a short batch's padding included (up to eight
//! bases take one chain, more take two), so counts stay comparable with
//! the scalar kernel. A sixteen-lane product costs about one and a half
//! scalar ones: a full batch runs at about a tenth of the scalar cost per base
//! (≈ 1.2 µs against ≈ 12 µs on a 2.1 GHz Xeon with AVX-512 IFMA).
//!
//! Like the rest of the crate this is not constant-time: the window
//! schedule branches on the (shared) exponent.
//!
//! # `unsafe`
//!
//! This file is the workspace's only user of `std::arch` and its only
//! `unsafe` block (`pm-lint`'s `unsafe-code` rule holds every other
//! file to that, and the crate root denies `unsafe_code`). The kernel
//! is safe Rust: functions under `#[target_feature]` may call the
//! intrinsics their features enable, lanes go in with
//! `_mm512_set_epi64` and come out with extracts, and no pointer is
//! involved. Calling such a function on a CPU without the features is
//! the one unsafe act, and [`pow_batch`] does it only right after
//! `is_x86_feature_detected!` confirmed both.

use crate::modarith::Modulus;
use crate::u256::U256;

/// Lanes per register: eight 64-bit lanes of 512 bits.
pub(crate) const LANES: usize = 8;
/// Bases per kernel call: two independent eight-lane chains.
pub(crate) const BATCH: usize = 2 * LANES;

/// Bits per digit.
const DIGIT_BITS: u32 = 52;
/// The low [`DIGIT_BITS`] bits.
const MASK: u64 = (1 << DIGIT_BITS) - 1;

/// `x` as five 52-bit digits, least significant first.
fn to_digits(x: &U256) -> [u64; 5] {
    let l = x.0;
    [
        l[0] & MASK,
        (l[0] >> 52 | l[1] << 12) & MASK,
        (l[1] >> 40 | l[2] << 24) & MASK,
        (l[2] >> 28 | l[3] << 36) & MASK,
        l[3] >> 16,
    ]
}

/// The inverse of [`to_digits`] for a value below `2^256`.
fn from_digits(d: &[u64; 5]) -> U256 {
    U256([
        d[0] | d[1] << 52,
        d[1] >> 12 | d[2] << 40,
        d[2] >> 24 | d[3] << 28,
        d[3] >> 36 | d[4] << 16,
    ])
}

/// A modulus in the lane kernel's radix.
struct Constants {
    m: U256,
    /// `m` as digits.
    digits: [u64; 5],
    /// `-m^{-1} mod 2^52`.
    k0: u64,
    /// `R² mod m = 2^520 mod m`, as digits.
    rr: [u64; 5],
}

impl Constants {
    fn new(p: &Modulus) -> Constants {
        let (m, n0inv, r2) = p.montgomery_constants();
        // 2^520 = 2^512 · 2^8: eight doublings, no kernel call.
        let rr = (0..8).fold(*r2, |x, _| p.add(&x, &x));
        Constants {
            m: *m,
            digits: to_digits(m),
            k0: n0inv & MASK,
            rr: to_digits(&rr),
        }
    }

    /// A lane value below `m + 1` as a reduced residue.
    fn reduce(&self, d: &[u64; 5]) -> U256 {
        let x = from_digits(d);
        if x >= self.m {
            x.wrapping_sub(&self.m)
        } else {
            x
        }
    }
}

/// `bases[i]^e mod m` for up to [`BATCH`] bases, equal to
/// [`Modulus::pow`] of each base reduced mod `m` (`e = 0` gives 1;
/// entries past `bases.len()` are padding), or `None` when this CPU
/// lacks AVX-512F or AVX-512 IFMA. Up to eight bases take one chain,
/// more take two.
#[allow(unsafe_code)]
pub(crate) fn pow_batch(m: &Modulus, bases: &[U256], e: &U256) -> Option<[U256; BATCH]> {
    assert!(
        bases.len() <= BATCH,
        "at most {BATCH} bases per kernel call"
    );
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
        let k = Constants::new(m);
        let mut padded = [U256::ZERO; BATCH];
        padded[..bases.len()].copy_from_slice(bases);
        let mut out = [[0u64; 5]; BATCH];
        // SAFETY: `ifma::pow` is safe code compiled for avx512f and
        // avx512ifma; running it is sound exactly when this CPU has both
        // features, which the detection just above established.
        unsafe {
            if bases.len() <= LANES {
                ifma::pow::<1>(&k, &padded[..LANES], e, &mut out[..LANES]);
            } else {
                ifma::pow::<2>(&k, &padded, e, &mut out);
            }
        }
        return Some(out.map(|d| k.reduce(&d)));
    }
    let _ = (m, e); // read only by the x86-64 kernel
    None
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{to_digits, Constants, LANES, MASK};
    use crate::modarith::{window, WINDOW_BITS};
    use crate::u256::U256;
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_and_si512,
        _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_set1_epi64,
        _mm512_set_epi64, _mm512_setzero_si512, _mm512_srli_epi64,
    };

    /// Eight residues, digit-sliced: register `j` holds digit `j` of
    /// every lane.
    type Lanes = [__m512i; 5];

    /// The same digits in every lane.
    #[target_feature(enable = "avx512f")]
    fn splat(d: &[u64; 5]) -> Lanes {
        let mut out = [_mm512_setzero_si512(); 5];
        for j in 0..5 {
            out[j] = _mm512_set1_epi64(d[j] as i64);
        }
        out
    }

    /// Eight values, lane `i` from `values[i]`.
    #[target_feature(enable = "avx512f")]
    fn load(values: &[U256]) -> Lanes {
        let d: [[u64; 5]; LANES] = std::array::from_fn(|i| to_digits(&values[i]));
        let mut out = [_mm512_setzero_si512(); 5];
        for j in 0..5 {
            let lane = |i: usize| d[i][j] as i64;
            out[j] = _mm512_set_epi64(
                lane(7),
                lane(6),
                lane(5),
                lane(4),
                lane(3),
                lane(2),
                lane(1),
                lane(0),
            );
        }
        out
    }

    /// Each lane's digits into `out[i]`, for eight lanes.
    #[target_feature(enable = "avx512f")]
    fn store(x: &Lanes, out: &mut [[u64; 5]]) {
        for j in 0..5 {
            let (lo, hi) = (
                _mm512_extracti64x4_epi64::<0>(x[j]),
                _mm512_extracti64x4_epi64::<1>(x[j]),
            );
            out[0][j] = _mm256_extract_epi64::<0>(lo) as u64;
            out[1][j] = _mm256_extract_epi64::<1>(lo) as u64;
            out[2][j] = _mm256_extract_epi64::<2>(lo) as u64;
            out[3][j] = _mm256_extract_epi64::<3>(lo) as u64;
            out[4][j] = _mm256_extract_epi64::<0>(hi) as u64;
            out[5][j] = _mm256_extract_epi64::<1>(hi) as u64;
            out[6][j] = _mm256_extract_epi64::<2>(hi) as u64;
            out[7][j] = _mm256_extract_epi64::<3>(hi) as u64;
        }
    }

    /// Lane-wise Montgomery product `a · b · 2^-260 mod m` of `C`
    /// independent chains, below `2m` for inputs whose product is below
    /// `2^260 · m`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn montmul<const C: usize>(
        a: &[Lanes; C],
        b: &[Lanes; C],
        m: &Lanes,
        k0: __m512i,
    ) -> [Lanes; C] {
        #[cfg(test)]
        crate::modarith::ops::tick((C * LANES) as u64);
        let zero = _mm512_setzero_si512();
        // t[5] catches the high half of the top digit's products.
        let mut t = [[zero; 6]; C];
        for i in 0..5 {
            // Digit by digit across the chains: each digit is a
            // dependent q → carry → next-digit path, and the other
            // chain's work fills its latency.
            for (t, (a, b)) in t.iter_mut().zip(a.iter().zip(b)) {
                let ai = a[i];
                for j in 0..5 {
                    t[j] = _mm512_madd52lo_epu64(t[j], ai, b[j]);
                    t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, b[j]);
                }
                // q makes the low digit vanish: t + q·m ≡ 0 mod 2^52.
                let q = _mm512_madd52lo_epu64(zero, t[0], k0);
                for j in 0..5 {
                    t[j] = _mm512_madd52lo_epu64(t[j], q, m[j]);
                    t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], q, m[j]);
                }
                let carry = _mm512_srli_epi64::<52>(t[0]);
                *t = [_mm512_add_epi64(t[1], carry), t[2], t[3], t[4], t[5], zero];
            }
        }
        // Each accumulator holds at most 20 sums below 2^52: one carry
        // pass makes the digits 52-bit again.
        let mask = _mm512_set1_epi64(MASK as i64);
        let mut out = [[zero; 5]; C];
        for (out, t) in out.iter_mut().zip(&t) {
            let mut carry = zero;
            for j in 0..5 {
                let x = _mm512_add_epi64(t[j], carry);
                carry = _mm512_srli_epi64::<52>(x);
                out[j] = _mm512_and_si512(x, mask);
            }
        }
        out
    }

    /// `bases[i]^e` per lane for `C · 8` bases by
    /// [`crate::modarith::Modulus::pow`]'s window schedule, into `out`
    /// as digits of a value at most `m`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow<const C: usize>(
        k: &Constants,
        bases: &[U256],
        e: &U256,
        out: &mut [[u64; 5]],
    ) {
        if e.is_zero() {
            out.fill([1, 0, 0, 0, 0]);
            return;
        }
        let (m, k0) = (splat(&k.digits), _mm512_set1_epi64(k.k0 as i64));
        let base: [Lanes; C] = std::array::from_fn(|c| load(&bases[c * LANES..]));
        let mut table = [[m; C]; 16];
        table[1] = montmul(&base, &[splat(&k.rr); C], &m, k0);
        for j in 2..16 {
            table[j] = montmul(&table[j - 1], &table[1], &m, k0);
        }
        let top = (e.bits() - 1) / WINDOW_BITS;
        // The top window is nonzero by construction: start from its entry.
        let mut acc = table[window(e, top)];
        for w in (0..top).rev() {
            for _ in 0..WINDOW_BITS {
                acc = montmul(&acc, &acc, &m, k0);
            }
            let j = window(e, w);
            if j != 0 {
                acc = montmul(&acc, &table[j], &m, k0);
            }
        }
        // Out of Montgomery form: a product with 1 lands at most at m.
        let acc = montmul(&acc, &[splat(&[1, 0, 0, 0, 0]); C], &m, k0);
        for (c, x) in acc.iter().enumerate() {
            store(x, &mut out[c * LANES..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupElement, GroupParams, Scalar};
    use crate::modarith::ops;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn moduli() -> Vec<Modulus> {
        [crate::group::P_HEX, crate::group::Q_HEX]
            .iter()
            .map(|h| Modulus::new(U256::from_hex(h).unwrap()))
            .chain([
                Modulus::new(U256::from_u64((1 << 61) - 1)),
                Modulus::new(U256::MAX),
            ])
            .collect()
    }

    /// What the host offers, said out loud: the lane comparisons must
    /// run where the CPU has the features, and say when they cannot.
    fn lanes_here() -> bool {
        let m = Modulus::new(U256::from_u64(7));
        let here = pow_batch(&m, &[U256::ONE], &U256::ONE).is_some();
        #[cfg(target_os = "linux")]
        if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
            let flags = info.lines().find(|l| l.starts_with("flags")).unwrap_or("");
            let has = |f: &str| flags.split_whitespace().any(|x| x == f);
            assert_eq!(
                here,
                has("avx512f") && has("avx512ifma"),
                "lane kernel availability disagrees with /proc/cpuinfo"
            );
        }
        if here {
            println!("avx512f + avx512ifma detected: comparing the lane kernel itself");
        } else {
            println!("no avx512ifma on this CPU: the lane kernel is unavailable, pow_all runs Modulus::pow");
        }
        here
    }

    /// `Modulus::pow` of each base reduced, the lane kernel's contract.
    fn scalar(m: &Modulus, bases: &[U256], e: &U256) -> Vec<U256> {
        bases.iter().map(|b| m.pow(&m.reduce(b), e)).collect()
    }

    #[test]
    fn digits_round_trip() {
        let mut rng = StdRng::seed_from_u64(34);
        for x in [U256::ZERO, U256::ONE, U256::MAX] {
            assert_eq!(from_digits(&to_digits(&x)), x);
        }
        for _ in 0..100 {
            let x = U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
            let d = to_digits(&x);
            assert!(d.iter().all(|&v| v <= MASK));
            assert_eq!(from_digits(&d), x);
        }
    }

    #[test]
    fn lanes_match_scalar_pow_on_edges() {
        if !lanes_here() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(35);
        let mut cases = 0;
        let q = U256::from_hex(crate::group::Q_HEX).unwrap();
        for m in moduli() {
            let top = m.modulus().wrapping_sub(&U256::ONE);
            let mut exps = vec![
                U256::ZERO,
                U256::ONE,
                U256::from_u64(15),
                U256::from_u64(16),
                q.wrapping_sub(&U256::ONE),
                q,
                top,
                *m.modulus(),
                U256::MAX,
            ];
            exps.extend((0..256).map(|k| U256::ONE.shl(k)));
            exps.extend((0..16).map(|_| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])));
            // Edges in one chain, then edges beside random words in two.
            let mut bases = vec![
                U256::ZERO,
                U256::ONE,
                U256::from_u64(2),
                top,
                *m.modulus(),
                U256::MAX,
                m.sample(&mut rng),
                m.sample(&mut rng),
            ];
            bases.extend((0..LANES).map(|_| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])));
            for e in &exps {
                for n in [LANES, BATCH] {
                    let got = pow_batch(&m, &bases[..n], e).unwrap();
                    let expect = scalar(&m, &bases[..n], e);
                    assert_eq!(got[..n], expect, "^ {e} mod {}", m.modulus());
                    cases += n;
                }
            }
        }
        println!("{cases} lane results equal to Modulus::pow");
    }

    /// Every batch length the kernel takes, one chain or two.
    #[test]
    fn every_batch_length_matches_scalar_pow() {
        if !lanes_here() {
            return;
        }
        let p = &moduli()[0];
        let mut rng = StdRng::seed_from_u64(38);
        let bases: Vec<U256> = (0..BATCH).map(|_| p.sample(&mut rng)).collect();
        for e in [
            U256::ONE,
            U256::MAX,
            U256([rng.gen(), rng.gen(), rng.gen(), 0]),
        ] {
            for n in 0..=BATCH {
                let got = pow_batch(p, &bases[..n], &e).unwrap();
                assert_eq!(got[..n], scalar(p, &bases[..n], &e), "n = {n}");
            }
        }
    }

    /// Batch lengths around the lane width, thread counts, and a zero
    /// exponent, through the public entry point.
    #[test]
    fn pow_all_matches_pow_at_every_batch_length() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(36);
        let bases: Vec<GroupElement> = (0..40).map(|_| gp.random_element(&mut rng)).collect();
        let q_minus_1 = Scalar(gp.q().wrapping_sub(&U256::ONE));
        let exps = [Scalar::ZERO, gp.random_scalar(&mut rng), q_minus_1];
        for n in [0, 1, 7, 8, 9, 16, 17, 26, 40] {
            for e in &exps {
                let expect: Vec<GroupElement> = bases[..n].iter().map(|b| gp.pow(b, e)).collect();
                for threads in [1, 2, 5] {
                    assert_eq!(gp.pow_all(&bases[..n], e, threads), expect, "n = {n}");
                }
            }
        }
    }

    #[test]
    fn pow_all_kernel_calls_are_pinned() {
        const POW: u64 = 15 + 252 + 63 + 1; // Modulus::pow, all-ones exponent
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(37);
        let bases: Vec<GroupElement> = (0..BATCH).map(|_| gp.random_element(&mut rng)).collect();
        let calls = |n: usize, e: &Scalar| ops::count(|| gp.pow_all(&bases[..n], e, 1)).1;
        // Eight and sixteen lanes cost as many scalar exponentiations'
        // kernel calls, on either path.
        let max = Scalar(U256::MAX);
        assert_eq!(calls(LANES, &max), 8 * POW);
        assert_eq!(calls(BATCH, &max), 16 * POW);
        for _ in 0..20 {
            assert!(calls(LANES, &gp.random_scalar(&mut rng)) <= 8 * 331);
        }
        assert_eq!(calls(LANES, &Scalar::ZERO), 0);
        // A short batch pays for its padding on the lane path: to eight
        // lanes, or to sixteen past eight.
        let lanes = lanes_here();
        assert_eq!(calls(1, &max), if lanes { 8 } else { 1 } * POW);
        assert_eq!(calls(9, &max), if lanes { 16 } else { 9 } * POW);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lanes_match_scalar_pow(seed in any::<u64>(), n in 0..BATCH + 1, wide in any::<bool>()) {
            let p = &moduli()[0];
            let mut rng = StdRng::seed_from_u64(seed);
            let bases: Vec<U256> = (0..n)
                .map(|_| {
                    if wide {
                        U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])
                    } else {
                        p.sample(&mut rng)
                    }
                })
                .collect();
            let e = U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
            if let Some(got) = pow_batch(p, &bases, &e) {
                prop_assert_eq!(&got[..n], &scalar(p, &bases, &e)[..]);
            }
        }
    }
}

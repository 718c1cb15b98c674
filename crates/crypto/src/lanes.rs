//! Exponentiations in lock step, on AVX-512 IFMA.
//!
//! A PSC hop makes thousands of exponentiations of three kinds, and all
//! suit lock-step SIMD: every lane can follow the same control flow.
//! [`pow_batch`], [`pow_each_batch`] and [`fixed_pow_mul_batch`] each
//! run up to sixteen of them at once, one per 64-bit lane of a 512-bit
//! register, in two independent chains of eight lanes. Verifying the
//! hop's proofs adds a fourth kind, a product of many powers, and
//! [`bucket_batch`] runs sixteen of its windows at once.
//!
//! # Same-exponent batches
//!
//! The mixing hop raises both components of every ciphertext to its
//! `k`, the decryption hop every `a` to the CP's key share.
//! [`pow_batch`] raises up to sixteen bases to one exponent by the 4-bit
//! fixed window of [`Modulus::pow`]: same table, same squarings, same
//! skipped zero windows, since the exponent is shared.
//!
//! # Per-lane exponents
//!
//! A verified hop also proves every exponentiation, and each
//! Chaum–Pedersen proof commits to `a^w` under a nonce `w` of its own.
//! [`pow_each_batch`] raises up to sixteen bases each to its own
//! exponent with the same 4-bit window table per lane as [`pow_batch`],
//! built in-register (1 product into Montgomery form, 14 for entries 2
//! to 15). The schedule cannot branch on sixteen exponents at once, so
//! it does not branch at all: every lane runs all 64 windows, top
//! first, four squarings and one product each. The product's operand
//! is gathered per lane: the table is spilled to digits once, and per
//! window lane `i` reads the entry its own exponent's digit names, five
//! digits with `_mm512_set_epi64`, as the fixed-base loads read rows.
//! Entry 0 is the Montgomery one (`2^260 mod m`, from the modulus's
//! constants by doublings), so a zero digit multiplies by one and
//! leaves the value alone: the window costs the same product whatever
//! the digit, and a zero exponent comes out as 1. That is exactly
//! 1 + 14 + 63 · 5 + 1 = 331 lane products per lane, where
//! [`Modulus::pow`] makes at most 331 for a 256-bit exponent.
//!
//! # Fixed-base batches
//!
//! Every rerandomization, encryption and DC mark is a power of `g` or
//! of the joint key `y` times a plain operand, through the base's 8-bit
//! window rows ([`crate::batch::FixedBasePowers`], 32 rows of 256
//! Montgomery-form entries). [`fixed_pow_mul_batch`] computes
//! `base^e_i · x_i` with a scalar of its own per lane, from those same
//! rows: there is no second table. Per window, each lane loads the row
//! entry its digit names (a zero digit reads entry 0, the Montgomery
//! one), four limbs at a time with `_mm512_set_epi64`, and splits it
//! into 52-bit digits in-register; so every lane makes the same 31
//! products whatever its scalar. The rows are in the scalar radix
//! `2^256` and the lanes multiply in `2^260`: after the 31 products the
//! accumulator is `base^e · 2^132`, the product with the plain operand
//! takes it to `base^e · x · 2^-128`, and one product with the constant
//! `2^388 mod m` undoes that. That is 33 lane products per lane, against
//! at most 32 scalar ones, and the result is the same integer as
//! [`crate::batch::FixedBasePowers::pow_mul`] — except that a zero
//! exponent, which the scalar path answers with the operand untouched,
//! comes out reduced (the caller hands such lanes their operand back).
//!
//! # Buckets
//!
//! A batch of Chaum–Pedersen proofs is checked by products of many
//! distinct bases, each to its own exponent
//! ([`crate::zkp::DleqProof::verify_batch`]), which Pippenger's bucket
//! method computes window by window ([`crate::batch`]'s `multi_exp`).
//! [`bucket_batch`] gives each lane one window. Every base is put into
//! the lane radix once (one product per `C · 8` bases, `C` chains) and
//! broadcast to every lane; each lane gathers its own bucket by its own
//! digit of that base's exponent, as the per-lane-exponent kernel
//! gathers window entries, multiplies it by the base and stores it
//! back. Digit 0 has a bucket too, a dummy that is never read, so every
//! lane makes exactly one product per base whatever the digits. Then
//! each lane folds its buckets into `Π_d B_d^d` by two running products
//! (`2 · (2^width − 2)` products), leaves Montgomery form, and the
//! caller joins the windows by squarings in scalar code. The buckets,
//! `2^width` per lane and all the Montgomery one to start, are one
//! allocation per call (160 KiB at 8-bit windows, 10 KiB at 4). That
//! is exactly `⌈n / (C · 8)⌉ + n + 2^(width+1) − 3` lane products per
//! lane for `n` bases.
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
//! only be below `2^256`; so do fixed-base operands.
//!
//! # Cost
//!
//! Per lane, exactly [`Modulus::pow`]'s kernel calls (≤ 331 for a
//! 256-bit exponent) for a same-exponent batch, exactly 331 for a
//! per-lane-exponent batch, exactly 33 for a fixed-base batch, and for
//! a bucket call the count above (module section "Buckets"). The
//! op counter of the unit tests ticks once per lane per product, a
//! short batch's padding included (up to eight lanes take one chain,
//! more take two), so counts stay comparable with the scalar kernel. A
//! sixteen-lane product costs about one and a half scalar ones: a full
//! same-exponent batch runs at about a tenth of the scalar cost per
//! base (≈ 1.2 µs against ≈ 12 µs on a 2.1 GHz Xeon with AVX-512 IFMA),
//! a full per-lane-exponent batch about a fifth more than that (the
//! gathers and the zero windows it does not skip), a full fixed-base
//! batch at about a quarter of the scalar cost (≈ 0.25 µs against
//! 1.05–1.6 µs per power). A full batch of `x^q` membership tests costs
//! ≈ 1.08 µs a value against ≈ 1.65 µs for a Jacobi symbol. The bucket
//! kernel spends most of a step on its gathers and stores, about 13 ns
//! per base per window (lane) on one thread: a 256-bit product over
//! 1 792 bases (8-bit windows, two calls) in ≈ 0.7–0.9 ms against
//! ≈ 2.2–3.1 ms for the scalar folds, a 64-bit one over 896 bases
//! (4-bit windows, one call) in ≈ 0.16–0.19 ms against ≈ 0.3–0.5 ms.
//! Those widths are a measured sweep (CHANGES.md): 5, 6 and 7 bits took
//! a third call or longer folds for 256-bit exponents, and for 64-bit
//! ones 4 to 8 bits timed within noise of each other, 4 with the
//! smallest bucket table.
//!
//! Like the rest of the crate this is not constant-time: the
//! same-exponent schedule branches on the (shared) exponent, and the
//! per-lane, fixed-base and bucket loads index by each lane's digits.
//!
//! # `unsafe`
//!
//! This file is one of the workspace's two users of `std::arch` and
//! holds one of its two `unsafe` blocks; the SHA-256 kernel
//! (`sha_ni.rs`) holds the other (`pm-lint`'s `unsafe-code` rule holds
//! every other file to none, the crate root denies `unsafe_code`, and
//! `pm-lint`'s workspace test holds the count of `unsafe` at two). The
//! kernels are safe Rust: functions under `#[target_feature]` may call
//! the intrinsics their features enable, lanes go in with
//! `_mm512_set_epi64` and come out with extracts, and no pointer is
//! involved. Calling such a function on a CPU without the features is
//! the one unsafe act, and [`run`] does it, for every kernel, only right
//! after `is_x86_feature_detected!` confirmed both.

use crate::batch::{digit, ENTRIES, WIDTH, WINDOWS};
use crate::modarith::{Modulus, Mont};
use crate::u256::U256;
use std::ops::Range;

/// Lanes per register: eight 64-bit lanes of 512 bits.
pub(crate) const LANES: usize = 8;
/// Lanes per kernel call: two independent eight-lane chains.
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

/// The low 256 bits of a five-digit value.
fn from_digits(d: &[u64; 5]) -> U256 {
    U256([
        d[0] | d[1] << 52,
        d[1] >> 12 | d[2] << 40,
        d[2] >> 24 | d[3] << 28,
        d[3] >> 36 | d[4] << 16,
    ])
}

/// A modulus in the lane kernels' radix. Derived from [`Modulus`]'s
/// constants by doublings alone, so building one makes no kernel call.
#[derive(Clone, Debug)]
pub(crate) struct Radix {
    m: U256,
    /// `m` as digits.
    digits: [u64; 5],
    /// `-m^{-1} mod 2^52`.
    k0: u64,
    /// `R² mod m = 2^520 mod m`, as digits.
    rr: [u64; 5],
    /// `2^388 mod m`, as digits: the fixed-base correction (module
    /// docs), `2^(260 + 4 · WINDOWS)` for [`WINDOWS`] rows.
    fix: [u64; 5],
    /// `2^260 mod m`, as digits: the Montgomery one, entry 0 of a
    /// per-lane window table.
    one: [u64; 5],
}

impl Radix {
    pub(crate) fn new(p: &Modulus) -> Radix {
        let (m, n0inv, r2) = p.montgomery_constants();
        let double = |x: U256, times: usize| (0..times).fold(x, |x, _| p.add(&x, &x));
        Radix {
            m: *m,
            digits: to_digits(m),
            k0: n0inv & MASK,
            // 2^520 = 2^512 · 2^8.
            rr: to_digits(&double(*r2, 8)),
            // 2^(260 + 4W) = 2^256 · 2^(4W + 4), from the Montgomery one.
            fix: to_digits(&double(*p.mont_one().raw(), 4 * WINDOWS + 4)),
            // 2^260 = 2^256 · 2^4.
            one: to_digits(&double(*p.mont_one().raw(), 4)),
        }
    }

    /// A lane value below `2m` as a reduced residue. For `m > 2^255` it
    /// may reach bit 256, which the top digit's bit 48 holds.
    fn reduce(&self, d: &[u64; 5]) -> U256 {
        let x = from_digits(d);
        if d[4] >> 48 != 0 || x >= self.m {
            x.wrapping_sub(&self.m)
        } else {
            x
        }
    }
}

/// One kernel call's work, sixteen lanes of it (past the caller's
/// count, padding).
enum Job<'a> {
    /// `bases[i]^e`.
    Pow {
        bases: &'a [U256; BATCH],
        e: &'a U256,
    },
    /// `bases[i]^exps[i]`.
    PowEach {
        bases: &'a [U256; BATCH],
        exps: &'a [U256; BATCH],
    },
    /// `rows^exps[i] · ops[i]`.
    FixedPowMul {
        rows: &'a [[Mont; ENTRIES]],
        exps: &'a [U256; BATCH],
        ops: &'a [U256; BATCH],
    },
    /// Window `first + i`, `width` bits wide, of the bucket method over
    /// `Π bases[j]^exps[j]`.
    Buckets {
        bases: &'a [U256],
        exps: &'a [U256],
        width: u32,
        first: u32,
    },
}

/// Runs `job` on the lane kernel, over one chain for up to eight
/// `lanes` and two for more, or returns `None` when this CPU lacks
/// AVX-512F or AVX-512 IFMA. One of the workspace's two `unsafe`
/// blocks.
#[allow(unsafe_code)]
fn run(k: &Radix, job: Job<'_>, lanes: usize) -> Option<[U256; BATCH]> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
        let mut out = [[0u64; 5]; BATCH];
        // SAFETY: `ifma::run` is safe code compiled for avx512f and
        // avx512ifma; running it is sound exactly when this CPU has both
        // features, which the detection just above established.
        unsafe { ifma::run(k, &job, lanes, &mut out) };
        return Some(out.map(|d| k.reduce(&d)));
    }
    let _ = (k, job, lanes); // read only by the x86-64 kernels
    None
}

/// `bases[i]^e mod m` for up to [`BATCH`] bases, equal to
/// [`Modulus::pow`] of each base reduced mod `m` (`e = 0` gives 1;
/// entries past `bases.len()` are padding), or `None` when this CPU
/// lacks AVX-512F or AVX-512 IFMA.
pub(crate) fn pow_batch(k: &Radix, bases: &[U256], e: &U256) -> Option<[U256; BATCH]> {
    assert!(
        bases.len() <= BATCH,
        "at most {BATCH} bases per kernel call"
    );
    let mut padded = [U256::ZERO; BATCH];
    padded[..bases.len()].copy_from_slice(bases);
    run(k, Job::Pow { bases: &padded, e }, bases.len())
}

/// `bases[i]^exps[i] mod m` for up to [`BATCH`] pairs, each lane with
/// its own exponent: equal to [`Modulus::pow`] of each base reduced mod
/// `m` (a zero exponent gives 1; entries past `bases.len()` are
/// padding), or `None` when this CPU lacks AVX-512F or AVX-512 IFMA.
pub(crate) fn pow_each_batch(k: &Radix, bases: &[U256], exps: &[U256]) -> Option<[U256; BATCH]> {
    assert!(
        bases.len() == exps.len() && bases.len() <= BATCH,
        "at most {BATCH} base-exponent pairs per kernel call"
    );
    let (mut b, mut e) = ([U256::ZERO; BATCH], [U256::ZERO; BATCH]);
    b[..bases.len()].copy_from_slice(bases);
    e[..exps.len()].copy_from_slice(exps);
    run(
        k,
        Job::PowEach {
            bases: &b,
            exps: &e,
        },
        bases.len(),
    )
}

/// `rows^exps[i] · ops[i] mod m` for up to [`BATCH`] pairs, where
/// `rows` are a [`crate::batch::FixedBasePowers`] table's Montgomery
/// rows: the value of `FixedBasePowers::pow_mul` for every nonzero
/// exponent, and `ops[i] mod m` for a zero one (entries past
/// `exps.len()` are padding). `None` when this CPU lacks AVX-512F or
/// AVX-512 IFMA.
pub(crate) fn fixed_pow_mul_batch(
    k: &Radix,
    rows: &[[Mont; ENTRIES]],
    exps: &[U256],
    ops: &[U256],
) -> Option<[U256; BATCH]> {
    assert!(
        exps.len() == ops.len() && exps.len() <= BATCH,
        "at most {BATCH} exponent-operand pairs per kernel call"
    );
    assert_eq!(rows.len(), WINDOWS, "one row per {WIDTH}-bit window");
    let (mut e, mut x) = ([U256::ZERO; BATCH], [U256::ZERO; BATCH]);
    e[..exps.len()].copy_from_slice(exps);
    x[..ops.len()].copy_from_slice(ops);
    run(
        k,
        Job::FixedPowMul {
            rows,
            exps: &e,
            ops: &x,
        },
        exps.len(),
    )
}

/// Windows `windows` of the bucket method over `Π bases[j]^exps[j]`,
/// `width` bits each, one per lane: lane `i` holds `Π_d B_d^d` for
/// window `windows.start + i`, where `B_d` is the product of the bases
/// whose exponent has digit `d` there (1 for a window with no nonzero
/// digit), the value [`crate::batch`]'s scalar bucket fold gives
/// (entries past `windows.len()` are padding). At most [`BATCH`]
/// windows of at most 8 bits, inside 256 bits. `None` when this CPU
/// lacks AVX-512F or AVX-512 IFMA.
pub(crate) fn bucket_batch(
    k: &Radix,
    bases: &[U256],
    exps: &[U256],
    width: u32,
    windows: Range<u32>,
) -> Option<[U256; BATCH]> {
    assert_eq!(bases.len(), exps.len(), "one exponent per base");
    assert!(
        (1..=8).contains(&width)
            && windows.len() <= BATCH
            && windows.end <= 256_u32.div_ceil(width),
        "at most {BATCH} windows of at most 8 bits per kernel call"
    );
    let job = Job::Buckets {
        bases,
        exps,
        width,
        first: windows.start,
    };
    run(k, job, windows.len())
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{digit, to_digits, Job, Radix, BATCH, ENTRIES, LANES, MASK, WIDTH};
    use crate::modarith::{window, Mont, WINDOW_BITS};
    use crate::u256::U256;
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_and_si512,
        _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_or_si512,
        _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
        _mm512_srli_epi64,
    };
    use std::ops::Range;

    /// Eight residues, digit-sliced: register `j` holds digit `j` of
    /// every lane.
    type Lanes = [__m512i; 5];

    /// 4-bit windows of a 256-bit exponent.
    const EXP_WINDOWS: u32 = 256 / WINDOW_BITS;

    /// `job` over one chain (`two` false: the first eight lanes) or two;
    /// `lanes` of them carry work.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn run(k: &Radix, job: &Job<'_>, lanes: usize, out: &mut [[u64; 5]; BATCH]) {
        let two = lanes > LANES;
        match (job, two) {
            (Job::Pow { bases, e }, false) => pow::<1>(k, &bases[..], e, out),
            (Job::Pow { bases, e }, true) => pow::<2>(k, &bases[..], e, out),
            (Job::PowEach { bases, exps }, false) => pow_each::<1>(k, &bases[..], &exps[..], out),
            (Job::PowEach { bases, exps }, true) => pow_each::<2>(k, &bases[..], &exps[..], out),
            (Job::FixedPowMul { rows, exps, ops }, false) => {
                fixed_pow_mul::<1>(k, rows, &exps[..], &ops[..], out)
            }
            (Job::FixedPowMul { rows, exps, ops }, true) => {
                fixed_pow_mul::<2>(k, rows, &exps[..], &ops[..], out)
            }
            (
                &Job::Buckets {
                    bases,
                    exps,
                    width,
                    first,
                },
                false,
            ) => buckets::<1>(k, bases, exps, width, first..first + lanes as u32, out),
            (
                &Job::Buckets {
                    bases,
                    exps,
                    width,
                    first,
                },
                true,
            ) => buckets::<2>(k, bases, exps, width, first..first + lanes as u32, out),
        }
    }

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
        gather(std::array::from_fn(|i| &d[i]))
    }

    /// Eight values already cut into digits, lane `i` from `digits[i]`.
    #[target_feature(enable = "avx512f")]
    fn gather(digits: [&[u64; 5]; LANES]) -> Lanes {
        let mut out = [_mm512_setzero_si512(); 5];
        for j in 0..5 {
            let lane = |i: usize| digits[i][j] as i64;
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

    /// Window `w`'s row entries for eight lanes, lane `i` the entry its
    /// exponent's digit names: loaded a limb at a time and cut into
    /// 52-bit digits in-register, as [`to_digits`] does per value.
    #[target_feature(enable = "avx512f")]
    fn load_entries(rows: &[[Mont; ENTRIES]], w: usize, exps: &[U256]) -> Lanes {
        let row = &rows[w];
        let x: [&[u64; 4]; LANES] =
            std::array::from_fn(|i| &row[digit(&exps[i], w as u32 * WIDTH, WIDTH)].raw().0);
        let limb = |l: usize| {
            let lane = |i: usize| x[i][l] as i64;
            _mm512_set_epi64(
                lane(7),
                lane(6),
                lane(5),
                lane(4),
                lane(3),
                lane(2),
                lane(1),
                lane(0),
            )
        };
        let (l0, l1, l2, l3) = (limb(0), limb(1), limb(2), limb(3));
        let mask = _mm512_set1_epi64(MASK as i64);
        let join = |lo: __m512i, hi: __m512i| _mm512_and_si512(_mm512_or_si512(lo, hi), mask);
        [
            _mm512_and_si512(l0, mask),
            join(_mm512_srli_epi64::<52>(l0), _mm512_slli_epi64::<12>(l1)),
            join(_mm512_srli_epi64::<40>(l1), _mm512_slli_epi64::<24>(l2)),
            join(_mm512_srli_epi64::<28>(l2), _mm512_slli_epi64::<36>(l3)),
            _mm512_srli_epi64::<16>(l3),
        ]
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

    /// The 4-bit window table of `C · 8` bases, entry `j` their `j`-th
    /// powers in Montgomery form: entry 0 the Montgomery one, then one
    /// product into Montgomery form and 14 more.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn window_table<const C: usize>(
        k: &Radix,
        bases: &[U256],
        m: &Lanes,
        k0: __m512i,
    ) -> [[Lanes; C]; 16] {
        let base: [Lanes; C] = std::array::from_fn(|c| load(&bases[c * LANES..]));
        let mut table = [[splat(&k.one); C]; 16];
        table[1] = montmul(&base, &[splat(&k.rr); C], m, k0);
        for j in 2..16 {
            table[j] = montmul(&table[j - 1], &table[1], m, k0);
        }
        table
    }

    /// `bases[i]^e` per lane for `C · 8` bases by
    /// [`crate::modarith::Modulus::pow`]'s window schedule, into `out`
    /// as digits of a value at most `m`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow<const C: usize>(k: &Radix, bases: &[U256], e: &U256, out: &mut [[u64; 5]]) {
        if e.is_zero() {
            out.fill([1, 0, 0, 0, 0]);
            return;
        }
        let (m, k0) = (splat(&k.digits), _mm512_set1_epi64(k.k0 as i64));
        let table = window_table::<C>(k, bases, &m, k0);
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

    /// `bases[i]^exps[i]` per lane for `C · 8` lanes (module docs): the
    /// window table spilled to digits, then all [`EXP_WINDOWS`] windows
    /// with each lane's entry gathered by its own digit, into `out` as
    /// digits of a value at most `m`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow_each<const C: usize>(k: &Radix, bases: &[U256], exps: &[U256], out: &mut [[u64; 5]]) {
        let (m, k0) = (splat(&k.digits), _mm512_set1_epi64(k.k0 as i64));
        let table = window_table::<C>(k, bases, &m, k0);
        // rows[j][l]: lane l's entry j.
        let mut rows = [[[0u64; 5]; BATCH]; 16];
        for (row, entry) in rows.iter_mut().zip(&table) {
            for (c, x) in entry.iter().enumerate() {
                store(x, &mut row[c * LANES..]);
            }
        }
        let entries = |w: u32| -> [Lanes; C] {
            std::array::from_fn(|c| {
                gather(std::array::from_fn(|i| {
                    let l = c * LANES + i;
                    &rows[window(&exps[l], w)][l]
                }))
            })
        };
        let mut acc = entries(EXP_WINDOWS - 1);
        for w in (0..EXP_WINDOWS - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = montmul(&acc, &acc, &m, k0);
            }
            acc = montmul(&acc, &entries(w), &m, k0);
        }
        let acc = montmul(&acc, &[splat(&[1, 0, 0, 0, 0]); C], &m, k0);
        for (c, x) in acc.iter().enumerate() {
            store(x, &mut out[c * LANES..]);
        }
    }

    /// Windows `windows` of the bucket method, one per lane of `C · 8`
    /// (module docs): every base into lane radix, `C · 8` at a time, and
    /// into every lane's bucket for its digit in that lane's window
    /// (digit 0's bucket is the dummy), then each lane's running-product
    /// fold, into `out` as digits of a value at most `m`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn buckets<const C: usize>(
        k: &Radix,
        bases: &[U256],
        exps: &[U256],
        width: u32,
        windows: Range<u32>,
        out: &mut [[u64; 5]],
    ) {
        let (m, k0) = (splat(&k.digits), _mm512_set1_epi64(k.k0 as i64));
        // buckets[d][l]: lane l's bucket for digit d, the Montgomery one
        // until a base lands in it.
        let mut buckets = vec![[k.one; BATCH]; 1 << width];
        // Each lane's bit offset; padding lanes take digit 0 throughout.
        let pos: [Option<u32>; BATCH] = std::array::from_fn(|l| {
            let w = windows.start + l as u32;
            windows.contains(&w).then_some(w * width)
        });
        let rr = [splat(&k.rr); C];
        for (bases, exps) in bases.chunks(C * LANES).zip(exps.chunks(C * LANES)) {
            let mut padded = [U256::ZERO; BATCH];
            padded[..bases.len()].copy_from_slice(bases);
            let x: [Lanes; C] = std::array::from_fn(|c| load(&padded[c * LANES..]));
            let mut radix = [[0u64; 5]; BATCH];
            for (c, x) in montmul(&x, &rr, &m, k0).iter().enumerate() {
                store(x, &mut radix[c * LANES..]);
            }
            for (base, e) in radix.iter().zip(exps) {
                let d: [usize; BATCH] =
                    std::array::from_fn(|l| pos[l].map_or(0, |at| digit(e, at, width)));
                let bucket: [Lanes; C] = std::array::from_fn(|c| {
                    gather(std::array::from_fn(|i| {
                        let l = c * LANES + i;
                        &buckets[d[l]][l]
                    }))
                });
                let product = montmul(&bucket, &[splat(base); C], &m, k0);
                let mut spill = [[0u64; 5]; BATCH];
                for (c, x) in product.iter().enumerate() {
                    store(x, &mut spill[c * LANES..]);
                }
                for l in 0..C * LANES {
                    buckets[d[l]][l] = spill[l];
                }
            }
        }
        // running = Π_{d' ≥ d} B_d', and the product of the runnings
        // over d is Π_d B_d^d.
        let bucket = |d: usize| -> [Lanes; C] {
            std::array::from_fn(|c| gather(std::array::from_fn(|i| &buckets[d][c * LANES + i])))
        };
        let top = (1 << width) - 1;
        let mut running = bucket(top);
        let mut total = running;
        for d in (1..top).rev() {
            running = montmul(&running, &bucket(d), &m, k0);
            total = montmul(&total, &running, &m, k0);
        }
        let total = montmul(&total, &[splat(&[1, 0, 0, 0, 0]); C], &m, k0);
        for (c, x) in total.iter().enumerate() {
            store(x, &mut out[c * LANES..]);
        }
    }

    /// `rows^exps[i] · ops[i]` per lane for `C · 8` lanes: every row's
    /// entry (31 products), the plain operand, then the radix correction
    /// `2^388` (module docs), into `out` as digits of a value below `2m`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn fixed_pow_mul<const C: usize>(
        k: &Radix,
        rows: &[[Mont; ENTRIES]],
        exps: &[U256],
        ops: &[U256],
        out: &mut [[u64; 5]],
    ) {
        let (m, k0) = (splat(&k.digits), _mm512_set1_epi64(k.k0 as i64));
        let entries = |w: usize| -> [Lanes; C] {
            std::array::from_fn(|c| load_entries(rows, w, &exps[c * LANES..]))
        };
        let mut acc = entries(0);
        for w in 1..rows.len() {
            acc = montmul(&acc, &entries(w), &m, k0);
        }
        let ops: [Lanes; C] = std::array::from_fn(|c| load(&ops[c * LANES..]));
        let acc = montmul(&acc, &ops, &m, k0);
        let acc = montmul(&acc, &[splat(&k.fix); C], &m, k0);
        for (c, x) in acc.iter().enumerate() {
            store(x, &mut out[c * LANES..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{FixedBasePowers, PrecomputedKey};
    use crate::elgamal::{keygen, Ciphertext};
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
        let here = pow_batch(&Radix::new(&m), &[U256::ONE], &U256::ONE).is_some();
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
            println!("avx512f + avx512ifma detected: comparing the lane kernels themselves");
        } else {
            println!(
                "no avx512ifma on this CPU: the lane kernels are unavailable, pow_all runs \
                 Modulus::pow and the fixed-base batches FixedBasePowers::pow_mul"
            );
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
                    let got = pow_batch(&Radix::new(&m), &bases[..n], e).unwrap();
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
                let got = pow_batch(&Radix::new(p), &bases[..n], &e).unwrap();
                assert_eq!(got[..n], scalar(p, &bases[..n], &e), "n = {n}");
            }
        }
    }

    /// `Modulus::pow` of each base reduced under its own exponent, the
    /// per-lane kernel's contract.
    fn scalar_each(m: &Modulus, bases: &[U256], exps: &[U256]) -> Vec<U256> {
        bases
            .iter()
            .zip(exps)
            .map(|(b, e)| m.pow(&m.reduce(b), e))
            .collect()
    }

    /// Exponents 0, 1, `q − 1`, `q` and all ones beside random words,
    /// mixed within each batch, against bases 0, 1, `m − 1` and values
    /// at and above `m`: every pair, in batches of sixteen and of eight.
    #[test]
    fn pow_each_lanes_match_scalar_pow_on_edges() {
        if !lanes_here() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(44);
        let q = U256::from_hex(crate::group::Q_HEX).unwrap();
        let word = |rng: &mut StdRng| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
        let mut cases = 0;
        for m in moduli() {
            let top = m.modulus().wrapping_sub(&U256::ONE);
            let mut exps = vec![
                U256::ZERO,
                U256::ONE,
                q.wrapping_sub(&U256::ONE),
                q,
                U256::MAX,
            ];
            exps.extend((0..3).map(|_| word(&mut rng)));
            let mut bases = vec![U256::ZERO, U256::ONE, top, *m.modulus(), U256::MAX];
            bases.extend((0..2).map(|_| m.sample(&mut rng)));
            // Base-major pairs: each batch mixes every edge exponent.
            let (b, e): (Vec<U256>, Vec<U256>) = bases
                .iter()
                .flat_map(|b| exps.iter().map(move |e| (*b, *e)))
                .unzip();
            for n in [BATCH, LANES] {
                for (b, e) in b.chunks(n).zip(e.chunks(n)) {
                    let got = pow_each_batch(&Radix::new(&m), b, e).unwrap();
                    assert_eq!(got[..b.len()], scalar_each(&m, b, e), "mod {}", m.modulus());
                    cases += b.len();
                }
            }
        }
        println!("{cases} per-lane-exponent results equal to Modulus::pow");
    }

    /// Every batch length the per-lane kernel takes, one chain or two.
    #[test]
    fn every_pow_each_batch_length_matches_scalar_pow() {
        if !lanes_here() {
            return;
        }
        let p = &moduli()[0];
        let mut rng = StdRng::seed_from_u64(45);
        let bases: Vec<U256> = (0..BATCH).map(|_| p.sample(&mut rng)).collect();
        let exps: Vec<U256> = (0..BATCH)
            .map(|_| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]))
            .collect();
        for n in 0..=BATCH {
            let got = pow_each_batch(&Radix::new(p), &bases[..n], &exps[..n]).unwrap();
            assert_eq!(got[..n], scalar_each(p, &bases[..n], &exps[..n]), "n = {n}");
        }
    }

    /// Exactly 331 lane products per lane on the lane path, whatever
    /// the exponents (zero ones included), a short batch's padding
    /// counted: one chain to eight lanes, two past eight.
    #[test]
    fn pow_each_kernel_calls_are_pinned() {
        const POW_EACH: u64 = 1 + 14 + 63 * 5 + 1; // in, table, windows, out
        let p = &moduli()[0];
        let k = Radix::new(p);
        let mut rng = StdRng::seed_from_u64(46);
        let bases: Vec<U256> = (0..BATCH).map(|_| p.sample(&mut rng)).collect();
        let lanes = lanes_here();
        for exps in [
            vec![U256::MAX; BATCH],
            vec![U256::ZERO; BATCH],
            (0..BATCH).map(|_| p.sample(&mut rng)).collect(),
        ] {
            for (n, padded) in [(0, 8), (1, 8), (8, 8), (9, 16), (16, 16)] {
                let (out, calls) = ops::count(|| pow_each_batch(&k, &bases[..n], &exps[..n]));
                assert_eq!(out.is_some(), lanes);
                assert_eq!(calls, if lanes { padded * POW_EACH } else { 0 }, "n = {n}");
            }
        }
        assert_eq!(POW_EACH, 331);
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

    /// The shipped group and a generated 64-bit one (short modulus,
    /// upper limbs zero), each with a table for a random base.
    fn tables() -> Vec<(GroupParams, FixedBasePowers)> {
        let mut rng = StdRng::seed_from_u64(39);
        [
            GroupParams::default_params(),
            GroupParams::generate(64, &mut rng),
        ]
        .into_iter()
        .map(|gp| {
            let base = gp.random_element(&mut rng);
            let table = FixedBasePowers::new(&gp, &base);
            (gp, table)
        })
        .collect()
    }

    /// The fixed-base kernel over `table`'s rows.
    fn fixed_kernel(table: &FixedBasePowers, exps: &[U256], ops: &[U256]) -> Option<[U256; BATCH]> {
        let (k, rows) = table.lane_rows();
        fixed_pow_mul_batch(k, rows, exps, ops)
    }

    /// The fixed-base kernel's contract: `pow_mul` of the operand
    /// reduced (which a zero exponent returns as it is).
    fn scalar_pow_mul(
        gp: &GroupParams,
        t: &FixedBasePowers,
        exps: &[U256],
        ops: &[U256],
    ) -> Vec<U256> {
        exps.iter()
            .zip(ops)
            .map(|(e, x)| {
                let x = GroupElement(gp.p_modulus().reduce(x));
                t.pow_mul(gp, &Scalar(*e), &x).0
            })
            .collect()
    }

    /// Zero, one, `q − 1`, every single-window `255 · 2^(8w)`, all ones
    /// and random words, against operands 1, `p − 1` and random ones,
    /// in batches of sixteen and of eight.
    #[test]
    fn fixed_lanes_match_scalar_pow_mul_on_edges() {
        if !lanes_here() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(40);
        let mut cases = 0;
        for (gp, table) in tables() {
            let mut exps = vec![
                U256::ZERO,
                U256::ONE,
                gp.q().wrapping_sub(&U256::ONE),
                U256::MAX,
            ];
            exps.extend((0..32).map(|w| U256::from_u64(255).shl(8 * w)));
            exps.extend((0..20).map(|_| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])));
            let ops = [
                U256::ONE,
                gp.p().wrapping_sub(&U256::ONE),
                gp.random_element(&mut rng).0,
                gp.random_element(&mut rng).0,
            ];
            let pairs: Vec<(U256, U256)> = exps
                .iter()
                .flat_map(|e| ops.iter().map(move |x| (*e, *x)))
                .collect();
            for n in [BATCH, LANES] {
                for chunk in pairs.chunks(n) {
                    let (e, x): (Vec<U256>, Vec<U256>) = chunk.iter().copied().unzip();
                    let got = fixed_kernel(&table, &e, &x).unwrap();
                    assert_eq!(
                        got[..chunk.len()],
                        scalar_pow_mul(&gp, &table, &e, &x),
                        "{chunk:?}"
                    );
                    cases += chunk.len();
                }
            }
        }
        println!("{cases} fixed-base lane results equal to FixedBasePowers::pow_mul");
    }

    /// Every batch length the kernel takes, one chain or two.
    #[test]
    fn every_fixed_batch_length_matches_scalar_pow_mul() {
        if !lanes_here() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(41);
        for (gp, table) in tables() {
            let exps: Vec<U256> = (0..BATCH).map(|_| gp.random_scalar(&mut rng).0).collect();
            let ops: Vec<U256> = (0..BATCH).map(|_| gp.random_element(&mut rng).0).collect();
            for n in 0..=BATCH {
                let got = fixed_kernel(&table, &exps[..n], &ops[..n]);
                let expect = scalar_pow_mul(&gp, &table, &exps[..n], &ops[..n]);
                assert_eq!(got.unwrap()[..n], expect, "n = {n}");
            }
        }
    }

    /// The key's batch entry points against scalar `pow_mul` on either
    /// path: lengths 0 to 17 and 33, on 1, 2 and 5 threads, zero
    /// exponents (whose operand comes back as it went in) among them.
    #[test]
    fn key_batches_match_scalar_pow_mul_at_every_length() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(42);
        let kp = keygen(&gp, &mut rng);
        let pk = PrecomputedKey::new(&gp, &kp.public);
        let g = FixedBasePowers::new(&gp, &gp.generator());
        let y = FixedBasePowers::new(&gp, &kp.public.0);
        let items: Vec<(Scalar, GroupElement, GroupElement)> = (0..33)
            .map(|i| {
                let s = match i % 5 {
                    0 => Scalar::ZERO,
                    1 => Scalar(U256::MAX),
                    _ => gp.random_scalar(&mut rng),
                };
                (s, gp.random_element(&mut rng), gp.random_element(&mut rng))
            })
            .collect();
        for n in (0..=17).chain([33]) {
            for threads in [1, 2, 5] {
                let gs = pk.g_pow_mul_all(&gp, n, threads, |i| (items[i].0, items[i].1));
                let cts = pk.rerandomize_all(&gp, n, threads, |i| {
                    let (s, a, b) = items[i];
                    (Ciphertext { a, b }, s)
                });
                let expect: Vec<GroupElement> = items[..n]
                    .iter()
                    .map(|(s, a, _)| g.pow_mul(&gp, s, a))
                    .collect();
                assert_eq!(gs, expect, "n = {n}, threads = {threads}");
                let expect: Vec<Ciphertext> = items[..n]
                    .iter()
                    .map(|(s, a, b)| Ciphertext {
                        a: g.pow_mul(&gp, s, a),
                        b: y.pow_mul(&gp, s, b),
                    })
                    .collect();
                assert_eq!(cts, expect, "n = {n}, threads = {threads}");
            }
        }
    }

    /// 33 lane products per lane on the lane path, a short batch's
    /// padding included; `pow_mul`'s ≤ 32 per power elsewhere.
    #[test]
    fn fixed_batch_kernel_calls_are_pinned() {
        const FIXED: u64 = 31 + 1 + 1; // rows, operand, correction
        const SCALAR: u64 = 32; // FixedBasePowers::pow_mul, all-ones exponent
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(43);
        let kp = keygen(&gp, &mut rng);
        let pk = PrecomputedKey::new(&gp, &kp.public);
        let x = gp.random_element(&mut rng);
        let ct = Ciphertext { a: x, b: x };
        let lanes = lanes_here();
        let g_calls =
            |n: usize, e: Scalar| ops::count(|| pk.g_pow_mul_all(&gp, n, 1, |_| (e, x))).1;
        let max = Scalar(U256::MAX);
        for (n, padded) in [
            (0, 0),
            (1, 8),
            (8, 8),
            (9, 16),
            (16, 16),
            (17, 24),
            (33, 40),
        ] {
            let expect = if lanes {
                padded * FIXED
            } else {
                n as u64 * SCALAR
            };
            assert_eq!(g_calls(n, max), expect, "n = {n}");
            let re = ops::count(|| pk.rerandomize_all(&gp, n, 1, |_| (ct, max))).1;
            assert_eq!(re, 2 * expect, "n = {n}");
        }
        // The lanes make every product whatever the scalar; the scalar
        // path skips zero windows.
        for _ in 0..20 {
            let e = gp.random_scalar(&mut rng);
            let calls = g_calls(BATCH, e);
            if lanes {
                assert_eq!(calls, BATCH as u64 * FIXED);
            } else {
                assert!(calls <= BATCH as u64 * SCALAR);
            }
        }
        assert_eq!(
            g_calls(BATCH, Scalar::ZERO),
            if lanes { BATCH as u64 * FIXED } else { 0 }
        );
    }

    /// Each window's `Π_j bases[j]^d_j`, `d_j` the exponent's digit
    /// there: the bucket kernel's contract.
    fn scalar_windows(
        m: &Modulus,
        bases: &[U256],
        exps: &[U256],
        width: u32,
        windows: Range<u32>,
    ) -> Vec<U256> {
        let one = m.reduce(&U256::ONE);
        windows
            .map(|w| {
                bases.iter().zip(exps).fold(one, |acc, (b, e)| {
                    let d = U256::from_u64(digit(e, w * width, width) as u64);
                    m.mul(&acc, &m.pow(&m.reduce(b), &d))
                })
            })
            .collect()
    }

    /// Exponents for the bucket kernel: 0, 1, `q − 1`, all ones, a run
    /// of one word whose bytes are all equal (each base of the run lands
    /// in the same bucket of every lane, step after step), and random
    /// words.
    fn bucket_exps(n: usize, rng: &mut StdRng) -> Vec<U256> {
        let q = U256::from_hex(crate::group::Q_HEX).unwrap();
        (0..n)
            .map(|i| match i % 8 {
                0 => U256::ZERO,
                1 => U256::ONE,
                2 => q.wrapping_sub(&U256::ONE),
                3 => U256::MAX,
                4..=6 => U256([0x5a5a_5a5a_5a5a_5a5a; 4]),
                _ => U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]),
            })
            .collect()
    }

    /// Every window width, every window of a 256-bit exponent sixteen
    /// to a call (a short last call takes one chain where it fits), and
    /// windows 3 to 7 on one chain, over 0 to 17 bases on four moduli,
    /// and 300 bases on `p` at the shipped widths.
    #[test]
    fn bucket_lanes_match_the_per_window_products() {
        if !lanes_here() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(47);
        let mut cases = 0;
        for (i, m) in moduli().iter().enumerate() {
            let k = Radix::new(m);
            for n in [0, 1, 15, 16, 17, 300] {
                let bases: Vec<U256> = (0..n)
                    .map(|j| match j % 4 {
                        0 => m.modulus().wrapping_sub(&U256::ONE),
                        1 => U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]),
                        _ => m.sample(&mut rng),
                    })
                    .collect();
                let exps = bucket_exps(n, &mut rng);
                let widths: &[u32] = match (i, n) {
                    (0, 300) => &[4, 8],
                    (_, 300) => &[],
                    _ => &[1, 2, 3, 4, 5, 6, 7, 8],
                };
                for &width in widths {
                    let all = 256_u32.div_ceil(width);
                    let mut ranges: Vec<Range<u32>> = (0..all)
                        .step_by(BATCH)
                        .map(|w| w..all.min(w + BATCH as u32))
                        .collect();
                    ranges.push(3..8);
                    for windows in ranges {
                        let got = bucket_batch(&k, &bases, &exps, width, windows.clone()).unwrap();
                        let expect = scalar_windows(m, &bases, &exps, width, windows.clone());
                        assert_eq!(
                            got[..windows.len()],
                            expect,
                            "n = {n}, width {width}, windows {windows:?} mod {}",
                            m.modulus()
                        );
                        cases += windows.len();
                    }
                }
            }
        }
        println!("{cases} bucket-kernel windows equal to their per-window products");
    }

    /// Per call, exactly `C · 8` lane products (`C` chains) for each of:
    /// the bases into lane radix (`C · 8` a call), one bucket product per
    /// base, the fold's `2 · (2^width − 2)` and one out of Montgomery
    /// form, whatever the digits: zero exponents cost the same.
    #[test]
    fn bucket_kernel_calls_are_pinned() {
        let p = &moduli()[0];
        let k = Radix::new(p);
        let mut rng = StdRng::seed_from_u64(48);
        let bases: Vec<U256> = (0..40).map(|_| p.sample(&mut rng)).collect();
        let lanes = lanes_here();
        for exps in [
            (0..40).map(|_| p.sample(&mut rng)).collect(),
            vec![U256::ZERO; 40],
        ] {
            for width in [1, 4, 8] {
                for (n, windows) in [
                    (0, 0..16),
                    (1, 0..16),
                    (17, 0..8),
                    (17, 3..12),
                    (40, 16..32),
                ] {
                    let (out, calls) = ops::count(|| {
                        bucket_batch(&k, &bases[..n], &exps[..n], width, windows.clone())
                    });
                    assert_eq!(out.is_some(), lanes);
                    let lanes_per_product = if windows.len() > LANES { BATCH } else { LANES };
                    let products = n.div_ceil(lanes_per_product) + n + (2 << width) - 4 + 1;
                    let expect = if lanes {
                        (lanes_per_product * products) as u64
                    } else {
                        0
                    };
                    assert_eq!(calls, expect, "n = {n}, width {width}, {windows:?}");
                }
            }
        }
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
            if let Some(got) = pow_batch(&Radix::new(p), &bases, &e) {
                prop_assert_eq!(&got[..n], &scalar(p, &bases, &e)[..]);
            }
        }

        #[test]
        fn pow_each_lanes_match_scalar_pow(seed in any::<u64>(), n in 0..BATCH + 1, wide in any::<bool>()) {
            let p = &moduli()[0];
            let mut rng = StdRng::seed_from_u64(seed);
            let word = |rng: &mut StdRng| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
            let bases: Vec<U256> = (0..n)
                .map(|_| if wide { word(&mut rng) } else { p.sample(&mut rng) })
                .collect();
            let exps: Vec<U256> = (0..n).map(|_| word(&mut rng)).collect();
            if let Some(got) = pow_each_batch(&Radix::new(p), &bases, &exps) {
                prop_assert_eq!(&got[..n], &scalar_each(p, &bases, &exps)[..]);
            }
        }

        #[test]
        fn fixed_lanes_match_scalar_pow_mul(seed in any::<u64>(), n in 0..BATCH + 1, wide in any::<bool>()) {
            let (gp, table) = &tables()[0];
            let mut rng = StdRng::seed_from_u64(seed);
            let word = |rng: &mut StdRng| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
            let exps: Vec<U256> = (0..n).map(|_| word(&mut rng)).collect();
            let ops: Vec<U256> = (0..n)
                .map(|_| if wide { word(&mut rng) } else { gp.random_element(&mut rng).0 })
                .collect();
            if let Some(got) = fixed_kernel(table, &exps, &ops) {
                prop_assert_eq!(&got[..n], &scalar_pow_mul(gp, table, &exps, &ops)[..]);
            }
        }
    }
}

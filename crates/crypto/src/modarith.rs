//! Modular arithmetic over 256-bit odd moduli.
//!
//! [`Modulus`] packages a modulus with precomputed Montgomery constants
//! and provides add/sub/mul/pow/inv, the Jacobi symbol ([`jacobi`]) and
//! Miller–Rabin primality testing. All group and field operations in
//! this crate are built on it.
//!
//! # Kernels and op counts
//!
//! Everything expensive is a chain of calls to one kernel, the
//! Montgomery product `montmul`: a fully unrolled four-limb
//! operand-scanning routine in plain `u128` arithmetic, which also
//! serves as the squaring (a dedicated squaring kernel measured no
//! faster). The kernel is throughput-bound, not latency-bound: two
//! independent same-exponent chains interleaved link by link run no
//! faster than one after the other (ROADMAP item 4's closed list), so
//! a lone chain already keeps the multiplier busy. It is
//! `#[inline(always)]` on purpose. An exponentiation is one long
//! dependent chain of kernel calls, and behind a call boundary each
//! link round-trips its four limbs through memory — measured, the same
//! kernel costs a third more out of line. The cost of every primitive
//! is therefore stated, and pinned by unit tests, in kernel calls,
//! which are exact on any machine:
//!
//! | operation | kernel calls (256-bit exponent) |
//! |---|---|
//! | [`Modulus::mul`] | 2 (into Montgomery form, multiply back out) |
//! | [`Modulus::pow`] | ≤ 331: 15 table + 63·4 squarings + ≤ 63 products + 1 out |
//! | [`Modulus::pow2`] | ≤ 410: 30 table + 252 squarings + ≤ 127 products + 1 out |
//! | [`Modulus::pow_pair`] | ≤ 458 for both powers: 1 in + 192 squarings + 11 table, then per exponent 63 squarings + ≤ 63 products + 1 out |
//! | [`crate::batch::FixedBasePowers::pow`] | ≤ 32: ≤ 31 products + 1 out |
//! | [`crate::batch::FixedBasePowers::new`] | 8 160: 1 in + 32 rows × 254 products + 31 row steps |
//! | [`crate::zkp::DleqProof::verify_batch`] | on AVX-512 IFMA, exactly per proof: 4 × 327 lane products for membership (`x^q` of `a`, `d`, `t1`, `t2`, a short batch padding to 8 or 16 lanes), 4 for the weighted exponents, and the three bucket calls, joins and `g^Σ · y^Σ` (≈ 136 per proof at 516 proofs); ≤ 116 per proof at 512 proofs elsewhere (≤ 538 per proof checked alone with a table for `y`) |
//! | bucket lane batch (`Buckets` in `crate::lanes`) | per lane of `C` chains over `n` bases: exactly `⌈n / 8C⌉` into lane radix + `n` bucket products + `2 · (2^width − 2)` for the fold + 1 out |
//! | [`crate::group::GroupParams::pow_all`] | ≤ 331 per base, as [`Modulus::pow`]: on AVX-512 IFMA, 8 or 16 lanes per lane-kernel product, counted once per lane (a short batch pays for its padding) |
//! | per-lane-exponent lane batch (`PowEach` in `crate::lanes`) | exactly 331 per lane on AVX-512 IFMA: 1 in + 14 table + 64 windows' 63 · (4 squarings + 1 gathered product) + 1 out, padding included |
//! | [`crate::zkp::DleqProof::raise_and_prove_all`] | per proof on AVX-512 IFMA: `a^x` as `pow_all` (≤ 331), 331 for the commitment `a^w` (`PowEach`), 33 for `g^w` through the generator's table, 2 for the response; ≤ 458 + 32 elsewhere, as `DleqProof::raise_and_prove` |
//! | [`crate::batch::PrecomputedKey::g_pow_mul_all`] | per table power, exactly 33 on AVX-512 IFMA: 31 row products + 1 operand + 1 radix correction, counted per lane, padding included; ≤ 32 elsewhere, as [`crate::batch::FixedBasePowers::pow`] ([`crate::batch::PrecomputedKey::rerandomize_all`]: two per ciphertext) |
//!
//! [`Modulus::pow`] is a left-to-right 4-bit fixed window: the table
//! holds `base^0 … base^15`, the top window seeds the accumulator, and
//! each further window costs four squarings and at most one product.
//! (The binary ladder it replaced paid 255 squarings + ~128 products;
//! it survives as the test oracle.) [`Modulus::pow_pair`] raises one
//! base to two exponents with a Lim–Lee comb, paying the squarings once
//! for both. Fixed-base tables ([`crate::batch`]) use 8-bit windows,
//! stay in Montgomery form end to end and convert once per
//! exponentiation; a batch of exponentiations multiplied together
//! ([`crate::batch`]'s `multi_exp`, under batched proof verification)
//! costs about one product per base per window.
//!
//! None of this is constant-time: window lookups index by secret
//! nibbles, zero windows skip their product, and the final subtraction
//! branches. The lane kernel behind `pow_all` follows the same
//! window schedule, so it branches on the shared exponent in the same
//! way; its per-lane-exponent batches index their window tables, and
//! its fixed-base batches the table rows, by each lane's digits. The crate-level security disclaimer stands.

use crate::u256::U256;
use rand::Rng;

/// Window width of [`Modulus::pow`] and [`Modulus::pow2`], in bits
/// ([`window`] and the 16-entry tables are written for exactly this
/// width; a 5-bit sliding window was swept in PR 16 and did not win).
/// The lane kernel follows the same schedule.
pub(crate) const WINDOW_BITS: u32 = 4;

/// Window `w` (bits `4w .. 4w+3`) of `e`.
#[inline(always)]
pub(crate) fn window(e: &U256, w: u32) -> usize {
    ((e.0[(w / 16) as usize] >> (WINDOW_BITS * (w % 16))) & 0xF) as usize
}

/// A residue held in Montgomery form (`x · 2^256 mod m`). Only
/// [`Modulus`] creates and consumes these, so a plain residue cannot be
/// mistaken for one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mont(U256);

impl Mont {
    /// The stored value `x · 2^256 mod m`, read by the lane kernel's
    /// fixed-base loads.
    pub(crate) fn raw(&self) -> &U256 {
        &self.0
    }
}

/// Kernel-call counter for the op-count unit tests: thread-local, so
/// concurrently running tests do not see each other's calls, and
/// compiled out of every non-test build.
#[cfg(test)]
pub(crate) mod ops {
    use std::cell::Cell;

    thread_local! {
        static CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts `n` products: 1 per `montmul`, one per lane per call of
    /// the lane kernel.
    #[inline(always)]
    pub(crate) fn tick(n: u64) {
        CALLS.with(|c| c.set(c.get() + n));
    }

    /// Runs `f` and returns its result with the number of
    /// `montmul` calls (lane products counted per lane) it made on this
    /// thread.
    pub(crate) fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = CALLS.with(Cell::get);
        let out = f();
        (out, CALLS.with(Cell::get) - before)
    }
}

/// An odd 256-bit modulus with precomputed Montgomery parameters.
///
/// Values passed to the arithmetic methods must already be reduced
/// (`< modulus`); this is debug-asserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Modulus {
    /// The modulus `m` (odd, > 1).
    m: U256,
    /// `-m^{-1} mod 2^64`, for Montgomery reduction.
    n0inv: u64,
    /// `2^512 mod m`, used to convert into Montgomery form.
    r2: U256,
    /// `2^256 mod m` (the Montgomery representation of 1).
    r1: U256,
}

impl Modulus {
    /// Creates a modulus context. Panics if `m` is even or < 3.
    pub fn new(m: U256) -> Modulus {
        assert!(m.is_odd(), "Montgomery arithmetic requires an odd modulus");
        assert!(m > U256::ONE, "modulus must be > 1");
        let n0inv = inv64(m.low_u64()).wrapping_neg();
        // r1 = 2^256 mod m by repeated doubling of (2^255 mod m)-ish path:
        // start from 1, double 256 times with reduction.
        let mut r1 = one_mod(&m);
        for _ in 0..256 {
            r1 = double_mod(&r1, &m);
        }
        // r2 = 2^512 mod m: double r1 another 256 times.
        let mut r2 = r1;
        for _ in 0..256 {
            r2 = double_mod(&r2, &m);
        }
        Modulus { m, n0inv, r2, r1 }
    }

    /// The raw modulus value.
    pub fn modulus(&self) -> &U256 {
        &self.m
    }

    /// `(m, -m^{-1} mod 2^64, 2^512 mod m)`, from which the lane kernel
    /// derives the constants of its own radix.
    pub(crate) fn montgomery_constants(&self) -> (&U256, u64, &U256) {
        (&self.m, self.n0inv, &self.r2)
    }

    /// `(a + b) mod m` for reduced inputs.
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        debug_assert!(a < &self.m && b < &self.m);
        let (sum, carry) = a.overflowing_add(b);
        if carry || sum >= self.m {
            sum.wrapping_sub(&self.m)
        } else {
            sum
        }
    }

    /// `(a - b) mod m` for reduced inputs.
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        debug_assert!(a < &self.m && b < &self.m);
        let (diff, borrow) = a.overflowing_sub(b);
        if borrow {
            diff.wrapping_add(&self.m)
        } else {
            diff
        }
    }

    /// `-a mod m` for a reduced input.
    pub fn neg(&self, a: &U256) -> U256 {
        if a.is_zero() {
            U256::ZERO
        } else {
            self.m.wrapping_sub(a)
        }
    }

    /// Montgomery product `a · b · 2^-256 mod m`: four unrolled
    /// multiply-then-reduce rounds, one per limb of `a`, carried in
    /// `u128`s. Inlined into every caller — see the module docs.
    #[inline(always)]
    fn montmul(&self, a: &U256, b: &U256) -> U256 {
        #[cfg(test)]
        ops::tick(1);
        let (b, m, n0inv) = (&b.0, &self.m.0, self.n0inv);
        let (mut t0, mut t1, mut t2, mut t3, mut t4) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for &ai in &a.0 {
            // t += a[i]·b
            let ai = ai as u128;
            let x0 = t0 as u128 + ai * b[0] as u128;
            let x1 = t1 as u128 + ai * b[1] as u128 + (x0 >> 64);
            let x2 = t2 as u128 + ai * b[2] as u128 + (x1 >> 64);
            let x3 = t3 as u128 + ai * b[3] as u128 + (x2 >> 64);
            let x4 = t4 as u128 + (x3 >> 64);
            // t = (t + q·m) / 2^64 with q chosen so the low limb cancels
            let q = (x0 as u64).wrapping_mul(n0inv) as u128;
            let r0 = (x0 as u64) as u128 + q * m[0] as u128;
            let r1 = (x1 as u64) as u128 + q * m[1] as u128 + (r0 >> 64);
            let r2 = (x2 as u64) as u128 + q * m[2] as u128 + (r1 >> 64);
            let r3 = (x3 as u64) as u128 + q * m[3] as u128 + (r2 >> 64);
            let r4 = x4 + (r3 >> 64);
            (t0, t1, t2, t3, t4) = (
                r1 as u64,
                r2 as u64,
                r3 as u64,
                r4 as u64,
                (r4 >> 64) as u64,
            );
        }
        // t4·2^256 + t < 2m: at most one subtraction of `m`.
        let t = U256([t0, t1, t2, t3]);
        let (d, borrow) = t.overflowing_sub(&self.m);
        if t4 != 0 || !borrow {
            d
        } else {
            t
        }
    }

    /// `a` in Montgomery form.
    #[inline(always)]
    pub(crate) fn mont_in(&self, a: &U256) -> Mont {
        debug_assert!(a < &self.m);
        Mont(self.montmul(a, &self.r2))
    }

    /// Leaves Montgomery form.
    #[inline(always)]
    pub(crate) fn mont_out(&self, a: &Mont) -> U256 {
        self.montmul(&a.0, &U256::ONE)
    }

    /// The Montgomery form of 1.
    pub(crate) fn mont_one(&self) -> Mont {
        Mont(self.r1)
    }

    /// Product of two Montgomery-form residues, in Montgomery form.
    #[inline(always)]
    pub(crate) fn mont_mul(&self, a: &Mont, b: &Mont) -> Mont {
        Mont(self.montmul(&a.0, &b.0))
    }

    /// `a · b mod m` for a Montgomery-form `a` and a plain reduced `b`,
    /// as a plain residue: the multiplication that also leaves
    /// Montgomery form.
    #[inline(always)]
    pub(crate) fn mont_mul_plain(&self, a: &Mont, b: &U256) -> U256 {
        debug_assert!(b < &self.m);
        self.montmul(&a.0, b)
    }

    /// `a * b mod m` for reduced inputs.
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        debug_assert!(a < &self.m && b < &self.m);
        // montmul(a, R²) = a·R; montmul(a·R, b) = a·b — two kernel calls.
        self.montmul(&self.montmul(a, &self.r2), b)
    }

    /// `a^2 mod m`.
    fn sqr(&self, a: &U256) -> U256 {
        self.mul(a, a)
    }

    /// `base^0 … base^15` in Montgomery form (15 kernel calls).
    #[inline(always)]
    fn window_table(&self, base: &U256) -> [U256; 16] {
        debug_assert!(base < &self.m);
        let mut t = [self.r1; 16];
        t[1] = self.montmul(base, &self.r2);
        for j in 2..16 {
            t[j] = self.montmul(&t[j - 1], &t[1]);
        }
        t
    }

    /// `base^exp mod m` by a 4-bit fixed window in Montgomery form
    /// (≤ 331 kernel calls for a 256-bit exponent; see the module docs).
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        if exp.is_zero() {
            return one_mod(&self.m);
        }
        let table = self.window_table(base);
        let top = (exp.bits() - 1) / WINDOW_BITS;
        // The top window is nonzero by construction: start from its entry.
        let mut acc = table[window(exp, top)];
        for w in (0..top).rev() {
            for _ in 0..WINDOW_BITS {
                acc = self.montmul(&acc, &acc);
            }
            let j = window(exp, w);
            if j != 0 {
                acc = self.montmul(&acc, &table[j]);
            }
        }
        self.montmul(&acc, &U256::ONE) // out of Montgomery form
    }

    /// `a^x · b^y mod m` by Straus' simultaneous exponentiation: one
    /// shared run of squarings, two 4-bit window tables (≤ 410 kernel
    /// calls against ≤ 664 for two [`Modulus::pow`]s and a product).
    pub fn pow2(&self, a: &U256, x: &U256, b: &U256, y: &U256) -> U256 {
        let bits = x.bits().max(y.bits());
        if bits == 0 {
            return one_mod(&self.m);
        }
        let (ta, tb) = (self.window_table(a), self.window_table(b));
        let top = (bits - 1) / WINDOW_BITS;
        // Entry 0 of a table is the Montgomery 1, so a zero window of
        // `x` costs nothing here.
        let mut acc = ta[window(x, top)];
        let j = window(y, top);
        if j != 0 {
            acc = self.montmul(&acc, &tb[j]);
        }
        for w in (0..top).rev() {
            for _ in 0..WINDOW_BITS {
                acc = self.montmul(&acc, &acc);
            }
            let (i, j) = (window(x, w), window(y, w));
            if i != 0 {
                acc = self.montmul(&acc, &ta[i]);
            }
            if j != 0 {
                acc = self.montmul(&acc, &tb[j]);
            }
        }
        self.montmul(&acc, &U256::ONE)
    }

    /// `(base^x mod m, base^y mod m)` by a 4-row Lim–Lee comb shared
    /// between both exponents: row `i` of an exponent is its limb `i`,
    /// the 16-entry table holds every product of
    /// `base, base^(2^64), base^(2^128), base^(2^192)`, and each exponent
    /// then costs one squaring and at most one product per 64-bit
    /// column. The 192 squarings and 11 products of the table are paid
    /// once for both (≤ 458 kernel calls against ≤ 662 for two
    /// [`Modulus::pow`]s).
    pub fn pow_pair(&self, base: &U256, x: &U256, y: &U256) -> (U256, U256) {
        debug_assert!(base < &self.m);
        let mut t = [self.r1; 16];
        t[1] = self.montmul(base, &self.r2);
        for row in 1..4 {
            let mut s = t[1 << (row - 1)];
            for _ in 0..64 {
                s = self.montmul(&s, &s);
            }
            t[1 << row] = s;
        }
        for j in 3..16usize {
            if !j.is_power_of_two() {
                let low = j & j.wrapping_neg();
                t[j] = self.montmul(&t[j - low], &t[low]);
            }
        }
        (self.comb(&t, x), self.comb(&t, y))
    }

    /// `base^e` from [`Modulus::pow_pair`]'s comb table `t`: column `c`
    /// gathers bit `c` of each limb of `e`.
    #[inline(always)]
    fn comb(&self, t: &[U256; 16], e: &U256) -> U256 {
        let column = |c: u32| -> usize {
            (0..4).fold(0, |acc, row| acc | (((e.0[row] >> c) & 1) as usize) << row)
        };
        let all = e.0[0] | e.0[1] | e.0[2] | e.0[3];
        if all == 0 {
            return one_mod(&self.m);
        }
        let top = 63 - all.leading_zeros();
        // The top column is nonzero by construction: start from its entry.
        let mut acc = t[column(top)];
        for c in (0..top).rev() {
            acc = self.montmul(&acc, &acc);
            let j = column(c);
            if j != 0 {
                acc = self.montmul(&acc, &t[j]);
            }
        }
        self.montmul(&acc, &U256::ONE)
    }

    /// Reduces an arbitrary `U256` modulo `m` (binary reduction; fine for
    /// occasional use such as hash-to-scalar).
    pub fn reduce(&self, x: &U256) -> U256 {
        if x < &self.m {
            return *x;
        }
        // Find the shift aligning m's MSB with x's, then subtract down.
        let mut r = *x;
        let mb = self.m.bits();
        loop {
            let rb = r.bits();
            if r < self.m {
                return r;
            }
            let sh = rb - mb;
            let mut t = self.m.shl(sh);
            if t > r {
                t = self.m.shl(sh - 1);
            }
            r = r.wrapping_sub(&t);
        }
    }

    /// Modular inverse via Fermat's little theorem (`m` must be prime).
    pub fn inv_prime(&self, a: &U256) -> U256 {
        debug_assert!(!a.is_zero(), "inverse of zero");
        let e = self.m.wrapping_sub(&U256::from_u64(2));
        self.pow(a, &e)
    }

    /// Samples a uniformly random value in `[0, m)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> U256 {
        let bits = self.m.bits();
        let top_limbs = bits.div_ceil(64) as usize;
        let top_mask = if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        loop {
            let mut limbs = [0u64; 4];
            for l in limbs.iter_mut().take(top_limbs) {
                *l = rng.gen();
            }
            limbs[top_limbs - 1] &= top_mask;
            let v = U256(limbs);
            if v < self.m {
                return v;
            }
        }
    }

    /// Samples a uniformly random value in `[1, m)`.
    pub fn sample_nonzero<R: Rng + ?Sized>(&self, rng: &mut R) -> U256 {
        loop {
            let v = self.sample(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }
}

/// `1 mod m` (handles m == 1 defensively).
fn one_mod(m: &U256) -> U256 {
    if *m == U256::ONE {
        U256::ZERO
    } else {
        U256::ONE
    }
}

/// `(2a) mod m` for reduced `a`.
fn double_mod(a: &U256, m: &U256) -> U256 {
    let (d, carry) = a.overflowing_add(a);
    if carry || d >= *m {
        d.wrapping_sub(m)
    } else {
        d
    }
}

/// The Jacobi symbol `(a/n)` for odd `n`: `0` when `gcd(a, n) ≠ 1`,
/// otherwise `±1`. For prime `n` this is the Legendre symbol, i.e.
/// `a^((n-1)/2) mod n` (Euler's criterion) without the exponentiation.
///
/// Binary algorithm, no division: strip factors of two from `a` (each
/// contributes `(2/n) = -1` iff `n ≡ ±3 mod 8`), keep `a ≥ n` by
/// swapping under quadratic reciprocity (a sign flip iff both are
/// `≡ 3 mod 4`), and replace `a` by `a - n`, which leaves the symbol
/// unchanged and makes `a` even again — about 1.4 steps per input bit.
/// The loop runs on bare limbs, and hands over to `u128` arithmetic
/// once both values fit (about half the steps): ≈ 1.65 µs for 256-bit
/// inputs on a 2.1 GHz Xeon, against ≈ 7.9 µs for the exponentiation
/// (and ≈ 1.08 µs a value for the exponentiation sixteen at a time on
/// the AVX-512 IFMA lanes, which batched proof checks use instead).
pub fn jacobi(a: &U256, n: &U256) -> i8 {
    assert!(n.is_odd(), "the Jacobi symbol needs an odd modulus");
    let (mut a, mut n) = (a.0, n.0);
    // Bit 1 holds the sign (set = negative); the other bits are noise.
    let mut sign = 0u64;
    while a != [0; 4] {
        if a[2] | a[3] | n[2] | n[3] == 0 {
            let (a, n) = (U256(a).low_u128(), U256(n).low_u128());
            return jacobi_u128(a, n, sign);
        }
        while a[0] == 0 {
            // 64 factors of two: an even count, no sign change.
            a = [a[1], a[2], a[3], 0];
        }
        let twos = a[0].trailing_zeros();
        if twos != 0 {
            a = [
                (a[0] >> twos) | (a[1] << (64 - twos)),
                (a[1] >> twos) | (a[2] << (64 - twos)),
                (a[2] >> twos) | (a[3] << (64 - twos)),
                a[3] >> twos,
            ];
            sign ^= (twos as u64 & 1) * ((n[0] ^ (n[0] >> 1)) & 2);
        }
        let (d, borrow) = sub_limbs(&a, &n);
        if borrow {
            sign ^= a[0] & n[0];
            (a, n) = (sub_limbs(&n, &a).0, a);
        } else {
            a = d;
        }
    }
    jacobi_result(n == [1, 0, 0, 0], sign)
}

/// [`jacobi`]'s loop for values that fit 128 bits.
fn jacobi_u128(mut a: u128, mut n: u128, mut sign: u64) -> i8 {
    while a != 0 {
        let twos = a.trailing_zeros();
        a >>= twos;
        sign ^= (twos as u64 & 1) * ((n as u64 ^ (n as u64 >> 1)) & 2);
        if a < n {
            sign ^= a as u64 & n as u64;
            std::mem::swap(&mut a, &mut n);
        }
        a -= n;
    }
    jacobi_result(n == 1, sign)
}

/// The symbol once `a` reached 0: `n` is then `gcd(a, n)`.
fn jacobi_result(coprime: bool, sign: u64) -> i8 {
    match (coprime, sign & 2) {
        (false, _) => 0,
        (true, 0) => 1,
        (true, _) => -1,
    }
}

/// `a - b` over four limbs, with the borrow out.
#[inline(always)]
fn sub_limbs(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        out[i] = d;
        borrow = b1 | b2;
    }
    (out, borrow)
}

/// Inverse of an odd `x` modulo `2^64` by Newton iteration.
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// Deterministic Miller–Rabin primality test.
///
/// Uses `rounds` random bases plus the fixed bases 2 and 3; for the sizes
/// used here (≤256-bit), 40 random rounds gives error probability
/// ≤ 4^-40.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &U256, rounds: u32, rng: &mut R) -> bool {
    if *n < U256::from_u64(2) {
        return false;
    }
    for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let sm = U256::from_u64(small);
        if *n == sm {
            return true;
        }
        if div_rem_u64(n, small) == 0 {
            return false;
        }
    }
    let modn = Modulus::new(*n);
    let n_minus_1 = n.wrapping_sub(&U256::ONE);
    // n - 1 = d * 2^s with d odd
    let mut s = 0u32;
    let mut d = n_minus_1;
    while !d.is_odd() {
        d = d.shr(1);
        s += 1;
    }
    let check = |a: U256| -> bool {
        // true if n passes the round for base a
        if a.is_zero() || a == n_minus_1 || a == U256::ONE {
            return true;
        }
        let mut x = modn.pow(&a, &d);
        if x == U256::ONE || x == n_minus_1 {
            return true;
        }
        for _ in 1..s {
            x = modn.sqr(&x);
            if x == n_minus_1 {
                return true;
            }
            if x == U256::ONE {
                return false;
            }
        }
        false
    };
    if !check(U256::from_u64(2)) || !check(U256::from_u64(3)) {
        return false;
    }
    for _ in 0..rounds {
        let a = modn.sample_nonzero(rng);
        if !check(a) {
            return false;
        }
    }
    true
}

/// Remainder of `n` divided by a small `u64` divisor.
fn div_rem_u64(n: &U256, d: u64) -> u64 {
    debug_assert!(d != 0);
    let mut rem: u128 = 0;
    for i in (0..4).rev() {
        rem = ((rem << 64) | n.0[i] as u128) % d as u128;
    }
    rem as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m_small() -> Modulus {
        // 2^61 - 1, a Mersenne prime, easy to check against u128 math.
        Modulus::new(U256::from_u64((1u64 << 61) - 1))
    }

    #[test]
    fn add_sub_mod() {
        let m = m_small();
        let p = (1u64 << 61) - 1;
        let a = U256::from_u64(p - 3);
        let b = U256::from_u64(7);
        assert_eq!(m.add(&a, &b).low_u64(), 4);
        assert_eq!(m.sub(&b, &a).low_u64(), 10);
        assert_eq!(m.neg(&b).low_u64(), p - 7);
        assert_eq!(m.neg(&U256::ZERO), U256::ZERO);
    }

    #[test]
    fn mul_matches_u128() {
        let m = m_small();
        let p = (1u64 << 61) - 1;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a: u64 = rng.gen_range(0..p);
            let b: u64 = rng.gen_range(0..p);
            let expect = ((a as u128 * b as u128) % p as u128) as u64;
            assert_eq!(
                m.mul(&U256::from_u64(a), &U256::from_u64(b)).low_u64(),
                expect
            );
        }
    }

    #[test]
    fn pow_matches_u128() {
        let m = m_small();
        let p = (1u64 << 61) - 1;
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let a: u64 = rng.gen_range(1..p);
            let e: u64 = rng.gen_range(0..1 << 20);
            let mut expect: u128 = 1;
            let mut base = a as u128;
            let mut k = e;
            while k > 0 {
                if k & 1 == 1 {
                    expect = expect * base % p as u128;
                }
                base = base * base % p as u128;
                k >>= 1;
            }
            assert_eq!(
                m.pow(&U256::from_u64(a), &U256::from_u64(e)).low_u64(),
                expect as u64
            );
        }
    }

    #[test]
    fn pow_edge_cases() {
        let m = m_small();
        assert_eq!(m.pow(&U256::from_u64(5), &U256::ZERO), U256::ONE);
        assert_eq!(m.pow(&U256::ZERO, &U256::from_u64(5)), U256::ZERO);
        // Fermat: a^(p-1) = 1
        let e = m.modulus().wrapping_sub(&U256::ONE);
        assert_eq!(m.pow(&U256::from_u64(123456), &e), U256::ONE);
    }

    /// `a · b mod m` by shift-and-add: shares nothing with `montmul`.
    fn mul_shift_add(m: &Modulus, a: &U256, b: &U256) -> U256 {
        let mut acc = U256::ZERO;
        for i in (0..256).rev() {
            acc = double_mod(&acc, m.modulus());
            if b.bit(i) {
                acc = m.add(&acc, a);
            }
        }
        acc
    }

    /// The binary square-and-multiply ladder `pow` replaced.
    fn pow_ladder(m: &Modulus, base: &U256, exp: &U256) -> U256 {
        let mut acc = one_mod(m.modulus());
        for i in (0..exp.bits()).rev() {
            acc = m.mul(&acc, &acc);
            if exp.bit(i) {
                acc = m.mul(&acc, base);
            }
        }
        acc
    }

    fn shipped_p() -> Modulus {
        Modulus::new(U256::from_hex(crate::group::P_HEX).unwrap())
    }

    fn shipped_q() -> Modulus {
        Modulus::new(U256::from_hex(crate::group::Q_HEX).unwrap())
    }

    /// Exponents that exercise every window position and both extremes.
    fn edge_exponents(m: &Modulus) -> Vec<U256> {
        let mut e = vec![
            U256::ZERO,
            U256::ONE,
            m.modulus().wrapping_sub(&U256::ONE),
            m.modulus().wrapping_sub(&U256::from_u64(2)),
            U256::MAX,
        ];
        e.extend((0..256).map(|k| U256::ONE.shl(k)));
        e
    }

    #[test]
    fn kernel_matches_shift_and_add() {
        let mut rng = StdRng::seed_from_u64(20);
        for m in [shipped_p(), shipped_q(), m_small()] {
            let top = m.modulus().wrapping_sub(&U256::ONE);
            let mut values = vec![U256::ZERO, U256::ONE, top];
            values.extend((0..40).map(|_| m.sample(&mut rng)));
            for a in &values {
                for b in &values {
                    assert_eq!(m.mul(a, b), mul_shift_add(&m, a, b));
                }
                assert_eq!(m.sqr(a), mul_shift_add(&m, a, a));
                assert_eq!(m.mont_out(&m.mont_in(a)), *a);
            }
        }
    }

    #[test]
    fn windowed_pow_matches_the_ladder() {
        let mut rng = StdRng::seed_from_u64(21);
        for m in [shipped_p(), shipped_q(), m_small()] {
            let mut exps = edge_exponents(&m);
            exps.extend((0..40).map(|_| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])));
            let top = m.modulus().wrapping_sub(&U256::ONE);
            for base in [U256::ZERO, U256::ONE, top, m.sample(&mut rng)] {
                for e in &exps {
                    assert_eq!(m.pow(&base, e), pow_ladder(&m, &base, e), "{base} ^ {e}");
                }
            }
        }
    }

    #[test]
    fn comb_pair_matches_two_ladders() {
        let mut rng = StdRng::seed_from_u64(25);
        for m in [shipped_p(), shipped_q(), m_small()] {
            let mut exps = edge_exponents(&m);
            exps.extend((0..40).map(|_| U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])));
            let top = m.modulus().wrapping_sub(&U256::ONE);
            for base in [U256::ZERO, U256::ONE, top, m.sample(&mut rng)] {
                for (x, y) in exps.iter().zip(exps.iter().rev()) {
                    let expect = (pow_ladder(&m, &base, x), pow_ladder(&m, &base, y));
                    assert_eq!(m.pow_pair(&base, x, y), expect, "{base} ^ ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn two_base_pow_matches_two_ladders() {
        let mut rng = StdRng::seed_from_u64(22);
        for m in [shipped_p(), shipped_q(), m_small()] {
            let edges = [
                U256::ZERO,
                U256::ONE,
                m.modulus().wrapping_sub(&U256::ONE),
                U256::MAX,
                U256::ONE.shl(255),
                U256::ONE.shl(4),
            ];
            let (a, b) = (m.sample_nonzero(&mut rng), m.sample_nonzero(&mut rng));
            let expect = |x: &U256, y: &U256| m.mul(&pow_ladder(&m, &a, x), &pow_ladder(&m, &b, y));
            for x in &edges {
                for y in &edges {
                    assert_eq!(m.pow2(&a, x, &b, y), expect(x, y), "x = {x}, y = {y}");
                }
            }
            for _ in 0..40 {
                let x = U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
                let y = m.sample(&mut rng);
                assert_eq!(m.pow2(&a, &x, &b, &y), expect(&x, &y));
            }
            assert_eq!(m.pow2(&U256::ZERO, &U256::ONE, &b, &U256::ONE), U256::ZERO);
        }
    }

    /// The machine-independent cost of the exponentiations, in kernel
    /// calls. The all-ones exponent is the worst case; the ladder the
    /// window replaced paid 2 + 255 + 255 + 1 = 513 on it.
    #[test]
    fn exponentiation_kernel_calls_are_pinned() {
        let p = shipped_p();
        let mut rng = StdRng::seed_from_u64(23);
        let (a, b) = (p.sample_nonzero(&mut rng), p.sample_nonzero(&mut rng));
        assert_eq!(ops::count(|| p.mul(&a, &b)).1, 2);
        assert_eq!(ops::count(|| p.pow(&a, &U256::MAX)).1, 15 + 252 + 63 + 1);
        assert_eq!(
            ops::count(|| p.pow2(&a, &U256::MAX, &b, &U256::MAX)).1,
            30 + 252 + 127 + 1
        );
        // The comb: 1 in + 192 squarings + 11 table products, then per
        // exponent 63 squarings, ≤ 63 products and 1 out.
        assert_eq!(
            ops::count(|| p.pow_pair(&a, &U256::MAX, &U256::MAX)).1,
            1 + 192 + 11 + 2 * (63 + 63 + 1)
        );
        assert_eq!(ops::count(|| p.pow(&a, &U256::ONE)).1, 15 + 1);
        assert_eq!(ops::count(|| p.pow(&a, &U256::ZERO)).1, 0);
        for _ in 0..50 {
            let (x, y) = (shipped_q().sample(&mut rng), shipped_q().sample(&mut rng));
            assert!(ops::count(|| p.pow(&a, &x)).1 <= 331);
            assert!(ops::count(|| p.pow2(&a, &x, &b, &y)).1 <= 410);
            assert!(ops::count(|| p.pow_pair(&a, &x, &y)).1 <= 458);
        }
    }

    /// Legendre symbol by Euler's criterion, the exponentiation the
    /// Jacobi algorithm avoids.
    fn euler(a: &U256, prime: &Modulus) -> i8 {
        let half = prime.modulus().wrapping_sub(&U256::ONE).shr(1);
        let r = prime.pow(&prime.reduce(a), &half);
        if r.is_zero() {
            0
        } else if r == U256::ONE {
            1
        } else {
            assert_eq!(r, prime.modulus().wrapping_sub(&U256::ONE));
            -1
        }
    }

    #[test]
    fn jacobi_matches_eulers_criterion_on_primes() {
        let mut rng = StdRng::seed_from_u64(24);
        for m in [shipped_p(), shipped_q(), m_small()] {
            let n = m.modulus();
            for a in [
                U256::ZERO,
                U256::ONE,
                U256::from_u64(2),
                n.wrapping_sub(&U256::ONE),
            ] {
                assert_eq!(jacobi(&a, n), euler(&a, &m), "({a}/{n})");
            }
            for _ in 0..300 {
                let a = m.sample(&mut rng);
                assert_eq!(jacobi(&a, n), euler(&a, &m), "({a}/{n})");
                // Any number of factors of two, including whole limbs.
                let shifted = m.reduce(&a.shl(rng.gen_range(0..200)));
                assert_eq!(jacobi(&shifted, n), euler(&shifted, &m));
                // Arguments at or above the modulus reduce first.
                let wide = U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
                assert_eq!(jacobi(&wide, n), euler(&wide, &m));
            }
        }
    }

    #[test]
    fn jacobi_matches_the_definition_on_small_odd_moduli() {
        // (a/n) = Π (a/p_i)^{e_i} over n's prime factorization, each
        // Legendre symbol read off the list of squares mod p_i.
        let legendre = |a: u64, p: u64| -> i8 {
            match a % p {
                0 => 0,
                r if (1..p).any(|x| x * x % p == r) => 1,
                _ => -1,
            }
        };
        for n in (1u64..400).step_by(2) {
            for a in 0..2 * n {
                let (mut rest, mut expect) = (n, 1i8);
                for p in 3..=n {
                    while rest % p == 0 {
                        rest /= p;
                        expect *= legendre(a, p);
                    }
                }
                let got = jacobi(&U256::from_u64(a), &U256::from_u64(n));
                assert_eq!(got, expect, "({a}/{n})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn jacobi_rejects_even_moduli() {
        jacobi(&U256::ONE, &U256::from_u64(8));
    }

    #[test]
    fn inverse() {
        let m = m_small();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let a = m.sample_nonzero(&mut rng);
            let inv = m.inv_prime(&a);
            assert_eq!(m.mul(&a, &inv), U256::ONE);
        }
    }

    #[test]
    fn miller_rabin_knowns() {
        let mut rng = StdRng::seed_from_u64(11);
        for p in [2u64, 3, 5, 7, 61, 89, 127, 8191, 131071, 524287, 2147483647] {
            assert!(
                is_probable_prime(&U256::from_u64(p), 16, &mut rng),
                "{p} is prime"
            );
        }
        for c in [
            1u64, 4, 6, 9, 15, 21, 25, 341, 561, 645, 1105, 1729, 2465, 2821, 6601,
        ] {
            assert!(
                !is_probable_prime(&U256::from_u64(c), 16, &mut rng),
                "{c} is composite"
            );
        }
        // 2^61 - 1 is prime; 2^67 - 1 = 193707721 * 761838257287 is not.
        assert!(is_probable_prime(
            &U256::from_u64((1 << 61) - 1),
            16,
            &mut rng
        ));
        let c67 = U256::from_u128((1u128 << 67) - 1);
        assert!(!is_probable_prime(&c67, 16, &mut rng));
    }

    #[test]
    fn div_rem_u64_works() {
        assert_eq!(div_rem_u64(&U256::from_u64(100), 7), 2);
        let big = U256::MAX;
        // 2^256 - 1 mod 3: 2^256 ≡ 1 (mod 3), so 2^256-1 ≡ 0.
        assert_eq!(div_rem_u64(&big, 3), 0);
        // 2^256 - 1 mod 5: 2^256 = (2^4)^64 ≡ 1, so ≡ 0.
        assert_eq!(div_rem_u64(&big, 5), 0);
    }

    #[test]
    fn sample_in_range() {
        let m = m_small();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let v = m.sample(&mut rng);
            assert!(v < *m.modulus());
        }
    }
}

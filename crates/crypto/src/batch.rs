//! Batched group operations: fixed-base precomputation, multi-base
//! products and chunked data-parallel maps.
//!
//! A PSC mixing hop performs thousands of exponentiations, and most of
//! them share one of two bases — the group generator `g` (every
//! encryption and rerandomization computes `g^r`) and the joint public
//! key `y` (the matching `y^r`). [`FixedBasePowers`] trades a one-time
//! table build for a ~10× cheaper exponentiation: with 8-bit windows
//! over a 256-bit exponent, `pow` is one product per nonzero window and
//! nothing else.
//!
//! The table is *Montgomery-resident*: entries are stored in Montgomery
//! form, the accumulator stays there, and the value is converted once —
//! by the last product, which in a rerandomization or encryption is
//! the multiplication by the caller's plain operand anyway. That makes an
//! exponentiation at most 32 kernel calls (the windowed
//! [`GroupParams::pow`] takes ≤ 331) and a table rerandomization or
//! encryption at most 64, pinned by this module's op-count tests. The
//! result is the *same group element* as [`GroupParams::pow`] —
//! callers relying on bit-identical transcripts can adopt the tables
//! freely. Like the rest of the crate the lookups are not
//! constant-time.
//!
//! A hop's table powers come in thousands, each with its own scalar,
//! and [`PrecomputedKey`]'s batch entry points take them that way:
//! [`PrecomputedKey::rerandomize_all`] (`(a · g^s, b · y^s)`; an
//! encryption is the rerandomization of `(1, m)`) and
//! [`PrecomputedKey::g_pow_mul_all`] (`g^e · x`), over `f(i)` for
//! `i in 0..n`. They cut the indices into batches of sixteen, spread
//! over threads by [`par_map_indexed`], and run each batch as one call
//! of the AVX-512 IFMA lane kernel per table where the CPU has it
//! (`crate::lanes`, reading these same rows, 33 lane products per
//! power, at about a quarter of the scalar time) and as scalar powers
//! elsewhere. Both paths give the same elements.
//!
//! A verifying tally server meets a third kind of base: the many
//! distinct elements of a batch of Chaum–Pedersen proofs, which
//! [`crate::zkp::DleqProof::verify_batch`] folds into two products of
//! weighted powers. `multi_exp` computes such a product by Pippenger's
//! bucket method, about one product per base per window, where a table
//! per base would cost a table build each.
//!
//! [`par_map_indexed`] is the execution half: it evaluates a pure
//! per-index function over `0..n` on a bounded number of scoped
//! threads, writing each result into its own slot, so the output vector
//! is independent of the thread count by construction.

use crate::elgamal::{Ciphertext, PublicKey};
use crate::group::{GroupElement, GroupParams, Scalar};
use crate::lanes::{self, Radix, BATCH};
use crate::modarith::Mont;
use crate::u256::U256;
use std::borrow::Cow;
use std::ops::Range;

/// Fixed-window exponentiation table for one base, held in Montgomery
/// form.
///
/// `table[w][j] = base^(j · 2^(8w))` for `j in 0..256`, covering
/// 256-bit exponents with 32 windows (32 × 256 × 32 B = 256 KiB), so a
/// power is at most 32 products where 4-bit windows (32 KiB) paid 64.
/// The width is a measured constant: 6, 7 and 8 bits, swept on
/// `psc_verified` and `ips7d_mix`, timed within run-to-run spread of
/// each other (numbers in CHANGES.md), and 8 needs the fewest products.
/// Its build, 8 160 kernel calls, is repaid after about 270 powers.
#[derive(Clone, Debug)]
pub struct FixedBasePowers {
    base: GroupElement,
    table: Vec<[Mont; ENTRIES]>,
    /// The lane kernel's constants for the modulus.
    radix: Radix,
}

/// Window width of [`FixedBasePowers`], in bits.
pub(crate) const WIDTH: u32 = 8;
/// Entries per window row.
pub(crate) const ENTRIES: usize = 1 << WIDTH;
/// Windows in a 256-bit exponent.
pub(crate) const WINDOWS: usize = 256_usize.div_ceil(WIDTH as usize);

/// The `width`-bit digit of `e` starting at bit `pos` (bits past 255
/// read as zero).
#[inline(always)]
pub(crate) fn digit(e: &U256, pos: u32, width: u32) -> usize {
    let (limb, off) = ((pos / 64) as usize, pos % 64);
    let mut v = e.0[limb] >> off;
    if off + width > 64 && limb < 3 {
        v |= e.0[limb + 1] << (64 - off);
    }
    (v & ((1u64 << width) - 1)) as usize
}

impl FixedBasePowers {
    /// Builds the window table for `base`, amortized over every
    /// subsequent [`Self::pow`].
    pub fn new(gp: &GroupParams, base: &GroupElement) -> FixedBasePowers {
        let p = gp.p_modulus();
        let mut table = Vec::with_capacity(WINDOWS);
        // `step` is base^(2^(WIDTH·w)) entering window w.
        let mut step = p.mont_in(&base.0);
        for w in 0..WINDOWS {
            let mut row = [p.mont_one(); ENTRIES];
            row[1] = step;
            for j in 2..ENTRIES {
                row[j] = p.mont_mul(&row[j - 1], &step);
            }
            if w + 1 < WINDOWS {
                // base^(2^(WIDTH(w+1))) = row[ENTRIES - 1] · step.
                step = p.mont_mul(&row[ENTRIES - 1], &step);
            }
            table.push(row);
        }
        FixedBasePowers {
            base: *base,
            table,
            radix: Radix::new(p),
        }
    }

    /// The base this table was built for.
    pub(crate) fn base(&self) -> &GroupElement {
        &self.base
    }

    /// The lane kernel's view of the table: its constants and the rows
    /// as they are.
    pub(crate) fn lane_rows(&self) -> (&Radix, &[[Mont; ENTRIES]]) {
        (&self.radix, &self.table)
    }

    /// `base^e` in Montgomery form; `None` for `e = 0`. One product per
    /// nonzero window after the first.
    #[inline(always)]
    fn pow_mont(&self, gp: &GroupParams, e: &Scalar) -> Option<Mont> {
        let p = gp.p_modulus();
        let mut acc: Option<Mont> = None;
        for (w, row) in self.table.iter().enumerate() {
            let j = digit(&e.0, w as u32 * WIDTH, WIDTH);
            if j != 0 {
                acc = Some(match acc {
                    None => row[j],
                    Some(a) => p.mont_mul(&a, &row[j]),
                });
            }
        }
        acc
    }

    /// `base^e`, identical in value to `gp.pow(base, e)` (one product
    /// per window, the last one leaving Montgomery form).
    pub fn pow(&self, gp: &GroupParams, e: &Scalar) -> GroupElement {
        match self.pow_mont(gp, e) {
            None => gp.identity(),
            Some(acc) => GroupElement(gp.p_modulus().mont_out(&acc)),
        }
    }

    /// `m · base^e`, identical in value to `gp.mul(m, &gp.pow(base, e))`
    /// at [`Self::pow`]'s cost: multiplying the Montgomery-form power by
    /// the plain `m` is also what leaves Montgomery form.
    pub(crate) fn pow_mul(&self, gp: &GroupParams, e: &Scalar, m: &GroupElement) -> GroupElement {
        match self.pow_mont(gp, e) {
            None => *m,
            Some(acc) => GroupElement(gp.p_modulus().mont_mul_plain(&acc, &m.0)),
        }
    }

    /// [`Self::pow_mul`] of each of the first `n` pairs `(exps[i],
    /// ops[i])`, the rest of the batch padding: one call of the lane
    /// kernel ([`lanes::fixed_pow_mul_batch`], 33 lane products per
    /// lane) where the CPU has AVX-512 IFMA, `pow_mul` per pair
    /// elsewhere.
    fn pow_mul_batch(
        &self,
        gp: &GroupParams,
        n: usize,
        exps: &[U256; BATCH],
        ops: &[U256; BATCH],
    ) -> [GroupElement; BATCH] {
        let (radix, rows) = self.lane_rows();
        match lanes::fixed_pow_mul_batch(radix, rows, &exps[..n], &ops[..n]) {
            // A zero exponent hands the operand back as it came, as
            // `pow_mul` does; the lanes reduced it.
            Some(out) => std::array::from_fn(|i| {
                GroupElement(if exps[i].is_zero() { ops[i] } else { out[i] })
            }),
            None => std::array::from_fn(|i| {
                let (e, x) = (Scalar(exps[i]), GroupElement(ops[i]));
                if i < n {
                    self.pow_mul(gp, &e, &x)
                } else {
                    x
                }
            }),
        }
    }
}

/// Fixed-base tables for one ElGamal public key: the generator `g` and
/// the key element `y`, the two bases every encryption and
/// rerandomization exponentiates. For the shipped parameters `g`'s
/// table is the process-wide one, so a key costs one 256 KiB table.
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

    /// `g^{e_i} · x_i` for every `(e_i, x_i) = f(i)`, `i in 0..n`, in
    /// order: the same elements as `gp.mul(x_i, &gp.g_pow(e_i))`, sixteen
    /// pairs per batch through the lane kernel where the CPU has AVX-512
    /// IFMA (33 lane products each) and one table power each elsewhere
    /// (≤ 32 products), the batches spread over `threads` threads.
    /// `x_i = 1` gives the plain power `g^{e_i}`.
    pub fn g_pow_mul_all<F>(
        &self,
        gp: &GroupParams,
        n: usize,
        threads: usize,
        f: F,
    ) -> Vec<GroupElement>
    where
        F: Fn(usize) -> (Scalar, GroupElement) + Sync,
    {
        par_batches(n, threads, |range| {
            let (mut e, mut x) = ([U256::ZERO; BATCH], [U256::ZERO; BATCH]);
            for (k, i) in range.clone().enumerate() {
                let (s, m) = f(i);
                (e[k], x[k]) = (s.0, m.0);
            }
            self.g.pow_mul_batch(gp, range.len(), &e, &x)
        })
    }

    /// [`crate::elgamal::encrypt_with`] through the tables: encrypts `m`
    /// under the key with caller-chosen randomness `r` (≤ 64 products).
    pub fn encrypt_with(&self, gp: &GroupParams, m: &GroupElement, r: &Scalar) -> Ciphertext {
        Ciphertext {
            a: self.g.pow(gp, r),
            b: self.y.pow_mul(gp, r, m),
        }
    }

    /// The rerandomization `(a · g^s, b · y^s)` of every `(ct, s) =
    /// f(i)`, `i in 0..n`, in order: the same ciphertexts as
    /// [`crate::elgamal::rerandomize_with`], sixteen per batch, each
    /// batch one lane-kernel call per table where the CPU has AVX-512
    /// IFMA (2 × 33 lane products per ciphertext) and two table powers
    /// each elsewhere (≤ 64 products), the batches spread over `threads`
    /// threads. The encryption of `m` with randomness `r` is the
    /// rerandomization of `(1, m)` by `r`.
    pub fn rerandomize_all<F>(
        &self,
        gp: &GroupParams,
        n: usize,
        threads: usize,
        f: F,
    ) -> Vec<Ciphertext>
    where
        F: Fn(usize) -> (Ciphertext, Scalar) + Sync,
    {
        par_batches(n, threads, |range| self.rerandomize_batch(gp, range, &f))
    }

    /// One batch of [`Self::rerandomize_all`]: the rerandomizations of
    /// `f(i)` for the (at most [`BATCH`]) indices of `range`, in its
    /// leading slots.
    pub(crate) fn rerandomize_batch(
        &self,
        gp: &GroupParams,
        range: Range<usize>,
        f: impl Fn(usize) -> (Ciphertext, Scalar),
    ) -> [Ciphertext; BATCH] {
        let (mut s, mut a, mut b) = (
            [U256::ZERO; BATCH],
            [U256::ZERO; BATCH],
            [U256::ZERO; BATCH],
        );
        let n = range.len();
        for (k, i) in range.enumerate() {
            let (ct, e) = f(i);
            (s[k], a[k], b[k]) = (e.0, ct.a.0, ct.b.0);
        }
        let a = self.g.pow_mul_batch(gp, n, &s, &a);
        let b = self.y.pow_mul_batch(gp, n, &s, &b);
        std::array::from_fn(|i| Ciphertext { a: a[i], b: b[i] })
    }
}

/// `Π bases[i]^exps[i] mod p` for bases below `p`, by Pippenger's
/// bucket method: the exponents are cut into `c`-bit windows; per
/// window, every base is multiplied into the bucket its digit names and
/// the buckets are folded as `Π_d B_d^d` by two running products
/// (≤ 2 · 2^c); the windows are then joined top first by `c` squarings
/// each. Per base that is about one product per window, against ≈ one
/// squaring per exponent bit for a separate exponentiation. The
/// windows are independent and run on up to `threads` threads; the
/// result is the same at every thread count, and on either path.
///
/// On a CPU with AVX-512F and AVX-512 IFMA the windows go sixteen to a
/// lane-kernel call, one per lane ([`lane_multi_exp`]), at
/// [`LANE_WIDTH_64`] bits for exponents up to 64 bits and
/// [`LANE_WIDTH_WIDE`] past that; elsewhere each window is a scalar
/// fold ([`scalar_multi_exp`]).
pub(crate) fn multi_exp(gp: &GroupParams, bases: &[U256], exps: &[U256], threads: usize) -> U256 {
    let bits = exps.iter().map(U256::bits).max().unwrap_or(0);
    let width = if bits <= 64 {
        LANE_WIDTH_64
    } else {
        LANE_WIDTH_WIDE
    };
    lane_multi_exp(gp, bases, exps, width, threads)
        .unwrap_or_else(|| scalar_multi_exp(gp, bases, exps, threads))
}

/// Bucket-method window width on the lanes for exponents up to 64 bits
/// (the batch weights): 16 windows, one lane-kernel call.
const LANE_WIDTH_64: u32 = 4;
/// Bucket-method window width on the lanes for wider exponents: 32
/// windows of a 256-bit exponent, two lane-kernel calls.
const LANE_WIDTH_WIDE: u32 = 8;

/// [`multi_exp`] on the lane kernel, `width`-bit windows, sixteen per
/// call ([`lanes::bucket_batch`]) and the calls spread over `threads`
/// threads; `None` when this CPU lacks AVX-512F or AVX-512 IFMA.
fn lane_multi_exp(
    gp: &GroupParams,
    bases: &[U256],
    exps: &[U256],
    width: u32,
    threads: usize,
) -> Option<U256> {
    let p = gp.p_modulus();
    let k = Radix::new(p);
    let bits = exps.iter().map(U256::bits).max().unwrap_or(0);
    let windows = bits.div_ceil(width);
    let calls = par_map_indexed(windows.div_ceil(BATCH as u32) as usize, threads, |call| {
        let first = call as u32 * BATCH as u32;
        let range = first..windows.min(first + BATCH as u32);
        let out = lanes::bucket_batch(&k, bases, exps, width, range.clone())?;
        Some(
            out[..range.len()]
                .iter()
                .map(|w| Some(p.mont_in(w)))
                .collect::<Vec<_>>(),
        )
    });
    let windows: Vec<Option<Mont>> = calls.into_iter().collect::<Option<Vec<_>>>()?.concat();
    Some(join_windows(gp, &windows, width))
}

/// [`multi_exp`] in scalar code: `c` minimizes
/// `windows · (bases + 2^(c+1))`, so it grows with the batch, and a
/// zero digit or an empty bucket costs no product.
fn scalar_multi_exp(gp: &GroupParams, bases: &[U256], exps: &[U256], threads: usize) -> U256 {
    let p = gp.p_modulus();
    let bits = exps.iter().map(U256::bits).max().unwrap_or(0);
    let c = (1..=16)
        .min_by_key(|&c: &u32| bits.div_ceil(c) as usize * (bases.len() + (2 << c)))
        .unwrap_or(1);
    let mont: Vec<Mont> = bases.iter().map(|b| p.mont_in(b)).collect();
    let mul = |acc: Option<Mont>, x: &Mont| match acc {
        None => *x,
        Some(a) => p.mont_mul(&a, x),
    };
    let windows = par_map_indexed(bits.div_ceil(c) as usize, threads, |w| {
        let mut buckets: Vec<Option<Mont>> = vec![None; (1 << c) - 1];
        for (base, e) in mont.iter().zip(exps) {
            let d = digit(e, w as u32 * c, c);
            if d != 0 {
                buckets[d - 1] = Some(mul(buckets[d - 1], base));
            }
        }
        // running = Π_{d' ≥ d} B_d', and the product of the runnings
        // over d is Π_d B_d^d.
        let (mut running, mut total) = (None, None);
        for bucket in buckets.iter().rev() {
            if let Some(b) = bucket {
                running = Some(mul(running, b));
            }
            if let Some(r) = &running {
                total = Some(mul(total, r));
            }
        }
        total
    });
    join_windows(gp, &windows, c)
}

/// `Π_w windows[w]^(2^(c·w))` as a plain residue, top window first: `c`
/// squarings per window below the top, a product per window present.
fn join_windows(gp: &GroupParams, windows: &[Option<Mont>], c: u32) -> U256 {
    let p = gp.p_modulus();
    let mut acc: Option<Mont> = None;
    for window in windows.iter().rev() {
        if let Some(a) = acc.as_mut() {
            for _ in 0..c {
                *a = p.mont_mul(a, a);
            }
        }
        if let Some(x) = window {
            acc = Some(match acc {
                None => *x,
                Some(a) => p.mont_mul(&a, x),
            });
        }
    }
    p.mont_out(&acc.unwrap_or_else(|| p.mont_one()))
}

/// `batch(range)` for the consecutive ranges of at most [`BATCH`]
/// indices that cover `0..n`, on up to `threads` threads
/// ([`par_map_indexed`]), flattened in index order into any collection
/// of the items: each batch fills its leading `range.len()` slots and
/// the rest is padding. Collecting straight into the caller's type
/// keeps a second buffer out: a verified hop's 896 proof rows, gathered
/// into a `Vec` first and then into `Option<Vec<_>>`, measured about
/// 1 MB more `psc_verified` peak RSS.
pub(crate) fn par_batches<T, F, C>(n: usize, threads: usize, batch: F) -> C
where
    T: Send,
    F: Fn(Range<usize>) -> [T; BATCH] + Sync,
    C: FromIterator<T>,
{
    par_map_indexed(n.div_ceil(BATCH), threads, |c| {
        batch(c * BATCH..n.min((c + 1) * BATCH))
    })
    .into_iter()
    .flatten()
    .take(n)
    .collect()
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
    /// ≤ 32 per table exponentiation where the 4-bit table paid ≤ 64
    /// and the plain window ≤ 331.
    #[test]
    fn table_kernel_calls_are_pinned() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(3);
        let kp = keygen(&gp, &mut rng);
        let (pk, build) = ops::count(|| PrecomputedKey::new(&gp, &kp.public));
        // The y table (g's is process-wide): 1 in, 254 products per
        // row, 31 steps to the next row.
        assert_eq!(build, 1 + 32 * 254 + 31);
        let m = gp.random_element(&mut rng);
        let ones = Scalar(U256::MAX);
        assert_eq!(ops::count(|| pk.y.pow(&gp, &ones)).1, 32);
        assert_eq!(ops::count(|| pk.y.pow_mul(&gp, &ones, &m)).1, 32);
        assert_eq!(ops::count(|| pk.y.pow(&gp, &Scalar::ZERO)).1, 0);
        assert_eq!(ops::count(|| gp.g_pow(&ones)).1, 32);
        let ct = pk.encrypt_with(&gp, &m, &ones);
        assert_eq!(ops::count(|| pk.encrypt_with(&gp, &m, &ones)).1, 64);
        for _ in 0..50 {
            let s = gp.random_scalar(&mut rng);
            assert!(ops::count(|| pk.y.pow(&gp, &s)).1 <= 32);
            assert!(ops::count(|| pk.y.pow_mul(&gp, &s, &m)).1 <= 32);
        }
        // The table-less reference: g through the shared table, y by
        // the windowed ladder, two plain products.
        let (_, plain) = ops::count(|| rerandomize_with(&gp, &kp.public, &ct, &ones));
        assert_eq!(plain, 32 + 331 + 2 + 2);
    }

    /// `n` bucket-method exponents: 0, 1, `q − 1` and all ones, and
    /// runs whose digits are equal in every window (each such base lands
    /// in one bucket per window, the same one for a whole run), 64-bit
    /// and 256-bit, beside random scalars.
    fn edge_exps(gp: &GroupParams, n: usize, rng: &mut StdRng) -> Vec<U256> {
        let repeat = |byte: u64| U256([byte * 0x0101_0101_0101_0101; 4]);
        (0..n)
            .map(|i| match i % 8 {
                0 => U256::ZERO,
                1 => U256::ONE,
                2 => gp.q().wrapping_sub(&U256::ONE),
                3 => U256::MAX,
                4 | 5 => repeat((i / 8 % 3 + 1) as u64),
                6 => U256::from_u64(0x1111_1111_1111_1111),
                _ => gp.random_scalar(rng).0,
            })
            .collect()
    }

    /// Random and edge exponents against separate powers, around the
    /// sixteen-lane batch and at 300 bases.
    #[test]
    fn multi_exp_matches_separate_powers() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(4);
        for (n, short) in [
            (0, false),
            (1, false),
            (3, true),
            (15, false),
            (16, true),
            (17, false),
            (40, false),
            (300, true),
        ] {
            let bases: Vec<GroupElement> = (0..n).map(|_| gp.random_element(&mut rng)).collect();
            let mut exps: Vec<U256> = (0..n)
                .map(|i| match i % 5 {
                    0 => U256::ZERO,
                    1 => U256::MAX,
                    _ if short => U256::from_u64(rand::Rng::gen(&mut rng)),
                    _ => gp.random_scalar(&mut rng).0,
                })
                .collect();
            if n == 3 {
                exps = vec![U256::ZERO; 3];
            }
            let plain: Vec<U256> = bases.iter().map(|b| b.0).collect();
            for exps in [exps, edge_exps(&gp, n, &mut rng)] {
                let expect = bases.iter().zip(&exps).fold(gp.identity(), |acc, (b, e)| {
                    gp.mul(&acc, &gp.pow(b, &Scalar(*e)))
                });
                for threads in [1, 2, 5] {
                    let got = multi_exp(&gp, &plain, &exps, threads);
                    assert_eq!(got, expect.0, "n = {n}, threads = {threads}");
                }
            }
        }
    }

    /// The lane path against the scalar one: the shipped widths through
    /// [`multi_exp`], for 256-bit and 64-bit exponents, and every width
    /// 1 to 8 up to 17 bases, on 1, 2 and 5 threads.
    #[test]
    fn lane_multi_exp_matches_scalar_multi_exp() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(6);
        let here = lane_multi_exp(&gp, &[U256::ONE], &[U256::ONE], 4, 1).is_some();
        for n in [0, 1, 15, 16, 17, 300] {
            let bases: Vec<U256> = (0..n).map(|_| gp.random_element(&mut rng).0).collect();
            let wide = edge_exps(&gp, n, &mut rng);
            let short: Vec<U256> = wide.iter().map(|e| U256::from_u64(e.0[0])).collect();
            for exps in [wide, short] {
                let expect = scalar_multi_exp(&gp, &bases, &exps, 1);
                let widths: &[u32] = if n <= 17 {
                    &[1, 2, 3, 4, 5, 6, 7, 8]
                } else {
                    &[]
                };
                for threads in [1, 2, 5] {
                    assert_eq!(scalar_multi_exp(&gp, &bases, &exps, threads), expect);
                    assert_eq!(multi_exp(&gp, &bases, &exps, threads), expect, "n = {n}");
                    for &width in widths {
                        let got = lane_multi_exp(&gp, &bases, &exps, width, threads);
                        assert_eq!(got.is_some(), here);
                        if let Some(got) = got {
                            assert_eq!(got, expect, "n = {n}, width {width}, {threads} threads");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn precomputed_key_matches_reference_ops() {
        let mut rng = StdRng::seed_from_u64(2);
        for gp in [
            GroupParams::default_params(),
            GroupParams::generate(64, &mut rng),
        ] {
            let kp = keygen(&gp, &mut rng);
            let pk = PrecomputedKey::new(&gp, &kp.public);
            let items: Vec<(Ciphertext, Scalar, GroupElement)> = (0..40)
                .map(|i| {
                    let m = gp.random_element(&mut rng);
                    let r = gp.random_scalar(&mut rng);
                    let ct = pk.encrypt_with(&gp, &m, &r);
                    assert_eq!(ct, encrypt_with(&gp, &kp.public, &m, &r));
                    let s = if i % 7 == 0 {
                        Scalar::ZERO
                    } else {
                        gp.random_scalar(&mut rng)
                    };
                    (ct, s, m)
                })
                .collect();
            // Batch lengths around the lane width, on 1 to 5 threads.
            for (n, threads) in [(0, 1), (1, 1), (7, 2), (16, 1), (17, 5), (40, 3)] {
                let re = pk.rerandomize_all(&gp, n, threads, |i| (items[i].0, items[i].1));
                let g = pk.g_pow_mul_all(&gp, n, threads, |i| (items[i].1, items[i].2));
                for (i, (ct, s, m)) in items[..n].iter().enumerate() {
                    assert_eq!(re[i], rerandomize_with(&gp, &kp.public, ct, s), "n = {n}");
                    assert_eq!(g[i], gp.mul(m, &gp.pow(&gp.generator(), s)), "n = {n}");
                }
                assert_eq!((re.len(), g.len()), (n, n));
            }
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

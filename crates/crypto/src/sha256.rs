//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! The round constants are not transcribed from a table: they are derived
//! at first use by exact integer root extraction (`K[i]` is the first 32
//! fractional bits of the cube root of the i-th prime, `H0` likewise for
//! square roots), which makes the implementation self-contained and
//! self-checking. Known-answer tests pin the published digests.
//!
//! # Kernel and fallback
//!
//! Every compression goes through one dispatch, which hands a run of
//! whole blocks to the x86 SHA-extensions kernel (the private `sha_ni`
//! module, taken after runtime feature detection) and runs the scalar
//! `compress` over them, one block at a time, on a CPU without the
//! extensions. [`Sha256::update`] passes every whole block of its input
//! in one call, and [`Sha256::finalize`] its one or two padding blocks
//! in another. Both paths give the same state bit for bit; the tests
//! run every known answer through each, and compare the kernel with
//! the scalar function over random midstates. On a 2.1 GHz Xeon with
//! the extensions (runs alternating on a shared 2-vCPU host) the kernel
//! hashes 1.0–1.4 GB/s in bulk against 0.13–0.24 GB/s for the scalar
//! code, and a 100-byte message in 0.16–0.20 µs against 0.67–1.07 µs.

use std::sync::OnceLock;

/// Output size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

/// Streaming SHA-256 context.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hashing context.
    pub fn new() -> Self {
        Sha256 {
            state: *initial_state(),
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() - rest.len() % BLOCK_LEN;
        if whole > 0 {
            compress_blocks(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
        self
    }

    /// Finishes and returns the digest. The context is consumed.
    ///
    /// Allocation-free: the padding is built in a stack block, so hashing
    /// on helper threads never touches the heap.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length; a second block
        // when the length no longer fits after the 0x80.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let len = if self.buf_len >= BLOCK_LEN - 8 {
            2 * BLOCK_LEN
        } else {
            BLOCK_LEN
        };
        pad[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &pad[..len]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One-shot convenience: `SHA-256(data)`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot over multiple segments (avoids concatenation allocations).
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// FIPS 180-4's compression function on one block, in scalar code.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let k = round_constants();
    let mut w = [0u32; 64];
    for (i, item) in w.iter_mut().enumerate().take(16) {
        *item = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// First `n` primes, by trial division (n is tiny).
fn first_primes(n: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(n);
    let mut cand = 2u64;
    while primes.len() < n {
        if primes.iter().all(|p| !cand.is_multiple_of(*p)) {
            primes.push(cand);
        }
        cand += 1;
    }
    primes
}

/// `floor(sqrt(x))` for u128 by binary search.
fn isqrt_u128(x: u128) -> u128 {
    let mut lo = 0u128;
    let mut hi = 1u128 << 64;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid.checked_mul(mid).map(|m| m <= x).unwrap_or(false) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// `floor(cbrt(x))` for u128 by binary search.
fn icbrt_u128(x: u128) -> u128 {
    let mut lo = 0u128;
    let mut hi = 1u128 << 43;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let cube = mid.checked_mul(mid).and_then(|m| m.checked_mul(mid));
        if cube.map(|c| c <= x).unwrap_or(false) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// H0: first 32 fractional bits of sqrt(p) for the first 8 primes.
fn initial_state() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let primes = first_primes(8);
        let mut h = [0u32; 8];
        for (i, &p) in primes.iter().enumerate() {
            // floor(sqrt(p) * 2^32) = isqrt(p << 64); keep fractional 32 bits.
            let s = isqrt_u128((p as u128) << 64);
            h[i] = (s & 0xffff_ffff) as u32;
        }
        h
    })
}

/// K: first 32 fractional bits of cbrt(p) for the first 64 primes.
pub(crate) fn round_constants() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let primes = first_primes(64);
        let mut k = [0u32; 64];
        for (i, &p) in primes.iter().enumerate() {
            // floor(cbrt(p) * 2^32) = icbrt(p << 96); keep fractional 32 bits.
            let c = icbrt_u128((p as u128) << 96);
            k[i] = (c & 0xffff_ffff) as u32;
        }
        k
    })
}

/// Compresses `blocks`, a run of whole blocks, into `state`: on the
/// SHA-extensions kernel where the CPU has it, else by [`compress`].
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(test)]
    compressions::tick((blocks.len() / BLOCK_LEN) as u64);
    #[cfg(test)]
    let kernel = !compressions::scalar_forced();
    #[cfg(not(test))]
    let kernel = true;
    if !(kernel && crate::sha_ni::compress_blocks(state, blocks)) {
        for block in blocks.as_chunks::<BLOCK_LEN>().0 {
            compress(state, block);
        }
    }
}

/// Per-thread compression counts for the unit tests, and a switch that
/// sends this thread's compressions to the scalar [`compress`] whatever
/// the CPU offers.
#[cfg(test)]
pub(crate) mod compressions {
    use std::cell::Cell;

    thread_local! {
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
        static SCALAR: Cell<bool> = const { Cell::new(false) };
    }

    /// Counts `n` compressed blocks, on either path.
    pub(super) fn tick(n: u64) {
        BLOCKS.with(|c| c.set(c.get() + n));
    }

    pub(super) fn scalar_forced() -> bool {
        SCALAR.with(Cell::get)
    }

    /// Runs `f`, with this thread's compressions on the scalar path if
    /// `scalar`, and returns its result with the number of blocks it
    /// compressed on this thread.
    pub(crate) fn count<T>(scalar: bool, f: impl FnOnce() -> T) -> (T, u64) {
        let was = SCALAR.with(|s| s.replace(scalar));
        let before = BLOCKS.with(Cell::get);
        let out = f();
        let n = BLOCKS.with(Cell::get) - before;
        SCALAR.with(|s| s.set(was));
        (out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// What the host offers, said out loud: the kernel comparisons must
    /// run where the CPU has the SHA extensions, and say when they
    /// cannot.
    fn sha_here() -> bool {
        let here = crate::sha_ni::compress_blocks(&mut [0; 8], &[0; BLOCK_LEN]);
        #[cfg(target_os = "linux")]
        if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
            let flags = info.lines().find(|l| l.starts_with("flags")).unwrap_or("");
            assert_eq!(
                here,
                flags.split_whitespace().any(|x| x == "sha_ni"),
                "SHA kernel availability disagrees with /proc/cpuinfo"
            );
        }
        if here {
            println!("sha_ni detected: the dispatched path runs the SHA-extensions kernel");
        } else {
            println!("no sha_ni on this CPU: the dispatched path runs the scalar compress");
        }
        here
    }

    /// Runs `check` on the dispatched path, then with every compression
    /// on the scalar [`compress`].
    fn both_paths(check: impl Fn()) {
        for scalar in [false, true] {
            compressions::count(scalar, &check);
        }
    }

    #[test]
    fn sha_path_matches_cpuinfo() {
        sha_here();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernel_matches_scalar_compress(seed in any::<u64>(), n in 0usize..10) {
            let mut rng = StdRng::seed_from_u64(seed);
            let midstate: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let blocks: Vec<u8> = (0..n * BLOCK_LEN).map(|_| rng.gen()).collect();
            let mut want = midstate;
            for block in blocks.as_chunks::<BLOCK_LEN>().0 {
                compress(&mut want, block);
            }
            let mut got = midstate;
            // Where the kernel is missing (`sha_here` says whether it
            // should be), the state must come back untouched.
            let ran = crate::sha_ni::compress_blocks(&mut got, &blocks);
            prop_assert_eq!(got, if ran { want } else { midstate });
        }
    }

    #[test]
    fn compressions_count_padded_blocks_on_both_paths() {
        // A message of L bytes pads to ⌈(L + 9) / 64⌉ blocks, however it
        // is split across updates.
        let msg: Vec<u8> = (0..300u32).map(|i| (i * 31 + 1) as u8).collect();
        for len in [0, 1, 55, 56, 63, 64, 119, 120, 128, 300] {
            for chunk in [1, 17, 64, 300] {
                let hash = || {
                    let mut h = Sha256::new();
                    msg[..len].chunks(chunk).for_each(|c| {
                        h.update(c);
                    });
                    h.finalize()
                };
                let (kernel, n) = compressions::count(false, hash);
                let (scalar, m) = compressions::count(true, hash);
                assert_eq!(kernel, scalar, "length {len}, chunk {chunk}");
                assert_eq!((n, m), ((len as u64 + 9).div_ceil(64), n), "length {len}");
            }
        }
    }

    #[test]
    fn derived_constants_match_spec() {
        // Spot-check the published values of H0 and K.
        let h = initial_state();
        assert_eq!(h[0], 0x6a09e667);
        assert_eq!(h[7], 0x5be0cd19);
        let k = round_constants();
        assert_eq!(k[0], 0x428a2f98);
        assert_eq!(k[1], 0x71374491);
        assert_eq!(k[63], 0xc67178f2);
    }

    #[test]
    fn empty_vector() {
        both_paths(|| {
            assert_eq!(
                hex(&sha256(b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
            );
        });
    }

    #[test]
    fn abc_vector() {
        both_paths(|| {
            assert_eq!(
                hex(&sha256(b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
        });
    }

    #[test]
    fn two_block_vector() {
        both_paths(|| {
            // NIST test vector for a 56-byte message (forces two-block padding).
            assert_eq!(
                hex(&sha256(
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
        });
    }

    #[test]
    fn streaming_equals_oneshot() {
        both_paths(|| {
            let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
            let oneshot = sha256(&data);
            for chunk in [1usize, 3, 7, 63, 64, 65, 128, 999] {
                let mut h = Sha256::new();
                for c in data.chunks(chunk) {
                    h.update(c);
                }
                assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
            }
        });
    }

    #[test]
    fn concat_equals_oneshot() {
        both_paths(|| {
            assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
            assert_eq!(sha256_concat(&[]), sha256(b""));
        });
    }

    #[test]
    fn padding_boundaries_pinned() {
        both_paths(|| {
            // Message i-th byte = 7i + 3 (mod 256); one digest per length on
            // either side of the one- and two-block padding boundaries.
            let pinned = [
                (
                    0,
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                ),
                (
                    1,
                    "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5",
                ),
                (
                    55,
                    "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
                ),
                (
                    56,
                    "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
                ),
                (
                    57,
                    "35df609437dcfea3279283ab79fd554e2bf78f8f7ae2de532d8ee300b09e8f73",
                ),
                (
                    63,
                    "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
                ),
                (
                    64,
                    "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
                ),
                (
                    65,
                    "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e",
                ),
                (
                    119,
                    "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
                ),
                (
                    120,
                    "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
                ),
                (
                    128,
                    "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
                ),
            ];
            for (n, want) in pinned {
                let msg: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
                assert_eq!(hex(&sha256(&msg)), want, "length {n}");
            }
        });
    }

    #[test]
    fn concat_split_anywhere_equals_oneshot() {
        both_paths(|| {
            let msg: Vec<u8> = (0..130u32).map(|i| (i * 13 + 5) as u8).collect();
            let oneshot = sha256(&msg);
            for at in 0..=msg.len() {
                let (a, b) = msg.split_at(at);
                assert_eq!(sha256_concat(&[a, b]), oneshot, "split at {at}");
            }
        });
    }

    #[test]
    fn million_a() {
        both_paths(|| {
            // NIST long test: one million 'a' characters.
            let mut h = Sha256::new();
            let block = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&block);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        });
    }
}

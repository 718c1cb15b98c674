//! SHA-256 compression on the x86 SHA extensions.
//!
//! [`compress_blocks`] runs FIPS 180-4's compression function over a
//! run of whole 64-byte blocks with `sha256rnds2` (two rounds per
//! instruction), `sha256msg1` and `sha256msg2` (the message schedule,
//! four words at a time). The state stays in two registers from the
//! first block of a call to the last, in the order the round
//! instruction wants: `ABEF` = `[a, b, e, f]` and `CDGH` = `[c, d, g,
//! h]`, high lane first. Each round pair adds four round constants to
//! four schedule words; the constants are [`round_constants`], derived
//! at first use like the scalar path's, not a transcribed table.
//!
//! # `unsafe`
//!
//! This file and `lanes.rs` are the workspace's two users of
//! `std::arch`, and each holds one `unsafe` block (`pm-lint`'s
//! `unsafe-code` rule holds every other file to none, the crate root
//! denies `unsafe_code`, and `pm-lint`'s workspace test holds the count
//! of `unsafe` at two). The kernel is safe Rust: a function under
//! `#[target_feature]` may call the intrinsics its features enable,
//! words and state go in with `_mm_set_epi64x`/`_mm_set_epi32` and come
//! out with `_mm_extract_epi32`, and no pointer is involved. Calling it
//! on a CPU without the features is the one unsafe act, and
//! [`compress_blocks`] does it only right after
//! `is_x86_feature_detected!` confirmed every feature it enables.

use crate::sha256::{round_constants, BLOCK_LEN};

/// Compresses `blocks`, a run of whole [`BLOCK_LEN`]-byte blocks, into
/// `state` on the SHA extensions and returns `true`, or returns `false`
/// with `state` untouched when this CPU lacks them. The module's one
/// `unsafe` block.
#[allow(unsafe_code)]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    assert!(blocks.len().is_multiple_of(BLOCK_LEN), "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `ni::compress_blocks` is safe code compiled for sha,
        // sse2, ssse3 and sse4.1; running it is sound exactly when this
        // CPU has all four, which the detection just above established.
        unsafe { ni::compress_blocks(state, blocks, round_constants()) };
        return true;
    }
    let _ = state; // written only by the x86-64 kernel
    false
}

#[cfg(target_arch = "x86_64")]
mod ni {
    use super::BLOCK_LEN;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// The compression function over every block of `blocks` in turn.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8], k: &[u32; 64]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Reverses the bytes of each 32-bit word: the message words are
        // big-endian.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let quad = |x: &[u8; BLOCK_LEN], at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&x[at..at + 8]);
            i64::from_le_bytes(b)
        };
        for block in blocks.as_chunks::<BLOCK_LEN>().0 {
            let (abef0, cdgh0) = (abef, cdgh);
            // w[j % 4] holds schedule words 4j … 4j + 3 of the latest
            // four quadruples.
            let mut w: [__m128i; 4] = std::array::from_fn(|j| {
                _mm_shuffle_epi8(
                    _mm_set_epi64x(quad(block, 16 * j + 8), quad(block, 16 * j)),
                    swap,
                )
            });
            for j in 0..16 {
                if j >= 4 {
                    w[j % 4] = schedule(w[j % 4], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
                }
                let kw = _mm_set_epi32(
                    k[4 * j + 3] as i32,
                    k[4 * j + 2] as i32,
                    k[4 * j + 1] as i32,
                    k[4 * j] as i32,
                );
                let wk = _mm_add_epi32(w[j % 4], kw);
                // Rounds 4j, 4j + 1 from the low two words, then
                // 4j + 2, 4j + 3 from the high two.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|x| x as u32);
    }

    /// The next four schedule words from the previous sixteen, oldest
    /// quadruple first: `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) +
    /// W[t-16]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        // σ0 terms and W[t-16], then W[t-7] (words 9 … 12 back), then σ1.
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }
}

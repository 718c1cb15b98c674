//! Fixed-width 256-bit unsigned integer.
//!
//! `U256` is the scalar/element representation used throughout the crypto
//! crate. It is a plain value type (4 little-endian `u64` limbs) with
//! wrapping, checked and overflowing arithmetic, shifts, comparisons and
//! byte/hex codecs. Modular arithmetic lives in [`crate::modarith`].

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Builds a `U256` from a `u64`.
    pub const fn from_u64(x: u64) -> Self {
        U256([x, 0, 0, 0])
    }

    /// Builds a `U256` from a `u128`.
    pub const fn from_u128(x: u128) -> Self {
        U256([x as u64, (x >> 64) as u64, 0, 0])
    }

    /// Returns the low 64 bits.
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Returns the low 128 bits.
    pub const fn low_u128(&self) -> u128 {
        self.0[0] as u128 | ((self.0[1] as u128) << 64)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// True if the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + 64 - self.0[i].leading_zeros();
            }
        }
        0
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: u32) -> bool {
        debug_assert!(i < 256);
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Addition returning `(sum mod 2^256, carry)`.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        #[allow(clippy::needless_range_loop)] // limb arithmetic reads clearest indexed
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (U256(out), carry)
    }

    /// Subtraction returning `(diff mod 2^256, borrow)`.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        #[allow(clippy::needless_range_loop)] // limb arithmetic reads clearest indexed
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping addition modulo `2^256`.
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction modulo `2^256`.
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 256x256 -> 512-bit product, returned as `(low, high)`.
    pub fn widening_mul(&self, rhs: &U256) -> (U256, U256) {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry: u64 = 0;
            for j in 0..4 {
                let acc =
                    t[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry as u128;
                t[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            t[i + 4] = carry;
        }
        (
            U256([t[0], t[1], t[2], t[3]]),
            U256([t[4], t[5], t[6], t[7]]),
        )
    }

    /// Wrapping multiplication modulo `2^256`.
    pub fn wrapping_mul(&self, rhs: &U256) -> U256 {
        self.widening_mul(rhs).0
    }

    /// Left shift by `n` bits (zero filling); `n` must be < 256.
    pub fn shl(&self, n: u32) -> U256 {
        debug_assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb = (n / 64) as usize;
        let sh = n % 64;
        let mut out = [0u64; 4];
        for i in (limb..4).rev() {
            let mut v = self.0[i - limb] << sh;
            if sh > 0 && i > limb {
                v |= self.0[i - limb - 1] >> (64 - sh);
            }
            out[i] = v;
        }
        U256(out)
    }

    /// Right shift by `n` bits; `n` must be < 256.
    pub fn shr(&self, n: u32) -> U256 {
        debug_assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb = (n / 64) as usize;
        let sh = n % 64;
        let mut out = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // limb arithmetic reads clearest indexed
        for i in 0..4 - limb {
            let mut v = self.0[i + limb] >> sh;
            if sh > 0 && i + limb + 1 < 4 {
                v |= self.0[i + limb + 1] << (64 - sh);
            }
            out[i] = v;
        }
        U256(out)
    }

    /// Big-endian byte encoding (32 bytes).
    pub fn to_bytes_be(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian 32-byte encoding.
    pub fn from_bytes_be(b: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[i * 8..(i + 1) * 8]);
            limbs[3 - i] = u64::from_be_bytes(w);
        }
        U256(limbs)
    }

    /// Parses a hex string (no `0x` prefix, up to 64 nibbles).
    pub fn from_hex(s: &str) -> Option<U256> {
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut v = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16)? as u64;
            v = v.shl(4);
            v.0[0] |= d;
        }
        Some(v)
    }

    /// Lowercase hex encoding without leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut s = String::new();
        let mut started = false;
        for i in (0..4).rev() {
            if started {
                s.push_str(&format!("{:016x}", self.0[i]));
            } else if self.0[i] != 0 {
                s.push_str(&format!("{:x}", self.0[i]));
                started = true;
            }
        }
        s
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for U256 {
    fn from(x: u64) -> Self {
        U256::from_u64(x)
    }
}

impl From<u128> for U256 {
    fn from(x: u128) -> Self {
        U256::from_u128(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let b = U256::from_u64(0xdead_beef);
        let (s, c) = a.overflowing_add(&b);
        assert!(!c);
        assert_eq!(s.wrapping_sub(&b), a);
    }

    #[test]
    fn overflow_carries() {
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(c);
        assert!(s.is_zero());
        let (d, b) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(b);
        assert_eq!(d, U256::MAX);
    }

    #[test]
    fn mul_matches_u128() {
        let a = U256::from_u64(0xffff_ffff_ffff_fffe);
        let b = U256::from_u64(0xffff_ffff_ffff_fffd);
        let (lo, hi) = a.widening_mul(&b);
        let exact = 0xffff_ffff_ffff_fffeu128 * 0xffff_ffff_ffff_fffdu128;
        assert_eq!(lo.low_u128(), exact);
        assert!(hi.is_zero());
    }

    #[test]
    fn shifts() {
        let a = U256::from_u64(1);
        assert_eq!(a.shl(255).shr(255), a);
        assert_eq!(a.shl(64).0, [0, 1, 0, 0]);
        let b = U256([0, 0, 0, 1 << 63]);
        assert_eq!(b.shr(255), U256::ONE);
        assert_eq!(a.shl(0), a);
        assert_eq!(a.shr(0), a);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        let x = U256::from_u64(0b1010);
        assert!(x.bit(1) && x.bit(3));
        assert!(!x.bit(0) && !x.bit(2));
    }

    #[test]
    fn bytes_roundtrip() {
        let a = U256([
            0x1122334455667788,
            0x99aabbccddeeff00,
            0xdeadbeefcafebabe,
            0x0123456789abcdef,
        ]);
        assert_eq!(U256::from_bytes_be(&a.to_bytes_be()), a);
        let be = a.to_bytes_be();
        assert_eq!(be[0], 0x01);
        assert_eq!(be[31], 0x88);
    }

    #[test]
    fn hex_roundtrip() {
        let a = U256::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(a.to_hex(), "deadbeefcafebabe0123456789abcdef");
        assert_eq!(U256::ZERO.to_hex(), "0");
        assert_eq!(U256::from_hex("0").unwrap(), U256::ZERO);
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex("xyz").is_none());
    }

    #[test]
    fn ordering() {
        let a = U256([0, 0, 0, 1]);
        let b = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(a > b);
        assert!(U256::ZERO < U256::ONE);
    }
}

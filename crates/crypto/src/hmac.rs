//! HMAC-SHA256, HKDF key extraction, and a counter-mode keystream.
//!
//! These primitives back the hybrid encryption PrivCount uses to deliver
//! blinding shares to Share Keepers, and deterministic per-party
//! randomness derivation.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)` (RFC 2104).
fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256_parts(key, &[message])
}

/// HMAC over multiple message segments.
fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let (mut inner, outer) = keyed_pads(key);
    for p in parts {
        inner.update(p);
    }
    finish(inner, outer)
}

/// The inner and outer SHA-256 states after absorbing the keyed ipad and
/// opad blocks: every HMAC under `key` starts from these two midstates.
fn keyed_pads(key: &[u8]) -> (Sha256, Sha256) {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        k[..DIGEST_LEN].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = k[i] ^ 0x36;
        opad[i] = k[i] ^ 0x5c;
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    let mut outer = Sha256::new();
    outer.update(&opad);
    (inner, outer)
}

/// Completes an HMAC whose message is already absorbed into `inner`.
fn finish(inner: Sha256, mut outer: Sha256) -> [u8; DIGEST_LEN] {
    outer.update(&inner.finalize());
    outer.finalize()
}

/// HKDF-Extract (RFC 5869): `PRK = HMAC(salt, ikm)`.
fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// Counter-mode keystream built on HMAC-SHA256, used as a stream cipher
/// for hybrid encryption (key must be unique per message: derive it from
/// a fresh DH share).
pub struct KeyStream {
    /// HMAC midstates keyed once with the extracted key; each block
    /// clones them instead of re-absorbing the pads.
    inner: Sha256,
    outer: Sha256,
    block: [u8; DIGEST_LEN],
    counter: u64,
    offset: usize,
}

impl KeyStream {
    /// Creates a keystream bound to `key` and a domain-separating `label`.
    fn new(key: &[u8], label: &[u8]) -> KeyStream {
        let (inner, outer) = keyed_pads(&hkdf_extract(label, key));
        let mut ks = KeyStream {
            inner,
            outer,
            block: [0u8; DIGEST_LEN],
            counter: 0,
            offset: DIGEST_LEN, // force refill on first byte
        };
        ks.refill();
        ks
    }

    fn refill(&mut self) {
        let mut inner = self.inner.clone();
        inner
            .update(b"keystream")
            .update(&self.counter.to_be_bytes());
        self.block = finish(inner, self.outer.clone());
        self.counter += 1;
        self.offset = 0;
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    pub fn apply(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if self.offset == DIGEST_LEN {
                self.refill();
            }
            *byte ^= self.block[self.offset];
            self.offset += 1;
        }
    }
}

/// Encrypts `plaintext` under `key`/`label`; prepends nothing (the key is
/// assumed fresh, e.g. derived from an ephemeral DH exchange).
pub fn stream_encrypt(key: &[u8], label: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut data = plaintext.to_vec();
    KeyStream::new(key, label).apply(&mut data);
    data
}

/// Inverse of [`stream_encrypt`].
pub fn stream_decrypt(key: &[u8], label: &[u8], ciphertext: &[u8]) -> Vec<u8> {
    stream_encrypt(key, label, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_test_case_1() {
        // HMAC-SHA256 with key = 0x0b * 20, data = "Hi There".
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        // key = "Jefe", data = "what do ya want for nothing?"
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: 131-byte key (forces key hashing).
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hmac_parts_equals_concat() {
        let a = hmac_sha256(b"key", b"hello world");
        let b = hmac_sha256_parts(b"key", &[b"hello", b" ", b"world"]);
        assert_eq!(a, b);
    }

    #[test]
    fn keystream_roundtrip() {
        let msg = b"attack at dawn; bring 651 circuits".to_vec();
        let ct = stream_encrypt(b"shared-secret", b"test", &msg);
        assert_ne!(ct, msg);
        let pt = stream_decrypt(b"shared-secret", b"test", &ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn keystream_label_separation() {
        let msg = vec![0u8; 64];
        let a = stream_encrypt(b"k", b"label-a", &msg);
        let b = stream_encrypt(b"k", b"label-b", &msg);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_matches_per_counter_hmac() {
        // Oracle: block i is HMAC(prk, "keystream" || i) for 0..300 blocks.
        let prk = hkdf_extract(b"label", b"key");
        let mut stream = vec![0u8; 300 * DIGEST_LEN];
        KeyStream::new(b"key", b"label").apply(&mut stream);
        for (i, block) in stream.chunks(DIGEST_LEN).enumerate() {
            let want = hmac_sha256_parts(&prk, &[b"keystream", &(i as u64).to_be_bytes()]);
            assert_eq!(block, want, "block {i}");
        }
    }

    #[test]
    fn keystream_long_message() {
        let msg = vec![0xa5u8; 10_000];
        let ct = stream_encrypt(b"k", b"l", &msg);
        let pt = stream_decrypt(b"k", b"l", &ct);
        assert_eq!(pt, msg);
        // Keystream should not be trivially periodic at block size.
        assert_ne!(&ct[..32], &ct[32..64]);
    }
}

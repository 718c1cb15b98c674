//! PrivCount wire messages and their codecs.

use bytes::{BufMut, Bytes, BytesMut};
use pm_crypto::elgamal::HybridCiphertext;
use pm_crypto::group::GroupElement;
use pm_net::frame::{
    get_array32, get_lp_bytes, get_lp_str, get_u64, get_vec, put_lp_bytes, put_lp_str, put_vec,
    WireDecode, WireEncode, WireError,
};

/// Message type tags.
pub mod tag {
    /// SK → TS: public key announcement.
    pub const SK_KEY: u16 = 1;
    /// TS → DC: round configuration.
    pub const CONFIGURE: u16 = 2;
    /// DC → TS: encrypted blinding shares for one SK.
    pub const SHARES: u16 = 3;
    /// TS → SK: forwarded encrypted shares.
    pub const SHARES_FWD: u16 = 4;
    /// SK → TS: acknowledgment of absorbed shares.
    pub const SHARES_ACK: u16 = 5;
    /// TS → DC: begin collection.
    pub const START: u16 = 6;
    /// DC → TS: blinded counter registers.
    pub const DC_RESULT: u16 = 7;
    /// TS → SK: end of round; publish share sums.
    pub const STOP: u16 = 8;
    /// SK → TS: share-sum registers.
    pub const SK_RESULT: u16 = 9;
}

/// SK → TS: announces the SK's hybrid-encryption public key.
#[derive(Clone, Debug, PartialEq)]
pub struct SkKey {
    /// The SK's ElGamal public key.
    pub key: GroupElement,
}

impl WireEncode for SkKey {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.key.to_bytes());
    }
}

impl WireDecode for SkKey {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(SkKey {
            key: GroupElement::from_bytes(&get_array32(buf)?),
        })
    }
}

/// TS → DC: the round configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Configure {
    /// Counter names (σ values live in the DC's local schema; names let
    /// the DC sanity-check alignment).
    pub counter_names: Vec<String>,
    /// SK party names and public keys, in share order.
    pub sk_keys: Vec<(String, GroupElement)>,
}

impl WireEncode for Configure {
    fn encode(&self, buf: &mut BytesMut) {
        put_vec(buf, &self.counter_names, |b, name| put_lp_str(b, name));
        put_vec(buf, &self.sk_keys, |b, (name, key)| {
            put_lp_str(b, name);
            b.put_slice(&key.to_bytes());
        });
    }
}

impl WireDecode for Configure {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Configure {
            counter_names: get_vec(buf, 1_000_000, get_lp_str)?,
            sk_keys: get_vec(buf, 1_000, |b| {
                Ok((get_lp_str(b)?, GroupElement::from_bytes(&get_array32(b)?)))
            })?,
        })
    }
}

/// DC → TS (→ SK): hybrid-encrypted blinding shares for one SK.
#[derive(Clone, Debug, PartialEq)]
pub struct EncryptedShares {
    /// Destination SK's party name.
    pub sk_name: String,
    /// Originating DC's party name (filled by the TS when forwarding).
    pub dc_name: String,
    /// Hybrid ciphertext over the `u64` share vector (one per counter).
    pub kem: GroupElement,
    /// Encrypted payload.
    pub payload: Vec<u8>,
}

impl EncryptedShares {
    /// Reconstructs the crypto-layer ciphertext.
    pub fn ciphertext(&self) -> HybridCiphertext {
        HybridCiphertext {
            kem: self.kem,
            payload: self.payload.clone(),
        }
    }
}

impl WireEncode for EncryptedShares {
    fn encode(&self, buf: &mut BytesMut) {
        put_lp_str(buf, &self.sk_name);
        put_lp_str(buf, &self.dc_name);
        buf.put_slice(&self.kem.to_bytes());
        put_lp_bytes(buf, &self.payload);
    }
}

impl WireDecode for EncryptedShares {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(EncryptedShares {
            sk_name: get_lp_str(buf)?,
            dc_name: get_lp_str(buf)?,
            kem: GroupElement::from_bytes(&get_array32(buf)?),
            payload: get_lp_bytes(buf)?.to_vec(),
        })
    }
}

/// A vector of u64 registers (used by DC and SK results).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Registers {
    /// The register values.
    pub values: Vec<u64>,
}

impl WireEncode for Registers {
    fn encode(&self, buf: &mut BytesMut) {
        put_vec(buf, &self.values, |b, v| b.put_u64(*v));
    }
}

impl WireDecode for Registers {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Registers {
            values: get_vec(buf, 10_000_000, get_u64)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_crypto::group::GroupParams;
    use pm_net::Frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sk_key_roundtrip() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(1);
        let msg = SkKey {
            key: gp.random_element(&mut rng),
        };
        let frame = Frame::encode_msg(tag::SK_KEY, &msg);
        assert_eq!(frame.decode_msg::<SkKey>().unwrap(), msg);
    }

    #[test]
    fn configure_roundtrip() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(2);
        let msg = Configure {
            counter_names: vec!["a".into(), "b.c".into()],
            sk_keys: vec![
                ("sk-1".into(), gp.random_element(&mut rng)),
                ("sk-2".into(), gp.random_element(&mut rng)),
            ],
        };
        let frame = Frame::encode_msg(tag::CONFIGURE, &msg);
        assert_eq!(frame.decode_msg::<Configure>().unwrap(), msg);
    }

    #[test]
    fn shares_roundtrip() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(3);
        let msg = EncryptedShares {
            sk_name: "sk-1".into(),
            dc_name: "dc-3".into(),
            kem: gp.random_element(&mut rng),
            payload: vec![1, 2, 3, 4, 5],
        };
        let frame = Frame::encode_msg(tag::SHARES, &msg);
        assert_eq!(frame.decode_msg::<EncryptedShares>().unwrap(), msg);
    }

    #[test]
    fn registers_roundtrip() {
        let msg = Registers {
            values: vec![0, u64::MAX, 42],
        };
        let frame = Frame::encode_msg(tag::DC_RESULT, &msg);
        assert_eq!(frame.decode_msg::<Registers>().unwrap(), msg);
    }

    /// One message of every PrivCount type from a fixed seed, every
    /// sequence field non-empty (and the empty register vector that
    /// START and STOP carry).
    fn samples() -> Vec<Frame> {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(4);
        let configure = Configure {
            counter_names: vec!["exit.streams".into(), "".into(), "entry.circuits".into()],
            sk_keys: vec![
                ("sk-1".into(), gp.random_element(&mut rng)),
                ("sk-2".into(), gp.random_element(&mut rng)),
            ],
        };
        let shares = EncryptedShares {
            sk_name: "sk-2".into(),
            dc_name: "dc-7".into(),
            kem: gp.random_element(&mut rng),
            payload: (0..40).collect(),
        };
        let key = SkKey {
            key: gp.random_element(&mut rng),
        };
        let registers = Registers {
            values: vec![0, 1, u64::MAX, 1 << 40],
        };
        vec![
            Frame::encode_msg(tag::SK_KEY, &key),
            Frame::encode_msg(tag::CONFIGURE, &configure),
            Frame::encode_msg(tag::SHARES, &shares),
            Frame::encode_msg(tag::DC_RESULT, &registers),
            Frame::encode_msg(tag::START, &Registers { values: vec![] }),
        ]
    }

    /// Decodes a payload as the message its tag names and encodes it
    /// again.
    fn reencode(f: &Frame) -> Result<Frame, WireError> {
        Ok(match f.msg_type {
            tag::SK_KEY => Frame::encode_msg(f.msg_type, &f.decode_msg::<SkKey>()?),
            tag::CONFIGURE => Frame::encode_msg(f.msg_type, &f.decode_msg::<Configure>()?),
            tag::SHARES => Frame::encode_msg(f.msg_type, &f.decode_msg::<EncryptedShares>()?),
            tag::DC_RESULT | tag::START => {
                Frame::encode_msg(f.msg_type, &f.decode_msg::<Registers>()?)
            }
            other => panic!("no sample carries tag {other}"),
        })
    }

    /// The wire bytes of every message type, pinned as (tag, payload
    /// length, first 8 bytes of the payload's SHA-256) so that a codec
    /// change that moves a byte fails here; and every payload decodes
    /// and re-encodes to itself.
    #[test]
    fn encodings_are_pinned() {
        let frames = samples();
        let got: Vec<String> = frames
            .iter()
            .map(|f| {
                let digest = pm_crypto::sha256::sha256(&f.payload);
                let hex: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
                format!("{} {} {hex}", f.msg_type, f.payload.len())
            })
            .collect();
        let want = [
            "1 32 a2bdb8a40866413a",
            "2 126 11b7a05dc87959a3",
            "3 92 a4c88dd40caf916c",
            "7 36 bf9ec2667591e38b",
            "6 4 df3f619804a92fdb",
        ];
        assert_eq!(got, want);
        for f in &frames {
            assert_eq!(&reencode(f).unwrap(), f, "tag {}", f.msg_type);
        }
    }

    /// Cutting any message's payload anywhere short of its end is an
    /// error, never a panic and never a shorter message.
    #[test]
    fn truncated_rejected() {
        for f in samples() {
            for cut in 0..f.payload.len() {
                let short = Frame::new(f.msg_type, f.payload.slice(..cut));
                assert!(reencode(&short).is_err(), "tag {} cut {cut}", f.msg_type);
            }
        }
    }
}

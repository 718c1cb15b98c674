//! PSC wire messages and codecs.

use bytes::{BufMut, Bytes, BytesMut};
use pm_crypto::elgamal::Ciphertext;
use pm_crypto::group::{GroupElement, Scalar};
use pm_crypto::shuffle::{Permutation, RoundOpening, ShuffleProof};
use pm_crypto::zkp::{DleqProof, SchnorrProof};
use pm_net::frame::{get_array32, get_u32, get_u8, Frame, WireDecode, WireEncode, WireError};

/// Message type tags.
pub mod tag {
    /// CP → TS: key share + proof of knowledge.
    pub const CP_KEY: u16 = 20;
    /// TS → DC/CP: round configuration.
    pub const CONFIGURE: u16 = 21;
    /// DC → TS: the oblivious counter table.
    pub const DC_TABLE: u16 = 22;
    /// TS → CP: mix this table.
    pub const MIX_TASK: u16 = 23;
    /// CP → TS: mixed table + proofs.
    pub const MIX_RESULT: u16 = 24;
    /// TS → CP: produce partial decryptions.
    pub const DECRYPT_TASK: u16 = 25;
    /// CP → TS: partial decryptions + proofs.
    pub const PARTIAL_DEC: u16 = 26;
}

// ----- primitive codecs -----

fn put_element(buf: &mut BytesMut, e: &GroupElement) {
    buf.put_slice(&e.to_bytes());
}

fn get_element(buf: &mut Bytes) -> Result<GroupElement, WireError> {
    Ok(GroupElement::from_bytes(&get_array32(buf)?))
}

fn put_scalar(buf: &mut BytesMut, s: &Scalar) {
    buf.put_slice(&s.to_bytes());
}

fn get_scalar(buf: &mut Bytes) -> Result<Scalar, WireError> {
    Ok(Scalar::from_bytes(&get_array32(buf)?))
}

fn put_ciphertext(buf: &mut BytesMut, c: &Ciphertext) {
    put_element(buf, &c.a);
    put_element(buf, &c.b);
}

fn get_ciphertext(buf: &mut Bytes) -> Result<Ciphertext, WireError> {
    Ok(Ciphertext {
        a: get_element(buf)?,
        b: get_element(buf)?,
    })
}

/// Upper bound on ciphertext-vector length accepted from the wire.
const MAX_CELLS: usize = 1 << 24;

pub(crate) fn put_cells(buf: &mut BytesMut, cells: &[Ciphertext]) {
    buf.put_u32(cells.len() as u32);
    for c in cells {
        put_ciphertext(buf, c);
    }
}

pub(crate) fn get_cells(buf: &mut Bytes) -> Result<Vec<Ciphertext>, WireError> {
    let n = get_u32(buf)? as usize;
    if n > MAX_CELLS {
        return Err(WireError::Invalid("cell vector too long"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_ciphertext(buf)?);
    }
    Ok(out)
}

fn put_dleq(buf: &mut BytesMut, p: &DleqProof) {
    put_element(buf, &p.commit_g);
    put_element(buf, &p.commit_a);
    put_scalar(buf, &p.response);
}

fn get_dleq(buf: &mut Bytes) -> Result<DleqProof, WireError> {
    Ok(DleqProof {
        commit_g: get_element(buf)?,
        commit_a: get_element(buf)?,
        response: get_scalar(buf)?,
    })
}

// ----- messages -----

/// CP → TS: ElGamal key share with Schnorr proof of knowledge.
#[derive(Clone, Debug, PartialEq)]
pub struct CpKey {
    /// `y_i = g^{x_i}`.
    pub share: GroupElement,
    /// Proof of knowledge of `x_i`.
    pub proof: SchnorrProof,
}

impl WireEncode for CpKey {
    fn encode(&self, buf: &mut BytesMut) {
        put_element(buf, &self.share);
        put_element(buf, &self.proof.commit);
        put_scalar(buf, &self.proof.response);
    }
}

impl WireDecode for CpKey {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(CpKey {
            share: get_element(buf)?,
            proof: SchnorrProof {
                commit: get_element(buf)?,
                response: get_scalar(buf)?,
            },
        })
    }
}

/// TS → DC/CP: round configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PscConfigure {
    /// The combined public key `Y = Π y_i`.
    pub joint_key: GroupElement,
    /// Table size `b`.
    pub table_size: u32,
    /// Noise cells each CP appends.
    pub noise_flips: u32,
    /// Item-hashing salt for this round.
    pub salt: [u8; 32],
    /// Whether ZK proofs are generated/verified.
    pub verify: bool,
}

impl WireEncode for PscConfigure {
    fn encode(&self, buf: &mut BytesMut) {
        put_element(buf, &self.joint_key);
        buf.put_u32(self.table_size);
        buf.put_u32(self.noise_flips);
        buf.put_slice(&self.salt);
        buf.put_u8(self.verify as u8);
    }
}

impl WireDecode for PscConfigure {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(PscConfigure {
            joint_key: get_element(buf)?,
            table_size: get_u32(buf)?,
            noise_flips: get_u32(buf)?,
            salt: get_array32(buf)?,
            verify: get_u8(buf)? != 0,
        })
    }
}

/// A table of cells and nothing else: the payload of [`tag::DC_TABLE`]
/// (DC → TS, the collected table), [`tag::MIX_TASK`] (TS → CP, the
/// input to the CP's hop) and [`tag::DECRYPT_TASK`] (TS → CP, the mixed
/// table to partially decrypt). The tag says which.
#[derive(Clone, Debug, PartialEq)]
pub struct Cells {
    /// The cells.
    pub cells: Vec<Ciphertext>,
}

impl WireEncode for Cells {
    fn encode(&self, buf: &mut BytesMut) {
        put_cells(buf, &self.cells);
    }
}

impl WireDecode for Cells {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Cells {
            cells: get_cells(buf)?,
        })
    }
}

/// CP → TS: the result of one mixing hop, with optional proofs.
///
/// The TS (which knows the input it sent) verifies, in order:
/// the noise extension (first `input_len` cells of `with_noise` must
/// equal the input), that `exp_key ≠ 1`, the exponentiation proofs
/// (`post_exp[j] = with_noise[j]^k` where `exp_key = g^k`), and the
/// shuffle argument (`output` is a rerandomizing shuffle of
/// `post_exp`).
///
/// `exp_key ≠ 1` is part of the statement, not a formality: `k = 0`
/// satisfies every Chaum–Pedersen equation (`y = d = 1`, `s = w`) while
/// mapping every cell to an encryption of the identity, which would
/// erase all marks and all noise. The TS rejects it whether or not
/// proofs are on.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// Input ∥ appended noise cells.
    pub with_noise: Vec<Ciphertext>,
    /// `g^k` for this hop's zero-preserving exponent `k ≠ 0`; never the
    /// identity.
    pub exp_key: GroupElement,
    /// Cellwise `(a^k, b^k)`.
    pub post_exp: Vec<Ciphertext>,
    /// Per-cell Chaum–Pedersen proofs (a-component, b-component); empty
    /// when `verify` is off.
    pub exp_proofs: Vec<(DleqProof, DleqProof)>,
    /// The shuffled, rerandomized output.
    pub output: Vec<Ciphertext>,
    /// Cut-and-choose shuffle argument; `None` when `verify` is off.
    pub shuffle_proof: Option<ShuffleProof>,
}

impl WireEncode for MixResult {
    fn encode(&self, buf: &mut BytesMut) {
        put_cells(buf, &self.with_noise);
        put_element(buf, &self.exp_key);
        put_cells(buf, &self.post_exp);
        buf.put_u32(self.exp_proofs.len() as u32);
        for (pa, pb) in &self.exp_proofs {
            put_dleq(buf, pa);
            put_dleq(buf, pb);
        }
        put_cells(buf, &self.output);
        match &self.shuffle_proof {
            None => buf.put_u8(0),
            Some(proof) => {
                buf.put_u8(1);
                buf.put_u32(proof.shadows.len() as u32);
                for shadow in &proof.shadows {
                    put_cells(buf, shadow);
                }
                for opening in &proof.openings {
                    let (tag_byte, perm, rerand) = match opening {
                        RoundOpening::InputToShadow { perm, rerand } => (0u8, perm, rerand),
                        RoundOpening::ShadowToOutput { perm, rerand } => (1u8, perm, rerand),
                    };
                    buf.put_u8(tag_byte);
                    buf.put_u32(perm.0.len() as u32);
                    for p in &perm.0 {
                        buf.put_u32(*p as u32);
                    }
                    for r in rerand {
                        put_scalar(buf, r);
                    }
                }
            }
        }
    }
}

impl WireDecode for MixResult {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let with_noise = get_cells(buf)?;
        let exp_key = get_element(buf)?;
        let post_exp = get_cells(buf)?;
        let np = get_u32(buf)? as usize;
        if np > MAX_CELLS {
            return Err(WireError::Invalid("too many exp proofs"));
        }
        let mut exp_proofs = Vec::with_capacity(np);
        for _ in 0..np {
            exp_proofs.push((get_dleq(buf)?, get_dleq(buf)?));
        }
        let output = get_cells(buf)?;
        let shuffle_proof = match get_u8(buf)? {
            0 => None,
            1 => {
                let rounds = get_u32(buf)? as usize;
                if rounds > 256 {
                    return Err(WireError::Invalid("too many shuffle rounds"));
                }
                let mut shadows = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    shadows.push(get_cells(buf)?);
                }
                let mut openings = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let tag_byte = get_u8(buf)?;
                    let n = get_u32(buf)? as usize;
                    if n > MAX_CELLS {
                        return Err(WireError::Invalid("opening too long"));
                    }
                    let mut perm = Vec::with_capacity(n);
                    for _ in 0..n {
                        perm.push(get_u32(buf)? as usize);
                    }
                    let mut rerand = Vec::with_capacity(n);
                    for _ in 0..n {
                        rerand.push(get_scalar(buf)?);
                    }
                    let perm = Permutation(perm);
                    openings.push(match tag_byte {
                        0 => RoundOpening::InputToShadow { perm, rerand },
                        1 => RoundOpening::ShadowToOutput { perm, rerand },
                        _ => return Err(WireError::Invalid("bad opening tag")),
                    });
                }
                Some(ShuffleProof { shadows, openings })
            }
            _ => return Err(WireError::Invalid("bad proof flag")),
        };
        Ok(MixResult {
            with_noise,
            exp_key,
            post_exp,
            exp_proofs,
            output,
            shuffle_proof,
        })
    }
}

/// CP → TS: partial decryptions with correctness proofs.
#[derive(Clone, Debug)]
pub struct PartialDec {
    /// The CP's key share `y_i` (statement for the proofs).
    pub share: GroupElement,
    /// `d_j = a_j^{x_i}` per cell.
    pub partials: Vec<GroupElement>,
    /// Chaum–Pedersen proofs; empty when `verify` is off.
    pub proofs: Vec<DleqProof>,
}

impl WireEncode for PartialDec {
    fn encode(&self, buf: &mut BytesMut) {
        put_element(buf, &self.share);
        buf.put_u32(self.partials.len() as u32);
        for p in &self.partials {
            put_element(buf, p);
        }
        buf.put_u32(self.proofs.len() as u32);
        for p in &self.proofs {
            put_dleq(buf, p);
        }
    }
}

impl WireDecode for PartialDec {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let share = get_element(buf)?;
        let n = get_u32(buf)? as usize;
        if n > MAX_CELLS {
            return Err(WireError::Invalid("too many partials"));
        }
        let mut partials = Vec::with_capacity(n);
        for _ in 0..n {
            partials.push(get_element(buf)?);
        }
        let np = get_u32(buf)? as usize;
        if np > MAX_CELLS {
            return Err(WireError::Invalid("too many proofs"));
        }
        let mut proofs = Vec::with_capacity(np);
        for _ in 0..np {
            proofs.push(get_dleq(buf)?);
        }
        Ok(PartialDec {
            share,
            partials,
            proofs,
        })
    }
}

/// Helper: wraps a message in its tagged frame.
pub fn frame_of<M: WireEncode>(tag: u16, msg: &M) -> Frame {
    Frame::encode_msg(tag, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_crypto::elgamal::{encrypt, keygen};
    use pm_crypto::group::GroupParams;
    use pm_crypto::shuffle::{shuffle, ShuffleProof};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cts(n: usize, seed: u64) -> (GroupParams, Vec<Ciphertext>) {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = keygen(&gp, &mut rng);
        let cells = (0..n)
            .map(|_| {
                let m = gp.random_element(&mut rng);
                encrypt(&gp, &kp.public, &m, &mut rng)
            })
            .collect();
        (gp, cells)
    }

    #[test]
    fn cp_key_roundtrip() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(1);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let proof = pm_crypto::zkp::SchnorrProof::prove(
            &gp,
            &x,
            &y,
            &mut pm_crypto::zkp::Transcript::new(b"t"),
            &mut rng,
        );
        let msg = CpKey { share: y, proof };
        let frame = frame_of(tag::CP_KEY, &msg);
        assert_eq!(frame.decode_msg::<CpKey>().unwrap(), msg);
    }

    #[test]
    fn configure_roundtrip() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(2);
        let msg = PscConfigure {
            joint_key: gp.random_element(&mut rng),
            table_size: 4096,
            noise_flips: 512,
            salt: [9u8; 32],
            verify: true,
        };
        let frame = frame_of(tag::CONFIGURE, &msg);
        assert_eq!(frame.decode_msg::<PscConfigure>().unwrap(), msg);
    }

    #[test]
    fn table_roundtrip() {
        let (_, cells) = cts(16, 3);
        let msg = Cells { cells };
        let frame = frame_of(tag::DC_TABLE, &msg);
        assert_eq!(frame.decode_msg::<Cells>().unwrap(), msg);
    }

    #[test]
    fn mix_result_roundtrip_with_proofs() {
        let (gp, cells) = cts(6, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let kp = keygen(&gp, &mut rng);
        let (out, w) = shuffle(&gp, &kp.public, &cells, &mut rng);
        let proof = ShuffleProof::prove(&gp, &kp.public, &cells, &out, &w, 6, &mut rng);
        let x = gp.random_scalar(&mut rng);
        let dleq = pm_crypto::zkp::DleqProof::prove(
            &gp,
            &x,
            &cells[0].a,
            &gp.g_pow(&x),
            &gp.pow(&cells[0].a, &x),
            &mut pm_crypto::zkp::Transcript::new(b"t"),
            &mut rng,
        );
        let msg = MixResult {
            with_noise: cells.clone(),
            exp_key: gp.g_pow(&x),
            post_exp: cells.clone(),
            exp_proofs: vec![(dleq, dleq)],
            output: out,
            shuffle_proof: Some(proof),
        };
        let frame = frame_of(tag::MIX_RESULT, &msg);
        let back: MixResult = frame.decode_msg().unwrap();
        assert_eq!(back.with_noise, msg.with_noise);
        assert_eq!(back.exp_key, msg.exp_key);
        assert_eq!(back.exp_proofs.len(), 1);
        assert_eq!(back.output, msg.output);
        let sp = back.shuffle_proof.unwrap();
        assert_eq!(sp.shadows.len(), 6);
        assert_eq!(sp.openings.len(), 6);
    }

    #[test]
    fn mix_result_roundtrip_without_proofs() {
        let (gp, cells) = cts(4, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let msg = MixResult {
            with_noise: cells.clone(),
            exp_key: gp.random_element(&mut rng),
            post_exp: cells.clone(),
            exp_proofs: vec![],
            output: cells,
            shuffle_proof: None,
        };
        let frame = frame_of(tag::MIX_RESULT, &msg);
        let back: MixResult = frame.decode_msg().unwrap();
        assert!(back.shuffle_proof.is_none());
        assert!(back.exp_proofs.is_empty());
    }

    #[test]
    fn partial_dec_roundtrip() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(8);
        let msg = PartialDec {
            share: gp.random_element(&mut rng),
            partials: (0..5).map(|_| gp.random_element(&mut rng)).collect(),
            proofs: vec![],
        };
        let frame = frame_of(tag::PARTIAL_DEC, &msg);
        let back: PartialDec = frame.decode_msg().unwrap();
        assert_eq!(back.share, msg.share);
        assert_eq!(back.partials, msg.partials);
    }
}

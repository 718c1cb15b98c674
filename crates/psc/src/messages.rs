//! PSC wire messages and codecs.

use pm_crypto::elgamal::Ciphertext;
use pm_crypto::group::{GroupElement, Scalar};
use pm_crypto::shuffle::{Permutation, RoundOpening, ShuffleProof};
use pm_crypto::zkp::{DleqProof, SchnorrProof};
use pm_net::frame::{
    get_array32, get_items, get_u32, get_u8, get_vec, put_vec, WireDecode, WireEncode, WireError,
};
use pm_net::party::NodeError;
use pm_net::Frame;
use pm_obs::Recorder;

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

/// Decodes `frame`'s payload as an `M` inside a span named `span` (the
/// receiving party's `ts.decode` / `cp.decode`) with a `bytes` note;
/// a malformed payload is a protocol error naming `what`.
pub(crate) fn decode<M: WireDecode>(
    recorder: &Recorder,
    span: &'static str,
    frame: &Frame,
    what: &str,
) -> Result<M, NodeError> {
    let mut span = recorder.span(span, "psc");
    span.note("bytes", frame.payload.len());
    frame
        .decode_msg()
        .map_err(|e| NodeError::Protocol(format!("bad {what}: {e}")))
}

// ----- primitive codecs -----

fn put_element(buf: &mut Vec<u8>, e: &GroupElement) {
    buf.extend_from_slice(&e.to_bytes());
}

fn get_element(buf: &mut &[u8]) -> Result<GroupElement, WireError> {
    Ok(GroupElement::from_bytes(&get_array32(buf)?))
}

fn put_scalar(buf: &mut Vec<u8>, s: &Scalar) {
    buf.extend_from_slice(&s.to_bytes());
}

fn get_scalar(buf: &mut &[u8]) -> Result<Scalar, WireError> {
    Ok(Scalar::from_bytes(&get_array32(buf)?))
}

fn put_ciphertext(buf: &mut Vec<u8>, c: &Ciphertext) {
    put_element(buf, &c.a);
    put_element(buf, &c.b);
}

/// Upper bound on any sequence a PSC message carries (cells, proofs,
/// partial decryptions, permutation entries) accepted from the wire.
const MAX_CELLS: usize = 1 << 24;

/// Upper bound on the cut-and-choose rounds of a shuffle argument.
const MAX_SHUFFLE_ROUNDS: usize = 256;

fn put_cells(buf: &mut Vec<u8>, cells: &[Ciphertext]) {
    buf.reserve(4 + 64 * cells.len());
    put_vec(buf, cells, put_ciphertext);
}

/// Reads a cell sequence in bulk: the count is bounded, then its
/// `64·n` bytes must all be there, then they convert 64 at a time (`a`
/// then `b`). The errors are those of a [`get_vec`] of two elements a
/// cell: `Invalid` for an over-bound count, else `Truncated` if any
/// byte is missing.
fn get_cells(buf: &mut &[u8]) -> Result<Vec<Ciphertext>, WireError> {
    let n = get_u32(buf)? as usize;
    if n > MAX_CELLS {
        return Err(WireError::Invalid("vector length exceeds bound"));
    }
    let (raw, rest) = buf.split_at_checked(64 * n).ok_or(WireError::Truncated)?;
    *buf = rest;
    let (elements, _) = raw.as_chunks::<32>();
    let (pairs, _) = elements.as_chunks::<2>();
    Ok(pairs
        .iter()
        .map(|[a, b]| Ciphertext {
            a: GroupElement::from_bytes(a),
            b: GroupElement::from_bytes(b),
        })
        .collect())
}

fn put_dleq(buf: &mut Vec<u8>, p: &DleqProof) {
    put_element(buf, &p.commit_g);
    put_element(buf, &p.commit_a);
    put_scalar(buf, &p.response);
}

fn get_dleq(buf: &mut &[u8]) -> Result<DleqProof, WireError> {
    Ok(DleqProof {
        commit_g: get_element(buf)?,
        commit_a: get_element(buf)?,
        response: get_scalar(buf)?,
    })
}

/// One round of a shuffle argument: which side it opens, the
/// permutation as a sequence, then one rerandomizer per permuted cell
/// (counted by the permutation, so not again).
fn put_opening(buf: &mut Vec<u8>, opening: &RoundOpening) {
    let (side, perm, rerand) = match opening {
        RoundOpening::InputToShadow { perm, rerand } => (0u8, perm, rerand),
        RoundOpening::ShadowToOutput { perm, rerand } => (1u8, perm, rerand),
    };
    buf.push(side);
    put_vec(buf, &perm.0, |b, p| b.extend((*p as u32).to_be_bytes()));
    for r in rerand {
        put_scalar(buf, r);
    }
}

fn get_opening(buf: &mut &[u8]) -> Result<RoundOpening, WireError> {
    let side = get_u8(buf)?;
    let perm = Permutation(get_vec(buf, MAX_CELLS, |b| Ok(get_u32(b)? as usize))?);
    let rerand = get_items(buf, perm.0.len(), get_scalar)?;
    match side {
        0 => Ok(RoundOpening::InputToShadow { perm, rerand }),
        1 => Ok(RoundOpening::ShadowToOutput { perm, rerand }),
        _ => Err(WireError::Invalid("bad opening tag")),
    }
}

/// An optional shuffle argument: a presence byte, then the shadows as a
/// sequence and one opening per shadow (counted by the shadows).
fn put_shuffle_proof(buf: &mut Vec<u8>, proof: Option<&ShuffleProof>) {
    let Some(proof) = proof else {
        return buf.push(0);
    };
    buf.push(1);
    put_vec(buf, &proof.shadows, |b, shadow| put_cells(b, shadow));
    for opening in &proof.openings {
        put_opening(buf, opening);
    }
}

fn get_shuffle_proof(buf: &mut &[u8]) -> Result<Option<ShuffleProof>, WireError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => {
            let shadows = get_vec(buf, MAX_SHUFFLE_ROUNDS, get_cells)?;
            let openings = get_items(buf, shadows.len(), get_opening)?;
            Ok(Some(ShuffleProof { shadows, openings }))
        }
        _ => Err(WireError::Invalid("bad proof flag")),
    }
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, &self.share);
        put_element(buf, &self.proof.commit);
        put_scalar(buf, &self.proof.response);
    }
}

impl WireDecode for CpKey {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, &self.joint_key);
        buf.extend_from_slice(&self.table_size.to_be_bytes());
        buf.extend_from_slice(&self.noise_flips.to_be_bytes());
        buf.extend_from_slice(&self.salt);
        buf.push(self.verify as u8);
    }
}

impl WireDecode for PscConfigure {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_cells(buf, &self.cells);
    }
}

impl WireDecode for Cells {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_cells(buf).map(|cells| Cells { cells })
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_cells(buf, &self.with_noise);
        put_element(buf, &self.exp_key);
        put_cells(buf, &self.post_exp);
        put_vec(buf, &self.exp_proofs, |b, (pa, pb)| {
            put_dleq(b, pa);
            put_dleq(b, pb);
        });
        put_cells(buf, &self.output);
        put_shuffle_proof(buf, self.shuffle_proof.as_ref());
    }
}

impl WireDecode for MixResult {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(MixResult {
            with_noise: get_cells(buf)?,
            exp_key: get_element(buf)?,
            post_exp: get_cells(buf)?,
            exp_proofs: get_vec(buf, MAX_CELLS, |b| Ok((get_dleq(b)?, get_dleq(b)?)))?,
            output: get_cells(buf)?,
            shuffle_proof: get_shuffle_proof(buf)?,
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, &self.share);
        put_vec(buf, &self.partials, put_element);
        put_vec(buf, &self.proofs, put_dleq);
    }
}

impl WireDecode for PartialDec {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PartialDec {
            share: get_element(buf)?,
            partials: get_vec(buf, MAX_CELLS, get_element)?,
            proofs: get_vec(buf, MAX_CELLS, get_dleq)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_crypto::elgamal::PublicKey;
    use pm_crypto::elgamal::{encrypt, keygen};
    use pm_crypto::group::GroupParams;
    use pm_crypto::shuffle::shuffle;
    use pm_net::Frame;
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
        let frame = Frame::encode_msg(tag::CP_KEY, &msg);
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
        let frame = Frame::encode_msg(tag::CONFIGURE, &msg);
        assert_eq!(frame.decode_msg::<PscConfigure>().unwrap(), msg);
    }

    #[test]
    fn table_roundtrip() {
        let (_, cells) = cts(16, 3);
        let msg = Cells { cells };
        let frame = Frame::encode_msg(tag::DC_TABLE, &msg);
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
        let frame = Frame::encode_msg(tag::MIX_RESULT, &msg);
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
        let frame = Frame::encode_msg(tag::MIX_RESULT, &msg);
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
        let frame = Frame::encode_msg(tag::PARTIAL_DEC, &msg);
        let back: PartialDec = frame.decode_msg().unwrap();
        assert_eq!(back.share, msg.share);
        assert_eq!(back.partials, msg.partials);
    }

    /// One message of every PSC type from a fixed seed, every sequence
    /// field non-empty, the shuffle argument opening both sides (and the
    /// mix result once without proofs).
    fn samples() -> Vec<Frame> {
        use pm_crypto::zkp::Transcript;
        let (gp, cells) = cts(5, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let x = gp.random_scalar(&mut rng);
        let y = gp.g_pow(&x);
        let schnorr = SchnorrProof::prove(&gp, &x, &y, &mut Transcript::new(b"t"), &mut rng);
        let mut dleq = |base: &GroupElement| {
            let d = gp.pow(base, &x);
            DleqProof::prove(&gp, &x, base, &y, &d, &mut Transcript::new(b"t"), &mut rng)
        };
        let exp_proofs: Vec<_> = cells.iter().map(|c| (dleq(&c.a), dleq(&c.b))).collect();
        let proofs = cells.iter().map(|c| dleq(&c.a)).collect();
        let (out, w) = shuffle(&gp, &PublicKey(y), &cells, &mut rng);
        let proof = ShuffleProof::prove(&gp, &PublicKey(y), &cells, &out, &w, 8, &mut rng);
        let to_shadow = |o: &RoundOpening| matches!(o, RoundOpening::InputToShadow { .. });
        assert!(proof.openings.iter().any(to_shadow) && !proof.openings.iter().all(to_shadow));
        let mix = |exp_proofs: Vec<(DleqProof, DleqProof)>, shuffle_proof: Option<ShuffleProof>| {
            MixResult {
                with_noise: cells.clone(),
                exp_key: y,
                post_exp: cells.clone(),
                exp_proofs,
                output: out.clone(),
                shuffle_proof,
            }
        };
        let configure = PscConfigure {
            joint_key: y,
            table_size: 4096,
            noise_flips: 512,
            salt: [9u8; 32],
            verify: true,
        };
        let partial = PartialDec {
            share: y,
            partials: cells.iter().map(|c| gp.pow(&c.a, &x)).collect(),
            proofs,
        };
        vec![
            Frame::encode_msg(
                tag::CP_KEY,
                &CpKey {
                    share: y,
                    proof: schnorr,
                },
            ),
            Frame::encode_msg(tag::CONFIGURE, &configure),
            Frame::encode_msg(
                tag::DC_TABLE,
                &Cells {
                    cells: cells.clone(),
                },
            ),
            Frame::encode_msg(tag::MIX_RESULT, &mix(exp_proofs, Some(proof))),
            Frame::encode_msg(tag::MIX_RESULT, &mix(vec![], None)),
            Frame::encode_msg(tag::PARTIAL_DEC, &partial),
        ]
    }

    /// Decodes a payload as the message its tag names and encodes it
    /// again.
    fn reencode(f: &Frame) -> Result<Frame, WireError> {
        Ok(match f.msg_type {
            tag::CP_KEY => Frame::encode_msg(f.msg_type, &f.decode_msg::<CpKey>()?),
            tag::CONFIGURE => Frame::encode_msg(f.msg_type, &f.decode_msg::<PscConfigure>()?),
            tag::DC_TABLE => Frame::encode_msg(f.msg_type, &f.decode_msg::<Cells>()?),
            tag::MIX_RESULT => Frame::encode_msg(f.msg_type, &f.decode_msg::<MixResult>()?),
            tag::PARTIAL_DEC => Frame::encode_msg(f.msg_type, &f.decode_msg::<PartialDec>()?),
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
            "20 96 7b1b7e143624c7c6",
            "21 73 f10093395772ccbf",
            "22 324 19f6cba9c82ba19e",
            "24 6045 67564552aa2f2142",
            "24 1009 0116a790d57f4dff",
            "26 680 a283b328e344099f",
        ];
        assert_eq!(got, want);
        for f in &frames {
            assert_eq!(&reencode(f).unwrap(), f, "tag {}", f.msg_type);
        }
    }

    /// A codec reader's input: `b` itself.
    fn input(b: &[u8]) -> &[u8] {
        b
    }

    /// A cell sequence whose count or bytes are wrong fails with the
    /// error its first bad field names: an over-bound count is
    /// `Invalid` before any cell is read, a count the bytes cannot back
    /// (whole cells missing, or the last one cut short) is `Truncated`.
    /// Checked bare, and as the later fields of a mix result and a
    /// shuffle argument's shadows.
    #[test]
    fn malformed_cell_sequences_keep_their_errors() {
        let (gp, cells) = cts(3, 21);
        let cell_bytes = |n: usize| -> Vec<u8> {
            let elements = cells[..n].iter().flat_map(|c| [c.a, c.b]);
            elements.flat_map(|e| e.to_bytes()).collect()
        };
        let seq = |count: u32, body: &[u8]| -> Vec<u8> {
            let mut buf = count.to_be_bytes().to_vec();
            buf.extend_from_slice(body);
            buf
        };
        let over = MAX_CELLS as u32 + 1;
        let bound = Err(WireError::Invalid("vector length exceeds bound"));
        let full = cell_bytes(3);
        let cases: Vec<(&str, Vec<u8>, Result<usize, WireError>)> = vec![
            ("zero cells", seq(0, &[]), Ok(0)),
            ("three cells", seq(3, &full), Ok(3)),
            ("count cut short", vec![0, 0], Err(WireError::Truncated)),
            ("count above MAX_CELLS", seq(over, &full), bound.clone()),
            ("count u32::MAX", seq(u32::MAX, &full), bound),
            (
                "count MAX_CELLS, no cells",
                seq(MAX_CELLS as u32, &[]),
                Err(WireError::Truncated),
            ),
            (
                "64·n above the bytes",
                seq(4, &full),
                Err(WireError::Truncated),
            ),
            (
                "cut in the last cell",
                seq(3, &full[..full.len() - 1]),
                Err(WireError::Truncated),
            ),
            (
                "cut after one element",
                seq(3, &full[..64 * 2 + 32]),
                Err(WireError::Truncated),
            ),
            (
                "cut after one byte",
                seq(1, &full[..1]),
                Err(WireError::Truncated),
            ),
            (
                "a byte past the cells",
                seq(2, &full[..64 * 2 + 1]),
                Err(WireError::Invalid("trailing bytes after message")),
            ),
        ];
        for (what, payload, want) in &cases {
            let frame = Frame::new(tag::DC_TABLE, payload.clone().into());
            let got = frame.decode_msg::<Cells>().map(|m| m.cells.len());
            assert_eq!(&got, want, "bare: {what}");
            if let Ok(n) = want {
                assert_eq!(frame.decode_msg::<Cells>().unwrap().cells, cells[..*n]);
            }
        }
        // The failing sequences again as a mix result's `post_exp`,
        // after a well-formed `with_noise` and key, and as a shuffle
        // argument's one shadow.
        let key = gp.random_element(&mut StdRng::seed_from_u64(22)).to_bytes();
        for (what, payload, want) in &cases {
            if want.is_ok() || *what == "a byte past the cells" {
                continue;
            }
            let mut mix = seq(3, &full);
            mix.extend_from_slice(&key);
            mix.extend_from_slice(payload);
            let frame = Frame::new(tag::MIX_RESULT, mix.into());
            let got = frame.decode_msg::<MixResult>().map(|_| 0);
            assert_eq!(&got, want, "post_exp: {what}");

            let mut proof = vec![1u8];
            proof.extend_from_slice(&seq(1, payload));
            let got = get_shuffle_proof(&mut input(&proof)).map(|_| 0);
            assert_eq!(&got, want, "shadow: {what}");
        }
    }

    /// Cutting a payload anywhere short of its end is `Truncated`,
    /// never a panic and never a shorter message.
    #[test]
    fn every_truncation_is_an_error() {
        for f in samples() {
            for cut in 0..f.payload.len() {
                let short = Frame::new(f.msg_type, f.payload.slice(..cut));
                let got = reencode(&short).map(|_| ());
                assert_eq!(
                    got,
                    Err(WireError::Truncated),
                    "tag {} cut {cut}",
                    f.msg_type
                );
            }
        }
    }
}

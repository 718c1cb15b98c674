//! Wire format: length-prefixed, type-tagged, checksummed frames.
//!
//! A [`Frame`] is the unit of delivery between parties. The payload is an
//! opaque byte string produced by the protocol crates' own codecs
//! (implementations of [`WireEncode`]/[`WireDecode`]), built from this
//! module's helpers: every sequence field is a [`put_vec`]/[`get_vec`]
//! pair given the item's codec ([`get_items`] when another field carries
//! the count). The checksum is a
//! Fletcher-style 32-bit sum that lets the transport detect (injected or
//! accidental) corruption, mirroring what TLS record MACs give the real
//! deployments.
//!
//! ```text
//!  0      4      6            10         10+n        14+n
//!  | magic | type | payload len | payload n | checksum |
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Frame magic: "PMN1".
const MAGIC: u32 = 0x504d_4e31;

/// Errors arising from the wire codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame or message was shorter than its header promised.
    Truncated,
    /// Magic number mismatch — not one of our frames.
    BadMagic,
    /// Checksum mismatch — corrupted in flight.
    BadChecksum,
    /// A field held an invalid value (enum tag, length bound, etc.).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A typed message frame.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol-defined message type tag.
    pub msg_type: u16,
    /// Opaque payload (protocol codec output).
    pub payload: Bytes,
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Frame {{ type: {}, payload: {} bytes }}",
            self.msg_type,
            self.payload.len()
        )
    }
}

/// Bytes summed between reductions mod 65535.
const CHUNK: usize = 360;

/// Lanes of the block form: one 16-byte block per step.
const LANES: usize = 16;

/// Fletcher-32-style checksum (two 16-bit sums over the data).
///
/// Defined as the byte loop `s1 += b; s2 += s1`, both sums reduced mod
/// 65535 after every 360-byte chunk. Each chunk is summed in a block
/// form with the same value: over a chunk of `len` bytes,
/// `s1 += Σ bᵢ` and `s2 += len·s1 + Σ (len − i)·bᵢ`. The chunk's 16-byte
/// blocks go through sixteen lanes, each keeping its byte sum and a
/// running total of that sum taken before each block (an add-only
/// form of the `len − i` weights, which the compiler vectorises at the
/// baseline target); the chunk's last `len mod 16` bytes take the byte
/// loop. Everything is exact in `u32`: a chunk starts with both sums
/// below 65535, so after 360 bytes of `0xFF` `s1 ≤ 65534 + 360·255`
/// and `s2 ≤ 65534 + 360·65534 + 255·360·361/2 < 2²⁶`; the lane
/// sums and running totals stay at most 22·255 and 255·231.
fn checksum(data: &[u8]) -> u32 {
    let mut s1: u32 = 0xf00d;
    let mut s2: u32 = 0xcafe;
    for chunk in data.chunks(CHUNK) {
        let (blocks, tail) = chunk.as_chunks::<LANES>();
        let mut sums = [0u32; LANES];
        let mut runs = [0u32; LANES];
        for block in blocks {
            for ((run, sum), &b) in runs.iter_mut().zip(&mut sums).zip(block) {
                *run += *sum;
                *sum += b as u32;
            }
        }
        // Byte j of block k (i = 16k + j) weighs 16·(blocks − 1 − k) +
        // (16 − j): its lane's running total counts the first part.
        let mut weighted = 0;
        for (j, (run, sum)) in runs.iter().zip(&sums).enumerate() {
            weighted += LANES as u32 * run + (LANES - j) as u32 * sum;
        }
        s2 += (blocks.len() * LANES) as u32 * s1 + weighted;
        s1 += sums.iter().sum::<u32>();
        for &b in tail {
            s1 += b as u32;
            s2 += s1;
        }
        s1 %= 65535;
        s2 %= 65535;
    }
    (s2 << 16) | s1
}

impl Frame {
    /// Creates a frame with the given type and payload.
    pub fn new(msg_type: u16, payload: Bytes) -> Frame {
        Frame { msg_type, payload }
    }

    /// Creates a frame by encoding a message.
    pub fn encode_msg<M: WireEncode>(msg_type: u16, msg: &M) -> Frame {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        Frame::new(msg_type, buf.freeze())
    }

    /// Decodes the payload as a message of type `M`.
    pub fn decode_msg<M: WireDecode>(&self) -> Result<M, WireError> {
        let mut buf = self.payload.clone();
        let msg = M::decode(&mut buf)?;
        if buf.has_remaining() {
            return Err(WireError::Invalid("trailing bytes after message"));
        }
        Ok(msg)
    }

    /// Serializes the frame to its on-the-wire byte form.
    pub fn to_wire(&self) -> Bytes {
        Bytes::from(self.wire_image())
    }

    /// The wire image as an owned buffer, built in one pass over the
    /// payload (plus the checksum's): what the transports hand their
    /// ledger, fault roll and inbox or socket without another copy.
    pub(crate) fn wire_image(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(14 + self.payload.len());
        buf.put_u32(MAGIC);
        buf.put_u16(self.msg_type);
        buf.put_u32(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        let sum = checksum(&buf);
        buf.put_u32(sum);
        buf
    }

    /// Parses a frame from wire bytes, verifying magic and checksum.
    pub fn from_wire(mut data: Bytes) -> Result<Frame, WireError> {
        if data.len() < 14 {
            return Err(WireError::Truncated);
        }
        let body = data.slice(..data.len() - 4);
        let magic = data.get_u32();
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let msg_type = data.get_u16();
        let len = data.get_u32() as usize;
        if data.remaining() != len + 4 {
            return Err(WireError::Truncated);
        }
        let payload = data.slice(..len);
        data.advance(len);
        let stated = data.get_u32();
        if checksum(&body) != stated {
            return Err(WireError::BadChecksum);
        }
        Ok(Frame { msg_type, payload })
    }
}

/// Flips one bit of a serialized frame in place — the transport's
/// corruption fault. Lives next to the codec because the detection
/// contract is the codec's: any single-bit flip anywhere in the wire
/// image must surface as a [`WireError`] from [`Frame::from_wire`]
/// (bad magic, truncation, or checksum mismatch), never as a silently
/// altered message.
pub(crate) fn flip_wire_bit(wire: &mut [u8], idx: usize, bit: u32) {
    wire[idx] ^= 1u8 << (bit % 8);
}

/// Types that can serialize themselves onto a byte buffer.
pub trait WireEncode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// Types that can parse themselves from a byte buffer.
pub trait WireDecode: Sized {
    /// Consumes the canonical encoding of `Self` from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
}

// ----- codec helpers used by protocol crates -----

/// Reads `n` bytes or errors with `Truncated`.
fn get_bytes(buf: &mut Bytes, n: usize) -> Result<Bytes, WireError> {
    if buf.remaining() < n {
        return Err(WireError::Truncated);
    }
    let out = buf.slice(..n);
    buf.advance(n);
    Ok(out)
}

/// Reads a `u8`.
pub fn get_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Reads a big-endian `u32`.
pub fn get_u32(buf: &mut Bytes) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32())
}

/// Reads a big-endian `u64`.
pub fn get_u64(buf: &mut Bytes) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64())
}

/// Writes a length-prefixed byte string (u32 length).
pub fn put_lp_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32(data.len() as u32);
    buf.put_slice(data);
}

/// Reads a length-prefixed byte string (u32 length).
pub fn get_lp_bytes(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_u32(buf)? as usize;
    get_bytes(buf, len)
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_lp_str(buf: &mut BytesMut, s: &str) {
    put_lp_bytes(buf, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_lp_str(buf: &mut Bytes) -> Result<String, WireError> {
    let raw = get_lp_bytes(buf)?;
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
}

/// Reads a fixed 32-byte array, copied straight out of the buffer (no
/// `Bytes` handle per element).
pub fn get_array32(buf: &mut Bytes) -> Result<[u8; 32], WireError> {
    let out = *buf
        .chunk()
        .first_chunk::<32>()
        .ok_or(WireError::Truncated)?;
    buf.advance(32);
    Ok(out)
}

/// Writes a sequence: a u32 count, then each item by `put`. Every
/// counted sequence in every protocol message goes through this pair;
/// the item codec is the caller's.
pub fn put_vec<T>(buf: &mut BytesMut, items: &[T], mut put: impl FnMut(&mut BytesMut, &T)) {
    buf.put_u32(items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

/// Reads a sequence written by [`put_vec`], each item by `get`. A count
/// above `max` is rejected before anything is read.
pub fn get_vec<T>(
    buf: &mut Bytes,
    max: usize,
    get: impl FnMut(&mut Bytes) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = get_u32(buf)? as usize;
    if n > max {
        return Err(WireError::Invalid("vector length exceeds bound"));
    }
    get_items(buf, n, get)
}

/// Reads exactly `n` items by `get` — a sequence whose count the
/// message carries elsewhere (another field's length), written without
/// a count of its own. The reservation is capped at one item per byte
/// left in `buf`, so a forged count reserves no more items than the
/// frame that carried it has bytes.
pub fn get_items<T>(
    buf: &mut Bytes,
    n: usize,
    mut get: impl FnMut(&mut Bytes) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(n.min(buf.remaining()));
    for _ in 0..n {
        out.push(get(buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-word message, for exercising [`Frame::decode_msg`].
    #[derive(Debug)]
    struct Word(u64);

    impl WireDecode for Word {
        fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
            get_u64(buf).map(Word)
        }
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::new(7, Bytes::from_static(b"hello measurement"));
        let wire = f.to_wire();
        let back = Frame::from_wire(wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = Frame::new(0, Bytes::new());
        assert_eq!(Frame::from_wire(f.to_wire()).unwrap(), f);
    }

    #[test]
    fn corrupt_detected() {
        let f = Frame::new(3, Bytes::from_static(b"payload"));
        let mut wire = f.to_wire().to_vec();
        wire[11] ^= 0x40; // flip a payload bit (payload starts at offset 10)
        assert_eq!(
            Frame::from_wire(Bytes::from(wire)),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn bad_magic_detected() {
        let f = Frame::new(3, Bytes::from_static(b"payload"));
        let mut wire = f.to_wire().to_vec();
        wire[0] = 0xff;
        assert_eq!(
            Frame::from_wire(Bytes::from(wire)),
            Err(WireError::BadMagic)
        );
    }

    #[test]
    fn truncated_detected() {
        let f = Frame::new(3, Bytes::from_static(b"payload"));
        let wire = f.to_wire();
        for cut in [0, 5, 13, wire.len() - 1] {
            assert!(Frame::from_wire(wire.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn length_field_lies_detected() {
        let f = Frame::new(3, Bytes::from_static(b"payload"));
        let mut wire = f.to_wire().to_vec();
        wire[9] = 200; // inflate stated payload length
        assert!(Frame::from_wire(Bytes::from(wire)).is_err());
    }

    #[test]
    fn lp_helpers_roundtrip() {
        let mut buf = BytesMut::new();
        put_lp_str(&mut buf, "tally-server");
        put_lp_bytes(&mut buf, &[1, 2, 3]);
        buf.put_u64(0xdeadbeef);
        let mut rd = buf.freeze();
        assert_eq!(get_lp_str(&mut rd).unwrap(), "tally-server");
        assert_eq!(get_lp_bytes(&mut rd).unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(get_u64(&mut rd).unwrap(), 0xdeadbeef);
        assert!(!rd.has_remaining());
    }

    #[test]
    fn vec_codec_bounds() {
        let items: Vec<u64> = (0..10).collect();
        let mut buf = BytesMut::new();
        put_vec(&mut buf, &items, |b, v| b.put_u64(*v));
        let wire = buf.freeze();
        assert_eq!(get_vec(&mut wire.clone(), 10, get_u64).unwrap(), items);
        assert_eq!(get_items(&mut wire.slice(4..), 10, get_u64).unwrap(), items);
        assert_eq!(
            get_vec(&mut wire.clone(), 9, get_u64),
            Err(WireError::Invalid("vector length exceeds bound"))
        );
        // A count within bound that the bytes cannot back is truncation,
        // found without reserving room for the count.
        let mut forged = BytesMut::new();
        forged.put_u32(u32::MAX);
        forged.put_u64(7);
        assert_eq!(
            get_vec(&mut forged.freeze(), usize::MAX, get_u64),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        put_lp_bytes(&mut buf, &[0xff, 0xfe, 0xfd]);
        let mut rd = buf.freeze();
        assert!(get_lp_str(&mut rd).is_err());
    }

    #[test]
    fn decode_msg_rejects_trailing() {
        let mut buf = BytesMut::new();
        buf.put_u64(42);
        buf.put_u8(0);
        let f = Frame::new(1, buf.freeze());
        assert_eq!(
            f.decode_msg::<Word>().unwrap_err(),
            WireError::Invalid("trailing bytes after message")
        );
        let whole = Frame::new(1, f.payload.slice(..8));
        assert_eq!(whole.decode_msg::<Word>().unwrap().0, 42);
    }

    /// The checksum as a plain byte loop: both sums advanced per byte,
    /// reduced mod 65535 after every 360-byte chunk.
    fn checksum_bytewise(data: &[u8]) -> u32 {
        let mut s1: u32 = 0xf00d;
        let mut s2: u32 = 0xcafe;
        for chunk in data.chunks(360) {
            for &b in chunk {
                s1 += b as u32;
                s2 += s1;
            }
            s1 %= 65535;
            s2 %= 65535;
        }
        (s2 << 16) | s1
    }

    proptest::proptest! {
        #[test]
        fn checksum_matches_byte_loop(data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..1000)) {
            proptest::prop_assert_eq!(checksum(&data), checksum_bytewise(&data));
        }
    }

    /// Lengths around the 360-byte chunk edges, random and all-`0xFF`
    /// (every byte at its maximum drives both sums to their largest
    /// values before each reduction).
    #[test]
    fn checksum_matches_byte_loop_at_chunk_edges_and_saturation() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        };
        let lengths = (0..=1000).chain([359, 360, 361, 719, 720, 721, 65_537, 1 << 20]);
        for n in lengths {
            let ones = vec![0xffu8; n];
            assert_eq!(checksum(&ones), checksum_bytewise(&ones), "0xff × {n}");
            let data = noise(n);
            assert_eq!(checksum(&data), checksum_bytewise(&data), "noise × {n}");
        }
    }

    #[test]
    fn checksum_sensitivity() {
        // Any single-byte change must change the checksum.
        let base = b"the quick brown onion routes over the lazy relay".to_vec();
        let c0 = checksum(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 1;
            assert_ne!(checksum(&m), c0, "byte {i}");
        }
    }
}

//! Property tests for the wire format, the transport, and the
//! socket-stream blob codec the wire fabric layers on top of both.

use bytes::Bytes;
use pm_net::frame::{Frame, WireError};
use pm_net::transport::{Fabric, FaultConfig, PartyId, Switchboard, TransportError};
use pm_net::wire::{encode_blob, StreamDecoder, WireFabric};
use proptest::prelude::*;

proptest! {
    #[test]
    fn frame_roundtrip(msg_type in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let f = Frame::new(msg_type, Bytes::from(payload));
        let back = Frame::from_wire(f.to_wire()).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn single_bitflip_never_passes(
        msg_type in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        flip_byte_seed in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let f = Frame::new(msg_type, Bytes::from(payload));
        let mut wire = f.to_wire().to_vec();
        let idx = flip_byte_seed % wire.len();
        wire[idx] ^= 1 << flip_bit;
        // A flipped frame must never decode to the SAME frame: either it
        // errors, or (if the flip hit the type field and checksum
        // happened to still match — impossible with Fletcher over the
        // body) differs.
        match Frame::from_wire(Bytes::from(wire)) {
            Err(_) => {}
            Ok(parsed) => prop_assert_ne!(parsed, f),
        }
    }

    #[test]
    fn truncation_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_fraction in 0.0f64..1.0,
    ) {
        let f = Frame::new(1, Bytes::from(payload));
        let wire = f.to_wire();
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        if cut < wire.len() {
            prop_assert!(Frame::from_wire(wire.slice(..cut)).is_err());
        }
    }

    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary bytes must be rejected gracefully.
        let _ = Frame::from_wire(Bytes::from(data));
    }

    #[test]
    fn switchboard_delivers_in_order(count in 1usize..50) {
        let board = Switchboard::new();
        let a = board.register("a");
        let b = board.register("b");
        for i in 0..count {
            a.send(b.id(), Frame::new(i as u16, Bytes::new())).unwrap();
        }
        for i in 0..count {
            let env = b.recv().unwrap();
            prop_assert_eq!(env.frame.msg_type, i as u16);
        }
    }

    /// One inbox per party: for any single-threaded interleaving of
    /// sends from several senders to one recipient, the in-process
    /// board delivers in global send order, and every backend delivers
    /// each sender's frames in that sender's send order (per-sender
    /// FIFO, the only order the `Fabric` contract grants).
    #[test]
    fn inbox_arrival_order_follows_send_order(
        schedule in proptest::collection::vec(0usize..4, 1..60),
    ) {
        let board = Switchboard::new();
        let wire = WireFabric::new();
        let backends: [(&dyn Fabric, bool); 2] = [(&board, true), (&wire, false)];
        for (fabric, global_order) in backends {
            let rx = fabric.register(PartyId::new("rx"));
            let senders: Vec<_> = (0..4)
                .map(|i| fabric.register(PartyId::new(format!("s{i}"))))
                .collect();
            for (seq, &s) in schedule.iter().enumerate() {
                senders[s].send(rx.id(), Frame::new(seq as u16, Bytes::new())).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..schedule.len() {
                let env = rx.recv().unwrap();
                got.push((env.from.as_str().to_string(), env.frame.msg_type));
            }
            let sent: Vec<(String, u16)> = schedule
                .iter()
                .enumerate()
                .map(|(seq, s)| (format!("s{s}"), seq as u16))
                .collect();
            if global_order {
                prop_assert_eq!(&got, &sent);
            }
            for s in 0..4 {
                let name = format!("s{s}");
                let of = |v: &[(String, u16)]| -> Vec<u16> {
                    v.iter().filter(|(from, _)| *from == name).map(|(_, t)| *t).collect()
                };
                prop_assert_eq!(of(&got), of(&sent), "sender {}", name);
            }
        }
    }

    #[test]
    fn drop_rate_statistics(seed in any::<u64>()) {
        let board = Switchboard::with_faults(
            FaultConfig {
                drop_chance: 0.5,
                seed,
                ..Default::default()
            },
            pm_obs::Recorder::new(),
        );
        let a = board.register("a");
        let b = board.register("b");
        let n = 200;
        for _ in 0..n {
            a.send(b.id(), Frame::new(0, Bytes::new())).unwrap();
        }
        let stats = board.fault_stats();
        prop_assert_eq!(stats.sent, n as u64);
        // Binomial(200, 0.5): dropping outside [60, 140] is ~5σ.
        prop_assert!((60..=140).contains(&(stats.dropped as usize)), "{}", stats.dropped);
        let delivered = std::iter::from_fn(|| b.try_recv().ok()).count();
        prop_assert_eq!(delivered as u64 + stats.dropped, n as u64);
    }
}

proptest! {
    /// A TCP stream hands the reader arbitrary chunk boundaries; the
    /// decoder must reassemble the original blob sequence from ANY
    /// split of the byte stream — including byte-at-a-time delivery and
    /// chunks spanning several blobs.
    #[test]
    fn stream_decoder_survives_arbitrary_chunking(
        blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let mut stream = Vec::new();
        for blob in &blobs {
            stream.extend_from_slice(&encode_blob(blob));
        }
        // Turn the free-form cut seeds into sorted split points.
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.sort_unstable();
        points.dedup();
        points.push(stream.len());

        let mut dec = StreamDecoder::default();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut start = 0;
        for end in points {
            got.extend(dec.push(&stream[start..end]).unwrap());
            start = end;
        }
        dec.finish().unwrap();
        prop_assert_eq!(got, blobs);
    }

    /// Cutting the stream anywhere that is not a blob boundary leaves
    /// residue: `finish` must flag it as `WireError::Truncated` — and
    /// decoding the truncated stream must never panic.
    #[test]
    fn stream_decoder_flags_any_truncation(
        blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..5),
        cut_seed in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for blob in &blobs {
            stream.extend_from_slice(&encode_blob(blob));
            boundaries.push(stream.len());
        }
        let cut = cut_seed % stream.len();
        let mut dec = StreamDecoder::default();
        let _ = dec.push(&stream[..cut]).unwrap();
        if boundaries.contains(&cut) {
            prop_assert!(dec.finish().is_ok());
        } else {
            prop_assert!(matches!(
                dec.finish(),
                Err(TransportError::Wire(WireError::Truncated))
            ));
        }
    }

    /// Arbitrary garbage fed as a stream either decodes into some blob
    /// sequence or errors — it must never panic, and an oversized
    /// length prefix must be rejected before allocation.
    #[test]
    fn stream_decoder_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut dec = StreamDecoder::default();
        if dec.push(&data).is_ok() {
            let _ = dec.finish();
        }
    }
}

#[test]
fn decode_rejects_wrong_magic_without_panicking() {
    let mut wire = Frame::new(1, Bytes::from_static(b"x")).to_wire().to_vec();
    wire[0] = 0;
    assert_eq!(
        Frame::from_wire(Bytes::from(wire)).unwrap_err(),
        WireError::BadMagic
    );
}

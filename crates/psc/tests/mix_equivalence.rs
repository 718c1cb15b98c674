//! Transcript-equality properties for the batched-parallel CP mixing
//! path: the serialized `MixResult` (including the `ShuffleProof`)
//! produced by [`psc::cp::mix_message_batched`] must be bit-identical
//! to the sequential reference [`psc::cp::mix_message_sequential`] for
//! every thread count, table size, key pair, and verification setting.

use bytes::Bytes;
use pm_crypto::elgamal::{encrypt, keygen, Ciphertext, KeyPair, PublicKey};
use pm_crypto::group::GroupParams;
use pm_net::Frame;
use proptest::prelude::*;
use psc::cp::{mix_message_batched, mix_message_sequential};
use psc::messages::tag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thread counts the equivalence sweep pins (1 = inline, 2 = minimal
/// real chunking, 8 = more workers than this container has cores, so
/// chunk boundaries and oversubscription are both exercised).
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn table(gp: &GroupParams, kp: &KeyPair, n: usize, rng: &mut StdRng) -> Vec<Ciphertext> {
    (0..n)
        .map(|_| {
            let m = if rng.gen::<bool>() {
                gp.identity()
            } else {
                gp.random_element(rng)
            };
            encrypt(gp, &kp.public, &m, rng)
        })
        .collect()
}

/// Serialized wire image of a mix hop executed by `f` from a fresh RNG
/// at `seed`.
fn wire_of(
    gp: &GroupParams,
    key: &PublicKey,
    noise_flips: u32,
    verify: bool,
    cells: &[Ciphertext],
    seed: u64,
    threads: Option<usize>,
) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    let msg = match threads {
        None => mix_message_sequential(gp, key, noise_flips, verify, cells.to_vec(), &mut rng),
        Some(t) => mix_message_batched(gp, key, noise_flips, verify, cells.to_vec(), &mut rng, t),
    };
    Frame::encode_msg(tag::MIX_RESULT, &msg).to_wire()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unverified hops (the hot path): random table sizes, key pairs,
    /// noise volumes, and CP seeds, across the thread sweep.
    #[test]
    fn batched_mix_matches_sequential(
        n in 1usize..40,
        noise in 0u32..24,
        key_seed in any::<u64>(),
        cp_seed in any::<u64>(),
    ) {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(key_seed);
        let kp = keygen(&gp, &mut rng);
        let cells = table(&gp, &kp, n, &mut rng);
        let reference = wire_of(&gp, &kp.public, noise, false, &cells, cp_seed, None);
        for threads in THREAD_SWEEP {
            let batched = wire_of(&gp, &kp.public, noise, false, &cells, cp_seed, Some(threads));
            prop_assert_eq!(&reference, &batched, "threads={}", threads);
        }
    }

    /// Verified hops: the wire image includes the per-cell
    /// Chaum–Pedersen proofs and the 16-round cut-and-choose
    /// `ShuffleProof`, all of which must survive batching bit-for-bit.
    #[test]
    fn batched_verified_mix_matches_sequential(
        n in 1usize..10,
        noise in 0u32..6,
        key_seed in any::<u64>(),
        cp_seed in any::<u64>(),
    ) {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(key_seed);
        let kp = keygen(&gp, &mut rng);
        let cells = table(&gp, &kp, n, &mut rng);
        let reference = wire_of(&gp, &kp.public, noise, true, &cells, cp_seed, None);
        for threads in THREAD_SWEEP {
            let batched = wire_of(&gp, &kp.public, noise, true, &cells, cp_seed, Some(threads));
            prop_assert_eq!(&reference, &batched, "threads={}", threads);
        }
    }
}

/// The batched path leaves the CP's RNG in the same state as the
/// sequential path, so transcripts stay aligned across *subsequent*
/// hops of the same node too.
#[test]
fn rng_state_identical_after_hop() {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(42);
    let kp = keygen(&gp, &mut rng);
    let cells = table(&gp, &kp, 12, &mut rng);
    for verify in [false, true] {
        let mut seq_rng = StdRng::seed_from_u64(7);
        let _ = mix_message_sequential(&gp, &kp.public, 5, verify, cells.clone(), &mut seq_rng);
        let expect = seq_rng.gen::<u64>();
        for threads in THREAD_SWEEP {
            let mut bat_rng = StdRng::seed_from_u64(7);
            let _ = mix_message_batched(
                &gp,
                &kp.public,
                5,
                verify,
                cells.clone(),
                &mut bat_rng,
                threads,
            );
            assert_eq!(
                expect,
                bat_rng.gen::<u64>(),
                "verify={verify} threads={threads}"
            );
        }
    }
}

/// A verified batched hop still convinces the verifier (sanity that the
/// equality tests are not comparing two broken transcripts).
#[test]
fn batched_proofs_verify() {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(5);
    let kp = keygen(&gp, &mut rng);
    let cells = table(&gp, &kp, 8, &mut rng);
    let mut cp_rng = StdRng::seed_from_u64(9);
    let msg = mix_message_batched(&gp, &kp.public, 4, true, cells, &mut cp_rng, 4);
    let proof = msg.shuffle_proof.as_ref().expect("proof present");
    assert!(proof.verify(&gp, &kp.public, &msg.post_exp, &msg.output));
    for (j, ((pre, post), (pa, pb))) in msg
        .with_noise
        .iter()
        .zip(&msg.post_exp)
        .zip(&msg.exp_proofs)
        .enumerate()
    {
        let mut ta = psc::cp::exp_transcript(j, false);
        assert!(
            pa.verify(&gp, &pre.a, &msg.exp_key, &post.a, &mut ta),
            "cell {j} a"
        );
        let mut tb = psc::cp::exp_transcript(j, true);
        assert!(
            pb.verify(&gp, &pre.b, &msg.exp_key, &post.b, &mut tb),
            "cell {j} b"
        );
    }
}

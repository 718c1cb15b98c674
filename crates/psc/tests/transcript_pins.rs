//! Wire-image pins for the two CP messages that carry proofs: one
//! mixing hop (unverified and verified) and one decryption hop, each
//! from a fixed seed. The digests were computed on the tree before the
//! prover's exponentiations moved to combs and 8-bit tables; the
//! sequential reference and the batched path share the generator's
//! table, so `mix_equivalence` alone could not see a change to it.

use pm_crypto::elgamal::{encrypt, keygen, Ciphertext};
use pm_crypto::group::GroupParams;
use pm_net::Frame;
use psc::cp::{decrypt_message, mix_message_batched, mix_message_sequential};
use psc::messages::tag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A hop over ten cells with three noise cells, from CP seed 7: its
/// output table and the digests of its wire image on the sequential
/// reference and the batched path at 1 and 3 threads.
fn hop(verify: bool) -> (Vec<Ciphertext>, Vec<u64>) {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(2018);
    let kp = keygen(&gp, &mut rng);
    let cells: Vec<Ciphertext> = (0..10)
        .map(|_| {
            let m = if rng.gen::<bool>() {
                gp.identity()
            } else {
                gp.random_non_identity(&mut rng)
            };
            encrypt(&gp, &kp.public, &m, &mut rng)
        })
        .collect();
    let mut output = Vec::new();
    let digests = [None, Some(1), Some(3)]
        .into_iter()
        .map(|threads| {
            let mut cp = StdRng::seed_from_u64(7);
            let cells = cells.clone();
            let msg = match threads {
                None => mix_message_sequential(&gp, &kp.public, 3, verify, cells, &mut cp),
                Some(t) => mix_message_batched(&gp, &kp.public, 3, verify, cells, &mut cp, t),
            };
            output.clone_from(&msg.output);
            fnv1a64(&Frame::encode_msg(tag::MIX_RESULT, &msg).to_wire())
        })
        .collect();
    (output, digests)
}

#[test]
fn mixing_hops_match_the_parent_digests() {
    let (_, unverified) = hop(false);
    let (_, verified) = hop(true);
    assert_eq!(
        (&unverified[..], &verified[..]),
        (
            &[0x27de_965a_d0f7_5578; 3][..],
            &[0xb5ff_72b7_d7cc_2c52; 3][..]
        ),
        "{unverified:x?} {verified:x?}"
    );
}

#[test]
fn decryption_hop_matches_the_parent_digest() {
    let gp = GroupParams::default_params();
    let (cells, _) = hop(true);
    let mut rng = StdRng::seed_from_u64(33);
    let secret = gp.random_nonzero_scalar(&mut rng);
    let digests: Vec<u64> = [1, 3]
        .into_iter()
        .flat_map(|threads| {
            [false, true].map(|verify| {
                let mut cp = StdRng::seed_from_u64(11);
                let msg = decrypt_message(&gp, &secret, &cells, verify, &mut cp, threads);
                fnv1a64(&Frame::encode_msg(tag::PARTIAL_DEC, &msg).to_wire())
            })
        })
        .collect();
    // Unverified, verified; at 1 and at 3 threads.
    let (plain, proved) = (0x4959_c76a_f5ff_4141, 0x1a39_2556_5448_024c);
    assert_eq!(digests, [plain, proved, plain, proved], "{digests:x?}");
}

//! Wire-image pins for the two CP messages that carry proofs: one
//! mixing hop (unverified and verified) and one decryption hop, each
//! from a fixed seed. The digests were computed on the tree before the
//! prover's exponentiations moved to combs and 8-bit tables; the
//! sequential reference and the batched path share the generator's
//! table, so `mix_equivalence` alone could not see a change to it.
//!
//! A DC's marked table and a standalone shuffle argument (with its
//! verdicts) are pinned the same way, by digests computed while every
//! table power was still a scalar `FixedBasePowers::pow_mul`.

use pm_crypto::batch::PrecomputedKey;
use pm_crypto::elgamal::{encrypt, keygen, Ciphertext};
use pm_crypto::group::GroupParams;
use pm_crypto::shuffle::{shuffle, RoundOpening, ShuffleProof};
use pm_net::Frame;
use psc::cp::{decrypt_message, mix_message_batched, mix_message_sequential};
use psc::messages::{tag, Cells, MixResult};
use psc::ObliviousTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A hop over `n` cells with three noise cells, from CP seed 7: its
/// output table and the digests of its wire image on the sequential
/// reference and the batched path at 1 and 3 threads.
fn hop(n: usize, verify: bool) -> (Vec<Ciphertext>, Vec<u64>) {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(2018);
    let kp = keygen(&gp, &mut rng);
    let cells: Vec<Ciphertext> = (0..n)
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
    let (_, unverified) = hop(10, false);
    let (_, verified) = hop(10, true);
    assert_eq!(
        (&unverified[..], &verified[..]),
        (
            &[0x27de_965a_d0f7_5578; 3][..],
            &[0xb5ff_72b7_d7cc_2c52; 3][..]
        ),
        "{unverified:x?} {verified:x?}"
    );
}

/// A decryption hop over `cells` from secret seed 33 and CP seed 11:
/// the digests of its `PARTIAL_DEC` wire image, unverified and
/// verified, at 1 and at 3 threads.
fn decryption_hop(cells: &[Ciphertext]) -> Vec<u64> {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(33);
    let secret = gp.random_nonzero_scalar(&mut rng);
    [1, 3]
        .into_iter()
        .flat_map(|threads| {
            [false, true].map(|verify| {
                let mut cp = StdRng::seed_from_u64(11);
                let msg = decrypt_message(&gp, &secret, cells, verify, &mut cp, threads);
                fnv1a64(&Frame::encode_msg(tag::PARTIAL_DEC, &msg).to_wire())
            })
        })
        .collect()
}

#[test]
fn decryption_hop_matches_the_parent_digest() {
    let (cells, _) = hop(10, true);
    let digests = decryption_hop(&cells);
    // Unverified, verified; at 1 and at 3 threads.
    let (plain, proved) = (0x4959_c76a_f5ff_4141, 0x1a39_2556_5448_024c);
    assert_eq!(digests, [plain, proved, plain, proved], "{digests:x?}");
}

/// A verified hop over 32 cells and three noise cells: 35 DLEQ proofs
/// a side, two full batches of sixteen and a short one, where the
/// ten-cell hop fills only one short batch. Its `MIX_RESULT` on the
/// sequential reference and the batched path at 1 and 3 threads, then
/// the decryption of its output at 1 and 3 threads.
#[test]
fn three_batch_hops_match_the_parent_digests() {
    let (cells, mixed) = hop(32, true);
    assert_eq!(mixed, [0x7e5a_1d30_aa79_8a26; 3], "{mixed:x?}");
    let digests = decryption_hop(&cells);
    let (plain, proved) = (0x19f2_28e8_11d4_adbe, 0x7966_ee3b_7246_44d4);
    assert_eq!(digests, [plain, proved, plain, proved], "{digests:x?}");
}

/// One DC's table over 40 cells from DC seed 5: a seeded cell set
/// marked in ascending order (the merge step), a second pass that
/// visits one cell twice, then the skew path's single marks, one of
/// them on a cell already marked. The `DC_TABLE` frame as the TS
/// receives it.
#[test]
fn dc_table_matches_the_parent_digest() {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(2018);
    let kp = keygen(&gp, &mut rng);
    let mut table = ObliviousTable::new(gp, kp.public, [9u8; 32], 40);
    let mut cells: Vec<usize> = (0..23).map(|_| rng.gen_range(0..40)).collect();
    cells.sort_unstable();
    cells.dedup();
    let mut dc = StdRng::seed_from_u64(5);
    table.mark_cells(cells.iter().copied(), &mut dc);
    table.mark_cells([cells[3], 39, cells[3]], &mut dc);
    for idx in [cells[0], 0, table.cell_of(b"byzantine-skew-0")] {
        table.mark_cell(idx, &mut dc);
    }
    let msg = Cells {
        cells: table.into_cells(),
    };
    let got = fnv1a64(&Frame::encode_msg(tag::DC_TABLE, &msg).to_wire());
    assert_eq!(got, 0x8686_2b21_16a3_f7ea, "{got:x}");
}

/// A 37-cell shuffle argument (two full batches of sixteen and a
/// trailing five) from prover seed 3, as a `MIX_RESULT` frame carrying
/// it, and the verdicts on it and on two tampered copies at 1 and 3
/// verification threads.
#[test]
fn shuffle_proof_matches_the_parent_digest() {
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(2018);
    let kp = keygen(&gp, &mut rng);
    let input: Vec<Ciphertext> = (0..37)
        .map(|_| encrypt(&gp, &kp.public, &gp.random_element(&mut rng), &mut rng))
        .collect();
    let mut prover = StdRng::seed_from_u64(3);
    let (output, witness) = shuffle(&gp, &kp.public, &input, &mut prover);
    let proof = ShuffleProof::prove(&gp, &kp.public, &input, &output, &witness, 16, &mut prover);
    let msg = MixResult {
        with_noise: input.clone(),
        exp_key: kp.public.0,
        post_exp: input.clone(),
        exp_proofs: Vec::new(),
        output: output.clone(),
        shuffle_proof: Some(proof.clone()),
    };
    let got = fnv1a64(&Frame::encode_msg(tag::MIX_RESULT, &msg).to_wire());
    let mut shadow = proof.clone();
    shadow.shadows[15][36].b = gp.random_element(&mut rng);
    let mut opening = proof.clone();
    match &mut opening.openings[15] {
        RoundOpening::InputToShadow { rerand, .. }
        | RoundOpening::ShadowToOutput { rerand, .. } => {
            rerand[36] = gp.scalar_add(&rerand[36], &gp.scalar_from_u64(1))
        }
    }
    let pk = PrecomputedKey::new(&gp, &kp.public);
    let verdicts: Vec<bool> = [1, 3]
        .into_iter()
        .flat_map(|threads| {
            [&proof, &shadow, &opening].map(|p| p.verify_with(&gp, &pk, &input, &output, threads))
        })
        .collect();
    assert_eq!(verdicts, [true, false, false, true, false, false]);
    assert_eq!(got, 0x2c62_6361_c6c3_cdaa, "{got:x}");
}

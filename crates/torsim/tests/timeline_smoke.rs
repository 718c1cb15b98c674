//! Year-scale timeline smoke: a 365-day timeline under the paper-shaped
//! config, with the snapshot cursor held bit-for-bit against the
//! memo-less replay on sampled days, and the day step's output pinned
//! by digest. This is the `make timeline-smoke` gate in `make verify` —
//! cheap enough to run every build because the cursor sweeps the year
//! once, while the oracle replays only the three sampled days.

use std::sync::Arc;
use torsim::churn::ChurnModel;
use torsim::geo::GeoDb;
use torsim::timeline::{DaySnapshot, NetworkTimeline, TimelineConfig};

fn assert_bit_identical(diff: &DaySnapshot, replay: &DaySnapshot, day: u64) {
    assert_eq!(diff.day, replay.day, "day {day}");
    assert_eq!(diff.joined, replay.joined, "day {day}: joined");
    assert_eq!(diff.left, replay.left, "day {day}: left");
    assert_eq!(
        diff.consensus.relays().len(),
        replay.consensus.relays().len(),
        "day {day}: relay count"
    );
    for (a, b) in diff
        .consensus
        .relays()
        .iter()
        .zip(replay.consensus.relays())
    {
        assert_eq!(a.id, b.id, "day {day}");
        assert_eq!(a.nickname, b.nickname, "day {day}");
        assert_eq!(a.flags.0, b.flags.0, "day {day}: relay {}", a.id.0);
        assert_eq!(a.instrumented, b.instrumented, "day {day}");
        assert_eq!(
            a.weight.to_bits(),
            b.weight.to_bits(),
            "day {day}: relay {} weight bits",
            a.id.0
        );
    }
    let mut diff_shares = Vec::new();
    diff.mix
        .clone()
        .for_each_share_mut(&mut |x| diff_shares.push(x.to_bits()));
    let mut replay_shares = Vec::new();
    replay
        .mix
        .clone()
        .for_each_share_mut(&mut |x| replay_shares.push(x.to_bits()));
    assert_eq!(diff_shares, replay_shares, "day {day}: mix bits");
}

#[test]
fn year_scale_diff_path_matches_replay_on_sampled_days() {
    let t = NetworkTimeline::new(
        TimelineConfig::paper_default(2018),
        ChurnModel::new(2_000, 760, 2018 ^ 0xC1),
        30,
        Arc::new(GeoDb::paper_default()),
    );
    // Sweep the whole year through the cursor first — the realistic
    // campaign access pattern — then pin sampled days (one just past a
    // checkpoint, mid-year, and day 365) against the oracle.
    for day in 0..=365 {
        let snap = t.snapshot(day);
        assert_eq!(snap.day, day);
    }
    for day in [33u64, 180, 365] {
        let diff = t.snapshot(day);
        let replay = t.snapshot_replay(day);
        assert_bit_identical(&diff, &replay, day);
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a-64 over every field of 378 snapshots — a full-year sweep, then
/// revisits across checkpoint seams — in access order.
fn timeline_digest(seed: u64, relay_leave_prob: f64, relay_joins_per_day: f64) -> u64 {
    let t = NetworkTimeline::new(
        TimelineConfig {
            relay_leave_prob,
            relay_joins_per_day,
            ..TimelineConfig::paper_default(seed)
        },
        ChurnModel::new(2_000, 760, seed ^ 0xC1),
        30,
        Arc::new(GeoDb::paper_default()),
    );
    let mut h = 0xcbf29ce484222325u64;
    for day in (0..=365).chain([70, 3, 33, 64, 0, 65, 32, 31, 364, 1, 69, 200]) {
        let snap = t.snapshot(day);
        for v in [snap.day, snap.joined, snap.left] {
            fnv1a(&mut h, &v.to_be_bytes());
        }
        for r in snap.consensus.relays() {
            fnv1a(&mut h, &r.id.0.to_be_bytes());
            fnv1a(&mut h, r.nickname.as_bytes());
            fnv1a(&mut h, &[r.flags.0, r.instrumented as u8]);
            fnv1a(&mut h, &r.weight.to_bits().to_be_bytes());
        }
        snap.mix
            .clone()
            .for_each_share_mut(&mut |x| fnv1a(&mut h, &x.to_bits().to_be_bytes()));
    }
    h
}

#[test]
fn day_step_output_is_pinned() {
    // Generated on aada24e, when the cursor and the replay oracle each
    // had their own copy of the day step. Equality of cursor and oracle
    // cannot notice a change made to the one step they now share; these
    // values can.
    for (seed, leave, joins, expected) in [
        (2018, 0.02, 12.0, 0xfaec83a381b443ddu64),
        (7, 0.3, 1.0, 0xfea6aaebc66e1a7d),
        (99, 0.9, 0.3, 0x0e0ac516d8a35ccc),
    ] {
        let got = timeline_digest(seed, leave, joins);
        assert_eq!(got, expected, "seed {seed}: got {got:016x}");
    }
}

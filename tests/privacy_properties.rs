//! Integration: the privacy properties the measurement systems claim.
//!
//! These tests check mechanism-level guarantees end to end: blinding
//! hides DC registers, PSC tables leak nothing readable, the accountant
//! refuses unsafe schedules, and calibrated noise satisfies the exact
//! (ε, δ) inequality.

use pm_crypto::elgamal::{decrypt, keygen};
use pm_crypto::group::GroupParams;
use pm_dp::accountant::{Accountant, MeasurementRound, ScheduleError, System};
use pm_dp::mechanism::{binomial_delta_exact, binomial_flips_for, gaussian_delta, gaussian_sigma};
use pm_dp::{DELTA, EPSILON};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn calibrated_gaussian_noise_satisfies_paper_epsilon_delta() {
    // Every Table 1 bound, calibrated at the paper's (ε, δ), must pass
    // the exact Gaussian-mechanism verifier.
    for bound in pm_dp::bounds::paper_action_bounds() {
        let sens = bound.daily_bound as f64;
        let sigma = gaussian_sigma(sens, EPSILON, DELTA);
        let achieved = gaussian_delta(sigma, sens, EPSILON);
        assert!(
            achieved <= DELTA,
            "{:?}: δ {achieved:e} > {DELTA:e}",
            bound.action
        );
    }
}

#[test]
fn calibrated_binomial_noise_satisfies_epsilon_delta() {
    // Every Table 1 sensitivity a PSC round is calibrated at: the
    // campaign calendar's 4 (unique IPs/day), 6 (two-day onion window),
    // 12 (96 h IP round) and 40 (two-day exit-domain window), plus the
    // registry's one-day 3, 20 and 30.
    for k in [3, 4, 6, 12, 20, 30, 40] {
        let n = binomial_flips_for(k, EPSILON, 1e-6);
        assert!(binomial_delta_exact(n, k, EPSILON) <= 1e-6, "k={k}");
        // And it is tight: one less flip fails.
        assert!(binomial_delta_exact(n - 1, k, EPSILON) > 1e-6, "k={k}");
    }
}

#[test]
fn psc_table_is_unreadable_without_joint_key() {
    // A compromised DC (or the TS) holding the table cannot tell which
    // cells are marked: decrypting with ANY single CP share must not
    // reveal marks when the joint key has ≥ 2 shares.
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(1);
    let cp1 = keygen(&gp, &mut rng);
    let cp2 = keygen(&gp, &mut rng);
    let joint = pm_crypto::elgamal::combine_public_keys(&gp, &[cp1.public, cp2.public]);
    let mut table = psc::table::ObliviousTable::new(gp, joint, [1u8; 32], 32);
    let marked_idx = table.cell_of(b"203.0.113.99");
    table.mark_cell(marked_idx, &mut rng);
    let cells = table.into_cells();
    // Single-share "decryption" of the marked cell yields garbage that
    // is NOT the identity and NOT distinguishable as a mark.
    let wrong = decrypt(&gp, &cp1.secret, &cells[marked_idx]);
    assert_ne!(wrong, gp.identity());
    // Full decryption with both shares does reveal the mark.
    let d1 = pm_crypto::elgamal::partial_decrypt(&gp, &cp1.secret, &cells[marked_idx]);
    let d2 = pm_crypto::elgamal::partial_decrypt(&gp, &cp2.secret, &cells[marked_idx]);
    let plain = pm_crypto::elgamal::combine_partial_decryptions(&gp, &cells[marked_idx], &[d1, d2]);
    assert_ne!(plain, gp.identity());
}

#[test]
fn accountant_enforces_paper_schedule_rules() {
    let mut acc = Accountant::new();
    acc.schedule(MeasurementRound {
        name: "privcount-streams".into(),
        system: System::PrivCount,
        start_hour: 0,
        duration_hours: 24,
        statistics: vec!["streams".into()],
    })
    .unwrap();
    // PSC in parallel: rejected.
    let err = acc
        .schedule(MeasurementRound {
            name: "psc-slds".into(),
            system: System::Psc,
            start_hour: 12,
            duration_hours: 24,
            statistics: vec!["slds".into()],
        })
        .unwrap_err();
    assert!(matches!(err, ScheduleError::Overlap { .. }));
    // Distinct statistic without the 24h gap: rejected.
    let err = acc
        .schedule(MeasurementRound {
            name: "psc-slds".into(),
            system: System::Psc,
            start_hour: 30,
            duration_hours: 24,
            statistics: vec!["slds".into()],
        })
        .unwrap_err();
    assert!(matches!(err, ScheduleError::InsufficientGap { .. }));
    // With the gap: accepted.
    acc.schedule(MeasurementRound {
        name: "psc-slds".into(),
        system: System::Psc,
        start_hour: 48,
        duration_hours: 24,
        statistics: vec!["slds".into()],
    })
    .unwrap();
}

#[test]
fn privcount_without_one_sk_reveals_nothing() {
    // Reconstruct the tally while withholding one SK's registers: the
    // "total" must be blinding garbage, far from the true count.
    use pm_crypto::secret::{BlindedCounter, ShareAccumulator};
    let mut rng = StdRng::seed_from_u64(5);
    let truth = 1_000_000i64;
    let (mut reg, shares) = BlindedCounter::blind(0, 3, &mut rng);
    reg.increment(truth);
    let mut accs = [ShareAccumulator::default(); 3];
    for (k, s) in shares.into_iter().enumerate() {
        accs[k].absorb(s);
    }
    let full = pm_crypto::secret::unblind_total(
        &[reg.publish()],
        &accs.iter().map(|a| a.publish()).collect::<Vec<_>>(),
    );
    assert_eq!(full, truth);
    let partial = pm_crypto::secret::unblind_total(
        &[reg.publish()],
        &accs[..2].iter().map(|a| a.publish()).collect::<Vec<_>>(),
    );
    assert!(
        (partial - truth).unsigned_abs() > 1 << 40,
        "partial tally {partial} suspiciously close to truth"
    );
}

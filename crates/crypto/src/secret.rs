//! Additive secret sharing over `Z_{2^64}` — the blinding scheme behind
//! PrivCount counters.
//!
//! A Data Collector initializes each counter to
//! `noise + Σ_k share_k (mod 2^64)` and hands `-share_k` to Share Keeper
//! `k`. Increments are public-code additions. At publish time the DC
//! reveals its (blinded) counter and every SK reveals the sum of the
//! shares it holds; the Tally Server adds everything and the blinding
//! telescopes away, leaving `true count + noise`. No proper subset of
//! parties learns anything about the count (any missing share is a
//! one-time pad).
//!
//! Counters are signed quantities (noise can drive them negative), so
//! values are interpreted as two's-complement `i64` at the end.

use rand::Rng;

/// A blinding share held by one Share Keeper for one counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlindingShare(pub u64);

/// A blinded counter register at a Data Collector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlindedCounter(pub u64);

impl BlindedCounter {
    /// Initializes a counter register holding `initial` (typically the
    /// DC's noise contribution, rounded to an integer) plus blinding:
    /// generates one random share per Share Keeper, adds each share into
    /// the register, and returns the *negated* shares to be delivered to
    /// the SKs.
    pub fn blind<R: Rng + ?Sized>(
        initial: i64,
        num_share_keepers: usize,
        rng: &mut R,
    ) -> (BlindedCounter, Vec<BlindingShare>) {
        let mut acc = initial as u64;
        let mut shares = Vec::with_capacity(num_share_keepers);
        for _ in 0..num_share_keepers {
            let r: u64 = rng.gen();
            acc = acc.wrapping_add(r);
            shares.push(BlindingShare(r.wrapping_neg()));
        }
        (BlindedCounter(acc), shares)
    }

    /// Adds a (signed) increment to the register.
    pub fn increment(&mut self, by: i64) {
        self.0 = self.0.wrapping_add(by as u64);
    }

    /// The raw blinded value to publish.
    pub fn publish(&self) -> u64 {
        self.0
    }
}

/// Accumulates blinding shares at a Share Keeper (one accumulator per
/// counter).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShareAccumulator(pub u64);

impl ShareAccumulator {
    /// Absorbs one DC's share.
    pub fn absorb(&mut self, share: BlindingShare) {
        self.0 = self.0.wrapping_add(share.0);
    }

    /// The aggregate share sum to publish.
    pub fn publish(&self) -> u64 {
        self.0
    }
}

/// Tally-side combination: sums all blinded DC registers and all SK
/// share accumulators; the blinding telescopes, leaving the signed total.
pub fn unblind_total(dc_values: &[u64], sk_values: &[u64]) -> i64 {
    let mut acc = 0u64;
    for v in dc_values {
        acc = acc.wrapping_add(*v);
    }
    for v in sk_values {
        acc = acc.wrapping_add(*v);
    }
    acc as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blinding_telescopes() {
        let mut rng = StdRng::seed_from_u64(1);
        let num_sks = 3;
        let num_dcs = 5;
        let mut sk_accs = vec![ShareAccumulator::default(); num_sks];
        let mut dc_regs = Vec::new();
        let mut truth: i64 = 0;
        for dc in 0..num_dcs {
            let noise = (dc as i64 - 2) * 7; // some signed "noise"
            let (mut reg, shares) = BlindedCounter::blind(noise, num_sks, &mut rng);
            for (k, s) in shares.into_iter().enumerate() {
                sk_accs[k].absorb(s);
            }
            let incr = 100 + dc as i64;
            reg.increment(incr);
            truth += noise + incr;
            dc_regs.push(reg.publish());
        }
        let sk_vals: Vec<u64> = sk_accs.iter().map(|a| a.publish()).collect();
        assert_eq!(unblind_total(&dc_regs, &sk_vals), truth);
    }

    #[test]
    fn negative_totals_survive() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mut reg, shares) = BlindedCounter::blind(-1000, 2, &mut rng);
        reg.increment(250);
        let mut accs = [ShareAccumulator::default(); 2];
        for (k, s) in shares.into_iter().enumerate() {
            accs[k].absorb(s);
        }
        let total = unblind_total(&[reg.publish()], &[accs[0].publish(), accs[1].publish()]);
        assert_eq!(total, -750);
    }

    #[test]
    fn missing_share_destroys_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let (reg, shares) = BlindedCounter::blind(12345, 3, &mut rng);
        // Tally with only 2 of 3 SK shares: result is effectively random,
        // definitely not the true value (w.p. 1 - 2^-64).
        let partial = unblind_total(&[reg.publish()], &[shares[0].0, shares[1].0]);
        assert_ne!(partial, 12345);
    }

    #[test]
    fn zero_sks_means_no_blinding() {
        let mut rng = StdRng::seed_from_u64(4);
        let (reg, shares) = BlindedCounter::blind(7, 0, &mut rng);
        assert!(shares.is_empty());
        assert_eq!(unblind_total(&[reg.publish()], &[]), 7);
    }

    #[test]
    fn increments_commute_with_blinding() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut a, sh) = BlindedCounter::blind(0, 1, &mut rng);
        a.increment(5);
        a.increment(-3);
        a.increment(i64::MAX / 2);
        a.increment(-(i64::MAX / 2));
        let mut acc = ShareAccumulator::default();
        acc.absorb(sh[0]);
        assert_eq!(unblind_total(&[a.publish()], &[acc.publish()]), 2);
    }
}

//! Samplers for workload generation: Walker alias tables for arbitrary
//! categorical distributions and Zipf/power-law rank sampling.
//!
//! Web destination popularity follows a power law (§4.3, citing
//! Adamic & Huberman and Krashakov et al.), so the simulated clients
//! draw their destinations from [`ZipfSampler`]. The alias method gives
//! O(1) draws after O(n) setup, which matters when generating tens of
//! millions of stream events.

use rand::Rng;

/// Walker's alias method for sampling from a fixed categorical
/// distribution in O(1) per draw.
///
/// Aliases are stored as `u32` (a table has at most `u32::MAX`
/// categories): 12 bytes per category instead of 16.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a table from (unnormalized) non-negative weights.
    /// Panics if all weights are zero or any is negative/non-finite.
    pub fn new(weights: &[f64]) -> AliasTable {
        assert!(!weights.is_empty(), "need at least one weight");
        let n = weights.len();
        assert!(
            u32::try_from(n).is_ok(),
            "an alias table holds at most u32::MAX categories"
        );
        let total: f64 = weights
            .iter()
            .inspect(|w| {
                assert!(
                    w.is_finite() && **w >= 0.0,
                    "weights must be finite and >= 0"
                );
            })
            .sum();
        assert!(total > 0.0, "total weight must be positive");
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        // Neither worklist outgrows its start: `large` only shrinks,
        // and each turn of the loop pops `small` before it may push
        // one index onto it. So both are sized exactly from a first
        // count and never reallocate.
        let below = prob.iter().filter(|p| **p < 1.0).count();
        let mut small: Vec<u32> = Vec::with_capacity(below);
        let mut large: Vec<u32> = Vec::with_capacity(n - below);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            let (s, l) = (s as usize, l as usize);
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l as u32);
            }
        }
        // Numerical leftovers sit at probability 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table is empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        let coin: f64 = rng.gen();
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Zipf-distributed rank sampler: P[rank = r] ∝ 1/r^s over ranks
/// `1..=n`, backed by an alias table.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    table: AliasTable,
    n: usize,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "need at least one rank");
        assert!(s > 0.0 && s.is_finite(), "exponent must be positive");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        ZipfSampler {
            table: AliasTable::new(&weights),
            n,
        }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.table.sample(rng) + 1
    }

    /// Draws a zero-based index in `0..n`.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.table.sample(rng)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Derives a child seed from a parent seed and a label (splitmix-style
/// finalizer over a label hash). Used to give every simulator component
/// an independent, reproducible RNG stream.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    let mut h = parent ^ 0x9e37_79b9_7f4a_7c15;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    // splitmix64 finalizer
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alias_respects_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let expect = weights[i] / 10.0;
            let got = *c as f64 / n as f64;
            assert!((got - expect).abs() < 0.01, "cat {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn alias_handles_zero_weights() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert_eq!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_single_category() {
        let table = AliasTable::new(&[5.0]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(table.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn alias_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    /// The normalized probability of rank `r` (1-based) of a Zipf
    /// sampler over `n` ranks with exponent `s`.
    fn prob_of_rank(n: usize, s: f64, r: usize) -> f64 {
        assert!((1..=n).contains(&r));
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        (r as f64).powf(-s) / h
    }

    #[test]
    fn zipf_rank_frequencies() {
        let n = 1000;
        let s = 1.0;
        let z = ZipfSampler::new(n, s);
        let mut rng = StdRng::seed_from_u64(4);
        let draws = 300_000;
        let mut count_r1 = 0u64;
        let mut count_r2 = 0u64;
        for _ in 0..draws {
            match z.sample(&mut rng) {
                1 => count_r1 += 1,
                2 => count_r2 += 1,
                _ => {}
            }
        }
        let f1 = count_r1 as f64 / draws as f64;
        let f2 = count_r2 as f64 / draws as f64;
        assert!((f1 - prob_of_rank(n, s, 1)).abs() < 0.005);
        // Rank 1 is ~2x rank 2 at s=1.
        assert!((f1 / f2 - 2.0).abs() < 0.15, "ratio {}", f1 / f2);
    }

    #[test]
    fn zipf_exponent_steepness() {
        // Higher exponent concentrates more mass on rank 1.
        let (z1, z2) = (ZipfSampler::new(100, 0.8), ZipfSampler::new(100, 1.5));
        assert!(prob_of_rank(100, 1.5, 1) > prob_of_rank(100, 0.8, 1));
        // And so do the samplers.
        let mut rng = StdRng::seed_from_u64(5);
        let ones =
            |z: &ZipfSampler, rng: &mut StdRng| (0..20_000).filter(|_| z.sample(rng) == 1).count();
        assert!(ones(&z2, &mut rng) > ones(&z1, &mut rng));
    }

    #[test]
    fn zipf_probs_sum_to_one() {
        let total: f64 = (1..=50).map(|r| prob_of_rank(50, 1.1, r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The table a 400 k-entry Zipf(0.35) sampler builds — every `prob`
    /// bit pattern and every `alias` entry — and a short draw sequence,
    /// pinned by digest: a change to the table's storage or worklists
    /// must build the same table and draw the same ranks.
    #[test]
    fn zipf_table_and_draws_match_pins() {
        let z = ZipfSampler::new(400_000, 0.35);
        let prob = fnv1a64(z.table.prob.iter().flat_map(|p| p.to_bits().to_le_bytes()));
        let alias = fnv1a64(z.table.alias.iter().flat_map(|a| (*a as u64).to_le_bytes()));
        let mut rng = StdRng::seed_from_u64(2018);
        let draws: Vec<usize> = (0..16).map(|_| z.sample(&mut rng)).collect();
        assert_eq!(
            (prob, alias),
            (0xe0bc_b810_7fed_6024, 0x1395_4d4b_c5f5_3236),
            "{prob:#x} {alias:#x}"
        );
        assert_eq!(
            draws,
            [
                188_433, 129_568, 128_969, 198_739, 27_908, 16_829, 4_733, 25_378, 76_928, 227_492,
                62_439, 235_349, 279_824, 358_323, 157_312, 228_917
            ],
            "{draws:?}"
        );
    }

    #[test]
    fn derive_seed_stable_and_distinct() {
        assert_eq!(derive_seed(42, "geo"), derive_seed(42, "geo"));
        assert_ne!(derive_seed(42, "geo"), derive_seed(42, "asn"));
        assert_ne!(derive_seed(42, "geo"), derive_seed(43, "geo"));
    }
}

//! Synthetic CAIDA-like IP→AS database with AS ranking.
//!
//! The paper maps client IPs to autonomous systems with CAIDA's pfx2as
//! data and checks "hotspot" concentration against CAIDA's top-1000 AS
//! rank (§5.2). We substitute a deterministic assignment of /16 blocks
//! to ASes drawn from a Zipf popularity model over the full AS universe
//! (59,597 defined ASes at the paper's snapshot date), so lookups have
//! prefix-match semantics and the observed-AS distribution has the
//! heavy-tailed shape the analysis relies on.

use crate::ids::{AsNumber, IpAddr};

/// Number of defined ASes in the paper's CAIDA snapshot.
pub const TOTAL_DEFINED_ASES: u32 = 59_597;

/// The IP→AS database.
#[derive(Clone, Debug)]
pub struct AsDb {
    /// AS for each /16 block (65,536 entries).
    block_as: Vec<AsNumber>,
    /// Total defined ASes (for the range-rule upper bound).
    pub total_defined: u32,
}

impl AsDb {
    /// Builds the default database: each /16 block is assigned an AS
    /// sampled (deterministically, by hash) from a Zipf distribution
    /// over AS ranks, so low-numbered (high-rank) ASes hold more blocks.
    pub fn paper_default() -> AsDb {
        AsDb::with_params(TOTAL_DEFINED_ASES, 0.65, 2018)
    }

    /// Builds with explicit parameters. `zipf_s` shapes block
    /// concentration; higher values concentrate more blocks on top ASes.
    fn with_params(total_ases: u32, zipf_s: f64, seed: u64) -> AsDb {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 16);
        AsDb::build(total_ases, zipf_s, seed, threads)
    }

    /// Deterministic inverse-CDF sampling of a Zipf over AS ranks by hash
    /// of the block index. The CDF is built in one buffer: the rank
    /// weights first, then the running normalised sum in place. The 65,536
    /// block lookups (SHA-256 → `u` → binary search of the CDF) are
    /// independent and run on `threads` threads without allocating; each
    /// block owns its output slot, so the table does not depend on
    /// `threads`.
    fn build(total_ases: u32, zipf_s: f64, seed: u64, threads: usize) -> AsDb {
        assert!(total_ases >= 1);
        let n = total_ases as usize;
        let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-zipf_s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for c in &mut cdf {
            acc += *c / total;
            *c = acc;
        }
        let block_as = pm_crypto::batch::par_map_indexed(1 << 16, threads, |block| {
            let h = pm_crypto::sha256::sha256_concat(&[
                b"as-block",
                &seed.to_be_bytes(),
                &(block as u32).to_be_bytes(),
            ]);
            let head = h[..8].try_into().expect("a SHA-256 digest is 32 bytes");
            let u = u64::from_be_bytes(head) as f64 / u64::MAX as f64;
            let idx = cdf.partition_point(|c| *c < u).min(n - 1);
            AsNumber(idx as u32 + 1)
        });
        AsDb {
            block_as,
            total_defined: total_ases,
        }
    }

    /// The AS announcing an IP's /16 block.
    pub fn as_of(&self, ip: IpAddr) -> AsNumber {
        self.block_as[(ip.0 >> 16) as usize]
    }

    /// CAIDA-style rank of an AS (1 = largest customer cone). In the
    /// synthetic model the AS number doubles as its rank.
    pub fn rank_of(&self, asn: AsNumber) -> u32 {
        asn.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lookup_is_stable() {
        let db = AsDb::with_params(1000, 0.65, 7);
        let ip = IpAddr(0x0A0B_0C0D);
        assert_eq!(db.as_of(ip), db.as_of(ip));
        // Same /16 -> same AS.
        assert_eq!(db.as_of(IpAddr(0x0A0B_0000)), db.as_of(IpAddr(0x0A0B_FFFF)));
    }

    #[test]
    fn heavy_tail_shape() {
        let db = AsDb::with_params(10_000, 0.8, 1);
        // Top-100 ASes should hold a disproportionate share of blocks but
        // not a majority (the paper: top-1000 hold < 50% of connections).
        let mut top100 = 0u64;
        for b in 0..(1u32 << 16) {
            let asn = db.as_of(IpAddr(b << 16));
            if db.rank_of(asn) <= 100 {
                top100 += 1;
            }
        }
        let frac = top100 as f64 / (1 << 16) as f64;
        assert!(frac > 0.05 && frac < 0.6, "top-100 block share {frac}");
    }

    #[test]
    fn observed_as_count_scale() {
        // Sampling ~300k random IPs should hit thousands of distinct
        // ASes — roughly the paper's 11,882 of 59,597 — not all of them.
        let db = AsDb::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300_000 {
            seen.insert(db.as_of(IpAddr(rng.gen())).0);
        }
        let count = seen.len();
        assert!(count > 4_000 && count < 45_000, "observed {count} ASes");
    }

    /// FNV-1a over the AS of every /16 block.
    fn digest(db: &AsDb) -> u64 {
        (0u32..1 << 16).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ db.as_of(IpAddr(b << 16)).0 as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The paper-default table, pinned before the build was threaded.
    const PAPER_DEFAULT_DIGEST: u64 = 0xf031_d7f7_f214_325b;

    #[test]
    fn table_is_pinned_for_every_thread_count() {
        assert_eq!(digest(&AsDb::paper_default()), PAPER_DEFAULT_DIGEST);
        for threads in [1, 2, 3, 7, 64] {
            let db = AsDb::build(TOTAL_DEFINED_ASES, 0.65, 2018, threads);
            assert_eq!(digest(&db), PAPER_DEFAULT_DIGEST, "{threads} threads");
        }
    }

    #[test]
    fn rank_semantics() {
        assert_eq!(AsDb::paper_default().rank_of(AsNumber(42)), 42);
    }
}

//! Synthetic MaxMind-like IP→country database.
//!
//! The paper resolves client IPs with GeoLite2 (§5.2). We substitute a
//! deterministic allocation of the IPv4 space: each of 250 countries
//! owns a contiguous block sized by its share of the simulated Tor
//! client population, and lookup is the last block starting at or below
//! the address — the same longest-range-match semantics as a real geo
//! database. The lookup is an index, not a search: a 4 096-entry page
//! table (one entry per 2^20 addresses, 8 KB) names the block covering
//! each page's first address, and [`GeoDb::block_of`] steps forward from
//! there past the blocks that start inside the page — at most 4 steps on
//! the default database (none for 97 % of sampled client IPs); in
//! general, at most the number of blocks that start within one page.
//!
//! The default population shares are calibrated to Figure 4: US, RU and
//! DE lead; the UAE (AE) has a *small* connection share (its anomaly is
//! in circuits, which is a workload property, not a geo one).

use crate::ids::{CountryCode, IpAddr};
use rand::Rng;

/// One country's allocation.
#[derive(Clone, Debug)]
struct CountryBlock {
    code: CountryCode,
    /// First IP of the block (inclusive).
    start: u32,
    /// Share of the client population.
    share: f64,
}

/// The IP→country database.
#[derive(Clone, Debug)]
pub struct GeoDb {
    blocks: Vec<CountryBlock>,
    /// `page[ip >> PAGE_SHIFT]`: the last block whose start is at or
    /// below the page's first address — where [`Self::block_of`] begins.
    page: Vec<u16>,
    /// Running sums of the block shares, added in block order (the
    /// sums [`Self::sample_ip`] compares its draw against).
    cum_share: Vec<f64>,
    /// End of the sampleable space: the last block draws from
    /// `start..space_end`, so this address itself is never sampled
    /// (lookups still resolve it, to the last block). `u32::MAX` for
    /// real-sized databases; [`GeoDb::confined`] shrinks it so tests can
    /// force a tiny IP universe (and thus certain sampling collisions).
    space_end: u32,
}

/// Addresses per page of the lookup index: 2^20, so 4 096 pages tile
/// the IPv4 space.
const PAGE_SHIFT: u32 = 20;

/// Steps forward from block `i` (which must start at or below `ip`) to
/// the last block that does.
#[inline]
fn step_to(blocks: &[CountryBlock], mut i: usize, ip: u32) -> usize {
    while blocks.get(i + 1).is_some_and(|b| b.start <= ip) {
        i += 1;
    }
    i
}

/// Population shares for the countries Figure 4 names, roughly matching
/// the relative bar heights of the *connections* panel; the remainder is
/// spread over filler countries.
const NAMED_SHARES: [(&str, f64); 24] = [
    ("US", 0.210),
    ("RU", 0.160),
    ("DE", 0.120),
    ("UA", 0.055),
    ("FR", 0.050),
    ("VE", 0.030),
    ("NA", 0.022),
    ("NZ", 0.020),
    ("BV", 0.015),
    ("CA", 0.025),
    ("GB", 0.030),
    ("SC", 0.010),
    ("MX", 0.012),
    ("IM", 0.008),
    ("BR", 0.015),
    ("SK", 0.008),
    ("ES", 0.014),
    ("AR", 0.010),
    ("SE", 0.012),
    ("PL", 0.015),
    ("AE", 0.006),
    ("VG", 0.004),
    ("NL", 0.015),
    ("IT", 0.013),
];

/// Total number of countries in the database (the paper's universe).
pub const NUM_COUNTRIES: usize = 250;

impl GeoDb {
    /// Builds the default paper-calibrated database.
    pub fn paper_default() -> GeoDb {
        let mut shares: Vec<(CountryCode, f64)> = NAMED_SHARES
            .iter()
            .map(|(c, s)| (CountryCode::new(c), *s))
            .collect();
        let named_total: f64 = shares.iter().map(|(_, s)| s).sum();
        let filler = NUM_COUNTRIES - shares.len();
        // Filler countries get geometrically decaying slices of the rest
        // so that some are common and many are rare (a realistic tail).
        let remaining = 1.0 - named_total;
        let decay: f64 = 0.985;
        let norm: f64 = (0..filler).map(|i| decay.powi(i as i32)).sum();
        let used: std::collections::HashSet<CountryCode> = shares.iter().map(|(c, _)| *c).collect();
        let mut candidates =
            (0..26 * 26).map(|i| CountryCode([b'A' + (i / 26) as u8, b'A' + (i % 26) as u8]));
        for i in 0..filler {
            let code = candidates
                .by_ref()
                .find(|c| !used.contains(c))
                .expect("enough synthetic codes");
            let share = remaining * decay.powi(i as i32) / norm;
            shares.push((code, share));
        }
        GeoDb::from_shares(&shares)
    }

    /// Builds a database from explicit (country, share) pairs.
    pub fn from_shares(shares: &[(CountryCode, f64)]) -> GeoDb {
        GeoDb::with_space(shares, u32::MAX as u64 + 1)
    }

    /// Builds a database whose blocks tile only `[0, space)` instead of
    /// the full IPv4 range. With a tiny `space` every sampled IP lands
    /// in a handful of addresses, making collisions certain — the tool
    /// the pool-dedupe regression tests need, since `from_shares`
    /// always tiles all 2^32 addresses and cannot force them.
    pub fn confined(shares: &[(CountryCode, f64)], space: u32) -> GeoDb {
        assert!(space > 0, "confined space must be non-empty");
        GeoDb::with_space(shares, space as u64)
    }

    fn with_space(shares: &[(CountryCode, f64)], space: u64) -> GeoDb {
        assert!(!shares.is_empty());
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!(total > 0.0);
        assert!(
            shares.len() <= u16::MAX as usize + 1,
            "GeoDb indexes blocks with u16 page entries: {} blocks do not fit",
            shares.len()
        );
        let mut blocks = Vec::with_capacity(shares.len());
        let mut cum_share = Vec::with_capacity(shares.len());
        let mut cursor: u64 = 0;
        let mut acc = 0.0;
        for (code, share) in shares {
            blocks.push(CountryBlock {
                code: *code,
                start: cursor as u32,
                share: share / total,
            });
            acc += share / total;
            cum_share.push(acc);
            cursor += ((share / total) * space as f64) as u64;
            cursor = cursor.min(space - 1);
        }
        // Block starts never decrease, so one forward sweep finds every
        // page's block.
        let mut covering = 0;
        let page = (0..1u32 << (32 - PAGE_SHIFT))
            .map(|p| {
                covering = step_to(&blocks, covering, p << PAGE_SHIFT);
                covering as u16
            })
            .collect();
        GeoDb {
            blocks,
            page,
            cum_share,
            space_end: (space - 1) as u32,
        }
    }

    /// Number of countries.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if empty (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// All country codes.
    pub fn countries(&self) -> impl Iterator<Item = CountryCode> + '_ {
        self.blocks.iter().map(|b| b.code)
    }

    /// The population share of a country.
    pub fn share(&self, code: CountryCode) -> f64 {
        self.blocks
            .iter()
            .find(|b| b.code == code)
            .map(|b| b.share)
            .unwrap_or(0.0)
    }

    /// Index, in [`Self::countries`] order, of the block an IP belongs
    /// to: the last block whose start is at or below it. One page-table
    /// read, then a forward step per block that starts inside the IP's
    /// page at or below it (see the module docs for the counts).
    pub fn block_of(&self, ip: IpAddr) -> usize {
        let from = self.page[(ip.0 >> PAGE_SHIFT) as usize] as usize;
        step_to(&self.blocks, from, ip.0)
    }

    /// Country of an IP: the code of [`Self::block_of`]'s block.
    pub fn country_of(&self, ip: IpAddr) -> CountryCode {
        self.blocks[self.block_of(ip)].code
    }

    /// Samples a client IP: first a country by population share, then a
    /// uniform IP within its block.
    pub fn sample_ip<R: Rng + ?Sized>(&self, rng: &mut R) -> IpAddr {
        let u: f64 = rng.gen();
        // The first block whose running share reaches `u`; rounding can
        // leave the final sum a hair under 1, hence the last block.
        let idx = self
            .cum_share
            .partition_point(|c| *c < u)
            .min(self.blocks.len() - 1);
        self.sample_ip_in_block(idx, rng)
    }

    /// Samples an IP within a specific country's block.
    pub fn sample_ip_in<R: Rng + ?Sized>(&self, code: CountryCode, rng: &mut R) -> Option<IpAddr> {
        let i = self.blocks.iter().position(|b| b.code == code)?;
        Some(self.sample_ip_in_block(i, rng))
    }

    /// Samples an IP within the `i`-th country's block, in
    /// [`Self::countries`] order — [`Self::sample_ip_in`] for a caller
    /// that already holds the index (a per-event generator drawing it
    /// from an alias table) and should not search for it again.
    pub(crate) fn sample_ip_in_block<R: Rng + ?Sized>(&self, i: usize, rng: &mut R) -> IpAddr {
        let start = self.blocks[i].start;
        let end = if i + 1 < self.blocks.len() {
            self.blocks[i + 1].start
        } else {
            self.space_end
        };
        if end <= start {
            // Degenerately small share: return the block start.
            return IpAddr(start);
        }
        IpAddr(rng.gen_range(start..end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_db_has_250_countries() {
        let db = GeoDb::paper_default();
        assert_eq!(db.len(), NUM_COUNTRIES);
        let mut codes: Vec<CountryCode> = db.countries().collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), NUM_COUNTRIES, "codes must be unique");
    }

    #[test]
    fn lookup_inverts_sampling() {
        let db = GeoDb::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        for code in [CountryCode::new("US"), CountryCode::new("AE")] {
            for _ in 0..100 {
                let ip = db.sample_ip_in(code, &mut rng).unwrap();
                assert_eq!(db.country_of(ip), code, "ip {ip}");
            }
        }
    }

    #[test]
    fn population_shares_respected() {
        let db = GeoDb::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mut us = 0u64;
        let mut ru = 0u64;
        for _ in 0..n {
            let c = db.country_of(db.sample_ip(&mut rng));
            if c == CountryCode::new("US") {
                us += 1;
            } else if c == CountryCode::new("RU") {
                ru += 1;
            }
        }
        let us_frac = us as f64 / n as f64;
        let ru_frac = ru as f64 / n as f64;
        assert!((us_frac - 0.21).abs() < 0.01, "US {us_frac}");
        assert!((ru_frac - 0.16).abs() < 0.01, "RU {ru_frac}");
    }

    #[test]
    fn top_countries_ordered_like_figure4() {
        let db = GeoDb::paper_default();
        let us = db.share(CountryCode::new("US"));
        let ru = db.share(CountryCode::new("RU"));
        let de = db.share(CountryCode::new("DE"));
        let ae = db.share(CountryCode::new("AE"));
        assert!(us > ru && ru > de, "US > RU > DE");
        assert!(ae < de / 5.0, "AE connection share is small");
    }

    /// The binary search over block starts that [`GeoDb::block_of`]
    /// replaced: the definition its answers are held to.
    fn block_by_search(db: &GeoDb, ip: IpAddr) -> usize {
        db.blocks
            .partition_point(|b| b.start <= ip.0)
            .saturating_sub(1)
    }

    /// Forward steps `block_of` takes past its page entry for `ip`.
    fn lookup_steps(db: &GeoDb, ip: IpAddr) -> usize {
        db.block_of(ip) - db.page[(ip.0 >> PAGE_SHIFT) as usize] as usize
    }

    fn codes(n: usize) -> impl Iterator<Item = CountryCode> {
        (0..n).map(|i| CountryCode([b'A' + (i / 26) as u8, b'A' + (i % 26) as u8]))
    }

    /// Databases covering every shape of block layout: the default, a
    /// single block, zero-width blocks sharing a start mid-space, and
    /// confined spaces where every block lives in page 0 (with more
    /// blocks than addresses, so most share a start).
    fn layouts() -> Vec<(&'static str, GeoDb)> {
        let uneven: Vec<(CountryCode, f64)> = codes(40)
            .enumerate()
            .map(|(i, c)| (c, 1.0 + (i % 7) as f64))
            .collect();
        let shared: Vec<(CountryCode, f64)> =
            codes(6).zip([1.0, 1e-12, 1e-12, 1.0, 1e-12, 0.5]).collect();
        vec![
            ("paper_default", GeoDb::paper_default()),
            ("one country", GeoDb::from_shares(&uneven[..1])),
            ("uneven", GeoDb::from_shares(&uneven)),
            ("shared starts", GeoDb::from_shares(&shared)),
            ("confined 8", GeoDb::confined(&uneven, 8)),
            ("confined 1", GeoDb::confined(&uneven, 1)),
        ]
    }

    #[test]
    fn block_of_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(4);
        for (name, db) in layouts() {
            let shares_a_start = db.blocks.windows(2).any(|w| w[0].start == w[1].start);
            assert_eq!(
                shares_a_start,
                ["shared starts", "confined 8", "confined 1"].contains(&name),
                "{name}"
            );
            let mut ips = vec![0, u32::MAX];
            for b in &db.blocks {
                ips.extend([
                    b.start.saturating_sub(1),
                    b.start,
                    b.start.saturating_add(1),
                ]);
            }
            ips.extend((0..100_000).map(|_| rng.gen::<u32>()));
            // Confined spaces: random u32s all land past the space.
            ips.extend((0..64).map(|_| rng.gen_range(0..=db.space_end)));
            for ip in ips.into_iter().map(IpAddr) {
                let want = block_by_search(&db, ip);
                assert_eq!(db.block_of(ip), want, "{name}: ip {ip}");
                assert_eq!(db.country_of(ip), db.blocks[want].code, "{name}: ip {ip}");
            }
        }
    }

    #[test]
    fn lookup_cost_is_bounded_on_the_default_database() {
        let db = GeoDb::paper_default();
        // A page's last address pays for every block starting inside it.
        let worst = (0..db.page.len() as u32)
            .map(|p| lookup_steps(&db, IpAddr((p << PAGE_SHIFT) | ((1 << PAGE_SHIFT) - 1))))
            .max();
        assert!(worst <= Some(4), "worst page takes {worst:?} steps");
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let direct = (0..n)
            .filter(|_| lookup_steps(&db, db.sample_ip(&mut rng)) == 0)
            .count();
        assert!(
            direct * 100 >= n * 95,
            "{direct} of {n} lookups took 0 steps"
        );
    }

    #[test]
    #[should_panic(expected = "u16 page entries")]
    fn more_blocks_than_the_page_index_holds_are_refused() {
        let shares = vec![(CountryCode::new("AA"), 1.0); u16::MAX as usize + 2];
        GeoDb::from_shares(&shares);
    }

    #[test]
    fn sample_ip_matches_linear_scan() {
        for (name, db) in layouts() {
            let mut rng = StdRng::seed_from_u64(6);
            let mut oracle = rng.clone();
            for _ in 0..100_000 {
                // The share walk `sample_ip` replaced.
                let u: f64 = oracle.gen();
                let mut acc = 0.0;
                let mut idx = db.blocks.len() - 1;
                for (i, b) in db.blocks.iter().enumerate() {
                    acc += b.share;
                    if u <= acc {
                        idx = i;
                        break;
                    }
                }
                let want = db.sample_ip_in_block(idx, &mut oracle);
                assert_eq!(db.sample_ip(&mut rng), want, "{name}");
            }
        }
    }

    #[test]
    fn confined_space_bounds_samples() {
        let db = GeoDb::confined(&[(CountryCode::new("AA"), 1.0)], 8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let ip = db.sample_ip(&mut rng);
            assert!(ip.0 < 8, "ip {ip} escaped the confined space");
            assert_eq!(db.country_of(ip), CountryCode::new("AA"));
        }
    }

    #[test]
    fn custom_shares() {
        let db =
            GeoDb::from_shares(&[(CountryCode::new("AA"), 3.0), (CountryCode::new("BB"), 1.0)]);
        assert!((db.share(CountryCode::new("AA")) - 0.75).abs() < 1e-12);
        assert_eq!(db.country_of(IpAddr(0)), CountryCode::new("AA"));
        assert_eq!(db.country_of(IpAddr(u32::MAX)), CountryCode::new("BB"));
    }
}

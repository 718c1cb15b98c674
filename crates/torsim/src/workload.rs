//! Ground-truth workload models, calibrated to the paper's findings.
//!
//! Each truth struct is the *configured reality* of the simulated Tor
//! network. The measurement pipeline never reads these directly — it
//! only sees events — so experiments can verify that the estimators
//! recover the configured truth, and EXPERIMENTS.md can compare
//! measured vs truth vs paper.
//!
//! Calibration notes: the paper's Figure 2 rank-set measurement and the
//! sibling measurement were taken on different days and are not exactly
//! mutually consistent (e.g. rank set (0,10] totals 8.4% while
//! www.amazon.com alone measured 8.6% the next day). Our single
//! generative model compromises within the paper's day-to-day spread;
//! EXPERIMENTS.md records the per-figure deltas.

use crate::ids::{CountryCode, DomainId};
use crate::sites::{Family, SiteList};
use pm_stats::sampling::AliasTable;
use rand::Rng;

/// Exit-traffic ground truth (§4, Figures 1–3, Table 2).
#[derive(Clone, Debug)]
pub struct ExitTruth {
    /// Total exit streams per day, network-wide (Fig. 1a: ~2×10⁹).
    pub streams_per_day: f64,
    /// Fraction of streams that are a circuit's first (Fig. 1a: ~5%).
    pub initial_fraction: f64,
    /// Fraction of initial streams carrying an IPv4 literal
    /// (insignificant; Fig. 1b).
    pub ipv4_literal_fraction: f64,
    /// Fraction carrying an IPv6 literal (insignificant; Fig. 1b).
    pub ipv6_literal_fraction: f64,
    /// Fraction of initial hostname streams targeting a non-web port
    /// (insignificant; Fig. 1c).
    pub other_port_fraction: f64,
    /// Visit shares of the domain categories (see [`DomainMix`]).
    pub mix: DomainMix,
}

/// Visit-share mix over the domain universe. Compared by exact value:
/// equality is the key of [`SiteList::domain_sampler`]'s memo, so two
/// mixes share alias tables only when every share and exponent is
/// bit-for-bit the same.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainMix {
    /// torproject.org share (Fig. 2: 40.1% / 39.0%).
    pub torproject: f64,
    /// www.amazon.com share (paper: 8.6% on its day; compromise 7.6%).
    pub amazon_head: f64,
    /// google.com share.
    pub google_head: f64,
    /// Other top-10 heads `(rank, share)`.
    pub other_heads: Vec<(u64, f64)>,
    /// Family sibling shares (spread uniformly over non-head members).
    pub family_siblings: Vec<(Family, f64)>,
    /// duckduckgo share (rank 342; Tor Browser default search).
    pub duckduckgo: f64,
    /// Shares of rank sets 1..=5 — (10,100], (100,1k], (1k,10k],
    /// (10k,100k], (100k,1m] (Fig. 2 top: 5.1, 6.2, 4.3, 7.7, 7.0%).
    pub rank_set_shares: [f64; 5],
    /// Zipf exponent within each rank set.
    pub rank_set_zipf: f64,
    /// Share of visits to non-Alexa (long-tail) domains (Fig. 2: 21.7%).
    pub long_tail: f64,
    /// Zipf exponent over the long tail (shallow ⇒ many uniques,
    /// driving Table 2's 471k unique SLDs).
    pub long_tail_zipf: f64,
}

impl ExitTruth {
    /// Paper-calibrated defaults.
    fn paper_default() -> ExitTruth {
        ExitTruth {
            streams_per_day: 2.0e9,
            initial_fraction: 0.05,
            ipv4_literal_fraction: 0.0005,
            ipv6_literal_fraction: 0.0002,
            other_port_fraction: 0.003,
            mix: DomainMix::paper_default(),
        }
    }
}

impl DomainMix {
    /// Visits every share in a fixed field order — the single
    /// definition of "all the mix's shares", used by the total, the
    /// normalization, and the timeline's daily drift so they cannot
    /// disagree on which fields count.
    pub fn for_each_share_mut(&mut self, f: &mut dyn FnMut(&mut f64)) {
        f(&mut self.torproject);
        f(&mut self.amazon_head);
        f(&mut self.google_head);
        for (_, share) in self.other_heads.iter_mut() {
            f(share);
        }
        for (_, share) in self.family_siblings.iter_mut() {
            f(share);
        }
        f(&mut self.duckduckgo);
        for share in self.rank_set_shares.iter_mut() {
            f(share);
        }
        f(&mut self.long_tail);
    }

    /// Sum of all shares. The sampler's alias tables normalize, so only
    /// relative shares affect generated events — but a drifting mix
    /// must keep this at 1 or the *absolute* share every category
    /// reports silently inflates or deflates over a long campaign.
    pub fn total_share(&self) -> f64 {
        // The visitor is &mut-only (one field walk to rule them all);
        // the clone is a handful of floats and two small Vecs.
        let mut total = 0.0;
        self.clone().for_each_share_mut(&mut |s| total += *s);
        total
    }

    /// Rescales every share so the total is exactly 1 (relative shares
    /// preserved). Panics if the mix is degenerate (non-positive total).
    pub fn normalize(&mut self) {
        let mut total = 0.0;
        self.for_each_share_mut(&mut |s| total += *s);
        assert!(total > 0.0, "domain mix must have positive total share");
        self.for_each_share_mut(&mut |s| *s /= total);
    }

    /// Paper-calibrated defaults (see module docs on the compromise).
    pub fn paper_default() -> DomainMix {
        DomainMix {
            torproject: 0.401,
            amazon_head: 0.076,
            google_head: 0.010,
            other_heads: vec![
                (2, 0.001),  // youtube
                (3, 0.003),  // facebook
                (4, 0.0004), // baidu
                (5, 0.0004), // wikipedia
                (6, 0.002),  // yahoo
                (8, 0.0004), // reddit
                (9, 0.001),  // qq
            ],
            family_siblings: vec![
                (Family::Google, 0.014),
                (Family::Amazon, 0.021),
                (Family::Youtube, 0.0005),
                (Family::Yahoo, 0.0005),
            ],
            duckduckgo: 0.004,
            rank_set_shares: [0.051, 0.062, 0.043, 0.077, 0.070],
            rank_set_zipf: 0.9,
            long_tail: 0.217,
            long_tail_zipf: 0.35,
        }
    }
}

/// A prepared sampler over the domain mix: alias tables and category
/// layout (draws are O(1)). The tables are a pure function of the site
/// universe's *shape* (sizes, families) and the mix — no RNG is
/// consumed building them — and they are the expensive part: one entry
/// per site, ≈ 8 MB and tens of milliseconds at a 500 k-site universe.
/// So the sampler owns no borrow of the list, is `Send + Sync`, and is
/// obtained through [`SiteList::domain_sampler`], which builds it once
/// per (universe, mix) and shares it across every stream, round and
/// truth replica drawing from that pair; [`Self::sample`] takes the
/// site list per draw.
pub struct DomainSampler {
    /// Category alias: indexes into `categories`.
    category_alias: AliasTable,
    categories: Vec<Category>,
    /// Alias tables of the rank sets the universe retains.
    set_tables: Vec<(u64, AliasTable)>, // (first rank of set, table)
    long_tail_table: AliasTable,
}

#[derive(Clone, Copy, Debug)]
enum Category {
    Torproject,
    Head(u64),
    /// A uniform draw over [`SiteList::sibling_ranks`].
    FamilySibling(Family),
    RankSet(usize), // index into set_tables
    LongTail,
}

impl DomainSampler {
    /// Builds the sampler for a site universe. Generation code calls
    /// [`SiteList::domain_sampler`] instead, which memoizes this build;
    /// tests call it directly as the oracle the memo is held against.
    pub fn new(sites: &SiteList, mix: &DomainMix) -> DomainSampler {
        let mut categories = Vec::new();
        let mut weights = Vec::new();

        categories.push(Category::Torproject);
        weights.push(mix.torproject);
        categories.push(Category::Head(10));
        weights.push(mix.amazon_head);
        categories.push(Category::Head(1));
        weights.push(mix.google_head);
        for (rank, share) in &mix.other_heads {
            categories.push(Category::Head(*rank));
            weights.push(*share);
        }
        categories.push(Category::Head(342));
        weights.push(mix.duckduckgo);

        for (fam, share) in &mix.family_siblings {
            if sites.sibling_ranks(*fam).is_empty() {
                continue;
            }
            categories.push(Category::FamilySibling(*fam));
            weights.push(*share);
        }

        let alexa = sites.config().alexa_size;
        let mut set_tables = Vec::new();
        let set_bounds: [(u64, u64); 5] = [
            (11, 100),
            (101, 1_000),
            (1_001, 10_000),
            (10_001, 100_000),
            (100_001, 1_000_000),
        ];
        for (i, (lo, hi)) in set_bounds.iter().enumerate() {
            let hi = (*hi).min(alexa);
            if *lo > hi {
                continue;
            }
            let w: Vec<f64> = (*lo..=hi)
                .map(|r| (r as f64).powf(-mix.rank_set_zipf))
                .collect();
            categories.push(Category::RankSet(set_tables.len()));
            weights.push(mix.rank_set_shares[i]);
            set_tables.push((*lo, AliasTable::new(&w)));
        }

        categories.push(Category::LongTail);
        weights.push(mix.long_tail);
        // Long tail alias over the tail universe (Zipf, shallow).
        let tail_n = sites.config().long_tail_size.min(8_000_000) as usize;
        let tail_w: Vec<f64> = (1..=tail_n)
            .map(|r| (r as f64).powf(-mix.long_tail_zipf))
            .collect();
        let long_tail_table = AliasTable::new(&tail_w);

        DomainSampler {
            category_alias: AliasTable::new(&weights),
            categories,
            set_tables,
            long_tail_table,
        }
    }

    /// Draws a destination domain from `sites`, which must be the
    /// universe the sampler was built for.
    pub fn sample<R: Rng + ?Sized>(&self, sites: &SiteList, rng: &mut R) -> DomainId {
        match self.categories[self.category_alias.sample(rng)] {
            Category::Torproject => sites.domain_of_rank(Family::Torproject.head_rank()),
            Category::Head(rank) => sites.domain_of_rank(rank),
            Category::FamilySibling(fam) => {
                let members = sites.sibling_ranks(fam);
                sites.domain_of_rank(members[rng.gen_range(0..members.len())])
            }
            Category::RankSet(i) => {
                let (lo, table) = &self.set_tables[i];
                sites.domain_of_rank(lo + table.sample(rng) as u64)
            }
            Category::LongTail => sites.long_tail_domain(self.long_tail_table.sample(rng) as u64),
        }
    }
}

/// Client-population ground truth (§5, Tables 3–5, Figure 4).
#[derive(Clone, Debug)]
pub struct ClientTruth {
    /// Selective client IPs network-wide (Table 3, g=3 row: ~11M total
    /// minus promiscuous).
    pub selective_ips: u64,
    /// Promiscuous client IPs (bridges, tor2web, busy NATs): contact all
    /// guards daily (Table 3: ~14–22k).
    pub promiscuous_ips: u64,
    /// Guards contacted by each selective client (1 data + 2 directory).
    pub guards_per_client: u32,
    /// Client connections per day network-wide (Table 4: 148M).
    pub connections_per_day: f64,
    /// Client circuits per day network-wide (Table 4: 1,286M).
    pub circuits_per_day: f64,
    /// Client bytes per day network-wide (Table 4: 517 TiB).
    pub bytes_per_day: f64,
    /// New client IPs per day as a fraction of the daily pool
    /// (§5.1 churn: 119,697/313,213 ≈ 0.382 locally).
    pub daily_churn_fraction: f64,
    /// Countries whose *circuit* counts are boosted relative to their
    /// connection share (the UAE anomaly: directory-circuit storms).
    pub circuit_boost: Vec<(CountryCode, f64)>,
    /// Countries whose *byte* counts are boosted relative to their
    /// connection share.
    pub byte_boost: Vec<(CountryCode, f64)>,
}

impl ClientTruth {
    /// Paper-calibrated defaults.
    pub fn paper_default() -> ClientTruth {
        ClientTruth {
            selective_ips: 11_000_000,
            promiscuous_ips: 18_500,
            guards_per_client: 3,
            connections_per_day: 148e6,
            circuits_per_day: 1.286e9,
            bytes_per_day: 517.0 * (1u64 << 40) as f64,
            daily_churn_fraction: 0.382,
            // Figure 4 circuits panel: US, FR, RU, DE, PL, AE — FR and
            // PL punch above their connection shares, and the UAE's
            // blocked clients (§5.2) spin directory circuits without
            // moving data.
            circuit_boost: vec![
                (CountryCode::new("AE"), 11.0),
                (CountryCode::new("FR"), 3.2),
                (CountryCode::new("PL"), 6.0),
            ],
            byte_boost: vec![(CountryCode::new("GB"), 1.8), (CountryCode::new("UA"), 1.3)],
        }
    }

    /// Total unique client IPs per day.
    pub fn total_ips(&self) -> u64 {
        self.selective_ips + self.promiscuous_ips
    }
}

/// Onion-service ground truth (§6, Tables 6–8).
#[derive(Clone, Debug)]
pub struct OnionTruth {
    /// Unique v2 addresses published per day (Table 6: ~70,826).
    pub published_addresses: u64,
    /// Descriptor publishes per address per day (hourly refresh plus
    /// rotation).
    pub publishes_per_address: f64,
    /// Unique addresses fetched (successfully) per day (Table 6:
    /// point 74,900 with CI [34k, 696k]; the generative support).
    pub fetched_addresses: u64,
    /// Zipf exponent of fetch popularity over fetched addresses.
    pub fetch_popularity_zipf: f64,
    /// Descriptor fetch attempts per day network-wide (Table 7: 134M).
    pub fetch_attempts_per_day: f64,
    /// Fraction of fetch attempts that fail (Table 7: 0.909).
    pub fetch_fail_fraction: f64,
    /// Of failures, the fraction that are malformed requests (vs
    /// missing descriptors).
    pub malformed_fraction: f64,
    /// Size of the outdated/bot address list driving NotFound failures.
    pub stale_list_size: u64,
    /// Fraction of successful fetches that target publicly-indexed
    /// (ahmia-listed) addresses (Table 7: 0.568).
    pub public_fetch_fraction: f64,
    /// Fraction of *published* addresses that are publicly indexed.
    pub public_address_fraction: f64,
    /// Rendezvous circuits per day network-wide (Table 8: 366M).
    pub rend_circuits_per_day: f64,
    /// Outcome fractions (Table 8: 8.08% success, 4.37% conn-closed,
    /// 84.9% expired; remainder inactive).
    pub rend_success: f64,
    /// Conn-closed failure fraction.
    pub rend_connclosed: f64,
    /// Expired failure fraction.
    pub rend_expired: f64,
    /// Total rendezvous payload per day (Table 8: 20.1 TiB).
    pub rend_payload_per_day: f64,
    /// Log-normal σ of per-circuit payload (the paper's per-circuit CI
    /// [341; 2,070] KiB implies substantial skew).
    pub rend_payload_sigma: f64,
}

impl OnionTruth {
    /// Paper-calibrated defaults.
    fn paper_default() -> OnionTruth {
        OnionTruth {
            published_addresses: 70_826,
            publishes_per_address: 24.0,
            fetched_addresses: 60_000,
            fetch_popularity_zipf: 1.1,
            fetch_attempts_per_day: 134e6,
            fetch_fail_fraction: 0.909,
            malformed_fraction: 0.25,
            stale_list_size: 400_000,
            public_fetch_fraction: 0.568,
            public_address_fraction: 0.5,
            rend_circuits_per_day: 366e6,
            rend_success: 0.0808,
            rend_connclosed: 0.0437,
            rend_expired: 0.849,
            rend_payload_per_day: 20.1 * (1u64 << 40) as f64,
            rend_payload_sigma: 1.0,
        }
    }

    /// Mean payload per active rendezvous circuit (Table 8: ~730 KiB).
    pub fn mean_payload_per_active_circuit(&self) -> f64 {
        self.rend_payload_per_day / (self.rend_circuits_per_day * self.rend_success)
    }
}

/// The full ground-truth bundle.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Exit traffic.
    pub exit: ExitTruth,
    /// Client population.
    pub clients: ClientTruth,
    /// Onion services.
    pub onion: OnionTruth,
}

impl Workload {
    /// Paper-calibrated defaults.
    pub fn paper_default() -> Workload {
        Workload {
            exit: ExitTruth::paper_default(),
            clients: ClientTruth::paper_default(),
            onion: OnionTruth::paper_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::SiteListConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_sites() -> SiteList {
        SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 100_000,
            seed: 3,
        })
    }

    #[test]
    fn sampler_hits_configured_shares() {
        let sites = small_sites();
        let mix = DomainMix::paper_default();
        let sampler = DomainSampler::new(&sites, &mix);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut torproject = 0u64;
        let mut amazon_fam = 0u64;
        let mut long_tail = 0u64;
        for _ in 0..n {
            let d = sampler.sample(&sites, &mut rng);
            if sites.family(d) == Some(Family::Torproject) {
                torproject += 1;
            }
            if sites.family(d) == Some(Family::Amazon) {
                amazon_fam += 1;
            }
            if !sites.in_alexa(d) {
                long_tail += 1;
            }
        }
        let tp = torproject as f64 / n as f64;
        let az = amazon_fam as f64 / n as f64;
        let lt = long_tail as f64 / n as f64;
        // Alias table normalizes the slightly-over-1 mix, so targets are
        // compressed by ~4%; allow generous bands.
        assert!((tp - 0.39).abs() < 0.02, "torproject {tp}");
        assert!((az - 0.094).abs() < 0.015, "amazon family {az}");
        assert!((lt - 0.21).abs() < 0.02, "long tail {lt}");
    }

    #[test]
    fn sampler_produces_rank_set_spread() {
        let sites = small_sites();
        let mix = DomainMix::paper_default();
        let sampler = DomainSampler::new(&sites, &mix);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sets = [0u64; 6];
        let mut other = 0u64;
        let n = 50_000;
        for _ in 0..n {
            let d = sampler.sample(&sites, &mut rng);
            match sites.rank(d) {
                Some(r) => sets[SiteList::rank_set_index(r)] += 1,
                None => other += 1,
            }
        }
        // Every rank set is populated (universe truncated at 20k, so the
        // top-4 sets exist; (10k,100k] partially, (100k,1m] empty here).
        for (i, s) in sets.iter().take(4).enumerate() {
            assert!(*s > 100, "set {i} empty: {s}");
        }
        assert!(other > 5_000, "long tail missing: {other}");
    }

    #[test]
    fn truth_defaults_match_paper_numbers() {
        let w = Workload::paper_default();
        assert_eq!(w.clients.total_ips(), 11_018_500);
        assert!((w.exit.streams_per_day - 2.0e9).abs() < 1.0);
        assert_eq!(w.onion.published_addresses, 70_826);
        // Mean per-active-circuit payload ≈ 730 KiB.
        let mean = w.onion.mean_payload_per_active_circuit();
        assert!((mean / 1024.0 - 730.0).abs() < 40.0, "{}", mean / 1024.0);
        // Rendezvous outcomes sum to < 1 with a small inactive remainder.
        let s = w.onion.rend_success + w.onion.rend_connclosed + w.onion.rend_expired;
        assert!(s < 1.0 && s > 0.95);
    }
}

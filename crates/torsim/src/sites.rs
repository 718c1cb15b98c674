//! Synthetic Alexa-like site universe.
//!
//! The paper's exit-domain analyses (§4) classify observed primary
//! domains by membership in the Alexa top-1M list, rank subsets, sibling
//! families of the top-10 sites, TLDs, and unique SLDs. The real list is
//! proprietary snapshot data, so we generate a deterministic synthetic
//! universe with the same *structure*: ranked sites with TLDs, sibling
//! families (e.g. the 212-site google family), and a long tail of
//! non-Alexa domains. All measurement code consumes domains only through
//! set membership, so structure — not real names — is what matters
//! (the same argument [`crate::sampled`] makes for event volumes).
//!
//! Names are derived on demand from the domain id, so a 1M-site universe
//! costs only the family index (one byte per Alexa rank).

use crate::ids::DomainId;
use crate::workload::{DomainMix, DomainSampler};
use std::sync::{Arc, Mutex};

/// Sibling families measured in Figure 2 (top-10 sites plus duckduckgo
/// and torproject).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// google (rank 1; 212 family sites incl. google.co.in at rank 7).
    Google,
    /// youtube (rank 2).
    Youtube,
    /// facebook (rank 3).
    Facebook,
    /// baidu (rank 4).
    Baidu,
    /// wikipedia (rank 5).
    Wikipedia,
    /// yahoo (rank 6).
    Yahoo,
    /// reddit (rank 8; 3 family sites).
    Reddit,
    /// qq (rank 9; 3 family sites).
    Qq,
    /// amazon (rank 10).
    Amazon,
    /// duckduckgo (rank 342; Tor Browser's default search engine).
    Duckduckgo,
    /// torproject (rank 10,244; developer of Tor Browser).
    Torproject,
}

impl Family {
    /// All families in Figure 2's display order.
    pub const ALL: [Family; 11] = [
        Family::Google,
        Family::Youtube,
        Family::Facebook,
        Family::Baidu,
        Family::Wikipedia,
        Family::Yahoo,
        Family::Reddit,
        Family::Qq,
        Family::Amazon,
        Family::Duckduckgo,
        Family::Torproject,
    ];

    /// The family head's Alexa rank.
    pub fn head_rank(self) -> u64 {
        match self {
            Family::Google => 1,
            Family::Youtube => 2,
            Family::Facebook => 3,
            Family::Baidu => 4,
            Family::Wikipedia => 5,
            Family::Yahoo => 6,
            Family::Reddit => 8,
            Family::Qq => 9,
            Family::Amazon => 10,
            Family::Duckduckgo => 342,
            Family::Torproject => 10_244,
        }
    }

    /// Family size in the sibling measurement (google largest at 212,
    /// reddit and qq smallest at 3, duckduckgo/torproject singletons).
    pub fn size(self) -> u64 {
        match self {
            Family::Google => 212,
            Family::Youtube => 28,
            Family::Facebook => 12,
            Family::Baidu => 8,
            Family::Wikipedia => 40,
            Family::Yahoo => 30,
            Family::Reddit => 3,
            Family::Qq => 3,
            Family::Amazon => 25,
            Family::Duckduckgo => 1,
            Family::Torproject => 1,
        }
    }

    /// Base name.
    pub fn basename(self) -> &'static str {
        match self {
            Family::Google => "google",
            Family::Youtube => "youtube",
            Family::Facebook => "facebook",
            Family::Baidu => "baidu",
            Family::Wikipedia => "wikipedia",
            Family::Yahoo => "yahoo",
            Family::Reddit => "reddit",
            Family::Qq => "qq",
            Family::Amazon => "amazon",
            Family::Duckduckgo => "duckduckgo",
            Family::Torproject => "torproject",
        }
    }
}

/// TLDs measured in Figure 3 (all TLDs with > 10⁴ Alexa entries) plus a
/// catch-all.
pub const MEASURED_TLDS: [&str; 14] = [
    "com", "org", "net", "br", "cn", "de", "fr", "in", "ir", "it", "jp", "pl", "ru", "uk",
];

/// Configuration for the synthetic universe.
#[derive(Clone, Debug)]
pub struct SiteListConfig {
    /// Alexa universe size (10⁶ in the paper; tests use smaller).
    pub alexa_size: u64,
    /// Long-tail (non-Alexa) universe size.
    pub long_tail_size: u64,
    /// Seed for deterministic TLD assignment.
    pub seed: u64,
}

impl Default for SiteListConfig {
    fn default() -> Self {
        SiteListConfig {
            alexa_size: 1_000_000,
            long_tail_size: 4_000_000,
            seed: 2018,
        }
    }
}

/// The synthetic site universe.
pub struct SiteList {
    cfg: SiteListConfig,
    /// The family of each Alexa domain, indexed by [`DomainId`]
    /// (rank − 1): classification is per exit event, so it is one
    /// array read rather than a hash of the rank.
    family_of: Vec<Option<Family>>,
    /// Each family's non-head member ranks, ascending, indexed by
    /// `Family as usize`.
    siblings: Vec<Vec<u64>>,
    /// Cumulative TLD distribution for hash-based assignment:
    /// (cumulative probability, tld index into MEASURED_TLDS, or usize::MAX
    /// for "other").
    tld_cdf: Vec<(f64, usize)>,
    /// One-slot memo behind [`Self::domain_sampler`]: the mix the slot
    /// was built for, and its sampler.
    sampler: Mutex<Option<(DomainMix, Arc<DomainSampler>)>>,
}

/// Visit-weighted TLD target shares for non-special sites, shaped to
/// reproduce Figure 3 (com/net dominate; ru is the largest ccTLD;
/// a sizeable "other" bucket).
const TLD_WEIGHTS: [(usize, f64); 15] = [
    (0, 0.52),           // com
    (1, 0.035),          // org (torproject dominates .org separately)
    (2, 0.060),          // net
    (3, 0.008),          // br
    (4, 0.006),          // cn
    (5, 0.016),          // de
    (6, 0.010),          // fr
    (7, 0.006),          // in
    (8, 0.005),          // ir
    (9, 0.006),          // it
    (10, 0.012),         // jp
    (11, 0.008),         // pl
    (12, 0.042),         // ru
    (13, 0.012),         // uk
    (usize::MAX, 0.214), // other TLDs
];

/// The rank a family's `probe`-th placement attempt lands on:
/// pseudo-random in `11..alexa_size`, past the top-10 heads.
fn probe_rank(fam: Family, probe: u64, alexa_size: u64) -> u64 {
    let h = pm_crypto::sha256::sha256_concat(&[
        b"family-rank",
        fam.basename().as_bytes(),
        &probe.to_be_bytes(),
    ]);
    11 + u64::from_be_bytes(h[..8].try_into().unwrap()) % (alexa_size - 11)
}

impl SiteList {
    /// Builds the universe.
    pub fn new(cfg: SiteListConfig) -> SiteList {
        assert!(
            cfg.alexa_size >= 11_000,
            "universe must include all family head ranks"
        );
        let mut family_of = vec![None; cfg.alexa_size as usize];
        let mut siblings_placed = Vec::new();
        for fam in Family::ALL {
            // A head takes its canonical rank even from an earlier
            // family's sibling that landed there.
            family_of[(fam.head_rank() - 1) as usize] = Some(fam);
            // Scatter the remaining members deterministically across the
            // list (pseudo-random but collision-free ranks).
            let mut placed = 1;
            let mut probe = 0u64;
            while placed < fam.size() {
                let rank = probe_rank(fam, probe, cfg.alexa_size);
                probe += 1;
                let slot = &mut family_of[(rank - 1) as usize];
                if slot.is_none() {
                    *slot = Some(fam);
                    siblings_placed.push((rank, fam));
                    placed += 1;
                }
            }
        }
        let mut siblings = vec![Vec::new(); Family::ALL.len()];
        for (rank, fam) in siblings_placed {
            if family_of[(rank - 1) as usize] == Some(fam) {
                siblings[fam as usize].push(rank);
            }
        }
        for ranks in &mut siblings {
            ranks.sort_unstable();
        }
        let mut tld_cdf = Vec::with_capacity(TLD_WEIGHTS.len());
        let total: f64 = TLD_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        for (idx, w) in TLD_WEIGHTS {
            acc += w / total;
            tld_cdf.push((acc, idx));
        }
        SiteList {
            cfg,
            family_of,
            siblings,
            tld_cdf,
            sampler: Mutex::new(None),
        }
    }

    /// The domain sampler of this universe under `mix` — the one door
    /// every generator draws its sampler through. The universe is the
    /// value a run's deployments, day derivations and stream builders
    /// already share (one `Arc<SiteList>`), so the memo lives here: the
    /// alias tables are built on the first request and every later
    /// request for the same mix gets the same `Arc`, however many DC
    /// streams, rounds and truth replicas ask.
    ///
    /// The memo is *keyed* by the mix's exact value, so a campaign day
    /// with a drifted mix is never served another day's tables: a miss
    /// builds and replaces the slot (streams already built keep their
    /// own `Arc`). It is *lazy* because a run that never draws a domain
    /// should not pay the build at setup. The lock is held across the
    /// build, so workers that start exit rounds together build once.
    pub fn domain_sampler(&self, mix: &DomainMix) -> Arc<DomainSampler> {
        let mut slot = self
            .sampler
            .lock()
            .expect("a domain sampler build panicked");
        match &*slot {
            Some((key, sampler)) if key == mix => Arc::clone(sampler),
            _ => {
                let sampler = Arc::new(DomainSampler::new(self, mix));
                *slot = Some((mix.clone(), Arc::clone(&sampler)));
                sampler
            }
        }
    }

    /// Universe configuration.
    pub fn config(&self) -> &SiteListConfig {
        &self.cfg
    }

    /// The DomainId for an Alexa rank (1-based).
    pub fn domain_of_rank(&self, rank: u64) -> DomainId {
        assert!((1..=self.cfg.alexa_size).contains(&rank));
        DomainId(rank - 1)
    }

    /// The DomainId of the i-th long-tail (non-Alexa) domain.
    pub fn long_tail_domain(&self, i: u64) -> DomainId {
        assert!(i < self.cfg.long_tail_size);
        DomainId(self.cfg.alexa_size + i)
    }

    /// The Alexa rank of a domain (1-based), if it is in the list.
    pub fn rank(&self, d: DomainId) -> Option<u64> {
        if d.0 < self.cfg.alexa_size {
            Some(d.0 + 1)
        } else {
            None
        }
    }

    /// True if the domain is in the Alexa top list.
    pub fn in_alexa(&self, d: DomainId) -> bool {
        d.0 < self.cfg.alexa_size
    }

    /// The sibling family of a domain, if any.
    pub fn family(&self, d: DomainId) -> Option<Family> {
        // Long-tail ids lie past the index's end.
        self.family_of.get(d.0 as usize).copied().flatten()
    }

    /// The Alexa ranks of a family's members other than its head, in
    /// ascending order.
    pub fn sibling_ranks(&self, fam: Family) -> &[u64] {
        &self.siblings[fam as usize]
    }

    /// The Figure 2 rank-set index of an Alexa rank:
    /// 0 → (0, 10], 1 → (10, 100], …, 5 → (100k, 1m].
    pub fn rank_set_index(rank: u64) -> usize {
        assert!(rank >= 1);
        let mut bound = 10u64;
        for i in 0..6 {
            if rank <= bound {
                return i;
            }
            bound *= 10;
        }
        5 // ranks beyond 1M (not produced for Alexa domains)
    }

    /// The TLD of a domain.
    pub fn tld(&self, d: DomainId) -> &'static str {
        // Family sites keep their canonical TLDs.
        match self.family(d) {
            Some(Family::Torproject) => return "org",
            Some(_) => return "com",
            None => {}
        }
        let h = pm_crypto::sha256::sha256_concat(&[
            b"tld",
            &self.cfg.seed.to_be_bytes(),
            &d.0.to_be_bytes(),
        ]);
        let u = u64::from_be_bytes(h[..8].try_into().unwrap()) as f64 / u64::MAX as f64;
        for (cum, idx) in &self.tld_cdf {
            if u <= *cum {
                return if *idx == usize::MAX {
                    "xyz" // representative "other" TLD
                } else {
                    MEASURED_TLDS[*idx]
                };
            }
        }
        "xyz"
    }

    /// The second-level domain name (registrable label).
    pub fn sld(&self, d: DomainId) -> String {
        if let Some(fam) = self.family(d) {
            if self.rank(d) == Some(fam.head_rank()) {
                return fam.basename().to_string();
            }
            // Sibling: basename + discriminator (e.g. google.co.in is
            // modeled as a distinct registrable name).
            return format!("{}{}", fam.basename(), d.0);
        }
        if self.in_alexa(d) {
            format!("site{}", d.0)
        } else {
            format!("tail{}", d.0 - self.cfg.alexa_size)
        }
    }

    /// The full primary-domain name a stream would carry.
    pub fn domain_name(&self, d: DomainId) -> String {
        match self.family(d) {
            Some(Family::Torproject) => {
                // The dominant observed name (§4.3): onionoo.torproject.org.
                return "onionoo.torproject.org".into();
            }
            Some(Family::Amazon) if self.rank(d) == Some(10) => {
                return "www.amazon.com".into();
            }
            _ => {}
        }
        format!("{}.{}", self.sld(d), self.tld(d))
    }

    /// Whether a domain belongs to the Alexa category list measurement
    /// (Alexa categories are capped at 50 sites each; we model 17
    /// categories over the top sites). Returns the category index.
    pub fn category(&self, d: DomainId) -> Option<usize> {
        let rank = self.rank(d)?;
        if rank > 17 * 50 {
            return None;
        }
        Some(((rank - 1) / 50) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> SiteList {
        SiteList::new(SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 50_000,
            seed: 1,
        })
    }

    #[test]
    fn ranks_roundtrip() {
        let s = small();
        for r in [1u64, 10, 342, 10_244, 20_000] {
            assert_eq!(s.rank(s.domain_of_rank(r)), Some(r));
        }
        assert!(s.in_alexa(s.domain_of_rank(1)));
        assert!(!s.in_alexa(s.long_tail_domain(0)));
        assert_eq!(s.rank(s.long_tail_domain(0)), None);
    }

    #[test]
    fn family_heads_at_canonical_ranks() {
        let s = small();
        assert_eq!(s.family(s.domain_of_rank(1)), Some(Family::Google));
        assert_eq!(s.family(s.domain_of_rank(10)), Some(Family::Amazon));
        assert_eq!(s.family(s.domain_of_rank(342)), Some(Family::Duckduckgo));
        assert_eq!(s.family(s.domain_of_rank(10_244)), Some(Family::Torproject));
        assert_eq!(s.family(s.domain_of_rank(11)), None);
    }

    /// The rank → family hash map the dense index replaced, built the
    /// way it was: heads inserted unconditionally, siblings probed
    /// into vacant ranks.
    fn families_by_map(alexa_size: u64) -> HashMap<u64, Family> {
        let mut by_rank = HashMap::new();
        for fam in Family::ALL {
            by_rank.insert(fam.head_rank(), fam);
            let mut placed = 1;
            let mut probe = 0u64;
            while placed < fam.size() {
                let rank = probe_rank(fam, probe, alexa_size);
                probe += 1;
                if let std::collections::hash_map::Entry::Vacant(e) = by_rank.entry(rank) {
                    e.insert(fam);
                    placed += 1;
                }
            }
        }
        by_rank
    }

    #[test]
    fn dense_family_index_matches_the_rank_map() {
        // At 11 756 two google siblings land on ranks 342 and 10 244
        // before duckduckgo's and torproject's heads claim them: the
        // index and google's sibling list must both lose them.
        for alexa_size in [11_756, 20_000, 100_000] {
            let s = SiteList::new(SiteListConfig {
                alexa_size,
                long_tail_size: 1_000,
                seed: 1,
            });
            let want = families_by_map(alexa_size);
            for r in 1..=alexa_size {
                let d = s.domain_of_rank(r);
                assert_eq!(
                    s.family(d),
                    want.get(&r).copied(),
                    "rank {r} of {alexa_size}"
                );
            }
            if alexa_size == 11_756 {
                assert_eq!(s.sibling_ranks(Family::Google).len(), 209);
            }
            for i in [0, 999] {
                assert_eq!(s.family(s.long_tail_domain(i)), None);
            }
            assert_eq!(s.family(DomainId(u64::MAX)), None);
            // The scan the domain sampler used to run per family.
            for fam in Family::ALL {
                let scanned: Vec<u64> = (1..=alexa_size)
                    .filter(|r| want.get(r) == Some(&fam) && *r != fam.head_rank())
                    .collect();
                assert_eq!(s.sibling_ranks(fam), scanned, "{fam:?} of {alexa_size}");
            }
        }
    }

    #[test]
    fn family_sizes_match() {
        let s = small();
        let mut counts: HashMap<Family, u64> = HashMap::new();
        for r in 1..=s.config().alexa_size {
            if let Some(f) = s.family(s.domain_of_rank(r)) {
                *counts.entry(f).or_insert(0) += 1;
            }
        }
        for fam in Family::ALL {
            assert_eq!(
                counts.get(&fam).copied().unwrap_or(0),
                fam.size(),
                "{fam:?}"
            );
        }
    }

    #[test]
    fn rank_set_boundaries() {
        assert_eq!(SiteList::rank_set_index(1), 0);
        assert_eq!(SiteList::rank_set_index(10), 0);
        assert_eq!(SiteList::rank_set_index(11), 1);
        assert_eq!(SiteList::rank_set_index(100), 1);
        assert_eq!(SiteList::rank_set_index(101), 2);
        assert_eq!(SiteList::rank_set_index(10_000), 3);
        assert_eq!(SiteList::rank_set_index(100_001), 5);
        assert_eq!(SiteList::rank_set_index(1_000_000), 5);
    }

    #[test]
    fn names_deterministic_and_special_cased() {
        let s = small();
        let tp = s.domain_of_rank(10_244);
        assert_eq!(s.domain_name(tp), "onionoo.torproject.org");
        assert_eq!(s.tld(tp), "org");
        assert_eq!(s.sld(tp), "torproject");
        let amz = s.domain_of_rank(10);
        assert_eq!(s.domain_name(amz), "www.amazon.com");
        assert_eq!(s.sld(amz), "amazon");
        let d = s.domain_of_rank(11);
        assert_eq!(s.domain_name(d), s.domain_name(d));
    }

    #[test]
    fn tld_distribution_roughly_matches_weights() {
        let s = small();
        let mut com = 0u64;
        let mut ru = 0u64;
        let n = 20_000u64;
        for r in 1..=n {
            match s.tld(s.domain_of_rank(r)) {
                "com" => com += 1,
                "ru" => ru += 1,
                _ => {}
            }
        }
        let com_frac = com as f64 / n as f64;
        let ru_frac = ru as f64 / n as f64;
        assert!((com_frac - 0.54).abs() < 0.03, "com {com_frac}"); // 0.52/0.96 normalized
        assert!((ru_frac - 0.044).abs() < 0.01, "ru {ru_frac}");
    }

    #[test]
    fn slds_unique_across_universe_sample() {
        let s = small();
        let mut seen = std::collections::HashSet::new();
        for r in 1..=1000u64 {
            assert!(seen.insert(s.sld(s.domain_of_rank(r))), "dup at rank {r}");
        }
        for i in 0..1000u64 {
            assert!(seen.insert(s.sld(s.long_tail_domain(i))), "tail dup {i}");
        }
    }

    #[test]
    fn categories_cover_top_sites_only() {
        let s = small();
        assert_eq!(s.category(s.domain_of_rank(1)), Some(0));
        assert_eq!(s.category(s.domain_of_rank(50)), Some(0));
        assert_eq!(s.category(s.domain_of_rank(51)), Some(1));
        assert_eq!(s.category(s.domain_of_rank(851)), None);
        assert_eq!(s.category(s.long_tail_domain(0)), None);
    }
}

//! Multi-day client IP churn (§5.1).
//!
//! The paper measured 313,213 unique client IPs in one day and 672,303
//! over four days, i.e. the pool turns over by ~119,697 IPs per day.
//! The model: the daily observed pool has fixed size `daily_unique`; a
//! `stable` core persists across days while the remainder is replaced
//! with fresh IPs each day. IP identities are derived deterministically
//! from `(slot, generation)` so repeated runs (and PSC's oblivious
//! hashing) see consistent values.

use crate::geo::GeoDb;
use crate::ids::IpAddr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The churn process.
#[derive(Clone, Debug)]
pub struct ChurnModel {
    /// Unique IPs observed on any single day.
    pub daily_unique: u64,
    /// IPs replaced each day.
    pub new_per_day: u64,
    /// Seed for deterministic IP assignment.
    pub seed: u64,
}

impl ChurnModel {
    /// Builds a scaled model.
    pub fn new(daily_unique: u64, new_per_day: u64, seed: u64) -> ChurnModel {
        assert!(new_per_day <= daily_unique);
        ChurnModel {
            daily_unique,
            new_per_day,
            seed,
        }
    }

    /// Unique IPs over a window of `days` consecutive days.
    pub fn unique_over(&self, days: u64) -> u64 {
        assert!(days >= 1);
        self.daily_unique + (days - 1) * self.new_per_day
    }

    /// Number of slots in the stable core (present every day).
    pub fn stable_count(&self) -> u64 {
        self.daily_unique - self.new_per_day
    }

    /// The IP occupying `slot` on `day`. Slots below
    /// `daily_unique − new_per_day` are stable; the rest regenerate
    /// daily.
    pub fn ip_at(&self, slot: u64, day: u64, geo: &GeoDb) -> IpAddr {
        assert!(slot < self.daily_unique);
        let stable = self.daily_unique - self.new_per_day;
        let generation = if slot < stable { 0 } else { day };
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ generation.wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        );
        geo.sample_ip(&mut rng)
    }

    /// Iterates the full observed pool for a day.
    pub fn ips_for_day<'a>(
        &'a self,
        day: u64,
        geo: &'a GeoDb,
    ) -> impl Iterator<Item = IpAddr> + 'a {
        (0..self.daily_unique).map(move |slot| self.ip_at(slot, day, geo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> (ChurnModel, GeoDb) {
        (ChurnModel::new(1000, 382, 7), GeoDb::paper_default())
    }

    #[test]
    fn unique_over_matches_paper_arithmetic() {
        // The paper's local observation (1.19% guard weight).
        let m = ChurnModel::new(313_213, 119_697, 2018);
        assert_eq!(m.unique_over(1), 313_213);
        assert_eq!(m.unique_over(4), 313_213 + 3 * 119_697); // 672,304
    }

    #[test]
    fn daily_pool_is_deterministic() {
        let (m, geo) = small();
        let day2a: Vec<IpAddr> = m.ips_for_day(2, &geo).collect();
        let day2b: Vec<IpAddr> = m.ips_for_day(2, &geo).collect();
        assert_eq!(day2a, day2b);
    }

    #[test]
    fn stable_core_persists_churned_tail_changes() {
        let (m, geo) = small();
        let stable = m.daily_unique - m.new_per_day;
        for slot in [0, stable - 1] {
            assert_eq!(m.ip_at(slot, 0, &geo), m.ip_at(slot, 3, &geo));
        }
        // Churned slots (statistically) change between days.
        let mut changed = 0;
        for slot in stable..m.daily_unique {
            if m.ip_at(slot, 0, &geo) != m.ip_at(slot, 1, &geo) {
                changed += 1;
            }
        }
        assert!(changed as f64 > 0.99 * m.new_per_day as f64);
    }

    #[test]
    fn multiday_union_grows_as_predicted() {
        let (m, geo) = small();
        let mut seen: HashSet<IpAddr> = HashSet::new();
        for day in 0..4 {
            seen.extend(m.ips_for_day(day, &geo));
        }
        let predicted = m.unique_over(4);
        // Hash collisions across generations are possible but rare.
        let got = seen.len() as u64;
        assert!(
            got >= predicted - predicted / 100 && got <= predicted,
            "got {got}, predicted {predicted}"
        );
    }
}

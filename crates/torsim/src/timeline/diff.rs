//! The snapshot memo — `snapshot(d)` without replaying days `1..=d`
//! on every call.
//!
//! A day of network evolution has one definition, `timeline::step_day`
//! (consensus churn and weight drift from the `"net/day{d}"` stream,
//! then mix drift from `"mix/day{d}"`), and one state it advances, the
//! private `CursorState`. [`replay_snapshot`] is the memo-less reading
//! of that definition: start at day 0, step `d` times — `O(d · n)` per
//! call, quadratic over a calendar, which is why campaigns do not use
//! it. [`TimelineCursor`] steps the very same state and adds only what
//! a memo adds: it remembers where it is, keeps checkpoints, and caches
//! the last snapshot built. The two can disagree only in that
//! bookkeeping, which is what the oracle is kept to check.
//!
//! ## The cursor and its compaction contract
//!
//! A [`TimelineCursor`] owns the current evolved state and a checkpoint
//! (a full state clone) every [`CHECKPOINT_INTERVAL`] days, taken as
//! the cursor first crosses each multiple. Seeking forward takes one
//! step per day; seeking backward restores the nearest checkpoint at
//! or before the target and takes at most `CHECKPOINT_INTERVAL − 1`
//! steps. A sequential sweep therefore costs one step per day
//! (`O(churn + n)` work, dominated by the per-relay weight draws), and
//! random access costs a bounded number of steps — never a replay
//! from day 0. Memory is the compaction contract: one retained state
//! per `CHECKPOINT_INTERVAL` days, i.e. ~12 consensus clones for a
//! year-long campaign, plus the last built snapshot as a cache.
//!
//! The cursor is not shared state in the purity sense: a step reads
//! only `(previous state, config, day)` and every day's RNG streams are
//! derived from `(seed, day)` alone, so `snapshot(d)` remains a pure
//! function of `(config, d)` — the cursor is memoization behind
//! [`NetworkTimeline`]'s internal lock, and out-of-order access lands
//! on bit-identical results (pinned by tests here, by the proptests in
//! `crates/torsim/tests/proptests.rs`, and by the campaign bit-identity
//! suites, which run rounds in every order). The step's actual output
//! is pinned by digests in `make timeline-smoke`.
//!
//! [`NetworkTimeline`]: crate::timeline::NetworkTimeline

use crate::ids::RelayId;
use crate::relay::{Consensus, Relay};
use crate::timeline::{step_day, DaySnapshot, TimelineConfig};
use crate::workload::DomainMix;
use pm_obs::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Days between full-state checkpoints retained by the cursor.
pub const CHECKPOINT_INTERVAL: u64 = 32;

/// One fully evolved day of the network (relays un-reindexed until a
/// snapshot is built).
#[derive(Clone)]
struct CursorState {
    day: u64,
    relays: Vec<Relay>,
    mix: DomainMix,
    joined: u64,
    left: u64,
}

impl CursorState {
    /// Day 0 of `cfg`'s network.
    fn base(cfg: &TimelineConfig) -> CursorState {
        let consensus = Consensus::paper_deployment(
            cfg.n_background,
            cfg.exit_fraction,
            cfg.guard_fraction,
            cfg.hsdir_fraction,
        );
        // Normalized from day 0 so `total_share() == 1` holds for every
        // snapshot (the paper mix sums to ~1.05; only relative shares
        // reach the samplers, so this changes no generated event).
        let mut mix = DomainMix::paper_default();
        mix.normalize();
        CursorState {
            day: 0,
            relays: consensus.relays().to_vec(),
            mix,
            joined: 0,
            left: 0,
        }
    }

    /// Evolves the state into its next day.
    fn step(&mut self, cfg: &TimelineConfig) {
        self.day += 1;
        (self.joined, self.left) = step_day(&mut self.relays, &mut self.mix, cfg, self.day);
    }

    fn to_snapshot(&self) -> DaySnapshot {
        let mut relays = self.relays.clone();
        for (i, r) in relays.iter_mut().enumerate() {
            r.id = RelayId(i as u32);
        }
        DaySnapshot {
            day: self.day,
            consensus: Arc::new(Consensus::new(relays)),
            mix: self.mix.clone(),
            joined: self.joined,
            left: self.left,
        }
    }
}

/// The from-scratch replay of `day` from a bare config: day 0 stepped
/// `day` times, no memo. The oracle behind
/// [`NetworkTimeline::snapshot_replay`], callable without a full
/// timeline (it touches neither the churn model nor the geo database).
///
/// [`NetworkTimeline::snapshot_replay`]: crate::timeline::NetworkTimeline::snapshot_replay
pub fn replay_snapshot(cfg: &TimelineConfig, day: u64) -> DaySnapshot {
    let mut state = CursorState::base(cfg);
    while state.day < day {
        state.step(cfg);
    }
    state.to_snapshot()
}

/// Steps the network forward from periodic checkpoints (see the module
/// docs). [`NetworkTimeline`] holds one behind a lock as its snapshot
/// memo; it can also be driven directly.
///
/// [`NetworkTimeline`]: crate::timeline::NetworkTimeline
pub struct TimelineCursor {
    cfg: TimelineConfig,
    /// Day-0 state (the implicit first checkpoint).
    base: CursorState,
    /// Current evolved state.
    state: CursorState,
    /// Full-state checkpoints at multiples of [`CHECKPOINT_INTERVAL`],
    /// recorded as the cursor first crosses each.
    checkpoints: BTreeMap<u64, CursorState>,
    /// The last snapshot built (campaign rounds ask for the same day
    /// several times — once for `Deployment::for_day`, once per
    /// fraction read).
    cache: Option<DaySnapshot>,
    /// Observability handle. The deterministic plane gets only
    /// schedule-invariant projections of the cursor's work: *distinct
    /// days materialized* and *checkpoints taken* are properties of the
    /// calendar, while raw restore/step operation counts depend on the
    /// order rounds happened to ask for days and are therefore
    /// profiling spans only.
    recorder: Recorder,
    /// Distinct days ever served — the dedupe behind the
    /// schedule-invariant `timeline.days.materialized` counter.
    materialized: BTreeSet<u64>,
}

impl TimelineCursor {
    /// A cursor positioned at day 0 of `cfg`'s network.
    pub fn new(cfg: TimelineConfig) -> TimelineCursor {
        let base = CursorState::base(&cfg);
        TimelineCursor {
            cfg,
            state: base.clone(),
            base,
            checkpoints: BTreeMap::new(),
            cache: None,
            recorder: Recorder::new(),
            materialized: BTreeSet::new(),
        }
    }

    /// Replaces the cursor's observability handle (an unobserved
    /// private recorder by default).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The network on `day` — bit-identical to the from-scratch replay
    /// for every access order. Amortized `O(churn + n)` per day on a
    /// sequential sweep; at most `CHECKPOINT_INTERVAL` steps from the
    /// nearest checkpoint on random access.
    pub fn snapshot(&mut self, day: u64) -> DaySnapshot {
        if self.materialized.insert(day) {
            self.recorder.incr("timeline.days.materialized");
        }
        if let Some(s) = &self.cache {
            if s.day == day {
                return s.clone();
            }
        }
        self.seek(day);
        let snap = self.state.to_snapshot();
        self.cache = Some(snap.clone());
        snap
    }

    /// Number of retained checkpoints (the compaction contract: one per
    /// [`CHECKPOINT_INTERVAL`] days crossed, plus the day-0 base).
    #[cfg(test)]
    fn checkpoint_count(&self) -> usize {
        self.checkpoints.len() + 1
    }

    fn seek(&mut self, day: u64) {
        if self.state.day > day {
            // Restore the nearest checkpoint at or before the target.
            let mut span = self
                .recorder
                .span("timeline.checkpoint_restore", "timeline");
            span.note("target_day", day);
            self.state = self
                .checkpoints
                .range(..=day)
                .next_back()
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| self.base.clone());
        }
        while self.state.day < day {
            let mut span = self.recorder.span("timeline.delta_apply", "timeline");
            span.note("day", self.state.day + 1);
            self.state.step(&self.cfg);
            let d = self.state.day;
            if d.is_multiple_of(CHECKPOINT_INTERVAL) && !self.checkpoints.contains_key(&d) {
                self.checkpoints.insert(d, self.state.clone());
                // First crossing of this multiple: schedule-invariant —
                // every access order reaching a day past it walks
                // through it from below.
                self.recorder.incr("timeline.checkpoints.taken");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::RelayFlags;

    fn cfg(seed: u64) -> TimelineConfig {
        TimelineConfig {
            n_background: 60,
            ..TimelineConfig::paper_default(seed)
        }
    }

    fn fingerprint(s: &DaySnapshot) -> String {
        let relays: Vec<_> = s
            .consensus
            .relays()
            .iter()
            .map(|r| {
                (
                    r.id.0,
                    r.nickname.clone(),
                    r.flags.0,
                    r.instrumented,
                    r.weight.to_bits(),
                )
            })
            .collect();
        let mut shares = Vec::new();
        s.mix
            .clone()
            .for_each_share_mut(&mut |x| shares.push(x.to_bits()));
        format!(
            "day {} joined {} left {} relays {relays:?} mix {shares:?}",
            s.day, s.joined, s.left
        )
    }

    #[test]
    fn checkpoint_boundaries_match_replay() {
        // Days at, just before, and just after the first two checkpoint
        // multiples — the seams where restore-and-replay kicks in.
        let c = cfg(41);
        let mut cursor = TimelineCursor::new(c.clone());
        for day in [
            CHECKPOINT_INTERVAL - 1,
            CHECKPOINT_INTERVAL,
            CHECKPOINT_INTERVAL + 1,
            2 * CHECKPOINT_INTERVAL - 1,
            2 * CHECKPOINT_INTERVAL,
            2 * CHECKPOINT_INTERVAL + 1,
        ] {
            assert_eq!(
                fingerprint(&cursor.snapshot(day)),
                fingerprint(&replay_snapshot(&c, day)),
                "day {day} diverged from the replay oracle"
            );
        }
        assert_eq!(cursor.checkpoint_count(), 3, "base + two crossed multiples");
    }

    #[test]
    fn out_of_order_access_is_bit_identical() {
        // Purity through memoization: whatever order days are visited
        // in — forward, backward, revisits across checkpoint seams —
        // every day lands on the in-order result.
        let mut in_order = TimelineCursor::new(cfg(43));
        let expected: Vec<String> = (0..=70)
            .map(|d| fingerprint(&in_order.snapshot(d)))
            .collect();
        let mut cursor = TimelineCursor::new(cfg(43));
        for day in [70u64, 3, 33, 64, 0, 65, 32, 31, 70, 1, 69] {
            assert_eq!(
                fingerprint(&cursor.snapshot(day)),
                expected[day as usize],
                "day {day} depended on access order"
            );
        }
    }

    #[test]
    fn join_flags_are_drawn_not_cycled() {
        // The join-flag cycling bugfix: under ~1 join per day, the old
        // `j % 3` scheme restarted at 0 daily, so 1-join days *always*
        // added a Guard+HSDir relay and never an Exit. The flavor now
        // comes from the day RNG at 1/3 each; over 365 low-join days
        // every flavor must appear in roughly a third of the joins —
        // including Exit joins on 1-join days, which the old scheme
        // produced exactly never.
        let low_join = TimelineConfig {
            relay_joins_per_day: 1.0,
            ..cfg(47)
        };
        let mut cursor = TimelineCursor::new(low_join);
        let mut counts = [0u64; 3]; // guard+hsdir, exit, middle-only
        let mut single_join_exits = 0u64;
        for day in 1..=365 {
            // A day's joins are the last `joined` relays of its consensus.
            let snap = cursor.snapshot(day);
            let relays = snap.consensus.relays();
            for join in &relays[relays.len() - snap.joined as usize..] {
                let flavor = if join.flags.contains(RelayFlags::GUARD) {
                    0
                } else if join.flags.contains(RelayFlags::EXIT) {
                    1
                } else {
                    2
                };
                counts[flavor] += 1;
                if snap.joined == 1 && flavor == 1 {
                    single_join_exits += 1;
                }
            }
        }
        let total: u64 = counts.iter().sum();
        assert!(total > 250, "poisson(1) over 365 days: {total}");
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / total as f64;
            assert!(
                (frac - 1.0 / 3.0).abs() < 0.09,
                "flavor {i}: {c}/{total} joins ({frac:.3}) — composition drifted"
            );
        }
        assert!(
            single_join_exits > 20,
            "1-join days must be able to add an Exit (got {single_join_exits})"
        );
    }
}

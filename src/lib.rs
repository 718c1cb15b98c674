//! # tor-measure — reproduction of "Understanding Tor Usage with
//! Privacy-Preserving Measurement" (Mani et al., IMC 2018)
//!
//! This root crate re-exports the workspace members and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`). The design lives in the member crates' docs: start at
//! `torstudy` (the study) and `torsim` (the simulated network).
//!
//! ## Determinism contract
//!
//! Every protocol output in this workspace — transcripts, tallies,
//! campaign reports — must be a pure function of the configured seed.
//! That contract is machine-checked by `pm-lint` (`crates/lint`), a
//! dependency-free static-analysis pass that CI runs via `make lint`
//! (part of `make verify`). Its five rules:
//!
//! 1. **entropy** — ambient randomness and wall-clock reads
//!    (`thread_rng`, `from_entropy`, `SystemTime::now`, `Instant::now`)
//!    are forbidden outside `crates/vendor`. All randomness flows
//!    from seeded `StdRng`s; all time is simulated.
//!    One structural sanction: `crates/obs/src/clock.rs` — the
//!    profiling plane's single clock site (see *Observability*).
//! 2. **unordered-map** — `HashMap`/`HashSet` in the protocol crates
//!    (`psc`, `privcount`, `net`, `study`, `core`) must either be
//!    replaced by their ordered `BTree` counterparts or carry an
//!    allow marker explaining why iteration order cannot leak into
//!    output (e.g. membership-only sets read through `len()`).
//! 3. **seed-label** — every `derive_seed(seed, label)` call site must
//!    use a workspace-unique label (after normalizing format
//!    placeholders), so no two subsystems ever draw from the same
//!    derived stream.
//! 4. **panic** — `unwrap`/`expect`/`panic!`-family calls in protocol
//!    round paths must be converted to the threaded `Result` path or
//!    annotated with a reason why they are infallible: a malformed
//!    message should abort a round, not the process.
//! 5. **obs-readback** — the protocol crates (`psc`, `privcount`,
//!    `net`) may write metrics but never read them (`read_snapshot`,
//!    `read_counter`): a readback would let observability feed back
//!    into transcripts.
//!
//! Intentional exceptions are annotated in place as
//! `// lint:allow(<rule>) <reason>` on the offending line or the line
//! directly above; the reason is mandatory, and malformed markers are
//! themselves findings. Run the pass locally with `make lint` or
//! `cargo run -p pm-lint`.
//!
//! The network timeline's day `d` has one definition —
//! `torsim::timeline`'s `step_day`, the single call site of the
//! `derive_seed(seed, "net/day{d}")` / `"mix/day{d}"` streams — and
//! `snapshot(d)` is served by a lock-guarded memoized cursor taking
//! that step forward from checkpoints (`torsim::timeline::diff`). The
//! memoization is invisible to this contract: snapshots stay pure in
//! `(config, day)` under any access order, held bit-for-bit against the
//! memo-less `snapshot_replay` of the same step by proptest, and the
//! step's output itself is pinned by digests in `make timeline-smoke`.
//!
//! ## Observability
//!
//! `pm-obs` (`crates/obs`) instruments the whole stack through two
//! strictly separated planes, both reached through one cheap-clone
//! `Recorder` handle threaded by value (through `Deployment`, the
//! round configs, the switchboard, and `CampaignConfig` — never a
//! global):
//!
//! * **Deterministic metrics** — monotone counters whose final values
//!   are pure functions of `(config, seed)`: protocol rounds, mixed
//!   cells, per-link frame/byte totals, generated days, round
//!   outcomes. The sorted snapshot lands in `CampaignReport` and all
//!   three renders (text/CSV/JSON), so it is *part of* the
//!   bit-identity contract — `crates/study/tests/campaign_invariance.rs`
//!   pins it across worker and shard counts. Only schedule-invariant
//!   quantities may be counted here; anything wall-clock-shaped
//!   (durations, queue waits, throughput) belongs to the other plane.
//! * **Wall-clock profiling** — span timers (`mix.batch`, `job.run`,
//!   `round.psc`, `timeline.checkpoint_restore`, …) that are inert
//!   unless explicitly enabled (`--trace PATH` on the `experiments`
//!   and `campaign` binaries) and export *only* to chrome://tracing
//!   trace-event JSON, never into a report: `tests/obs_planes.rs`
//!   asserts the rendered report is byte-identical with profiling on
//!   and off, and `make obs-smoke` validates the exported trace with
//!   the workspace's own parser. All wall-clock reads live in
//!   `pm_obs::clock`, the one file the entropy lint sanctions.

pub use pm_crypto as crypto;
pub use pm_dp as dp;
pub use pm_net as net;
pub use pm_obs as obs;
pub use pm_stats as stats;
pub use pm_study as study;
pub use privcount;
pub use psc;
pub use torsim;
pub use torstudy;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use pm_dp::prelude::*;
    pub use pm_stats::prelude::*;
    pub use privcount::prelude::*;
    pub use psc::prelude::*;
    pub use torsim::prelude::*;
    pub use torstudy::prelude::*;
}

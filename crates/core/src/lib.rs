//! # torstudy — the paper's measurement study, reproduced end to end
//!
//! Each module under [`experiments`] reproduces one table or figure of
//! *Understanding Tor Usage with Privacy-Preserving Measurement* (Mani
//! et al., IMC 2018): it configures the simulated deployment with the
//! paper's per-date weight fractions, runs the real PrivCount or PSC
//! protocol over the simulated event streams, applies the paper's
//! statistical inference, and reports measured values next to the
//! simulator's configured ground truth and the paper's published
//! numbers.
//!
//! The [`deployment::Deployment`] carries a global `scale` in (0, 1]:
//! workload totals (and, correspondingly, noise σ — each synthetic user
//! stands for `1/scale` real users) are scaled so the pipeline runs
//! anywhere from laptop-test size to paper size with the same
//! signal-to-noise ratio. Linear statistics (counts, bytes) are
//! rescaled back for the paper comparison; unique counts are compared
//! at scale against the simulator's ground truth, with the paper values
//! shown for shape (EXPERIMENTS.md discusses each case).
//!
//! # Parallel execution model
//!
//! The study parallelizes on two independent axes, both contracted to
//! be **invisible in the results**:
//!
//! * **Across experiments** — [`runner::run_all`] first places the
//!   whole registry on the §3.1 [`Accountant`]'s calendar
//!   ([`runner::plan_schedule`]), a *logical* schedule (simulated
//!   measurement time) legal by construction. It then executes the
//!   planned rounds on a bounded thread pool: rounds that repeat a
//!   statistic are dependency-ordered; all other accepted rounds have
//!   pairwise-disjoint logical intervals, share no data, and run
//!   wall-clock-concurrently. Reports return in registry order, byte
//!   for byte equal to a one-at-a-time run of the same plan (pinned by
//!   `tests/runner_parallel.rs`).
//! * **Within an experiment** — each DC's collection period ingests a
//!   sharded [`torsim::stream::EventStream`]: [`Deployment::shards`]
//!   independent, deterministically seeded sub-generators folded on one
//!   thread each into per-shard accumulators (`privcount::shard`,
//!   `psc::shard`) and combined with an associative merge; noise,
//!   blinding, and oblivious-table marking happen exactly once at
//!   merge. Results are bit-identical for every shard count
//!   ("shard-count invariance", pinned by `tests/shard_invariance.rs`),
//!   so the shard count defaults to the host's parallelism and only
//!   affects wall-clock time.
//!
//! Experiments derive all randomness from the deployment seed — never
//! from execution order, thread identity, or time — which is what makes
//! both axes results-invisible.
//!
//! [`Accountant`]: pm_dp::accountant::Accountant
//! [`Deployment::shards`]: deployment::Deployment::shards

pub mod cli;
pub mod deployment;
pub mod experiments;
pub mod report;
pub mod runner;

pub use deployment::Deployment;
pub use report::{Report, ReportRow};

/// Convenience prelude.
pub mod prelude {
    pub use crate::deployment::Deployment;
    pub use crate::experiments;
    pub use crate::report::{Report, ReportRow};
    pub use crate::runner::run_all;
}

//! # pm-dp — differential privacy machinery for Tor measurement
//!
//! Implements the privacy side of the paper's methodology (§3.2):
//!
//! * [`mechanism`] — the Gaussian mechanism used by PrivCount and the
//!   Binomial(n, 1/2) mechanism used by PSC, each with calibration
//!   routines *and* exact numerical verifiers of the (ε, δ) inequality;
//! * [`bounds`] — Table 1 of the paper: the per-24h action bounds with
//!   their defining activities, and the mapping from measured counters to
//!   the sensitivity those bounds induce;
//! * `activities` (test-only) — the §3.2 derivation of those bounds from
//!   models of web browsing, Ricochet chat, and onionsite operation, the
//!   reference a unit test holds Table 1 against;
//! * [`budget`] — splitting a total (ε, δ) across simultaneously
//!   collected statistics (equal and equal-relative-error allocations);
//! * [`accountant`] — scheduling rules: PrivCount and PSC rounds never
//!   overlap, and sequential measurements of distinct statistics are
//!   separated by at least 24 hours.
//!
//! The paper's global parameters are exported as [`EPSILON`] and
//! [`DELTA`].

pub mod accountant;
#[cfg(test)]
mod activities;
pub mod bounds;
pub mod budget;
pub mod mechanism;

/// The paper's privacy parameter ε = 0.3 (the same value Tor uses for
/// its onion-service statistics).
pub const EPSILON: f64 = 0.3;

/// The paper's privacy parameter δ = 10⁻¹¹, chosen so that δ/n stays
/// small even for n ≈ 10⁶ simultaneously protected users.
pub const DELTA: f64 = 1e-11;

/// The adjacency window: action bounds apply to activity within 24
/// hours (86,400 seconds).
pub const ADJACENCY_WINDOW_SECS: u64 = 86_400;

/// Convenience prelude.
pub mod prelude {
    pub use crate::accountant::{Accountant, MeasurementRound, ScheduleError, System};
    pub use crate::bounds::{paper_action_bounds, Action, ActionBound, Sensitivity};
    pub use crate::budget::{allocate_equal, allocate_equal_relative, StatSpec};
    pub use crate::mechanism::{
        binomial_delta_exact, binomial_flips_for, gaussian_delta, gaussian_sigma, sample_gaussian,
    };
    pub use crate::{ADJACENCY_WINDOW_SECS, DELTA, EPSILON};
}

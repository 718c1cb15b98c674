//! Wall-clock for the benchmark, read through `pm_obs::clock::tick` —
//! the one clock read `pm-lint`'s entropy rule sanctions, so the
//! benchmark passes the workspace lint like any other source tree.

use pm_obs::clock::{tick, Tick};

/// Elapsed time since `start`, microsecond resolution.
pub struct Stopwatch(Tick);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(tick())
    }

    pub fn seconds(&self) -> f64 {
        tick().micros_since(self.0) as f64 / 1e6
    }
}

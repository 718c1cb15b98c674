//! # privcount — the PrivCount distributed measurement system
//!
//! A faithful Rust implementation of PrivCount (Jansen & Johnson,
//! CCS 2016) as enhanced by the paper: a Tally Server (TS), one or more
//! Share Keepers (SKs), and one Data Collector (DC) per instrumented
//! relay jointly publish (ε, δ)-differentially private counters of Tor
//! events.
//!
//! Protocol round (one "collection period"):
//!
//! 1. each SK publishes a hybrid-encryption public key to the TS;
//! 2. the TS configures every DC with the counter schema and SK keys;
//! 3. each DC initializes every counter to `noise + Σ_k share_k`
//!    (mod 2⁶⁴), hybrid-encrypts each SK's shares to that SK, and ships
//!    them via the TS (DCs need no SK connectivity, as in the real
//!    deployment);
//! 4. during collection the DC counts observed Tor events (here: a
//!    `torsim::stream::EventStream` supplied by the experiment, folded
//!    one accumulator per shard and added into the blinded registers
//!    once at merge — see [`shard`]; a bare generator is a one-shard
//!    stream);
//! 5. at round end DCs publish blinded registers, SKs publish share
//!    sums, and the TS's addition telescopes the blinding away, leaving
//!    `true count + noise`.
//!
//! No strict subset of {DCs} ∪ {SKs} \ {one honest SK} learns anything:
//! each missing share is a one-time pad (see `pm_crypto::secret`).
//!
//! [`queries`] defines the paper's concrete counter schemas (exit
//! streams, domain histograms, per-country client counters, HSDir and
//! rendezvous statistics). [`adversary`] injects seed-deterministic
//! Byzantine behaviour (malformed or inflated registers, dying share
//! keepers, corrupted share payloads, exhausted noise budgets) so the
//! study harness can assert every failure mode is detected instead of
//! panicking a campaign.

pub mod adversary;
pub mod counter;
pub mod dc;
pub mod messages;
pub mod queries;
pub mod round;
pub mod shard;
pub mod sk;
pub mod ts;

pub use counter::{CounterSpec, EventMapper, Schema};
/// The pre-PR-17 name of [`run_round`], kept only because the frozen
/// `perfbench/` calls it; the next `benchmark` PR deletes it.
#[doc(hidden)]
pub use round::run_round as run_round_streams;
pub use round::{run_round, run_round_days, RoundConfig, RoundResult};

/// Convenience prelude.
pub mod prelude {
    pub use crate::counter::{CounterSpec, EventMapper, Schema};
    pub use crate::queries;
    pub use crate::round::{run_round, RoundConfig, RoundResult};
}

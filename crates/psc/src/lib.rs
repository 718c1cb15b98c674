//! # psc — Private Set-union Cardinality
//!
//! A faithful Rust implementation of PSC (Fenske, Mani, Johnson, Sherr,
//! CCS 2017) with the paper's enhancements: a Tally Server coordinating
//! the Data Collectors and Computation Parties, and collection of
//! PrivCount-style Tor events.
//!
//! PSC counts the number of **distinct** items observed across all DCs
//! — unique client IPs, unique SLDs, unique onion addresses — without
//! any party ever holding the item set in the clear:
//!
//! 1. the CPs jointly generate an ElGamal key (shares with Schnorr
//!    proofs of knowledge); no strict subset can decrypt;
//! 2. each DC keeps a table of `b` ElGamal cells; an observed item
//!    occupies cell `H(salt‖item) mod b`, and marking a cell multiplies
//!    it with a fresh encryption of a random group element — an
//!    *oblivious counter*: marking cannot be read back or undone by the
//!    DC. A DC ingests its collection period as a
//!    `torsim::stream::EventStream` (a bare generator is a one-shard
//!    stream): items are bucketed into cell indices without any
//!    crypto, and each occupied cell is marked once, in ascending
//!    order, when the period ends ([`shard`]);
//! 3. the TS combines DC tables cellwise (the union becomes "cell is
//!    non-identity iff any DC marked it");
//! 4. each CP in turn appends `n` noise cells (each marked with
//!    probability 1/2 — Binomial noise for differential privacy),
//!    exponentiates every cell by a fresh secret (zero-preserving
//!    randomization), and applies a rerandomizing shuffle with a
//!    cut-and-choose ZK argument;
//! 5. the CPs jointly decrypt (Chaum–Pedersen-proved partial
//!    decryptions) and the TS counts non-identity plaintexts.
//!
//! The published count equals `occupied(unique items) + Binomial(n·cps,
//! 1/2)`; `pm_stats::psc_ci` inverts hash collisions and noise into the
//! cardinality estimate with an exact confidence interval (§3.3).
//!
//! ## Concurrency model
//!
//! The protocol transcript is canonical: every byte of every message is
//! a pure function of the parties' seeds and inputs, whatever the
//! execution shape. Three layers exploit that without perturbing it:
//!
//! * **DC ingestion** accumulates each stream shard's occupied cells
//!   crypto-free on its own thread and marks once at merge
//!   ([`shard`]) — the only ingestion path, whatever fed the DC;
//! * **CP mixing and decryption** split each hop into a sequential
//!   randomness-derivation pass and a data-parallel per-cell batch
//!   phase ([`cp::MixStrategy::Batched`]) — bit-identical to the
//!   sequential reference at every thread count;
//! * **message delivery** rides a `pm-net` fabric: one inbox per
//!   party, with fault schedules, accounting and transcript digests
//!   kept per ordered link, so a link's schedule never depends on the
//!   traffic of any other link.
//!
//! ## Threat model and failure behaviour
//!
//! PSC's parties are mutually distrusting; the implementation treats a
//! misbehaving party as an *expected input*, not a bug. The
//! [`adversary`] module injects seed-deterministic Byzantine behaviour
//! — malformed tables, statistically-skewed marks, a CP dying
//! mid-round, an invalid mixing proof, an exhausted noise budget — and
//! every run surfaces failures as attributed `NodeError`s rather than
//! panics: the TS's structural and proof checks name the offending
//! party, a stalled round is caught by the deterministic runner's
//! deadlock detector, and a party that cannot honour its DP noise
//! obligation refuses to configure. Statistically-skewed shares are
//! undetectable *by design* (the oblivious counter hides what a DC
//! marked); callers are expected to plausibility-check published
//! counts against their provisioning, as the campaign layer in
//! `pm-study` does. An attack reaches the one party it names through
//! that party's constructor, and the node acts on it where the honest
//! code would act (see [`adversary`]). The deadlock detector lives in
//! the deterministic scheduler, which every round over the in-process
//! board runs on; the wire fabric runs one thread per party, so the
//! runner both protocols share ([`pm_net::party::run`]) refuses a
//! round with an active adversary there.

pub mod adversary;
pub mod cp;
pub mod dc;
pub mod items;
pub mod messages;
pub mod round;
pub mod shard;
pub mod table;
pub mod ts;

pub use cp::MixStrategy;
pub use round::{run_psc_round, PscConfig, PscResult};
pub use table::ObliviousTable;

/// Convenience prelude.
pub mod prelude {
    pub use crate::cp::MixStrategy;
    pub use crate::items::{self, ItemExtractor};
    pub use crate::round::{run_psc_round, PscConfig, PscResult};
    pub use crate::table::ObliviousTable;
}

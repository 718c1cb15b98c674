//! # pm-crypto — cryptographic substrate for privacy-preserving measurement
//!
//! From-scratch implementations of every primitive the PrivCount and PSC
//! protocols need:
//!
//! * fixed-width big integers ([`u256::U256`]) and Montgomery modular
//!   arithmetic ([`modarith::Modulus`]);
//! * a Schnorr group over a safe prime ([`group`]);
//! * FIPS 180-4 SHA-256 ([`sha256`]) on the x86 SHA extensions (the
//!   private `sha_ni` module, one of the workspace's two `unsafe`
//!   blocks, taken after runtime feature detection), with scalar code as
//!   the fallback; HMAC and key derivation ([`hmac`]);
//! * ElGamal encryption with rerandomization and distributed decryption
//!   ([`elgamal`]);
//! * zero-knowledge proofs: Schnorr proofs of knowledge and
//!   Chaum–Pedersen equality proofs ([`zkp`]);
//! * a rerandomizing verifiable shuffle ([`shuffle`]);
//! * additive secret sharing over `Z_{2^64}` ([`secret`]);
//! * batched operation support: fixed-base exponentiation tables and
//!   chunked parallel maps ([`batch`]), used by PSC's batched mixing;
//! * sixteen-lane batches on an eight-lane AVX-512 IFMA Montgomery
//!   kernel, two chains interleaved (the private `lanes` module, the
//!   other `unsafe` block, taken after runtime feature detection):
//!   same-exponent powers ([`GroupParams::pow_all`]), fixed-base table
//!   powers ([`batch::PrecomputedKey::rerandomize_all`],
//!   [`batch::PrecomputedKey::g_pow_mul_all`]), the prover's
//!   per-lane-exponent commitments
//!   ([`zkp::DleqProof::raise_and_prove_all`]), and the verifier's
//!   membership tests and bucket products
//!   ([`zkp::DleqProof::verify_batch`]); [`modarith::Modulus::pow`],
//!   the scalar table powers, the per-proof comb, Jacobi symbols and
//!   scalar bucket folds are the fallback, with the same results.
//!
//! ## Security disclaimer
//!
//! The shipped parameter set is 256-bit — large enough to exercise every
//! code path and to make brute force impractical in tests, but **not** a
//! production-strength discrete-log group. Every proof's soundness is
//! bounded by discrete logs in that 256-bit group too, whatever the
//! proof's own soundness error (2^-64 per batched Chaum–Pedersen check,
//! 2^-t per shuffle argument): the key shares and exponents the Schnorr
//! and Chaum–Pedersen proofs speak about are recoverable by anyone who
//! can take discrete logs at that size, and their challenges and batch
//! weights live in its 255-bit `Z_q`. The measurement semantics reproduced from
//! the paper are independent of the parameter size; deployments would
//! swap in ≥2048-bit parameters generated with
//! [`group::GroupParams::generate`].

#![deny(unsafe_code)]

pub mod batch;
pub mod elgamal;
pub mod group;
pub mod hmac;
mod lanes;
pub mod modarith;
pub mod secret;
pub mod sha256;
mod sha_ni;
pub mod shuffle;
pub mod u256;
pub mod zkp;

pub use group::{GroupElement, GroupParams, Scalar};
pub use u256::U256;

//! # mmm-ecc — elliptic-curve point multiplication over GF(p) on MMM
//!
//! The paper's stated future work (§5): "implement also an ECC basic
//! operation, i.e., point multiplication. This operation does not
//! require modular exponentiation but modular multiplication only, so
//! all required components are available." This crate builds exactly
//! that, on top of the same [`MontMul`] engines as RSA:
//!
//! * [`field`] — GF(p) arithmetic in the Montgomery domain
//!   (multiplication via an engine, addition/subtraction as bounded
//!   `< 2N` carry-save-style residues, matching the operand contract of
//!   Algorithm 2);
//! * [`curve`] — short-Weierstrass curves `y² = x³ + ax + b`, Jacobian
//!   projective points, complete double/add, and double-and-add scalar
//!   multiplication.
//!
//! On top of the solo reference sits the **batched tenant** — ECC as a
//! second workload on the same engine stack RSA serves from
//! (`DESIGN.md` §13):
//!
//! * [`batch_field`] — 64-lane GF(p) arithmetic on any
//!   [`BatchMontMul`] engine, with Montgomery simultaneous inversion;
//! * [`batch_curve`] — lane-sliced Jacobian point arithmetic and
//!   fixed-window batched scalar multiplication — one scalar, or two
//!   sharing one scan for ECDSA verify — driven by the shared
//!   windowed-scan core (`mmm_core::scan`) that also schedules the RSA
//!   exponentiator;
//! * [`curves`] — named curve parameter sets (NIST P-256);
//! * [`serve`] — the serving surface: batched ECDSA verification and
//!   ECDH shared-secret derivation through the typed
//!   [`MmmError`](mmm_core::error::MmmError) /
//!   [`EngineConfig`](mmm_core::config::EngineConfig) API, and the
//!   two operations ([`EcdsaVerify`], [`Ecdh`]) that the serving plane
//!   of `mmm_core::serve` — the same `Collector` and multi-worker
//!   `Server` RSA uses — batches for this tenant.
//!
//! Every batched lane is bit-identical to what the solo [`curve`]
//! path produces on the same inputs — the engines share one
//! Algorithm-2 contract, and the batch layer does its single-lane work
//! (exceptional lanes: identity, equal points, inverse points; the
//! inversion sweeps) through the solo reference itself, a [`Curve`]
//! over the [`FieldCtx`] each batch context owns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_curve;
pub mod batch_field;
pub mod curve;
pub mod curves;
pub mod field;
pub mod serve;

pub use batch_curve::{BatchCurve, PointLanes};
pub use batch_field::BatchFieldCtx;
pub use curve::{Curve, Point};
pub use curves::CurveSpec;
pub use field::FieldCtx;
pub use serve::{CurveSession, Ecdh, EcdhRequest, EcdsaRequest, EcdsaVerify};

pub use mmm_core::traits::{BatchMontMul, MontMul};

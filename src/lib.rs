//! # montgomery-systolic
//!
//! Facade crate for the full-system Rust reproduction of
//! Örs, Batina, Preneel, Vandewalle, *"Hardware Implementation of a
//! Montgomery Modular Multiplier in a Systolic Array"* (IPDPS 2003
//! workshops).
//!
//! The workspace implements, from scratch:
//!
//! * [`bigint`] — arbitrary-precision unsigned integers (the oracle
//!   layer),
//! * [`hdl`] — a gate-level netlist representation and cycle-accurate
//!   simulator (the "FPGA" substrate),
//! * [`fpga`] — a Xilinx Virtex-E technology model (LUT covering,
//!   slice packing, timing),
//! * [`systolic`] — the paper's hardware, level by level: the systolic
//!   array cells (Fig. 1), the linear array (Fig. 2), the Montgomery
//!   Modular Multiplication Circuit with its ASM controller
//!   (Figs. 3–4), and the wave models that simulate them fast,
//! * [`core`] — the production multiplier: the paper's Algorithm 2,
//!   the modular exponentiator (Alg. 3), the 64-lane bit-sliced batch
//!   engine (`core::batch`) with its batched exponentiator, and the
//!   radix-2⁶⁴ and radix-2⁵² backends; it depends on neither
//!   [`systolic`] nor [`hdl`],
//! * [`baselines`] — the comparison designs (Blum–Paar-style
//!   `R = 2^{l+3}` multiplier, naive interleaved modular
//!   multiplication, high-radix iteration models),
//! * [`rsa`] and [`ecc`] — the two public-key applications the paper
//!   targets, including batched many-client sign/verify and the typed
//!   serving API (fallible `rsa::KeyedSession` and
//!   `ecc::CurveSession`, configured through
//!   `core::config::EngineConfig`), both served through one serving
//!   plane (`core::serve`: the `Collector` request aggregator and the
//!   multi-worker `Server`).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results. Start with `examples/quickstart.rs`.
//!
//! ```
//! use montgomery_systolic::core::montgomery::MontgomeryParams;
//! use montgomery_systolic::core::traits::SoftwareEngine;
//! use montgomery_systolic::core::{ModExp, MontMul};
//! use montgomery_systolic::Ubig;
//!
//! // 97^(2^16+1) mod 40487 via the paper's Algorithm 3.
//! let n = Ubig::from(40487u64);
//! let params = MontgomeryParams::hardware_safe(&n);
//! let mut me = ModExp::new(SoftwareEngine::new(params));
//! let c = me.modexp(&Ubig::from(97u64), &Ubig::from(65537u64));
//! assert_eq!(c, Ubig::from(97u64).modpow(&Ubig::from(65537u64), &n));
//! ```

#![forbid(unsafe_code)]

pub use mmm_baselines as baselines;
pub use mmm_bigint as bigint;
pub use mmm_core as core;
pub use mmm_ecc as ecc;
pub use mmm_fpga as fpga;
pub use mmm_hdl as hdl;
pub use mmm_rsa as rsa;
pub use mmm_systolic as systolic;

pub use mmm_bigint::Ubig;

/// Compiles and runs every Rust block of `README.md` as a doctest, so
/// `cargo test` fails whenever the README drifts from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

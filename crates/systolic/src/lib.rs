//! # mmm-systolic — the paper's multiplier, level by level
//!
//! This crate reproduces the hardware levels of the design hierarchy
//! Örs et al. describe (§4.1), bottom-up:
//!
//! 1. **Systolic array cell** ([`cells`]) — the four cell types of
//!    Fig. 1 (regular, rightmost, 1st-bit, leftmost), each provided
//!    both as a behavioral truth function and as a structural netlist
//!    builder, with exhaustive equivalence tests between the two.
//! 2. **Systolic array** ([`mod@array`]) — the linear pipelined array of
//!    Fig. 2, plus [`wave`], a fast behavioral model of the same
//!    cycle-by-cycle wave schedule used for large bit lengths, and
//!    [`wave_packed`], the same model 64 cells per machine word.
//! 3. **Montgomery Modular Multiplication Circuit** ([`mmmc`]) — the
//!    complete circuit of Fig. 3 driven by the ASM controller of
//!    Fig. 4 ([`controller`]).
//!
//! Every engine here implements [`mmm_core::traits::MontMul`], so the
//! exponentiator of `mmm-core` ([`mmm_core::ModExp`], Algorithm 3)
//! runs over the gate-level circuit and the wave models alike. The
//! production crates (`mmm-core`, `mmm-rsa`, `mmm-ecc`) do not depend
//! on this crate or on the `mmm-hdl` netlist library beneath it; their
//! tests use these models as oracles through dev-dependencies.
//!
//! ## The drain-phase resolution
//!
//! The paper leaves the end of a multiplication under-specified: after
//! the last real iteration the array would keep launching junk waves
//! (`m_i` is *derived* from T feedback, never forced) that overwrite
//! the low bits of the result before the high bits arrive. This
//! implementation resolves that with a **valid-bit pipeline**: a 1-bit
//! wave-valid flag travels with `x_i`/`m_i` and gates each T-register
//! bit's write enable, so exactly the `l+2` real waves write T and the
//! total latency stays the paper's `3l+4` cycles. See `DESIGN.md` §1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cells;
pub mod controller;
pub mod mmmc;
pub mod wave;
pub mod wave_packed;

pub use mmmc::Mmmc;
pub use wave::WaveMmmc;
pub use wave_packed::PackedMmmc;

// Tests of `mmm-core` modules that take the packed or wave model as
// their oracle. They live here because `mmm-core` cannot dev-depend on
// a crate that depends on it: that would build two copies of its types.
#[cfg(test)]
mod batch;
#[cfg(test)]
mod expo;
#[cfg(test)]
mod expo_batch;

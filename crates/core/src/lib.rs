//! # mmm-core — the systolic Montgomery multiplier of Örs et al.
//!
//! This crate implements the paper's contribution at every level of the
//! design hierarchy it describes (§4.1):
//!
//! 1. **Systolic array cell** ([`cells`]) — the four cell types of
//!    Fig. 1 (regular, rightmost, 1st-bit, leftmost), each provided
//!    both as a behavioral truth function and as a structural netlist
//!    builder, with exhaustive equivalence tests between the two.
//! 2. **Systolic array** ([`mod@array`]) — the linear pipelined array of
//!    Fig. 2, plus [`wave`], a fast behavioral model of the same
//!    cycle-by-cycle wave schedule used for large bit lengths.
//! 3. **Montgomery Modular Multiplication Circuit** ([`mmmc`]) — the
//!    complete circuit of Fig. 3 driven by the ASM controller of
//!    Fig. 4 ([`controller`]).
//! 4. **Modular exponentiator** ([`expo`]) — Algorithm 3
//!    (square-and-multiply) over any engine implementing
//!    [`traits::MontMul`].
//! 5. **Bit-sliced batch engine** ([`batch`]) — 64 *independent*
//!    multiplications per simulated cycle in transposed (lane-sliced)
//!    state, with [`expo_batch`] running Algorithm 3 over all lanes at
//!    once and one shard dispatcher ([`pool::try_sharded`]) for wider
//!    workloads. See `DESIGN.md` §5.
//! 6. **Radix-2⁶⁴ CIOS backend** ([`cios`]) — the same Algorithm-2
//!    contract executed word-serially (~(l/64)² u64 MACs per
//!    multiplication instead of ~l² bit-cell updates), dispatched
//!    through the backend layer ([`engine`]) with the bit-sliced array
//!    retained as the fidelity oracle; its per-lane scalar scan serves
//!    every batch of at most 32 lanes on both CIOS backends. See
//!    `DESIGN.md` §7.
//! 7. **Typed serving surface** ([`error`], [`config`]) — one
//!    fallible entry point per batch operation
//!    ([`BatchModExp::try_modexp`], [`expo_batch::try_modexp_many`],
//!    [`batch::try_mont_mul_many`]) returning [`MmmError`] instead of
//!    panicking, and the [`EngineConfig`] builder that absorbs the
//!    `MMM_*` environment variables into one validated value. See
//!    `DESIGN.md` §8.
//! 8. **Radix-2⁵² carry-save SIMD backend** ([`cios52`]) — the same
//!    Algorithm-2 contract over 52-bit digits with deferred carries,
//!    with explicit AVX2 / AVX-512-IFMA kernels selected at runtime
//!    and a portable auto-vectorizing fallback; the default backend
//!    wherever an AVX2 or IFMA kernel exists. See `DESIGN.md` §9.
//! 9. **Arithmetic integrity layer** ([`verify`]) — policy-gated
//!    mod-`m` residue self-checks on batch multiplications, a
//!    backend-quarantine ledger with graceful degradation down the
//!    [`EngineKind::weaker`](engine::EngineKind::weaker) chain, and
//!    the one fault-injection plan ([`verify::faults`]) that proves
//!    detection/retry/quarantine and the serving plane's failure
//!    handling actually fire. The CRT verify-before-release
//!    countermeasure built on it lives in `mmm-rsa`. See `DESIGN.md`
//!    §11.
//! 10. **Serving plane** ([`serve`]) — the workload-neutral batching
//!     front-end every tenant plugs into through the
//!     [`serve::ShardOp`] trait: one [`serve::Collector`] and one
//!     multi-worker [`serve::Server`] with bounded-queue backpressure,
//!     fill, idle and deadline flushing, panic isolation and shutdown
//!     drain.
//!     `mmm-rsa` and `mmm-ecc` implement its traits. See `DESIGN.md`
//!     §10.
//!
//! [`montgomery`] holds the word-independent reference algorithms
//! (Algorithm 1 with final subtraction and Algorithm 2 without), and
//! [`cost`] the paper's closed-form cycle/time model (`3l+4` cycles per
//! multiplication, Eq. 10 exponentiation bounds, the Table-1 average).
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

// `deny`, not `forbid`: the radix-2⁵² backend's explicit SIMD kernels
// ([`cios52`]) carry narrowly scoped `#[allow(unsafe_code)]` for their
// `#[target_feature]` intrinsics — everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod batch;
pub mod cells;
pub mod cios;
pub mod cios52;
pub mod config;
pub mod controller;
pub mod cost;
pub mod engine;
pub mod error;
pub mod expo;
pub mod expo_batch;
pub mod expo_window;
pub mod mmmc;
pub mod modgen;
pub mod montgomery;
pub mod pool;
pub mod rows;
pub mod scan;
pub mod serve;
pub mod traits;
pub mod verify;
pub mod wave;
pub mod wave_packed;

pub use batch::BitSlicedBatch;
pub use cios::{CiosBatch, CiosMont};
pub use cios52::{Cios52Batch, Cios52Kernel};
pub use config::{EngineConfig, HardeningMode, WindowPolicy};
pub use engine::{AnyBatchEngine, EngineKind};
pub use error::{MmmError, OperandBound};
pub use expo::ModExp;
pub use expo_batch::BatchModExp;
pub use mmmc::Mmmc;
pub use montgomery::MontgomeryParams;
pub use pool::EnginePool;
pub use scan::{ScalarSet, ScanStats, WindowScanClient};
pub use traits::{BatchMontMul, MontMul};
pub use verify::{
    Quarantine, QuarantineStats, ResidueCheck, VerifiedEngine, VerifyContext, VerifyPolicy,
};
pub use wave::WaveMmmc;
pub use wave_packed::PackedMmmc;

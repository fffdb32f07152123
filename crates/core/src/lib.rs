//! # mmm-core — the Montgomery multiplier of Örs et al., in production
//!
//! This crate holds the paper's arithmetic and everything the served
//! paths run on. The hardware levels of the design hierarchy (§4.1) —
//! the cells of Fig. 1, the systolic array of Fig. 2, the MMMC with its
//! ASM controller of Figs. 3–4, and the wave models that simulate them —
//! live in the `mmm-systolic` crate, which depends on this one; nothing
//! here depends on them or on the `mmm-hdl` netlist library. The levels
//! kept here:
//!
//! 1. **Modular exponentiator** ([`expo`]) — Algorithm 3
//!    (square-and-multiply) over any engine implementing
//!    [`traits::MontMul`], the `mmm-systolic` circuit and wave models
//!    included.
//! 2. **Bit-sliced batch engine** ([`batch`]) — 64 *independent*
//!    multiplications per simulated cycle of the systolic array, in
//!    transposed (lane-sliced) state, with [`expo_batch`] running
//!    Algorithm 3 over all lanes at once and one shard dispatcher
//!    ([`pool::try_sharded`]) for wider workloads. See `DESIGN.md` §5.
//! 3. **Radix-2⁶⁴ CIOS backend** ([`cios`]) — the same Algorithm-2
//!    contract executed word-serially (~(l/64)² u64 MACs per
//!    multiplication instead of ~l² bit-cell updates), dispatched
//!    through the backend layer ([`engine`]) with the bit-sliced array
//!    retained as the fidelity oracle; its per-lane scalar scan serves
//!    every batch of at most 32 lanes on both CIOS backends. See
//!    `DESIGN.md` §7.
//! 4. **Typed serving surface** ([`error`], [`config`]) — one
//!    fallible entry point per batch operation
//!    ([`BatchModExp::try_modexp`], [`expo_batch::try_modexp_many`],
//!    [`batch::try_mont_mul_many`]) returning [`MmmError`] instead of
//!    panicking, and the [`EngineConfig`] builder that absorbs the
//!    `MMM_*` environment variables into one validated value. See
//!    `DESIGN.md` §8.
//! 5. **Radix-2⁵² carry-save SIMD backend** ([`cios52`]) — the same
//!    Algorithm-2 contract over 52-bit digits with deferred carries,
//!    with explicit AVX2 / AVX-512-IFMA kernels selected at runtime
//!    and a portable auto-vectorizing fallback; the default backend
//!    wherever an AVX2 or IFMA kernel exists. See `DESIGN.md` §9.
//! 6. **Arithmetic integrity layer** ([`verify`]) — policy-gated
//!    mod-`m` residue self-checks on batch multiplications, a
//!    backend-quarantine ledger with graceful degradation down the
//!    [`EngineKind::weaker`](engine::EngineKind::weaker) chain, and
//!    the one fault-injection plan ([`verify::faults`]) that proves
//!    detection/retry/quarantine and the serving plane's failure
//!    handling actually fire. The CRT verify-before-release
//!    countermeasure built on it lives in `mmm-rsa`. See `DESIGN.md`
//!    §11.
//! 7. **Serving plane** ([`serve`]) — the workload-neutral batching
//!    front-end every tenant plugs into through the
//!    [`serve::ShardOp`] trait: one [`serve::Collector`] and one
//!    multi-worker [`serve::Server`] with bounded-queue backpressure,
//!    fill, idle and deadline flushing, panic isolation and shutdown
//!    drain.
//!    `mmm-rsa` and `mmm-ecc` implement its traits. See `DESIGN.md`
//!    §10.
//!
//! [`montgomery`] holds the word-independent reference algorithms
//! (Algorithm 1 with final subtraction and Algorithm 2 without), and
//! [`cost`] the paper's closed-form cycle/time model (`3l+4` cycles per
//! multiplication, Eq. 10 exponentiation bounds, the Table-1 average).

// `deny`, not `forbid`: the radix-2⁵² backend's explicit SIMD kernels
// ([`cios52`]) carry narrowly scoped `#[allow(unsafe_code)]` for their
// `#[target_feature]` intrinsics — everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cios;
pub mod cios52;
pub mod config;
pub mod cost;
pub mod engine;
pub mod error;
pub mod expo;
pub mod expo_batch;
pub mod expo_window;
pub mod modgen;
pub mod montgomery;
pub mod pool;
pub mod rows;
pub mod scan;
pub mod serve;
pub mod traits;
pub mod verify;

pub use batch::BitSlicedBatch;
pub use cios::{CiosBatch, CiosMont};
pub use cios52::{Cios52Batch, Cios52Kernel};
pub use config::{EngineConfig, HardeningMode, WindowPolicy};
pub use engine::{AnyBatchEngine, EngineKind};
pub use error::{MmmError, OperandBound};
pub use expo::ModExp;
pub use expo_batch::BatchModExp;
pub use montgomery::MontgomeryParams;
pub use pool::EnginePool;
pub use scan::{ScalarSet, ScanStats, WindowScanClient};
pub use traits::{BatchMontMul, MontMul};
pub use verify::{
    Quarantine, QuarantineStats, ResidueCheck, VerifiedEngine, VerifyContext, VerifyPolicy,
};

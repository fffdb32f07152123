//! # mmm-rsa — RSA on the systolic Montgomery exponentiator
//!
//! The paper's §4.5 application: RSA encryption/decryption as repeated
//! Montgomery multiplication (Algorithm 3). This crate provides key
//! generation (Miller–Rabin primes, `E = 65537`,
//! `D = E⁻¹ mod lcm(p−1, q−1)` — the paper's private-exponent
//! convention), and encryption/decryption over **any** [`MontMul`]
//! engine, so the same keys run on the software reference, the
//! behavioral wave model, or the gate-level MMMC simulation.
//!
//! Server-shaped callers should start from the typed serving API in
//! [`server`]: a fallible per-key [`KeyedSession`] handle whose
//! operations ([`BatchOp`]) plug into the workload-neutral serving
//! plane of `mmm_core::serve` — its `Collector` request aggregator,
//! and its fault-tolerant multi-worker front-end, instantiated for
//! RSA in [`serve`] ([`Server`], [`ServerBuilder`], [`Ticket`]) with
//! fill, idle and deadline flushing, bounded-queue backpressure, panic
//! isolation and one fault-injection plan, all configured through one
//! [`EngineConfig`] value. Every batched operation — sign, verify,
//! full-width and CRT decryption — goes through a session; there are
//! no free-function batch entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod blinding;
pub mod cipher;
pub mod keys;
pub mod serve;
pub mod server;
pub mod signing;

pub use cipher::{decrypt, decrypt_crt, encrypt};
pub use keys::RsaKeyPair;
pub use serve::{KeyId, ServeStats, Server, ServerBuilder, Ticket};
pub use server::{BatchOp, KeyedSession};
pub use signing::{decrypt_blinded, sign, verify};

pub use blinding::{BlindingState, BlindingTicket, EntropySource, OsEntropy};

pub use mmm_core::traits::{BatchMontMul, MontMul};
pub use mmm_core::{EngineConfig, EngineKind, HardeningMode, MmmError, WindowPolicy};

//! Batched modular exponentiation: Algorithm 3 and its fixed-window
//! (k-ary) evolution over all lanes of a [`BatchMontMul`] engine at
//! once, with **per-lane exponents**.
//!
//! Lanes run in lockstep, so per-lane data may never change *which*
//! batched operations run — only *what* each lane feeds them:
//!
//! * [`BatchModExp::modexp_batch`] is the *square-and-multiply-always*
//!   scan: every bit position costs one batched squaring and one
//!   batched multiplication, where lanes whose exponent bit is clear
//!   multiply by the Montgomery one (`R mod N`) instead of `M̄` — a
//!   no-op modulo `N` that keeps the wave schedule identical across
//!   lanes.
//! * [`BatchModExp::modexp_batch_windowed`] is the fixed-window scan:
//!   per lane it precomputes the batched power table
//!   `M̄⁰, M̄¹, …, M̄^{2^w−1}` (all digit values, lockstep across
//!   lanes), then pays `w` batched squarings plus **one** batched
//!   multiplication per `w`-bit window — lanes whose window digit is 0
//!   multiply by `M̄⁰ = 1̄` so the schedule stays uniform. At RSA
//!   sizes this cuts batched work by ~35–40% (see
//!   [`crate::expo_window::expected_fixed_window_muls`], the shared
//!   cost model; [`crate::expo_window::best_fixed_window`] picks `w`).
//!
//! In both scans, lanes with short exponents simply coast: positions
//! above a lane's length select the Montgomery one automatically, and
//! steps where *no* lane has a set bit (or nonzero digit) are skipped
//! entirely. Note the side-channel consequence: the schedule depends
//! on the OR of all lanes' exponent bits, so a *full* mixed-traffic
//! batch leaks little, but a single-lane batch degrades to a scan
//! whose operation count follows that lane's exponent (visible in
//! [`BatchExpoStats::skipped_multiplications`] and
//! `consumed_cycles`) — and the windowed variant additionally indexes
//! its table with secret digits (a data-dependent memory access
//! pattern).
//!
//! Both leaks are closed when the bound engine reports
//! [`HardeningMode::Hardened`] (DESIGN.md §12): the skip-when-all-zero
//! optimization is disabled (every step multiplies, digit-0 lanes by
//! `1̄`), and every secret-indexed table read is replaced by a
//! branchless **full-table sweep** — all `2^w` rows are loaded every
//! time and masked-accumulated ([`mmm_bigint::ct::or_assign_masked`])
//! so the memory trace is digit-independent. Results stay bit-identical
//! to the unhardened scan; the cost is the disabled skips plus the
//! sweep (measured in `BENCH_radix.json`). Protocol-level blinding
//! (`mmm-rsa`'s session decryption) layers on top for defense in
//! depth.
//!
//! [`modexp_many`] extends the batch to arbitrarily many lanes by
//! sharding into 64-lane groups fanned out with rayon, each shard on a
//! warm engine from the per-key [`crate::pool`] — the many-client
//! serving path used by `mmm-rsa`'s batched sign/verify/decrypt.

use crate::batch::MAX_LANES;
use crate::config::{EngineConfig, HardeningMode, WindowPolicy};
use crate::engine::EngineKind;
use crate::error::{validate_reduced, MmmError};
use crate::expo_window::best_fixed_window;
use crate::montgomery::MontgomeryParams;
use crate::pool;
use crate::scan::{run_windowed_scan, ScalarSet, WindowScanClient};
use crate::traits::BatchMontMul;
use crate::verify::{VerifiedEngine, VerifyContext};
use mmm_bigint::ct::{or_assign_masked, Choice};
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;
use rayon::prelude::*;

/// Constant-time selection of `table[d][k]` into `buf`: zeroes the
/// buffer, then visits **every** row of the batched power table,
/// OR-accumulating `row[k] & mask` where the mask is all-ones only for
/// the row whose (public) index equals the secret digit `d`. The loads
/// performed — every row, every call — are independent of `d`, so the
/// access pattern carries no digit information; `d` flows only through
/// the branchless [`Choice::ct_eq_usize`] masks.
fn ct_sweep_lane(table: &[Vec<Ubig>], k: usize, d: usize, buf: &mut [Limb]) {
    buf.fill(0);
    for (row_idx, row) in table.iter().enumerate() {
        or_assign_masked(buf, row[k].limbs(), Choice::ct_eq_usize(row_idx, d));
    }
}

/// The modexp workload plugged into the lifted scan core
/// ([`crate::scan::run_windowed_scan`]): the accumulator is a batch of
/// Montgomery residues, doubling is a batched squaring, combining is a
/// multiply-always batched multiplication against the power table.
/// Digit selection stays in here — direct table indexing when plain, a
/// branchless full-table sweep ([`ct_sweep_lane`]) when hardened — so
/// the schedule-neutral driver never sees how secrets read memory.
struct ModexpScanClient<'e, E: BatchMontMul> {
    engine: &'e mut E,
    /// Batched power table: `table[d][k] = M̄_k^d` (empty for all-zero
    /// exponent sets, where no entry would ever be read).
    table: Vec<Vec<Ubig>>,
    one_bar: Ubig,
    lanes: usize,
    hardened: bool,
    /// The accumulator lanes; squarings ping-pong with `scratch`
    /// through `mont_mul_batch_into` so the warm scan allocates
    /// nothing.
    a: Vec<Ubig>,
    scratch: Vec<Ubig>,
    multiplier: Vec<Ubig>,
    sel_buf: Vec<Limb>,
}

impl<E: BatchMontMul> WindowScanClient for ModexpScanClient<'_, E> {
    fn init(&mut self, digits: &[usize]) {
        self.a = if self.table.is_empty() {
            vec![self.one_bar.clone(); self.lanes]
        } else if self.hardened {
            digits
                .iter()
                .enumerate()
                .map(|(k, &d)| {
                    ct_sweep_lane(&self.table, k, d, &mut self.sel_buf);
                    Ubig::from_limbs(self.sel_buf.clone())
                })
                .collect()
        } else {
            digits
                .iter()
                .enumerate()
                .map(|(k, &d)| self.table[d][k].clone())
                .collect()
        };
    }

    fn double(&mut self) {
        self.engine
            .mont_mul_batch_into(&self.a, &self.a, &mut self.scratch);
        std::mem::swap(&mut self.a, &mut self.scratch);
    }

    fn combine(&mut self, _set: usize, digits: &[usize]) {
        for (k, slot) in self.multiplier.iter_mut().enumerate() {
            let d = digits[k];
            if self.hardened {
                ct_sweep_lane(&self.table, k, d, &mut self.sel_buf);
                *slot = Ubig::from_limbs(self.sel_buf.clone());
            } else {
                slot.clone_from(&self.table[d][k]);
            }
        }
        self.engine
            .mont_mul_batch_into(&self.a, &self.multiplier, &mut self.scratch);
        std::mem::swap(&mut self.a, &mut self.scratch);
    }
}

/// Statistics from one batched exponentiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchExpoStats {
    /// Batched squarings performed.
    pub squarings: u64,
    /// Batched multiplications performed (including the
    /// multiply-always steps, excluding table building and pre/post
    /// transforms).
    pub multiplications: u64,
    /// Multiply steps skipped because no lane had the bit (or window
    /// digit) set.
    pub skipped_multiplications: u64,
    /// Batched multiplications spent building the fixed-window power
    /// table (0 for the binary scan).
    pub table_muls: u64,
    /// Batched Montgomery multiplications total: squarings +
    /// multiplications + `table_muls` + pre/post transforms. This is
    /// the figure that reconciles with the
    /// [`crate::expo_window::expected_fixed_window_muls`] cost model.
    pub total_batch_muls: u64,
}

/// A batched modular exponentiator bound to a [`BatchMontMul`] engine.
#[derive(Debug, Clone)]
pub struct BatchModExp<E: BatchMontMul> {
    engine: E,
    stats: BatchExpoStats,
}

impl<E: BatchMontMul> BatchModExp<E> {
    /// Wraps an engine.
    pub fn new(engine: E) -> Self {
        BatchModExp {
            engine,
            stats: BatchExpoStats::default(),
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MontgomeryParams {
        self.engine.params()
    }

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> BatchExpoStats {
        self.stats
    }

    /// Access to the underlying engine (e.g. for cycle counts).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Validates a batch of messages against the engine contract and
    /// returns the modulus.
    fn try_check_batch(&self, ms: &[Ubig]) -> Result<Ubig, MmmError> {
        if ms.is_empty() {
            return Err(MmmError::EmptyBatch);
        }
        if ms.len() > self.engine.max_lanes() {
            return Err(MmmError::BatchTooWide {
                lanes: ms.len(),
                max_lanes: self.engine.max_lanes(),
            });
        }
        let n = self.engine.params().n().clone();
        validate_reduced(&n, ms)?;
        Ok(n)
    }

    /// Validates the per-lane exponent slice length.
    fn try_check_exponents(ms: &[Ubig], es: &[Ubig]) -> Result<(), MmmError> {
        if ms.len() != es.len() {
            return Err(MmmError::LengthMismatch {
                left: ms.len(),
                right: es.len(),
            });
        }
        Ok(())
    }

    /// Computes `ms[k] ^ es[k] mod N` for every lane `k` at once.
    ///
    /// # Panics
    /// Panics on empty input, mismatched lengths, more lanes than the
    /// engine accepts, or any message `≥ N`;
    /// [`BatchModExp::try_modexp_batch`] is the fallible variant.
    pub fn modexp_batch(&mut self, ms: &[Ubig], es: &[Ubig]) -> Vec<Ubig> {
        self.try_modexp_batch(ms, es)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BatchModExp::modexp_batch`]: every input rejection
    /// comes back as a typed [`MmmError`] (the out-of-range variant
    /// names the offending lane) instead of a panic.
    pub fn try_modexp_batch(&mut self, ms: &[Ubig], es: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        Self::try_check_exponents(ms, es)?;
        let n = self.try_check_batch(ms)?;
        let params = self.engine.params().clone();
        let lanes = ms.len();

        // Pre-computation: M̄_k = Mont(M_k, R² mod N) = M_k·R mod 2N.
        let r2 = params.r2_mod_n();
        let r2s = vec![r2; lanes];
        let mbars = self.engine.mont_mul_batch(ms, &r2s);
        self.stats.total_batch_muls += 1;

        // Montgomery one, the neutral multiplier for bit-clear lanes.
        let one_bar = params.r_mod_n();

        // Square-and-multiply-always from the longest exponent down;
        // A starts at 1̄ so no per-lane leading-bit special case.
        // Hardened engines force the multiply on every position (the
        // skip would leak the OR of the lanes' bits) and select each
        // lane's multiplier branchlessly.
        let t = es.iter().map(Ubig::bit_len).max().unwrap_or(0);
        let hardened = self.engine.hardening().is_hardened();
        let mut sel_buf = vec![0 as Limb; params.n().limbs().len() + 1];
        let mut a = vec![one_bar.clone(); lanes];
        let mut multiplier = vec![one_bar.clone(); lanes];
        for i in (0..t).rev() {
            a = self.engine.mont_mul_batch(&a, &a);
            self.stats.squarings += 1;
            self.stats.total_batch_muls += 1;
            let mut any_set = hardened;
            for k in 0..lanes {
                if hardened {
                    // Two-way select between M̄_k and 1̄: the secret
                    // bit drives masks, never control flow or indices.
                    let c = Choice::from_bool(es[k].bit(i));
                    sel_buf.fill(0);
                    or_assign_masked(&mut sel_buf, mbars[k].limbs(), c);
                    or_assign_masked(&mut sel_buf, one_bar.limbs(), !c);
                    multiplier[k] = Ubig::from_limbs(sel_buf.clone());
                } else if es[k].bit(i) {
                    multiplier[k].clone_from(&mbars[k]);
                    any_set = true;
                } else {
                    multiplier[k].clone_from(&one_bar);
                }
            }
            if any_set {
                a = self.engine.mont_mul_batch(&a, &multiplier);
                self.stats.multiplications += 1;
                self.stats.total_batch_muls += 1;
            } else {
                self.stats.skipped_multiplications += 1;
            }
        }

        // Post-processing: Mont(A, 1) ≤ N, equality only for A ≡ 0.
        let ones = vec![Ubig::one(); lanes];
        let out = self.engine.mont_mul_batch(&a, &ones);
        self.stats.total_batch_muls += 1;
        if hardened {
            // The hardened engine already canonicalized (A ≡ 0 comes
            // out as 0, not N), so the r == n compare — itself a
            // result-dependent branch — never runs.
            return Ok(out);
        }
        Ok(out
            .into_iter()
            .map(|r| {
                if r == n {
                    Ubig::zero()
                } else {
                    debug_assert!(r < n, "post-processing bound violated");
                    r
                }
            })
            .collect())
    }

    /// Computes `ms[k] ^ es[k] mod N` for every lane `k` at once with
    /// the lockstep fixed-window (k-ary) scan, `window ∈ [1, 8]`.
    ///
    /// Per lane, the batched table `M̄⁰ = 1̄, M̄¹, …, M̄^{2^w − 1}` is
    /// built first (`2^w − 2` batched multiplications — every digit
    /// value is materialized so digit selection never perturbs the
    /// schedule). The exponent is then scanned `w` bits at a time from
    /// the top: the leading window is a pure table lookup (squaring
    /// `1̄` would be wasted work), and each further window costs `w`
    /// batched squarings plus one multiply-always batched
    /// multiplication in which lane `k` selects `table[digit_k]` —
    /// digit-0 lanes pick `1̄`, so short-exponent lanes coast exactly
    /// as in the binary scan. Windows where **every** lane's digit is
    /// 0 are skipped.
    ///
    /// The scan itself is allocation-free once warm: squarings
    /// ping-pong between two reusable lane buffers through
    /// [`BatchMontMul::mont_mul_batch_into`], and the per-lane
    /// multiplier selection reuses limb capacity via
    /// `Ubig::clone_from`.
    ///
    /// # Panics
    /// Panics on empty input, mismatched lengths, more lanes than the
    /// engine accepts, any message `≥ N`, or `window ∉ [1, 8]`;
    /// [`BatchModExp::try_modexp_batch_windowed`] is the fallible
    /// variant.
    pub fn modexp_batch_windowed(&mut self, ms: &[Ubig], es: &[Ubig], window: usize) -> Vec<Ubig> {
        self.try_modexp_batch_windowed(ms, es, window)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BatchModExp::modexp_batch_windowed`].
    pub fn try_modexp_batch_windowed(
        &mut self,
        ms: &[Ubig],
        es: &[Ubig],
        window: usize,
    ) -> Result<Vec<Ubig>, MmmError> {
        Self::try_check_exponents(ms, es)?;
        self.windowed_core(ms, ScalarSet::PerLane(es), window)
    }

    /// [`BatchModExp::modexp_batch_windowed`] with one exponent shared
    /// by **every** lane — the serving shape (one RSA key, many
    /// requests). Semantically identical to passing `window` copies of
    /// `e` per lane, but no per-lane exponent clones are ever
    /// materialized: the scan reads digits straight from `e`.
    ///
    /// # Panics
    /// Same contract as [`BatchModExp::modexp_batch_windowed`];
    /// [`BatchModExp::try_modexp_batch_shared_windowed`] is the
    /// fallible variant.
    pub fn modexp_batch_shared_windowed(
        &mut self,
        ms: &[Ubig],
        e: &Ubig,
        window: usize,
    ) -> Vec<Ubig> {
        self.try_modexp_batch_shared_windowed(ms, e, window)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BatchModExp::modexp_batch_shared_windowed`].
    pub fn try_modexp_batch_shared_windowed(
        &mut self,
        ms: &[Ubig],
        e: &Ubig,
        window: usize,
    ) -> Result<Vec<Ubig>, MmmError> {
        self.windowed_core(ms, ScalarSet::Shared(e), window)
    }

    /// The lockstep fixed-window scan over either exponent shape —
    /// the one implementation behind every windowed entry point. The
    /// schedule itself (windows, doubles, combines, skip policy) is
    /// the lifted workload-neutral core
    /// ([`crate::scan::run_windowed_scan`]); this method supplies the
    /// modexp workload: domain transforms, the batched power table,
    /// and the [`ModexpScanClient`] group operations.
    fn windowed_core(
        &mut self,
        ms: &[Ubig],
        es: ScalarSet<'_>,
        window: usize,
    ) -> Result<Vec<Ubig>, MmmError> {
        if !(1..=8).contains(&window) {
            return Err(MmmError::WindowOutOfRange { window });
        }
        let n = self.try_check_batch(ms)?;
        let params = self.engine.params().clone();
        let lanes = ms.len();

        // Pre-computation: M̄_k = Mont(M_k, R² mod N) = M_k·R mod 2N.
        let r2 = params.r2_mod_n();
        let r2s = vec![r2; lanes];
        let mbars = self.engine.mont_mul_batch(ms, &r2s);
        self.stats.total_batch_muls += 1;
        let one_bar = params.r_mod_n();

        // All-zero exponents (`windows == 0`) skip the table build
        // entirely — the result is 1̄ per lane and no table entry
        // would ever be read.
        let t = es.max_bit_len();
        let windows = t.div_ceil(window);
        let table_len = if windows == 0 { 0 } else { 1usize << window };

        // Batched power table: table[d][k] = M̄_k^d, every d < 2^w.
        let mut table: Vec<Vec<Ubig>> = Vec::with_capacity(table_len);
        if table_len > 0 {
            table.push(vec![one_bar.clone(); lanes]);
            table.push(mbars);
            for d in 2..table_len {
                let next = self.engine.mont_mul_batch(&table[d - 1], &table[1]);
                self.stats.table_muls += 1;
                self.stats.total_batch_muls += 1;
                table.push(next);
            }
        }

        // Under hardening every table read — leading window included —
        // is a branchless full-table sweep, and the skip-when-all-zero
        // optimization is disabled (`never_skip`): the schedule and
        // the memory trace are identical for every exponent of the
        // same length.
        let hardened = self.engine.hardening().is_hardened();
        let mut client = ModexpScanClient {
            engine: &mut self.engine,
            table,
            sel_buf: vec![0 as Limb; params.n().limbs().len() + 1],
            multiplier: vec![one_bar.clone(); lanes],
            one_bar,
            lanes,
            hardened,
            a: Vec::new(),
            scratch: Vec::with_capacity(lanes),
        };
        let scan = run_windowed_scan(&mut client, lanes, &[es], window, hardened);
        let a = std::mem::take(&mut client.a);
        self.stats.squarings += scan.doublings;
        self.stats.multiplications += scan.combines;
        self.stats.skipped_multiplications += scan.skipped_combines;
        self.stats.total_batch_muls += scan.doublings + scan.combines;

        // Post-processing: Mont(A, 1) ≤ N, equality only for A ≡ 0.
        let ones = vec![Ubig::one(); lanes];
        let out = self.engine.mont_mul_batch(&a, &ones);
        self.stats.total_batch_muls += 1;
        if hardened {
            // Canonical already (A ≡ 0 emerges as 0, not N) — the
            // result-dependent r == n compare never runs.
            return Ok(out);
        }
        Ok(out
            .into_iter()
            .map(|r| {
                if r == n {
                    Ubig::zero()
                } else {
                    debug_assert!(r < n, "post-processing bound violated");
                    r
                }
            })
            .collect())
    }

    /// [`Self::modexp_batch_windowed`] with the window width the
    /// shared cost model ([`best_fixed_window`]) picks for the longest
    /// exponent in the batch.
    pub fn modexp_batch_auto(&mut self, ms: &[Ubig], es: &[Ubig]) -> Vec<Ubig> {
        self.try_modexp_batch_auto(ms, es)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BatchModExp::modexp_batch_auto`].
    pub fn try_modexp_batch_auto(
        &mut self,
        ms: &[Ubig],
        es: &[Ubig],
    ) -> Result<Vec<Ubig>, MmmError> {
        let t = es.iter().map(Ubig::bit_len).max().unwrap_or(0);
        self.try_modexp_batch_windowed(ms, es, best_fixed_window(t.max(1)))
    }

    /// [`Self::modexp_batch_shared_windowed`] with the auto-picked
    /// window width for the shared exponent.
    pub fn modexp_batch_shared_auto(&mut self, ms: &[Ubig], e: &Ubig) -> Vec<Ubig> {
        self.try_modexp_batch_shared_auto(ms, e)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BatchModExp::modexp_batch_shared_auto`].
    pub fn try_modexp_batch_shared_auto(
        &mut self,
        ms: &[Ubig],
        e: &Ubig,
    ) -> Result<Vec<Ubig>, MmmError> {
        self.try_modexp_batch_shared_windowed(ms, e, best_fixed_window(e.bit_len().max(1)))
    }

    /// Total simulated cycles consumed by the engine, if it counts.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }
}

/// Modular exponentiation for arbitrarily many lanes: shards into
/// 64-lane batches fanned out across cores with rayon, each shard on
/// a warm engine of the **process-default backend**
/// ([`EngineKind::default_kind`], the radix-2⁶⁴ CIOS scan) checked out
/// of the per-key [`pool`] and scanned with the auto-tuned fixed
/// window. Results keep input order; [`modexp_many_with`] selects a
/// backend explicitly, and every backend is bit-identical.
///
/// # Panics
/// Panics if `ms` and `es` differ in length or any message is `≥ N`.
pub fn modexp_many(params: &MontgomeryParams, ms: &[Ubig], es: &[Ubig]) -> Vec<Ubig> {
    modexp_many_with(params, ms, es, EngineKind::default_kind())
}

/// [`modexp_many`] on an explicit backend.
pub fn modexp_many_with(
    params: &MontgomeryParams,
    ms: &[Ubig],
    es: &[Ubig],
    kind: EngineKind,
) -> Vec<Ubig> {
    assert_eq!(ms.len(), es.len(), "message/exponent count mismatch");
    modexp_many_sharded(
        params,
        ms,
        es,
        kind,
        MAX_LANES,
        WindowPolicy::Auto,
        &VerifyContext::inert(),
        HardeningMode::Off,
    )
}

/// Fully fallible [`modexp_many`] driven by an [`EngineConfig`]
/// (backend, shard width, window policy). Every input rejection is a
/// typed [`MmmError`] — out-of-range messages are reported with their
/// index in `ms`, not shard-local. Empty input is `Ok(vec![])`.
pub fn try_modexp_many(
    params: &MontgomeryParams,
    ms: &[Ubig],
    es: &[Ubig],
    config: &EngineConfig,
) -> Result<Vec<Ubig>, MmmError> {
    if ms.len() != es.len() {
        return Err(MmmError::LengthMismatch {
            left: ms.len(),
            right: es.len(),
        });
    }
    config.backend().ensure_supports(params)?;
    pool::try_global()?;
    validate_reduced(params.n(), ms)?;
    Ok(modexp_many_sharded(
        params,
        ms,
        es,
        config.backend(),
        config.shard_lanes(),
        config.window(),
        &config.verify_context(),
        config.hardening(),
    ))
}

/// The shared sharding core of the per-lane-exponent many-path:
/// inputs are assumed validated. Dispatch is quarantine-aware
/// ([`Quarantine::effective_kind`]) and every shard engine runs behind
/// the policy-gated [`VerifiedEngine`] self-check; under
/// [`HardeningMode::Hardened`] each shard engine canonicalizes and the
/// scan runs its constant-time schedule.
#[allow(clippy::too_many_arguments)] // private sharding core; every knob is one dispatch input
fn modexp_many_sharded(
    params: &MontgomeryParams,
    ms: &[Ubig],
    es: &[Ubig],
    kind: EngineKind,
    shard_lanes: usize,
    window: WindowPolicy,
    ctx: &VerifyContext,
    hardening: HardeningMode,
) -> Vec<Ubig> {
    let width = shard_lanes.clamp(1, MAX_LANES);
    let kind = ctx.quarantine.effective_kind(kind, params);
    let shards: Vec<(&[Ubig], &[Ubig])> = ms.chunks(width).zip(es.chunks(width)).collect();
    shards
        .into_par_iter()
        .map(|(sm, se)| {
            let mut engine = pool::global().checkout_kind(params, kind);
            engine.set_hardening(hardening);
            let mut me = BatchModExp::new(VerifiedEngine::new(engine, kind, ctx.clone()));
            match window {
                WindowPolicy::Auto => me.modexp_batch_auto(sm, se),
                WindowPolicy::Fixed(w) => me.modexp_batch_windowed(sm, se, w),
            }
        })
        .collect::<Vec<Vec<Ubig>>>()
        .into_iter()
        .flatten()
        .collect()
}

/// [`modexp_many`] for the common serving shape where every lane uses
/// the **same** exponent (one RSA key, many requests): `ms[k] ^ e mod
/// N` for all `k`. The shared exponent is never cloned per lane — each
/// shard's windowed scan reads its digits straight from `e` through
/// [`BatchModExp::modexp_batch_shared_auto`].
///
/// # Panics
/// Panics if any message is `≥ N`.
pub fn modexp_many_shared(params: &MontgomeryParams, ms: &[Ubig], e: &Ubig) -> Vec<Ubig> {
    modexp_many_shared_with(params, ms, e, EngineKind::default_kind())
}

/// [`modexp_many_shared`] on an explicit backend.
pub fn modexp_many_shared_with(
    params: &MontgomeryParams,
    ms: &[Ubig],
    e: &Ubig,
    kind: EngineKind,
) -> Vec<Ubig> {
    modexp_many_shared_sharded(
        params,
        ms,
        e,
        kind,
        MAX_LANES,
        WindowPolicy::Auto,
        &VerifyContext::inert(),
        HardeningMode::Off,
    )
}

/// Fully fallible [`modexp_many_shared`] driven by an
/// [`EngineConfig`]. Empty input is `Ok(vec![])`.
pub fn try_modexp_many_shared(
    params: &MontgomeryParams,
    ms: &[Ubig],
    e: &Ubig,
    config: &EngineConfig,
) -> Result<Vec<Ubig>, MmmError> {
    config.backend().ensure_supports(params)?;
    pool::try_global()?;
    validate_reduced(params.n(), ms)?;
    Ok(modexp_many_shared_sharded(
        params,
        ms,
        e,
        config.backend(),
        config.shard_lanes(),
        config.window(),
        &config.verify_context(),
        config.hardening(),
    ))
}

/// The shared sharding core of the shared-exponent many-path: inputs
/// are assumed validated. Dispatch is quarantine-aware
/// ([`crate::verify::Quarantine::effective_kind`]) and every shard
/// engine runs behind
/// the policy-gated [`VerifiedEngine`] self-check.
#[allow(clippy::too_many_arguments)] // private sharding core; every knob is one dispatch input
fn modexp_many_shared_sharded(
    params: &MontgomeryParams,
    ms: &[Ubig],
    e: &Ubig,
    kind: EngineKind,
    shard_lanes: usize,
    window: WindowPolicy,
    ctx: &VerifyContext,
    hardening: HardeningMode,
) -> Vec<Ubig> {
    let width = shard_lanes.clamp(1, MAX_LANES);
    let kind = ctx.quarantine.effective_kind(kind, params);
    let shards: Vec<&[Ubig]> = ms.chunks(width).collect();
    shards
        .into_par_iter()
        .map(|sm| {
            let mut engine = pool::global().checkout_kind(params, kind);
            engine.set_hardening(hardening);
            let mut me = BatchModExp::new(VerifiedEngine::new(engine, kind, ctx.clone()));
            match window {
                WindowPolicy::Auto => me.modexp_batch_shared_auto(sm, e),
                WindowPolicy::Fixed(w) => me.modexp_batch_shared_windowed(sm, e, w),
            }
        })
        .collect::<Vec<Vec<Ubig>>>()
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BitSlicedBatch, SequentialBatch};
    use crate::expo_window::expected_fixed_window_muls;
    use crate::modgen::random_safe_params;
    use crate::traits::SoftwareEngine;
    use crate::wave_packed::PackedMmmc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batch_modexp_matches_modpow_per_lane_exponents() {
        let mut rng = StdRng::seed_from_u64(301);
        let p = random_safe_params(&mut rng, 64);
        let n = p.n().clone();
        let lanes = 17;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &n))
            .collect();
        // Exponent lengths vary wildly across lanes, including zero.
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| {
                if k == 0 {
                    Ubig::zero()
                } else {
                    Ubig::random_bits(&mut rng, 1 + 7 * k)
                }
            })
            .collect();
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let got = me.modexp_batch(&ms, &es);
        for k in 0..lanes {
            assert_eq!(got[k], ms[k].modpow(&es[k], &n), "lane {k}");
        }
    }

    #[test]
    fn agrees_with_scalar_modexp_over_packed_engine() {
        let mut rng = StdRng::seed_from_u64(302);
        let p = random_safe_params(&mut rng, 32);
        let ms: Vec<Ubig> = (0..8)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..8).map(|_| Ubig::random_bits(&mut rng, 32)).collect();
        let mut batch = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let got = batch.modexp_batch(&ms, &es);
        for k in 0..8 {
            let mut solo = crate::expo::ModExp::new(PackedMmmc::new(p.clone()));
            assert_eq!(got[k], solo.modexp(&ms[k], &es[k]), "lane {k}");
        }
    }

    #[test]
    fn works_over_any_batch_engine() {
        // The sequential adapter exercises the trait-genericity.
        let mut rng = StdRng::seed_from_u64(303);
        let p = random_safe_params(&mut rng, 24);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..5).map(|_| Ubig::random_bits(&mut rng, 24)).collect();
        let mut me = BatchModExp::new(SequentialBatch::new(SoftwareEngine::new(p.clone())));
        let got = me.modexp_batch(&ms, &es);
        for k in 0..5 {
            assert_eq!(got[k], ms[k].modpow(&es[k], p.n()), "lane {k}");
        }
    }

    #[test]
    fn stats_reflect_multiply_always_schedule() {
        let mut rng = StdRng::seed_from_u64(304);
        let p = random_safe_params(&mut rng, 16);
        let ms = vec![Ubig::from(7u64), Ubig::from(11u64)];
        // Lane 0: e = 0b101 (3 bits); lane 1: e = 0b1 (1 bit).
        let es = vec![Ubig::from(0b101u64), Ubig::from(1u64)];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let got = me.modexp_batch(&ms, &es);
        assert_eq!(got[0], ms[0].modpow(&es[0], p.n()));
        assert_eq!(got[1], ms[1].modpow(&es[1], p.n()));
        let s = me.stats();
        // 3 bit positions: 3 squarings; bit 1 is clear in both lanes,
        // so one multiply step is skipped.
        assert_eq!(s.squarings, 3);
        assert_eq!(s.multiplications, 2);
        assert_eq!(s.skipped_multiplications, 1);
        // pre + 3 + 2 + post.
        assert_eq!(s.total_batch_muls, 7);
    }

    #[test]
    fn zero_exponents_give_one() {
        let mut rng = StdRng::seed_from_u64(305);
        let p = random_safe_params(&mut rng, 12);
        let ms = vec![Ubig::from(5u64), Ubig::zero()];
        let es = vec![Ubig::zero(), Ubig::zero()];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(me.modexp_batch(&ms, &es), vec![Ubig::one(), Ubig::one()]);
    }

    #[test]
    fn sharded_many_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(306);
        let p = random_safe_params(&mut rng, 20);
        for count in [1usize, 63, 64, 65, 150] {
            let ms: Vec<Ubig> = (0..count)
                .map(|_| Ubig::random_below(&mut rng, p.n()))
                .collect();
            let es: Vec<Ubig> = (0..count)
                .map(|_| Ubig::random_bits(&mut rng, 20))
                .collect();
            let got = modexp_many(&p, &ms, &es);
            assert_eq!(got.len(), count);
            for k in 0..count {
                assert_eq!(got[k], ms[k].modpow(&es[k], p.n()), "count={count} k={k}");
            }
        }
    }

    #[test]
    fn shared_windowed_scan_matches_per_lane_clones() {
        // The shared-exponent scan must be bit-identical to feeding
        // every lane a clone of the exponent (the layout it replaced).
        let mut rng = StdRng::seed_from_u64(317);
        let p = random_safe_params(&mut rng, 40);
        let ms: Vec<Ubig> = (0..7)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        for e in [
            Ubig::zero(),
            Ubig::from(65537u64),
            Ubig::random_bits(&mut rng, 40),
        ] {
            let es = vec![e.clone(); ms.len()];
            for w in [1usize, 3, 5] {
                let mut shared = BatchModExp::new(BitSlicedBatch::new(p.clone()));
                let mut cloned = BatchModExp::new(BitSlicedBatch::new(p.clone()));
                assert_eq!(
                    shared.modexp_batch_shared_windowed(&ms, &e, w),
                    cloned.modexp_batch_windowed(&ms, &es, w),
                    "w={w}"
                );
                // Identical schedule, not just identical results.
                assert_eq!(shared.stats(), cloned.stats(), "w={w}");
            }
            let mut auto_shared = BatchModExp::new(BitSlicedBatch::new(p.clone()));
            let mut auto_cloned = BatchModExp::new(BitSlicedBatch::new(p.clone()));
            assert_eq!(
                auto_shared.modexp_batch_shared_auto(&ms, &e),
                auto_cloned.modexp_batch_auto(&ms, &es)
            );
        }
    }

    #[test]
    fn shared_exponent_matches_per_lane_path() {
        let mut rng = StdRng::seed_from_u64(308);
        let p = random_safe_params(&mut rng, 20);
        let e = Ubig::from(65537u64);
        for count in [1usize, 64, 130] {
            let ms: Vec<Ubig> = (0..count)
                .map(|_| Ubig::random_below(&mut rng, p.n()))
                .collect();
            let es = vec![e.clone(); count];
            assert_eq!(
                modexp_many_shared(&p, &ms, &e),
                modexp_many(&p, &ms, &es),
                "count={count}"
            );
        }
    }

    #[test]
    fn windowed_matches_modpow_all_window_widths() {
        let mut rng = StdRng::seed_from_u64(310);
        let p = random_safe_params(&mut rng, 48);
        let n = p.n().clone();
        let lanes = 9;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &n))
            .collect();
        // Exponent lengths vary wildly across lanes, including zero.
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::random_bits(&mut rng, (k * 11) % 49))
            .collect();
        for w in 1..=6 {
            let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
            let got = me.modexp_batch_windowed(&ms, &es, w);
            for k in 0..lanes {
                assert_eq!(got[k], ms[k].modpow(&es[k], &n), "w={w} lane {k}");
            }
        }
    }

    #[test]
    fn windowed_agrees_with_multiply_always_and_auto() {
        let mut rng = StdRng::seed_from_u64(311);
        let p = random_safe_params(&mut rng, 40);
        let ms: Vec<Ubig> = (0..7)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..7).map(|_| Ubig::random_bits(&mut rng, 40)).collect();
        let mut binary = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let want = binary.modexp_batch(&ms, &es);
        let mut windowed = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(windowed.modexp_batch_windowed(&ms, &es, 4), want);
        let mut auto = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(auto.modexp_batch_auto(&ms, &es), want);
    }

    #[test]
    fn windowed_works_over_any_batch_engine() {
        let mut rng = StdRng::seed_from_u64(312);
        let p = random_safe_params(&mut rng, 24);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..5).map(|_| Ubig::random_bits(&mut rng, 24)).collect();
        let mut me = BatchModExp::new(SequentialBatch::new(SoftwareEngine::new(p.clone())));
        let got = me.modexp_batch_windowed(&ms, &es, 3);
        for k in 0..5 {
            assert_eq!(got[k], ms[k].modpow(&es[k], p.n()), "lane {k}");
        }
    }

    #[test]
    fn windowed_stats_reconcile_with_cost_model() {
        let mut rng = StdRng::seed_from_u64(313);
        let p = random_safe_params(&mut rng, 128);
        let lanes = 64;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let mut es: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_bits(&mut rng, 128))
            .collect();
        es[0].set_bit(127, true); // pin the batch's top bit
        let w = 4;
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let _ = me.modexp_batch_windowed(&ms, &es, w);
        let s = me.stats();
        // Internal consistency: the total is the sum of its parts
        // plus the two domain transforms.
        assert_eq!(
            s.total_batch_muls,
            s.squarings + s.multiplications + s.table_muls + 2
        );
        assert_eq!(s.table_muls, (1 << w) - 2);
        // With 64 full-length random exponents no window is all-zero,
        // so the measured count hits the analytic model exactly.
        assert_eq!(s.skipped_multiplications, 0);
        assert_eq!(
            s.total_batch_muls as f64,
            expected_fixed_window_muls(128, w)
        );
    }

    #[test]
    fn windowed_zero_exponents_give_one() {
        let mut rng = StdRng::seed_from_u64(314);
        let p = random_safe_params(&mut rng, 12);
        let ms = vec![Ubig::from(5u64), Ubig::zero()];
        let es = vec![Ubig::zero(), Ubig::zero()];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(
            me.modexp_batch_windowed(&ms, &es, 5),
            vec![Ubig::one(), Ubig::one()]
        );
        // No power table is built for an all-zero batch: just the two
        // domain transforms, as the t = 0 cost model says.
        let s = me.stats();
        assert_eq!(s.table_muls, 0);
        assert_eq!(s.total_batch_muls, 2);
    }

    #[test]
    fn windowed_cuts_batched_muls_at_rsa_sizes() {
        // The headline saving: ≥ 30% fewer batched multiplications at
        // t = 512 with the auto-picked window (counted, not timed).
        let mut rng = StdRng::seed_from_u64(315);
        let p = random_safe_params(&mut rng, 512);
        let ms: Vec<Ubig> = (0..8)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let mut es: Vec<Ubig> = (0..8).map(|_| Ubig::random_bits(&mut rng, 512)).collect();
        es[0].set_bit(511, true);
        let engine = SequentialBatch::new(SoftwareEngine::new(p.clone()));
        let mut binary = BatchModExp::new(engine.clone());
        let want = binary.modexp_batch(&ms, &es);
        let mut windowed = BatchModExp::new(engine);
        let got = windowed.modexp_batch_auto(&ms, &es);
        assert_eq!(got, want);
        let nb = binary.stats().total_batch_muls;
        let nw = windowed.stats().total_batch_muls;
        assert!(
            (nw as f64) < nb as f64 * 0.70,
            "windowed {nw} vs multiply-always {nb}"
        );
    }

    #[test]
    fn hardened_scan_is_bit_identical_and_never_skips() {
        use crate::config::HardeningMode;
        let mut rng = StdRng::seed_from_u64(318);
        let p = random_safe_params(&mut rng, 48);
        let lanes = 6;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        // Mixed exponent lengths, including zero and sparse values —
        // the cases where the unhardened scan skips steps.
        let es: Vec<Ubig> = vec![
            Ubig::zero(),
            Ubig::one(),
            Ubig::from(0b1000_0001u64),
            Ubig::random_bits(&mut rng, 13),
            Ubig::random_bits(&mut rng, 48),
            Ubig::from(65537u64),
        ];
        for kind in EngineKind::ALL {
            let mut hard_engine = kind.build(p.clone());
            hard_engine.set_hardening(HardeningMode::Hardened);
            let mut hard = BatchModExp::new(hard_engine);
            let mut plain = BatchModExp::new(kind.build(p.clone()));
            // Binary scan: identical results, zero skipped steps.
            assert_eq!(
                hard.modexp_batch(&ms, &es),
                plain.modexp_batch(&ms, &es),
                "{} binary",
                kind.name()
            );
            assert_eq!(hard.stats().skipped_multiplications, 0, "{}", kind.name());
            assert!(plain.stats().skipped_multiplications > 0, "{}", kind.name());
            // Windowed scan: identical results across widths.
            for w in [1usize, 3, 4] {
                let mut hw_engine = kind.build(p.clone());
                hw_engine.set_hardening(HardeningMode::Hardened);
                let mut hw = BatchModExp::new(hw_engine);
                let mut pw = BatchModExp::new(kind.build(p.clone()));
                assert_eq!(
                    hw.modexp_batch_windowed(&ms, &es, w),
                    pw.modexp_batch_windowed(&ms, &es, w),
                    "{} w={w}",
                    kind.name()
                );
                assert_eq!(
                    hw.stats().skipped_multiplications,
                    0,
                    "{} w={w}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn hardened_shared_scan_matches_per_lane() {
        use crate::config::HardeningMode;
        let mut rng = StdRng::seed_from_u64(319);
        let p = random_safe_params(&mut rng, 40);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let e = Ubig::random_bits(&mut rng, 40);
        let mut hard_engine = BitSlicedBatch::new(p.clone());
        hard_engine.set_hardening(HardeningMode::Hardened);
        let mut hard = BatchModExp::new(hard_engine);
        let got = hard.modexp_batch_shared_auto(&ms, &e);
        for k in 0..ms.len() {
            assert_eq!(got[k], ms[k].modpow(&e, p.n()), "lane {k}");
        }
    }

    #[test]
    #[should_panic(expected = "window must be in 1..=8")]
    fn windowed_rejects_bad_width() {
        let mut rng = StdRng::seed_from_u64(316);
        let p = random_safe_params(&mut rng, 8);
        let _ = BatchModExp::new(BitSlicedBatch::new(p.clone())).modexp_batch_windowed(
            &[Ubig::one()],
            &[Ubig::one()],
            9,
        );
    }

    #[test]
    #[should_panic(expected = "message must be < N")]
    fn rejects_unreduced_message() {
        let mut rng = StdRng::seed_from_u64(307);
        let p = random_safe_params(&mut rng, 8);
        let m = p.n().clone();
        let _ = BatchModExp::new(BitSlicedBatch::new(p.clone()))
            .modexp_batch(&[m], &[Ubig::from(2u64)]);
    }
}

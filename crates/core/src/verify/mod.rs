//! The arithmetic integrity layer: verify-before-release, residue
//! self-checks, and backend quarantine.
//!
//! PR 7 taught the *serving* layer to survive panics and overload; this
//! module extends that robustness down into the arithmetic itself. The
//! threat model is silent data corruption — a faulted SIMD lane, a
//! bit-flip in a pooled engine's cached constants, a miscompiled kernel
//! on one machine of a fleet — which for RSA-CRT is not merely a wrong
//! answer but a key-recovery oracle (the Bellcore/Lenstra fault
//! attack: one faulty CRT half hands an attacker `gcd(m^e − c, N)`,
//! a prime factor of `N`). Three mechanisms, cheapest-first:
//!
//! 1. **Residue self-checks** ([`ResidueCheck`]): every Montgomery
//!    batch multiplication `out = MonPro(x, y)` satisfies the integer
//!    identity `out·R = x·y + M·N` with `M = ((x·y mod R)·N′) mod R`
//!    (Algorithm 2 computes exactly this quotient, on every backend).
//!    The check recomputes both sides modulo a fixed 32-bit prime `m`.
//!    Any single bit-flip of the output changes the left side by
//!    `±2^b·R mod m ≠ 0` (m is an odd prime, so no power of two is a
//!    multiple of it) — single-bit corruption is caught with
//!    **certainty**, not probability; multi-bit corruption escapes
//!    only with probability ~1/m ≈ 2⁻³².
//! 2. **Verify-before-release CRT** (`mmm-rsa`): after Garner
//!    recombination, re-encrypt each plaintext (`m^e mod N` — cheap,
//!    `e` is small) and compare with the submitted ciphertext before
//!    anything leaves the batch. A mismatched lane is retried once on
//!    a weaker backend; if still wrong, the caller receives the typed
//!    [`MmmError::IntegrityViolation`] instead of a key-leaking
//!    plaintext.
//! 3. **Quarantine with graceful degradation** ([`Quarantine`]):
//!    violations are charged to the backend that produced them. After
//!    [`QUARANTINE_THRESHOLD`] strikes a backend is benched
//!    process-wide and dispatch transparently falls through
//!    [`EngineKind::weaker`] to the next healthy backend (the
//!    bit-sliced systolic array — the paper's hardware model — is the
//!    last resort oracle). Inside one engine, [`VerifiedEngine`] first
//!    tries the cheaper step of demoting the SIMD kernel tier before
//!    giving up on the backend.
//!
//! How much checking happens is a policy knob ([`VerifyPolicy`]:
//! `Off`/`Sampled`/`Full`), set per [`EngineConfig`] or via the
//! `MMM_VERIFY` environment variable. The default is `Off`: the layer
//! costs nothing unless asked for, and the serving stack turns it on
//! deliberately. [`verify::faults`](crate::verify::faults) provides
//! the corruption-injection harness that proves all of this actually
//! fires.
//!
//! [`EngineConfig`]: crate::config::EngineConfig
//! [`MmmError::IntegrityViolation`]: crate::error::MmmError::IntegrityViolation

pub mod faults;

use crate::engine::EngineKind;
use crate::error::MmmError;
use crate::montgomery::{mont_mul_alg2, MontgomeryParams};
use crate::rows::{self, lane_of, set_lane_of, LaneStage, ROW_LANES};
use crate::traits::BatchMontMul;
use faults::CorruptionPlan;
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of dispatchable backends ([`EngineKind::ALL`]).
const BACKENDS: usize = EngineKind::ALL.len();

/// Strikes (detected violations) after which a backend is benched
/// process-wide. Three strikes separates a one-off cosmic-ray flip
/// (retried and forgotten) from a systematically broken kernel.
pub const QUARANTINE_THRESHOLD: u64 = 3;

/// Default sampling rate for [`VerifyPolicy::Sampled`]: one batch
/// multiplication in 64 is shadow-checked (amortized cost well under
/// 1%; the CRT verify-before-release pass is always on under
/// `Sampled`).
pub const DEFAULT_SAMPLE_ONE_IN: u64 = 64;

/// How much integrity checking the engines perform.
///
/// Parsed from the `MMM_VERIFY` environment variable by
/// [`EngineConfig::from_env`](crate::config::EngineConfig::from_env):
/// `off`, `sampled`, `sampled:<k>` (one batch in `k`), or `full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// No checking at all — results are released as computed. The
    /// default: identical behavior and cost to the pre-verify engines.
    #[default]
    Off,
    /// CRT verify-before-release on every lane, plus a residue
    /// shadow-check on one batch multiplication in `one_in`.
    Sampled {
        /// Check one batch multiplication in this many (≥ 1).
        one_in: u64,
    },
    /// Every lane of every batch multiplication is shadow-checked and
    /// every CRT result verified before release.
    Full,
}

impl VerifyPolicy {
    /// The `Sampled` policy at the default 1-in-64 rate.
    pub fn sampled() -> Self {
        VerifyPolicy::Sampled {
            one_in: DEFAULT_SAMPLE_ONE_IN,
        }
    }
}

impl FromStr for VerifyPolicy {
    type Err = MmmError;

    fn from_str(s: &str) -> Result<Self, MmmError> {
        match s {
            "off" => Ok(VerifyPolicy::Off),
            "full" => Ok(VerifyPolicy::Full),
            "sampled" => Ok(VerifyPolicy::sampled()),
            other => {
                if let Some(k) = other.strip_prefix("sampled:") {
                    if let Ok(one_in) = k.parse::<u64>() {
                        if one_in >= 1 {
                            return Ok(VerifyPolicy::Sampled { one_in });
                        }
                    }
                }
                Err(MmmError::Config(format!(
                    "unknown verify policy {other:?} (expected off, sampled, sampled:<k>, or full)"
                )))
            }
        }
    }
}

impl std::fmt::Display for VerifyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyPolicy::Off => write!(f, "off"),
            VerifyPolicy::Sampled { one_in } => write!(f, "sampled:{one_in}"),
            VerifyPolicy::Full => write!(f, "full"),
        }
    }
}

/// Everything the verification machinery needs, bundled so it threads
/// through the sharded dispatch paths as one value: the policy, the
/// corruption-injection plan (inert outside tests), and the quarantine
/// ledger the checks report to.
#[derive(Debug, Clone)]
pub struct VerifyContext {
    /// How much checking to perform.
    pub policy: VerifyPolicy,
    /// Corruption-injection switches (inert unless a test armed them).
    pub faults: Arc<CorruptionPlan>,
    /// Where violations, corrections, and demotions are recorded.
    pub quarantine: Arc<Quarantine>,
}

/// Fixed table of 32-bit primes the shadow modulus is drawn from. The
/// pick is keyed on the modulus `N` (deterministic, so repeated runs
/// are reproducible) but varies across keys, so a corruption pattern
/// that happens to be a multiple of one prime is not blind for every
/// session.
const SHADOW_PRIMES: [u64; 8] = [
    4_294_967_291, // 2^32 - 5
    4_294_967_279, // 2^32 - 17
    4_294_967_231, // 2^32 - 65
    4_294_967_197, // 2^32 - 99
    4_294_967_189, // 2^32 - 107
    4_294_967_161, // 2^32 - 135
    4_294_967_143, // 2^32 - 153
    4_294_967_111, // 2^32 - 185
];

/// Reduces `v` modulo a 32-bit `m` by Horner evaluation over its
/// limbs, most-significant first (`acc` stays `< m < 2^32`, so the
/// `u128` intermediate cannot overflow).
fn mod_small(v: &Ubig, m: u64) -> u64 {
    let mut acc: u64 = 0;
    for &limb in v.limbs().iter().rev() {
        acc = ((((acc as u128) << 64) | limb as u128) % m as u128) as u64;
    }
    acc
}

/// The mod-`m` shadow verifier for one set of Montgomery parameters.
///
/// Algorithm 2 (every backend implements it bit-identically) returns
/// exactly `out = (x·y + M·N) / R` with `R = 2^{l+2}` and the quotient
/// `M = ((x·y mod R)·N′) mod R`, `N′ = −N⁻¹ mod R`. The check
/// recomputes `M` independently and tests the defining identity
///
/// ```text
/// out·R ≡ x·y + M·N   (mod m)
/// ```
///
/// for a 32-bit odd prime `m`. See the module docs for the soundness
/// argument (single-bit flips caught with certainty; random corruption
/// escapes with probability ~2⁻³²). Cost per lane is one full-width
/// schoolbook product plus two truncated products — a constant factor
/// over the multiplication being checked, which is why sampling
/// exists; it does **not** re-run the engine, so it also catches bugs
/// an engine-level recompute would repeat.
#[derive(Debug, Clone)]
pub struct ResidueCheck {
    /// `R = 2^{r_bits}` with `r_bits = l + 2`.
    r_bits: usize,
    /// `N′ = −N⁻¹ mod R`.
    nprime: Ubig,
    /// The 32-bit shadow prime.
    m: u64,
    /// `N mod m`.
    n_mod_m: u64,
    /// `R mod m`.
    r_mod_m: u64,
}

impl ResidueCheck {
    /// Builds the verifier for `params` (one division-free setup per
    /// engine; [`VerifiedEngine`] builds it lazily on the first
    /// sampled check).
    pub fn new(params: &MontgomeryParams) -> Self {
        let r_bits = params.l() + 2;
        let n = params.n();
        let pick =
            n.limbs().iter().fold(0u64, |h, &w| h.rotate_left(7) ^ w) % SHADOW_PRIMES.len() as u64;
        let m = SHADOW_PRIMES[pick as usize];
        ResidueCheck {
            r_bits,
            nprime: n.neg_inv_pow2(r_bits),
            m,
            n_mod_m: mod_small(n, m),
            r_mod_m: mod_small(&Ubig::pow2(r_bits), m),
        }
    }

    /// The shadow prime in use (exposed for tests and diagnostics).
    pub fn shadow_prime(&self) -> u64 {
        self.m
    }

    /// Both sides of the shadow identity, reduced mod `m`.
    fn sides(&self, x: &Ubig, y: &Ubig, out: &Ubig) -> (u64, u64) {
        let xy = x.mul_ref(y);
        let quotient = xy
            .low_bits(self.r_bits)
            .mul_ref(&self.nprime)
            .low_bits(self.r_bits);
        let m = self.m as u128;
        let lhs = (mod_small(out, self.m) as u128 * self.r_mod_m as u128) % m;
        let rhs = (mod_small(&xy, self.m) as u128
            + mod_small(&quotient, self.m) as u128 * self.n_mod_m as u128)
            % m;
        (lhs as u64, rhs as u64)
    }

    /// True when `out` is consistent with `MonPro(x, y)` under the
    /// mod-`m` shadow identity — the **strict** form matching the raw
    /// Algorithm-2 output (`< 2N`, no final subtraction).
    pub fn check_lane(&self, x: &Ubig, y: &Ubig, out: &Ubig) -> bool {
        let (lhs, rhs) = self.sides(x, y, out);
        lhs == rhs
    }

    /// [`ResidueCheck::check_lane`] for **hardened** engines, whose
    /// branchless final subtraction may have canonicalized the raw
    /// value `t` to `t − N` (DESIGN.md §12). Both representatives of
    /// the same residue are accepted: `out` itself, or `out + N`
    /// (shifting the left side by `+N·R mod m`). Single-bit soundness
    /// is preserved — a flip of bit `b` changes `out·R` by `±2^b·R`,
    /// which matches neither accepted value unless `m | 2^b·R` or
    /// `m | (2^b·R ± N·R)`; the first is impossible (odd prime `m`),
    /// the second fails unless the key-dependent `N ≡ ∓2^b (mod m)` —
    /// so at most one bit position per key degrades to ~2⁻³²
    /// probabilistic coverage instead of certainty.
    pub fn check_lane_hardened(&self, x: &Ubig, y: &Ubig, out: &Ubig) -> bool {
        let (lhs, rhs) = self.sides(x, y, out);
        let m = self.m as u128;
        let shifted = ((lhs as u128 + self.n_mod_m as u128 * self.r_mod_m as u128) % m) as u64;
        lhs == rhs || shifted == rhs
    }
}

/// Point-in-time snapshot of the quarantine ledger (see
/// [`Quarantine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuarantineStats {
    /// Integrity violations detected (each bad lane counts once).
    pub violations: u64,
    /// Lanes transparently corrected by retry/oracle before release.
    pub corrected: u64,
    /// SIMD-kernel demotions performed inside an engine.
    pub demotions: u64,
    /// Whole-shard retries dispatched to a fallback backend.
    pub fallback_retries: u64,
    /// Strikes per backend, indexed like [`EngineKind::ALL`].
    pub strikes: [u64; BACKENDS],
    /// Backends currently at or past [`QUARANTINE_THRESHOLD`].
    pub quarantined_backends: u64,
}

/// The process-wide (or per-test, via
/// [`EngineConfig::with_quarantine`]) ledger of detected corruption:
/// per-backend strike counts that drive quarantine decisions, plus the
/// monotone observability counters surfaced through `ServeStats`.
///
/// All counters are relaxed atomics — they are tallies, not
/// synchronization edges; the values they describe are published by
/// the channels that carry the results themselves.
///
/// [`EngineConfig::with_quarantine`]: crate::config::EngineConfig::with_quarantine
#[derive(Debug)]
pub struct Quarantine {
    strikes: [AtomicU64; BACKENDS],
    violations: AtomicU64,
    corrected: AtomicU64,
    demotions: AtomicU64,
    fallback_retries: AtomicU64,
    /// Sampling clock for [`VerifyPolicy::Sampled`] — lives here (not
    /// in the per-shard engines) so the 1-in-k rate holds across the
    /// short-lived engines the pool hands out.
    clock: AtomicU64,
}

impl Default for Quarantine {
    fn default() -> Self {
        Quarantine {
            strikes: std::array::from_fn(|_| AtomicU64::new(0)),
            violations: AtomicU64::new(0),
            corrected: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            fallback_retries: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }
}

impl Quarantine {
    /// A fresh ledger with no strikes. Tests use private ledgers so
    /// injected corruption never benches a backend for the rest of the
    /// process.
    pub fn new() -> Self {
        Quarantine::default()
    }

    /// The process-global ledger, shared by every
    /// [`EngineConfig::default()`](crate::config::EngineConfig)
    /// unless overridden.
    pub fn global() -> Arc<Quarantine> {
        static GLOBAL: OnceLock<Arc<Quarantine>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Quarantine::new())))
    }

    fn slot(kind: EngineKind) -> usize {
        EngineKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every EngineKind appears in ALL")
    }

    /// Charges one strike to `kind` and tallies the violation.
    pub fn record_violation(&self, kind: EngineKind) {
        self.strikes[Self::slot(kind)].fetch_add(1, Ordering::Relaxed);
        self.violations.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies a lane whose corrupted value was replaced by a verified
    /// one before release.
    pub fn record_correction(&self) {
        self.corrected.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies a SIMD-kernel demotion inside an engine.
    pub fn record_demotion(&self) {
        self.demotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies a shard retry dispatched to a fallback backend.
    pub fn record_fallback_retry(&self) {
        self.fallback_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Advances the shared sampling clock; returns the pre-increment
    /// tick.
    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Strikes currently charged to `kind`.
    pub fn strikes(&self, kind: EngineKind) -> u64 {
        self.strikes[Self::slot(kind)].load(Ordering::Relaxed)
    }

    /// True when `kind` has reached [`QUARANTINE_THRESHOLD`] and
    /// should no longer be dispatched to.
    pub fn is_quarantined(&self, kind: EngineKind) -> bool {
        self.strikes(kind) >= QUARANTINE_THRESHOLD
    }

    /// The backend dispatch should actually use for `requested` at
    /// `params`: `requested` itself while healthy, else the first
    /// backend down the [`EngineKind::weaker`] chain that is neither
    /// quarantined nor unsupported at these parameters. If every
    /// candidate is benched (pathological — the process has no
    /// trustworthy arithmetic left), falls back to `requested` if it
    /// supports `params`, else to the portable CIOS backend: degraded
    /// answers beat no answers, and verification stays on top of them.
    pub fn effective_kind(&self, requested: EngineKind, params: &MontgomeryParams) -> EngineKind {
        let mut candidate = Some(requested);
        while let Some(kind) = candidate {
            if !self.is_quarantined(kind) && kind.ensure_supports(params).is_ok() {
                return kind;
            }
            candidate = kind.weaker();
        }
        if requested.ensure_supports(params).is_ok() {
            requested
        } else {
            EngineKind::Cios
        }
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> QuarantineStats {
        let strikes = std::array::from_fn(|i| self.strikes[i].load(Ordering::Relaxed));
        QuarantineStats {
            violations: self.violations.load(Ordering::Relaxed),
            corrected: self.corrected.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            fallback_retries: self.fallback_retries.load(Ordering::Relaxed),
            strikes,
            quarantined_backends: strikes
                .iter()
                .filter(|&&s| s >= QUARANTINE_THRESHOLD)
                .count() as u64,
        }
    }

    /// Clears strikes and counters (operator action after replacing a
    /// faulty machine, or test hygiene).
    pub fn reset(&self) {
        for s in &self.strikes {
            s.store(0, Ordering::Relaxed);
        }
        self.violations.store(0, Ordering::Relaxed);
        self.corrected.store(0, Ordering::Relaxed);
        self.demotions.store(0, Ordering::Relaxed);
        self.fallback_retries.store(0, Ordering::Relaxed);
        self.clock.store(0, Ordering::Relaxed);
    }
}

/// A [`BatchMontMul`] adapter that applies the corruption-injection
/// hooks and the policy-gated residue self-check to every batch it
/// computes, correcting bad lanes *before* they escape. Both sit on its
/// rows entry, the path every operation takes; its `Vec<Ubig>` methods
/// are the shared adapter of [`crate::rows`] over that entry.
///
/// The correction ladder, cheapest-first:
/// 1. charge the violation to the backend and demote the engine's SIMD
///    kernel one tier ([`BatchMontMul::demote_kernel`]) so a broken
///    vector unit stops being used immediately;
/// 2. recompute the bad lane on the (possibly demoted) engine and
///    re-check it;
/// 3. if still wrong, recompute via the scalar reference
///    [`mont_mul_alg2`] — the oracle the whole test suite is anchored
///    to — whose result is released without further ceremony.
///
/// The adapter therefore never returns a value that failed its check,
/// and never errors: at this layer a trustworthy answer is always
/// recoverable. (The CRT verify-before-release layer above is where a
/// persistent corruption turns into a typed
/// [`MmmError::IntegrityViolation`].)
#[derive(Debug)]
pub struct VerifiedEngine<E> {
    inner: E,
    kind: EngineKind,
    ctx: VerifyContext,
    check: Option<ResidueCheck>,
    /// Staging rows of the `Vec<Ubig>` methods.
    stage: LaneStage,
}

impl<E: BatchMontMul> VerifiedEngine<E> {
    /// Wraps `inner` (a `kind` engine) with the checking policy and
    /// ledger in `ctx`.
    pub fn new(inner: E, kind: EngineKind, ctx: VerifyContext) -> Self {
        VerifiedEngine {
            stage: LaneStage::default(),
            inner,
            kind,
            ctx,
            check: None,
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> E {
        self.inner
    }

    fn should_check(&self) -> bool {
        match self.ctx.policy {
            VerifyPolicy::Off => false,
            VerifyPolicy::Full => true,
            VerifyPolicy::Sampled { one_in } => {
                self.ctx.quarantine.tick().is_multiple_of(one_in.max(1))
            }
        }
    }

    /// Injection hook + policy-gated check + correction ladder, run on
    /// every rows result. Checking reads each live lane out as a
    /// `Ubig`; with checking off the hook is one atomic load.
    fn post_rows(&mut self, x: &[Limb], y: &[Limb], lanes: usize, out: &mut [Limb]) {
        self.ctx.faults.corrupt_mont_batch(out, lanes);
        if !self.should_check() {
            return;
        }
        let check: &ResidueCheck = self
            .check
            .get_or_insert_with(|| ResidueCheck::new(self.inner.params()));
        // A hardened engine canonicalizes (`< N`), so its outputs are
        // judged by the two-representative form of the identity; the
        // strict form would flag every lane the final subtraction
        // actually fired on.
        let hardened = self.inner.hardening().is_hardened();
        let lane_ok = |x: &Ubig, y: &Ubig, out: &Ubig| {
            if hardened {
                check.check_lane_hardened(x, y, out)
            } else {
                check.check_lane(x, y, out)
            }
        };
        let bad: Vec<(usize, Ubig, Ubig)> = (0..lanes)
            .map(|k| (k, lane_of(x, k), lane_of(y, k)))
            .filter(|(k, xk, yk)| !lane_ok(xk, yk, &lane_of(out, *k)))
            .collect();
        if bad.is_empty() {
            return;
        }
        for _ in &bad {
            self.ctx.quarantine.record_violation(self.kind);
        }
        if self.inner.demote_kernel() {
            self.ctx.quarantine.record_demotion();
        }
        for (k, xk, yk) in bad {
            let redo = self
                .inner
                .mont_mul_batch(std::slice::from_ref(&xk), std::slice::from_ref(&yk))
                .pop()
                .expect("one lane in, one lane out");
            let fixed = if lane_ok(&xk, &yk, &redo) {
                redo
            } else {
                // The scalar oracle emits the raw < 2N value; a
                // hardened borrower expects the canonical < N
                // representative, so match the engine's contract.
                let params = self.inner.params();
                let oracle = mont_mul_alg2(params, &xk, &yk);
                if hardened {
                    mmm_bigint::ct::ct_reduce_once(&oracle, params.n())
                } else {
                    oracle
                }
            };
            set_lane_of(out, k, &fixed);
            self.ctx.quarantine.record_correction();
        }
    }
}

impl<E: BatchMontMul> BatchMontMul for VerifiedEngine<E> {
    fn params(&self) -> &MontgomeryParams {
        self.inner.params()
    }

    fn max_lanes(&self) -> usize {
        self.inner.max_lanes().min(ROW_LANES)
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        let mut out = Vec::with_capacity(xs.len());
        rows::mont_mul_lanes(self, |e| &mut e.stage, xs, ys, &mut out);
        out
    }

    fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        self.inner.try_mont_mul_rows(x, y, lanes, out)?;
        self.post_rows(x, y, lanes, out);
        Ok(())
    }

    fn consumed_cycles(&self) -> Option<u64> {
        self.inner.consumed_cycles()
    }

    fn demote_kernel(&mut self) -> bool {
        self.inner.demote_kernel()
    }

    fn set_hardening(&mut self, mode: crate::config::HardeningMode) {
        self.inner.set_hardening(mode);
    }

    fn hardening(&self) -> crate::config::HardeningMode {
        self.inner.hardening()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modgen::{random_operand, random_safe_params};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn policy_parses_and_displays() {
        assert_eq!("off".parse::<VerifyPolicy>(), Ok(VerifyPolicy::Off));
        assert_eq!("full".parse::<VerifyPolicy>(), Ok(VerifyPolicy::Full));
        assert_eq!(
            "sampled".parse::<VerifyPolicy>(),
            Ok(VerifyPolicy::Sampled {
                one_in: DEFAULT_SAMPLE_ONE_IN
            })
        );
        assert_eq!(
            "sampled:7".parse::<VerifyPolicy>(),
            Ok(VerifyPolicy::Sampled { one_in: 7 })
        );
        for bad in ["", "on", "sampled:", "sampled:0", "sampled:x", "FULL"] {
            assert!(
                bad.parse::<VerifyPolicy>().is_err(),
                "{bad:?} should be rejected"
            );
        }
        for p in [
            VerifyPolicy::Off,
            VerifyPolicy::Full,
            VerifyPolicy::Sampled { one_in: 9 },
        ] {
            assert_eq!(p.to_string().parse::<VerifyPolicy>(), Ok(p), "roundtrip");
        }
        assert_eq!(VerifyPolicy::default(), VerifyPolicy::Off);
    }

    #[test]
    fn residue_check_accepts_correct_products() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for l in [32, 64, 96] {
            let params = random_safe_params(&mut rng, l);
            let check = ResidueCheck::new(&params);
            for _ in 0..20 {
                let x = random_operand(&mut rng, &params);
                let y = random_operand(&mut rng, &params);
                let out = mont_mul_alg2(&params, &x, &y);
                assert!(check.check_lane(&x, &y, &out), "false positive at l={l}");
            }
        }
    }

    #[test]
    fn residue_check_catches_every_single_bit_flip() {
        // Single-bit soundness is exact, not probabilistic: flipping
        // bit b changes out·R by ±2^b·R, never a multiple of the odd
        // shadow prime. Sweep every bit of the result.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let params = random_safe_params(&mut rng, 64);
        let check = ResidueCheck::new(&params);
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let out = mont_mul_alg2(&params, &x, &y);
        for bit in 0..(params.l() + 2) {
            let mut corrupted = out.clone();
            let cur = corrupted.bit(bit);
            corrupted.set_bit(bit, !cur);
            assert!(
                !check.check_lane(&x, &y, &corrupted),
                "missed a flip of bit {bit}"
            );
        }
    }

    #[test]
    fn quarantine_benches_after_threshold_and_walks_weaker_chain() {
        let mut rng = StdRng::seed_from_u64(0xABCD);
        let params = random_safe_params(&mut rng, 64);
        let q = Quarantine::new();
        assert_eq!(
            q.effective_kind(EngineKind::Cios52, &params),
            EngineKind::Cios52,
            "healthy backend dispatches as requested"
        );
        for _ in 0..QUARANTINE_THRESHOLD {
            q.record_violation(EngineKind::Cios52);
        }
        assert!(q.is_quarantined(EngineKind::Cios52));
        assert_eq!(
            q.effective_kind(EngineKind::Cios52, &params),
            EngineKind::Cios,
            "quarantined backend falls through to the next-weaker one"
        );
        for _ in 0..QUARANTINE_THRESHOLD {
            q.record_violation(EngineKind::Cios);
        }
        assert_eq!(
            q.effective_kind(EngineKind::Cios52, &params),
            EngineKind::BitSliced,
            "double quarantine reaches the bit-sliced oracle"
        );
        let stats = q.stats();
        assert_eq!(stats.violations, 2 * QUARANTINE_THRESHOLD);
        assert_eq!(stats.quarantined_backends, 2);
        q.reset();
        assert_eq!(q.stats(), QuarantineStats::default());
    }

    #[test]
    fn effective_kind_skips_unsupported_backends() {
        // Hardware-unsafe params: BitSliced cannot serve them, so even
        // with everything healthy the walk must not land there, and
        // the everything-quarantined fallback must pick Cios.
        let n = Ubig::pow2(64).checked_sub(&Ubig::one()).expect("2^64 > 1");
        let params = MontgomeryParams::new(&n, 64);
        assert!(!params.is_hardware_safe(), "3N − 1 > 2^{{l+1}} here");
        let q = Quarantine::new();
        for kind in [EngineKind::Cios52, EngineKind::Cios, EngineKind::BitSliced] {
            for _ in 0..QUARANTINE_THRESHOLD {
                q.record_violation(kind);
            }
        }
        assert_eq!(
            q.effective_kind(EngineKind::BitSliced, &params),
            EngineKind::Cios,
            "unsupported requested backend degrades to portable CIOS"
        );
    }

    #[test]
    fn verified_engine_corrects_injected_corruption_transparently() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let params = random_safe_params(&mut rng, 64);
        for kind in EngineKind::ALL {
            if kind.ensure_supports(&params).is_err() {
                continue;
            }
            let ctx = VerifyContext {
                policy: VerifyPolicy::Full,
                faults: Arc::new(CorruptionPlan::default()),
                quarantine: Arc::new(Quarantine::new()),
            };
            let mut engine = VerifiedEngine::new(kind.build(params.clone()), kind, ctx.clone());
            let xs: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &params)).collect();
            let ys: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &params)).collect();
            let want: Vec<Ubig> = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| mont_mul_alg2(&params, x, y))
                .collect();
            ctx.faults.inject_mont_mul_flip(2, 17, 1);
            let got = engine.mont_mul_batch(&xs, &ys);
            assert_eq!(
                got,
                want,
                "{}: corrupted lane must be corrected",
                kind.name()
            );
            assert_eq!(ctx.faults.mont_flips_fired(), 1, "{}", kind.name());
            let stats = ctx.quarantine.stats();
            assert_eq!(stats.violations, 1, "{}", kind.name());
            assert_eq!(stats.corrected, 1, "{}", kind.name());
            // A clean follow-up batch sails through unchanged.
            let again = engine.mont_mul_batch(&xs, &ys);
            assert_eq!(again, want, "{}", kind.name());
            assert_eq!(ctx.quarantine.stats().violations, 1, "{}", kind.name());
        }
    }

    #[test]
    fn off_policy_lets_corruption_escape() {
        // Proves the check is doing the catching (not some downstream
        // accident): with policy Off the injected flip must surface.
        let mut rng = StdRng::seed_from_u64(0xD00D);
        let params = random_safe_params(&mut rng, 64);
        let ctx = VerifyContext {
            policy: VerifyPolicy::Off,
            faults: Arc::new(CorruptionPlan::default()),
            quarantine: Arc::new(Quarantine::new()),
        };
        let kind = EngineKind::Cios;
        let mut engine = VerifiedEngine::new(kind.build(params.clone()), kind, ctx.clone());
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let want = mont_mul_alg2(&params, &x, &y);
        ctx.faults.inject_mont_mul_flip(0, 3, 1);
        let got = engine.mont_mul_batch(std::slice::from_ref(&x), std::slice::from_ref(&y));
        assert_ne!(got[0], want, "Off policy must not mask the injection");
        assert_eq!(ctx.quarantine.stats().violations, 0);
    }

    #[test]
    fn sampled_policy_checks_exactly_one_in_k() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        let params = random_safe_params(&mut rng, 64);
        let one_in = 4u64;
        let calls = 32usize;
        let ctx = VerifyContext {
            policy: VerifyPolicy::Sampled { one_in },
            faults: Arc::new(CorruptionPlan::default()),
            quarantine: Arc::new(Quarantine::new()),
        };
        let kind = EngineKind::Cios;
        let mut engine = VerifiedEngine::new(kind.build(params.clone()), kind, ctx.clone());
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        for _ in 0..calls {
            ctx.faults.inject_mont_mul_flip(0, 5, 1);
            engine.mont_mul_batch(std::slice::from_ref(&x), std::slice::from_ref(&y));
        }
        // The shared clock starts at 0, so ticks 0, 4, 8, ... are the
        // checked calls: exactly calls/one_in of them, each catching
        // its injected flip.
        assert_eq!(ctx.quarantine.stats().corrected, calls as u64 / one_in);
        assert_eq!(ctx.faults.mont_flips_fired(), calls as u64);
    }

    #[test]
    fn hardened_check_accepts_both_representatives_and_flags_flips() {
        let mut rng = StdRng::seed_from_u64(0x12AD);
        let params = random_safe_params(&mut rng, 64);
        let check = ResidueCheck::new(&params);
        for _ in 0..20 {
            let x = random_operand(&mut rng, &params);
            let y = random_operand(&mut rng, &params);
            let raw = mont_mul_alg2(&params, &x, &y);
            let canonical = raw.rem(params.n());
            assert!(check.check_lane_hardened(&x, &y, &raw));
            assert!(check.check_lane_hardened(&x, &y, &canonical));
            if raw >= *params.n() {
                // The strict form rejects the canonicalized value —
                // exactly why hardened engines need this variant.
                assert!(!check.check_lane(&x, &y, &canonical));
            }
        }
        // Corruption is still caught (up to the one key-dependent bit
        // position documented on check_lane_hardened).
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let out = mont_mul_alg2(&params, &x, &y).rem(params.n());
        let mut missed = 0usize;
        for bit in 0..(params.l() + 2) {
            let mut corrupted = out.clone();
            let cur = corrupted.bit(bit);
            corrupted.set_bit(bit, !cur);
            if check.check_lane_hardened(&x, &y, &corrupted) {
                missed += 1;
            }
        }
        assert!(missed <= 1, "at most one degraded bit position per key");
    }

    #[test]
    fn verified_engine_corrects_corruption_under_hardening() {
        use crate::config::HardeningMode;
        let mut rng = StdRng::seed_from_u64(0x12AE);
        let params = random_safe_params(&mut rng, 64);
        for kind in EngineKind::ALL {
            let ctx = VerifyContext {
                policy: VerifyPolicy::Full,
                faults: Arc::new(CorruptionPlan::default()),
                quarantine: Arc::new(Quarantine::new()),
            };
            let mut inner = kind.build(params.clone());
            inner.set_hardening(HardeningMode::Hardened);
            let mut engine = VerifiedEngine::new(inner, kind, ctx.clone());
            assert_eq!(engine.hardening(), HardeningMode::Hardened);
            let xs: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &params)).collect();
            let ys: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &params)).collect();
            let want: Vec<Ubig> = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| mont_mul_alg2(&params, x, y).rem(params.n()))
                .collect();
            // Clean hardened batches pass the reduced check untouched.
            let got = engine.mont_mul_batch(&xs, &ys);
            assert_eq!(got, want, "{}", kind.name());
            assert_eq!(ctx.quarantine.stats().violations, 0, "{}", kind.name());
            // An injected flip is caught and corrected to the
            // *canonical* representative.
            ctx.faults.inject_mont_mul_flip(1, 9, 1);
            let got = engine.mont_mul_batch(&xs, &ys);
            assert_eq!(got, want, "{}: corrected lane stays canonical", kind.name());
            assert!(ctx.quarantine.stats().corrected >= 1, "{}", kind.name());
        }
    }

    #[test]
    fn shadow_prime_is_deterministic_per_modulus() {
        let mut rng = StdRng::seed_from_u64(0x77);
        let params = random_safe_params(&mut rng, 64);
        let a = ResidueCheck::new(&params);
        let b = ResidueCheck::new(&params);
        assert_eq!(a.shadow_prime(), b.shadow_prime());
        assert!(SHADOW_PRIMES.contains(&a.shadow_prime()));
    }
}

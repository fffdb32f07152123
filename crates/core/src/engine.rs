//! Backend dispatch: one [`EngineKind`] switch selecting which batch
//! Montgomery multiplier runs under every pooled entry point
//! (`try_mont_mul_many`, `try_modexp_many`, the `mmm-rsa` sessions).
//!
//! Every backend implements the identical Algorithm-2 contract and
//! produces **bit-identical** results lane for lane (asserted by
//! `tests/radix_backend.rs`), so dispatch is purely a performance
//! decision:
//!
//! * [`EngineKind::Cios52`] — the radix-2⁵² carry-save scan
//!   ([`crate::cios52::Cios52Batch`]) with explicit AVX2 /
//!   AVX-512-IFMA kernels selected at runtime
//!   ([`Cios52Kernel::available`]) and a portable auto-vectorizing
//!   fallback; the production default on every host with an AVX2 or
//!   IFMA kernel;
//! * [`EngineKind::Cios`] — the radix-2⁶⁴ word-serial scan
//!   ([`crate::cios::CiosBatch`], ~2·(l/64)² u64 MACs per
//!   multiplication); the production default on hosts without one,
//!   where it beats the portable radix-2⁵² kernel, and the first step
//!   down the quarantine chain;
//! * [`EngineKind::BitSliced`] — the bit-serial systolic-array
//!   simulation ([`crate::batch::BitSlicedBatch`]), retained as the
//!   cycle-accurate fidelity oracle and for wave-model experiments
//!   (~l² single-bit cell updates per multiplication).
//!
//! Both CIOS scans run a batch of at most 32 live lanes on one shared
//! per-lane scalar scan, so a narrow call costs the same on either
//! ([`EngineKind::per_lane_bound`]); they differ only in the kernel of
//! wider calls. The process-wide default is
//! [`EngineKind::default_kind`]: the host's pick
//! ([`EngineConfig::default`]), overridable once per process with
//! `MMM_ENGINE=cios`, `MMM_ENGINE=cios52` or `MMM_ENGINE=bitsliced` —
//! useful for A/B runs of the full serving path without touching call
//! sites. Call-site selection uses [`EngineConfig::with_backend`] or
//! [`EnginePool::checkout_kind`][crate::pool::EnginePool::checkout_kind].

use crate::batch::BitSlicedBatch;
use crate::cios::CiosBatch;
use crate::cios52::{Cios52Batch, Cios52Kernel};
use crate::config::EngineConfig;
use crate::error::MmmError;
use crate::montgomery::MontgomeryParams;
use crate::traits::BatchMontMul;
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;
use std::str::FromStr;
use std::sync::OnceLock;

/// Which batch Montgomery multiplication backend to run. There is no
/// `Default`: the default backend depends on the host's CPU features,
/// and [`EngineConfig::default`] is the one place that picks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Radix-2⁶⁴ CIOS word scan — the production backend on hosts
    /// without an AVX2 or IFMA kernel.
    Cios,
    /// Radix-2⁵² carry-save CIOS scan with explicit SIMD kernels
    /// (portable / AVX2 / AVX-512-IFMA, chosen at runtime) — the
    /// production backend on hosts with an AVX2 or IFMA kernel.
    Cios52,
    /// Bit-sliced systolic-array simulation — the cycle-accurate
    /// fidelity oracle (requires hardware-safe parameters).
    BitSliced,
}

impl EngineKind {
    /// Every backend, for cross-checking sweeps.
    pub const ALL: [EngineKind; 3] = [EngineKind::Cios, EngineKind::Cios52, EngineKind::BitSliced];

    /// Every backend this host can run. Each backend keeps a universal
    /// software path (the radix-2⁵² engine falls back to its portable
    /// kernel when AVX2/IFMA are absent), so today this equals
    /// [`EngineKind::ALL`] on every host — but sweeps should iterate
    /// it anyway so a future hardware-only backend filters itself out
    /// here. The underlying CPU feature detection is performed once
    /// per process and cached ([`Cios52Kernel::available`]); use that
    /// to learn *which* radix-2⁵² kernel (portable/avx2/ifma) actually
    /// runs.
    pub fn available() -> &'static [EngineKind] {
        // Force the one-time feature probe so the first benchmark
        // iteration doesn't pay for it.
        let _ = Cios52Kernel::available();
        &Self::ALL
    }

    /// Short stable name (also the accepted `MMM_ENGINE` values).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Cios => "cios",
            EngineKind::Cios52 => "cios52",
            EngineKind::BitSliced => "bitsliced",
        }
    }

    /// The process-wide default backend: the host's pick (see
    /// [`EngineConfig::default`]), unless the `MMM_ENGINE` environment
    /// variable selects otherwise (`cios` / `cios52` / `bitsliced`). The environment is parsed **once** per
    /// process through [`EngineConfig::from_env`] — the single home of
    /// all `MMM_*` parsing — and the parse *result* is what gets
    /// cached, so an invalid environment produces the same clean panic
    /// message on every call instead of panicking inside a `OnceLock`
    /// initializer on first use only.
    ///
    /// # Panics
    /// Panics on an invalid `MMM_*` environment (the
    /// [`MmmError::Config`] text) — a typo must not silently turn an
    /// A/B comparison into default-vs-default. Fallible callers should use
    /// [`EngineConfig::from_env`] directly.
    pub fn default_kind() -> EngineKind {
        static FROM_ENV: OnceLock<Result<EngineKind, MmmError>> = OnceLock::new();
        match FROM_ENV.get_or_init(|| EngineConfig::from_env().map(|c| c.backend())) {
            Ok(kind) => *kind,
            Err(e) => panic!("{e}"),
        }
    }

    /// The widest batch this backend runs one lane at a time, so that
    /// a call costs in proportion to its live lanes: up to this many
    /// lanes, a batch that waits for more peers pays the same per lane
    /// as one run at once. [`EngineKind::Cios`] and
    /// [`EngineKind::Cios52`] return the lane bound of the per-lane
    /// path both engines share (32, the constant that path reads); the
    /// bit-sliced backend has none, every call costs a full-width
    /// scan, and it returns 0. The serving plane's idle flush reads it
    /// for the backend a shard runs on (DESIGN.md §10).
    pub fn per_lane_bound(self) -> usize {
        match self {
            EngineKind::Cios | EngineKind::Cios52 => crate::cios::SCALAR_LANES,
            EngineKind::BitSliced => 0,
        }
    }

    /// The next-weaker backend in the graceful-degradation chain used
    /// by the integrity layer ([`crate::verify::Quarantine`]): the
    /// SIMD-heavy radix-2⁵² scan degrades to the word-serial CIOS
    /// scan, which degrades to the bit-sliced systolic simulation (the
    /// slowest backend, but the one structurally closest to the
    /// paper's hardware and the anchor of the cross-backend test
    /// oracle). `None` once there is nothing simpler left.
    pub fn weaker(self) -> Option<EngineKind> {
        match self {
            EngineKind::Cios52 => Some(EngineKind::Cios),
            EngineKind::Cios => Some(EngineKind::BitSliced),
            EngineKind::BitSliced => None,
        }
    }

    /// Checks that this backend can run `params`: the bit-sliced
    /// systolic simulation rejects hardware-unsafe parameters with
    /// [`MmmError::HardwareUnsafeWidth`]; the CIOS backend accepts any
    /// valid parameters (there is no carry cell to overflow in a
    /// word-level scan). The one guard every fallible checkout/build
    /// path shares, so a future backend or safety predicate changes in
    /// exactly one place.
    pub fn ensure_supports(self, params: &MontgomeryParams) -> Result<(), MmmError> {
        if self == EngineKind::BitSliced && !params.is_hardware_safe() {
            return Err(MmmError::HardwareUnsafeWidth { l: params.l() });
        }
        Ok(())
    }

    /// Builds a fresh engine of this kind for `params`, rejecting a
    /// bit-sliced request on hardware-unsafe parameters with
    /// [`MmmError::HardwareUnsafeWidth`] (see
    /// [`EngineKind::ensure_supports`]).
    pub fn try_build(self, params: MontgomeryParams) -> Result<AnyBatchEngine, MmmError> {
        match self {
            EngineKind::Cios => Ok(AnyBatchEngine::Cios(CiosBatch::new(params))),
            EngineKind::Cios52 => Ok(AnyBatchEngine::Cios52(Cios52Batch::new(params))),
            EngineKind::BitSliced => {
                Ok(AnyBatchEngine::BitSliced(BitSlicedBatch::try_new(params)?))
            }
        }
    }

    /// Builds a fresh engine of this kind for `params`.
    ///
    /// # Panics
    /// Panics if the bit-sliced backend is requested for parameters
    /// that are not hardware-safe; [`EngineKind::try_build`] is the
    /// fallible variant.
    pub fn build(self, params: MontgomeryParams) -> AnyBatchEngine {
        self.try_build(params).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl FromStr for EngineKind {
    type Err = MmmError;

    /// Parses the stable backend names (`cios`, `cios52`, `bitsliced`,
    /// with `bit-sliced` accepted as an alias) — the inverse of
    /// [`EngineKind::name`] and the parser behind the `MMM_ENGINE`
    /// environment override.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cios" => Ok(EngineKind::Cios),
            "cios52" => Ok(EngineKind::Cios52),
            "bitsliced" | "bit-sliced" => Ok(EngineKind::BitSliced),
            other => Err(MmmError::Config(format!(
                "unrecognized engine backend {other:?} (use cios|cios52|bitsliced)"
            ))),
        }
    }
}

/// A batch engine of either backend behind one concrete type — what
/// the per-key pool stores and hands out, so pooled call sites stay
/// monomorphic while the backend varies at runtime.
#[derive(Debug, Clone)]
pub enum AnyBatchEngine {
    /// Radix-2⁶⁴ CIOS backend.
    Cios(CiosBatch),
    /// Radix-2⁵² carry-save SIMD backend.
    Cios52(Cios52Batch),
    /// Bit-sliced systolic simulation backend.
    BitSliced(BitSlicedBatch),
}

impl AnyBatchEngine {
    /// Which backend this engine is.
    pub fn kind(&self) -> EngineKind {
        match self {
            AnyBatchEngine::Cios(_) => EngineKind::Cios,
            AnyBatchEngine::Cios52(_) => EngineKind::Cios52,
            AnyBatchEngine::BitSliced(_) => EngineKind::BitSliced,
        }
    }

    /// Zeroes any per-loan observable state (the bit-sliced cycle
    /// counter, the hardening mode); recycled engines must look
    /// freshly built. In particular a hardened loan must not leak
    /// canonicalized (`< N`) outputs into the next, unhardened
    /// checkout — DESIGN.md §12.
    pub fn reset_loan_state(&mut self) {
        if let AnyBatchEngine::BitSliced(e) = self {
            e.reset_cycle_counter();
        }
        self.set_hardening(crate::config::HardeningMode::Off);
    }
}

/// `$body` with `$e` bound to the engine inside `$self`, whichever
/// backend it is.
macro_rules! on_engine {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            AnyBatchEngine::Cios($e) => $body,
            AnyBatchEngine::Cios52($e) => $body,
            AnyBatchEngine::BitSliced($e) => $body,
        }
    };
}

/// Every method forwards to the backend's own: the CIOS scans report no
/// cycles (they are software backends, not hardware models), and only
/// the radix-2⁵² backend has SIMD tiers to demote.
impl BatchMontMul for AnyBatchEngine {
    fn params(&self) -> &MontgomeryParams {
        on_engine!(self, e => BatchMontMul::params(e))
    }

    fn max_lanes(&self) -> usize {
        on_engine!(self, e => e.max_lanes())
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        on_engine!(self, e => e.mont_mul_batch(xs, ys))
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        on_engine!(self, e => e.mont_mul_batch_into(xs, ys, out))
    }

    fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        on_engine!(self, e => e.try_mont_mul_rows(x, y, lanes, out))
    }

    fn consumed_cycles(&self) -> Option<u64> {
        on_engine!(self, e => e.consumed_cycles())
    }

    fn demote_kernel(&mut self) -> bool {
        on_engine!(self, e => e.demote_kernel())
    }

    fn set_hardening(&mut self, mode: crate::config::HardeningMode) {
        on_engine!(self, e => e.set_hardening(mode))
    }

    fn hardening(&self) -> crate::config::HardeningMode {
        on_engine!(self, e => e.hardening())
    }

    fn name(&self) -> &'static str {
        on_engine!(self, e => BatchMontMul::name(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modgen::{random_operand, random_safe_params};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_kind_follows_the_host_unless_env_overrides() {
        // Pin the actual dispatch default: with MMM_ENGINE unset — the
        // CI case — default_kind() must be the host's production
        // backend, the radix-2⁵² scan exactly when a SIMD kernel
        // exists; under the documented A/B override it must follow the
        // variable.
        let want = match std::env::var("MMM_ENGINE").as_deref() {
            Ok("bitsliced") | Ok("bit-sliced") => EngineKind::BitSliced,
            Ok("cios52") => EngineKind::Cios52,
            Ok("cios") => EngineKind::Cios,
            _ if Cios52Kernel::active() == Cios52Kernel::Portable => EngineKind::Cios,
            _ => EngineKind::Cios52,
        };
        assert_eq!(EngineKind::default_kind(), want);
    }

    #[test]
    fn kinds_build_matching_engines() {
        let mut rng = StdRng::seed_from_u64(601);
        let p = random_safe_params(&mut rng, 24);
        for kind in EngineKind::ALL {
            let engine = kind.build(p.clone());
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.max_lanes(), 64);
            assert_eq!(BatchMontMul::params(&engine), &p);
        }
    }

    #[test]
    fn all_backends_agree_through_the_dispatch_type() {
        let mut rng = StdRng::seed_from_u64(602);
        let p = random_safe_params(&mut rng, 40);
        let xs: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let mut cios = EngineKind::Cios.build(p.clone());
        let want = cios.mont_mul_batch(&xs, &ys);
        assert_eq!(cios.consumed_cycles(), None);
        for kind in EngineKind::ALL {
            let mut e = kind.build(p.clone());
            assert_eq!(e.mont_mul_batch(&xs, &ys), want, "{}", kind.name());
            assert_eq!(
                e.consumed_cycles().is_some(),
                kind == EngineKind::BitSliced,
                "only the systolic simulation is cycle-accurate"
            );
        }
    }

    #[test]
    fn weaker_chain_is_acyclic_and_ends_at_the_systolic_oracle() {
        assert_eq!(EngineKind::Cios52.weaker(), Some(EngineKind::Cios));
        assert_eq!(EngineKind::Cios.weaker(), Some(EngineKind::BitSliced));
        assert_eq!(EngineKind::BitSliced.weaker(), None);
        for kind in EngineKind::ALL {
            let mut steps = 0;
            let mut cur = Some(kind);
            while let Some(k) = cur {
                cur = k.weaker();
                steps += 1;
                assert!(steps <= EngineKind::ALL.len(), "chain must terminate");
            }
        }
    }

    #[test]
    fn per_lane_bound_is_the_shared_scalar_path_width() {
        assert_eq!(EngineKind::Cios.per_lane_bound(), 32);
        assert_eq!(EngineKind::Cios52.per_lane_bound(), 32);
        assert_eq!(EngineKind::BitSliced.per_lane_bound(), 0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EngineKind::Cios.name(), "cios");
        assert_eq!(EngineKind::Cios52.name(), "cios52");
        assert_eq!(EngineKind::BitSliced.name(), "bitsliced");
    }

    #[test]
    fn available_covers_every_backend_on_software_hosts() {
        // Every current backend has a universal software path, so the
        // host-availability sweep must equal ALL (and be stable —
        // detection is cached process-wide).
        assert_eq!(EngineKind::available(), &EngineKind::ALL);
        assert_eq!(
            EngineKind::available().as_ptr(),
            EngineKind::available().as_ptr()
        );
    }

    #[test]
    fn from_str_roundtrips_names_and_rejects_typos() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.name().parse::<EngineKind>(), Ok(kind));
        }
        assert_eq!(
            "bit-sliced".parse::<EngineKind>(),
            Ok(EngineKind::BitSliced)
        );
        // The typo-must-not-become-default-vs-default guarantee, now as a
        // returned error instead of a OnceLock panic.
        let err = "coos".parse::<EngineKind>().unwrap_err();
        assert!(matches!(err, MmmError::Config(_)), "{err}");
        assert!(err.to_string().contains("coos"), "{err}");
    }

    #[test]
    fn hardening_threads_through_dispatch_and_resets_with_the_loan() {
        use crate::config::HardeningMode;
        let mut rng = StdRng::seed_from_u64(603);
        let p = random_safe_params(&mut rng, 40);
        let xs: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &p)).collect();
        for kind in EngineKind::ALL {
            let mut e = kind.build(p.clone());
            assert_eq!(e.hardening(), HardeningMode::Off);
            e.set_hardening(HardeningMode::Hardened);
            assert_eq!(e.hardening(), HardeningMode::Hardened, "{}", kind.name());
            for out in e.mont_mul_batch(&xs, &ys) {
                assert!(
                    out < *p.n(),
                    "hardened {} output not canonical",
                    kind.name()
                );
            }
            // A recycled loan must come back unhardened.
            e.reset_loan_state();
            assert_eq!(e.hardening(), HardeningMode::Off, "{}", kind.name());
        }
    }

    #[test]
    fn try_build_rejects_bitsliced_on_unsafe_params() {
        // 251 at l=8: 3N-1 = 752 > 2^9 — the leftmost cell can drop a
        // carry, so the systolic simulation must refuse while the
        // word-level CIOS scan accepts.
        let p = MontgomeryParams::tight(&Ubig::from(251u64));
        assert!(!p.is_hardware_safe());
        assert!(matches!(
            EngineKind::BitSliced.try_build(p.clone()),
            Err(MmmError::HardwareUnsafeWidth { l: 8 })
        ));
        assert!(EngineKind::Cios.try_build(p).is_ok());
    }
}

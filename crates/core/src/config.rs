//! Typed engine configuration: one [`EngineConfig`] value carrying
//! every knob that used to live in scattered process-global
//! environment-variable reads.
//!
//! Before this module, backend selection (`MMM_ENGINE`) and the pool
//! cap (`MMM_POOL_KEYS`) were each parsed inside their own `OnceLock`
//! initializer — a typo panicked deep inside first use, and there was
//! no way to configure a single session differently from the process.
//! Now:
//!
//! * [`EngineConfig`] is an ordinary value with builder-style setters
//!   ([`EngineConfig::with_backend`], [`EngineConfig::with_window`],
//!   [`EngineConfig::with_shard_lanes`]) — construct one per session,
//!   per test, per request class. [`EngineConfig::default`] picks the
//!   backend from the host's CPU features: the radix-2⁵² scan where
//!   an AVX2 or IFMA kernel exists, the radix-2⁶⁴ scan elsewhere;
//! * [`EngineConfig::from_env`] is the **single** place environment
//!   variables are parsed, returning `Result<_, MmmError>` instead of
//!   panicking — the process-global defaults
//!   ([`EngineKind::default_kind`][crate::engine::EngineKind::default_kind],
//!   [`pool::global`][crate::pool::global]) call it once and surface
//!   any error as a clean first-use panic with the same message a
//!   fallible caller would have received.
//!
//! ```
//! use mmm_core::config::{EngineConfig, WindowPolicy};
//! use mmm_core::engine::EngineKind;
//!
//! let config = EngineConfig::default()
//!     .with_backend(EngineKind::BitSliced)
//!     .with_window(WindowPolicy::Fixed(4))?
//!     .with_shard_lanes(32)?;
//! assert_eq!(config.backend(), EngineKind::BitSliced);
//! # Ok::<(), mmm_core::error::MmmError>(())
//! ```

use crate::batch::MAX_LANES;
use crate::cios52::Cios52Kernel;
use crate::engine::EngineKind;
use crate::error::MmmError;
use crate::montgomery::MontgomeryParams;
use crate::pool::DEFAULT_MAX_KEYS;
use crate::verify::faults::CorruptionPlan;
use crate::verify::{Quarantine, VerifyContext, VerifyPolicy};
use std::env::VarError;
use std::sync::Arc;
use std::time::Duration;

/// Default flush deadline of the serving front-end: a shard that has
/// not filled its 64 lanes is flushed once its oldest request has sat
/// in it this long, so a singleton request never waits unboundedly for
/// 63 peers that may not exist. An idle worker flushes a shard at or
/// below its backend's
/// [`per_lane_bound`](crate::EngineKind::per_lane_bound) at once, so
/// the deadline bounds the shards above that bound, and every shard
/// while the workers are busy.
pub const DEFAULT_FLUSH_DEADLINE: Duration = Duration::from_millis(2);

/// Default bound on the serving front-end's request queue. A full
/// queue is the backpressure signal ([`MmmError::Overloaded`]) — the
/// server sheds load instead of buffering without limit.
pub const DEFAULT_QUEUE_BOUND: usize = 1024;

/// How the batched exponentiators pick their fixed-window width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Let the shared cost model
    /// ([`crate::expo_window::best_fixed_window`]) pick per batch from
    /// the longest exponent — the right default for mixed traffic.
    #[default]
    Auto,
    /// Always use this window width (validated to `1..=8` by
    /// [`EngineConfig::with_window`]).
    Fixed(usize),
}

/// Whether the serving stack runs its constant-time hardened paths.
///
/// `Off` (the default) is the raw throughput mode documented since
/// PR 2: secret-indexed power-table loads, value-dependent skip
/// scheduling, and outputs in the Algorithm-2 `[0, 2N)` band.
/// `Hardened` closes the timing side channels DESIGN.md §12
/// enumerates: the windowed exponent scan selects table entries by a
/// branchless full-table sweep, every batch engine canonicalizes its
/// output with a branchless final subtraction (results `< N`), the
/// skip-when-all-zero fast path is disabled, and
/// [`KeyedSession`](../../mmm_rsa/server/struct.KeyedSession.html)
/// blinds CRT decryption. Results are **bit-identical** to `Off` mode
/// — only the instruction/access schedule changes (and a measured
/// throughput tax, see BENCH_radix.json).
///
/// Parse from the `MMM_HARDENED` environment variable (via
/// [`EngineConfig::from_env`]) or any string: `1`/`true`/`on`/
/// `hardened` enable, `0`/`false`/`off` disable, anything else is
/// [`MmmError::Config`].
///
/// ```
/// use mmm_core::config::HardeningMode;
///
/// assert_eq!("1".parse::<HardeningMode>()?, HardeningMode::Hardened);
/// assert_eq!("off".parse::<HardeningMode>()?, HardeningMode::Off);
/// assert!("hardend".parse::<HardeningMode>().is_err()); // typo surfaces
/// # Ok::<(), mmm_core::error::MmmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HardeningMode {
    /// Raw throughput mode — no constant-time guarantees (default).
    #[default]
    Off,
    /// Constant-time scan, branchless canonicalizing final
    /// subtraction, and blinded CRT decryption.
    Hardened,
}

impl HardeningMode {
    /// Whether this mode is [`HardeningMode::Hardened`].
    pub fn is_hardened(self) -> bool {
        matches!(self, HardeningMode::Hardened)
    }

    /// The canonical lowercase name (`off` / `hardened`).
    pub fn name(self) -> &'static str {
        match self {
            HardeningMode::Off => "off",
            HardeningMode::Hardened => "hardened",
        }
    }
}

impl std::str::FromStr for HardeningMode {
    type Err = MmmError;

    fn from_str(s: &str) -> Result<Self, MmmError> {
        match s.to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "hardened" => Ok(HardeningMode::Hardened),
            "0" | "false" | "off" => Ok(HardeningMode::Off),
            other => Err(MmmError::Config(format!(
                "unknown hardening mode {other:?} (expected 1/true/on/hardened or 0/false/off)"
            ))),
        }
    }
}

impl std::fmt::Display for HardeningMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every serving-path knob as one typed, validated value: multiplier
/// backend, window policy, shard width and the serving, integrity and
/// hardening settings. See the module docs for the relationship to the
/// `MMM_*` environment variables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    backend: EngineKind,
    window: WindowPolicy,
    pool_capacity: usize,
    shard_lanes: usize,
    flush_deadline: Duration,
    queue_bound: usize,
    workers: usize,
    verify: VerifyPolicy,
    hardening: HardeningMode,
    faults: Arc<CorruptionPlan>,
    quarantine: Arc<Quarantine>,
}

impl PartialEq for EngineConfig {
    /// Compares the configuration *values*. The fault plan and
    /// quarantine ledger are shared instrumentation handles, not
    /// settings, and are deliberately excluded.
    fn eq(&self, other: &Self) -> bool {
        self.backend == other.backend
            && self.window == other.window
            && self.pool_capacity == other.pool_capacity
            && self.shard_lanes == other.shard_lanes
            && self.flush_deadline == other.flush_deadline
            && self.queue_bound == other.queue_bound
            && self.workers == other.workers
            && self.verify == other.verify
            && self.hardening == other.hardening
    }
}

impl Eq for EngineConfig {}

impl Default for EngineConfig {
    /// The production defaults: the host's backend, auto-tuned window,
    /// [`DEFAULT_MAX_KEYS`] pool entries, full 64-lane shards. The
    /// backend is [`EngineKind::Cios52`] when
    /// [`Cios52Kernel::active`] is the AVX2 or IFMA kernel and
    /// [`EngineKind::Cios`] otherwise: both run narrow batches on the
    /// same per-lane scan, the SIMD kernels beat the radix-2⁶⁴ SoA
    /// kernel on wide ones, and the portable radix-2⁵² kernel does not
    /// (DESIGN.md §9). Note this ignores the environment — use
    /// [`EngineConfig::from_env`] for the env-respecting variant.
    fn default() -> Self {
        EngineConfig {
            backend: host_backend(),
            window: WindowPolicy::Auto,
            pool_capacity: DEFAULT_MAX_KEYS,
            shard_lanes: MAX_LANES,
            flush_deadline: DEFAULT_FLUSH_DEADLINE,
            queue_bound: DEFAULT_QUEUE_BOUND,
            workers: default_workers(),
            verify: VerifyPolicy::Off,
            hardening: HardeningMode::Off,
            // A fresh, inert plan per config: arming one test's plan
            // must never corrupt another session's arithmetic.
            faults: Arc::new(CorruptionPlan::default()),
            quarantine: Quarantine::global(),
        }
    }
}

impl EngineConfig {
    /// The configured multiplier backend.
    pub fn backend(&self) -> EngineKind {
        self.backend
    }

    /// The configured fixed-window policy.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// The engine-pool key capacity (`MMM_POOL_KEYS`), read once when
    /// [`pool::try_global`](crate::pool::try_global) builds the
    /// process-wide pool.
    pub(crate) fn pool_capacity(&self) -> usize {
        self.pool_capacity
    }

    /// Lanes per batch shard on the `*_many` / session paths.
    pub fn shard_lanes(&self) -> usize {
        self.shard_lanes
    }

    /// The serving front-end's flush deadline: a partially filled
    /// shard is flushed once its oldest request has sat in it this
    /// long (counted from when a worker filed it). Shards at or below
    /// the backend's per-lane bound usually go sooner, when a worker
    /// finds the queue empty (see [`DEFAULT_FLUSH_DEADLINE`]).
    pub fn flush_deadline(&self) -> Duration {
        self.flush_deadline
    }

    /// The serving front-end's request-queue bound (the backpressure
    /// threshold).
    pub fn queue_bound(&self) -> usize {
        self.queue_bound
    }

    /// Worker threads a serving front-end spawns (defaults to the
    /// host's available parallelism).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured integrity-checking policy
    /// ([`VerifyPolicy::Off`] by default — checking is opt-in).
    pub fn verify(&self) -> VerifyPolicy {
        self.verify
    }

    /// The configured hardening mode ([`HardeningMode::Off`] by
    /// default — constant-time execution is opt-in, like checking).
    pub fn hardening(&self) -> HardeningMode {
        self.hardening
    }

    /// This config's fault-injection plan (inert unless a test armed
    /// it): the engine and CRT corruption hooks, and the flush and
    /// submit hooks of any [`Server`](crate::serve::Server) built
    /// from this config.
    pub fn faults(&self) -> &Arc<CorruptionPlan> {
        &self.faults
    }

    /// The quarantine ledger integrity violations are charged to (the
    /// process-global one unless overridden for test isolation).
    pub fn quarantine(&self) -> &Arc<Quarantine> {
        &self.quarantine
    }

    /// The backend a batched operation on `params` runs on: the
    /// configured one unless the quarantine ledger has benched it, in
    /// which case the strongest healthy backend that supports `params`
    /// ([`Quarantine::effective_kind`]).
    pub fn run_kind(&self, params: &MontgomeryParams) -> EngineKind {
        self.quarantine.effective_kind(self.backend, params)
    }

    /// Bundles the three verification handles for the dispatch paths.
    pub fn verify_context(&self) -> VerifyContext {
        VerifyContext {
            policy: self.verify,
            faults: Arc::clone(&self.faults),
            quarantine: Arc::clone(&self.quarantine),
        }
    }

    /// Selects the multiplier backend (infallible — every backend is a
    /// valid choice at configuration time; a bit-sliced
    /// checkout on hardware-unsafe parameters is rejected at session /
    /// checkout time with [`MmmError::HardwareUnsafeWidth`]).
    pub fn with_backend(mut self, backend: EngineKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the window policy; rejects fixed widths outside `1..=8`
    /// with [`MmmError::WindowOutOfRange`].
    pub fn with_window(mut self, window: WindowPolicy) -> Result<Self, MmmError> {
        if let WindowPolicy::Fixed(w) = window {
            if !(1..=8).contains(&w) {
                return Err(MmmError::WindowOutOfRange { window: w });
            }
        }
        self.window = window;
        Ok(self)
    }

    /// Sets the lanes-per-shard width used when fanning wide workloads
    /// out across cores; rejects widths outside `1..=64` with
    /// [`MmmError::Config`]. Narrower shards trade throughput for
    /// latency (more, smaller rayon tasks).
    pub fn with_shard_lanes(mut self, lanes: usize) -> Result<Self, MmmError> {
        if !(1..=MAX_LANES).contains(&lanes) {
            return Err(MmmError::Config(format!(
                "shard width must be in 1..={MAX_LANES}, got {lanes}"
            )));
        }
        self.shard_lanes = lanes;
        Ok(self)
    }

    /// Sets the serving flush deadline (infallible — any duration is
    /// meaningful: `Duration::ZERO` flushes every request immediately,
    /// the pure-latency end of the latency/throughput knob). It bounds
    /// the wait of shards above the backend's
    /// [`per_lane_bound`](crate::EngineKind::per_lane_bound), and of
    /// every shard while the workers are busy; an idle worker flushes
    /// a shard at or below that bound without waiting for it.
    pub fn with_flush_deadline(mut self, deadline: Duration) -> Self {
        self.flush_deadline = deadline;
        self
    }

    /// Sets the serving request-queue bound; rejects zero with
    /// [`MmmError::Config`] (a server that can never admit a request
    /// is a misconfiguration, not a policy).
    pub fn with_queue_bound(mut self, bound: usize) -> Result<Self, MmmError> {
        if bound == 0 {
            return Err(MmmError::Config(
                "queue bound must be at least 1".to_string(),
            ));
        }
        self.queue_bound = bound;
        Ok(self)
    }

    /// Sets the serving worker-thread count; rejects zero with
    /// [`MmmError::Config`].
    pub fn with_workers(mut self, workers: usize) -> Result<Self, MmmError> {
        if workers == 0 {
            return Err(MmmError::Config(
                "worker count must be at least 1".to_string(),
            ));
        }
        self.workers = workers;
        Ok(self)
    }

    /// Sets the integrity-checking policy (infallible — every policy
    /// value is valid; cost, not correctness, is what varies).
    pub fn with_verify(mut self, policy: VerifyPolicy) -> Self {
        self.verify = policy;
        self
    }

    /// Sets the hardening mode (infallible — both modes are always
    /// valid; Hardened trades throughput for constant-time execution).
    ///
    /// Composes with [`EngineConfig::with_verify`]: hardening closes
    /// *timing* channels, verification closes *fault* channels, and a
    /// production decryption service typically wants both.
    ///
    /// ```
    /// use mmm_core::config::{EngineConfig, HardeningMode};
    /// use mmm_core::verify::VerifyPolicy;
    ///
    /// let c = EngineConfig::default()
    ///     .with_hardening(HardeningMode::Hardened)
    ///     .with_verify(VerifyPolicy::Full);
    /// assert!(c.hardening().is_hardened());
    /// assert_eq!(c.verify(), VerifyPolicy::Full);
    /// ```
    pub fn with_hardening(mut self, hardening: HardeningMode) -> Self {
        self.hardening = hardening;
        self
    }

    /// Substitutes the fault-injection plan — how tests arm
    /// injections on a session or server they are about to drive.
    pub fn with_faults(mut self, faults: Arc<CorruptionPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Substitutes the quarantine ledger — tests use a private one so
    /// injected violations never bench a backend process-wide.
    pub fn with_quarantine(mut self, quarantine: Arc<Quarantine>) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// The default configuration with every recognized `MMM_*`
    /// environment variable applied: `MMM_ENGINE` (`cios` / `cios52` /
    /// `bitsliced`) selects the backend, `MMM_POOL_KEYS` (a positive
    /// integer) the pool capacity, `MMM_VERIFY` (`off` / `sampled` /
    /// `sampled:<k>` / `full`) the integrity-checking policy, and
    /// `MMM_HARDENED` (`1` / `0`, see [`HardeningMode`]) the
    /// constant-time hardening mode. This is the **only** place in the
    /// workspace that parses these variables; an unrecognized or
    /// unreadable value is an [`MmmError::Config`] naming the variable
    /// — never a silent fallback, so a typo cannot turn an A/B
    /// comparison into default-vs-default.
    pub fn from_env() -> Result<Self, MmmError> {
        Self::default().override_from_env()
    }

    /// Applies the `MMM_*` environment overrides on top of `self`
    /// (see [`EngineConfig::from_env`]).
    pub fn override_from_env(self) -> Result<Self, MmmError> {
        self.override_from(|name| std::env::var(name))
    }

    /// [`EngineConfig::override_from_env`] reading each variable
    /// through `lookup` instead of the process environment.
    fn override_from(
        mut self,
        lookup: impl Fn(&str) -> Result<String, VarError>,
    ) -> Result<Self, MmmError> {
        if let Some(backend) = env_override(&lookup, "MMM_ENGINE", str::parse)? {
            self.backend = backend;
        }
        let positive = |v: &str| match v.parse::<usize>() {
            Ok(c) if c >= 1 => Ok(c),
            _ => Err(MmmError::Config(format!(
                "must be a positive integer, got {v:?}"
            ))),
        };
        if let Some(capacity) = env_override(&lookup, "MMM_POOL_KEYS", positive)? {
            self.pool_capacity = capacity;
        }
        if let Some(verify) = env_override(&lookup, "MMM_VERIFY", str::parse)? {
            self.verify = verify;
        }
        if let Some(hardening) = env_override(&lookup, "MMM_HARDENED", str::parse)? {
            self.hardening = hardening;
        }
        Ok(self)
    }
}

/// Reads variable `name` through `lookup` and parses it: an absent
/// variable is `Ok(None)`; an unreadable or unparsable value is an
/// [`MmmError::Config`] naming the variable.
fn env_override<T>(
    lookup: &impl Fn(&str) -> Result<String, VarError>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, MmmError>,
) -> Result<Option<T>, MmmError> {
    match lookup(name) {
        Ok(v) => parse(&v).map(Some).map_err(|e| match e {
            MmmError::Config(msg) => MmmError::Config(format!("{name}: {msg}")),
            other => other,
        }),
        Err(VarError::NotPresent) => Ok(None),
        Err(e) => Err(MmmError::Config(format!("unreadable {name} value: {e}"))),
    }
}

/// The production backend of this host (see [`EngineConfig::default`]).
fn host_backend() -> EngineKind {
    match Cios52Kernel::active() {
        Cios52Kernel::Avx2 | Cios52Kernel::Ifma => EngineKind::Cios52,
        Cios52Kernel::Portable => EngineKind::Cios,
    }
}

/// Default serving worker count: the host's available parallelism
/// (one worker per core, the quad-core-RSA-processor shape), falling
/// back to 1 if the host cannot report it.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host rule of [`EngineConfig::default`]: the radix-2⁵² scan
    /// exactly when a SIMD kernel exists.
    fn host_rule() -> EngineKind {
        if Cios52Kernel::active() == Cios52Kernel::Portable {
            EngineKind::Cios
        } else {
            EngineKind::Cios52
        }
    }

    #[test]
    fn default_matches_production_defaults() {
        let c = EngineConfig::default();
        assert_eq!(c.backend(), host_rule());
        assert_eq!(c.window(), WindowPolicy::Auto);
        assert_eq!(c.pool_capacity(), DEFAULT_MAX_KEYS);
        assert_eq!(c.shard_lanes(), MAX_LANES);
        assert_eq!(c.flush_deadline(), DEFAULT_FLUSH_DEADLINE);
        assert_eq!(c.queue_bound(), DEFAULT_QUEUE_BOUND);
        assert!(c.workers() >= 1);
        assert_eq!(c.verify(), VerifyPolicy::Off, "checking is opt-in");
        assert_eq!(c.hardening(), HardeningMode::Off, "hardening is opt-in");
    }

    #[test]
    fn hardening_mode_parses_and_displays() {
        for s in ["1", "true", "on", "hardened", "HARDENED", "On"] {
            assert_eq!(
                s.parse::<HardeningMode>(),
                Ok(HardeningMode::Hardened),
                "{s}"
            );
        }
        for s in ["0", "false", "off", "OFF"] {
            assert_eq!(s.parse::<HardeningMode>(), Ok(HardeningMode::Off), "{s}");
        }
        for s in ["", "yes", "hardend", "2"] {
            assert!(
                matches!(s.parse::<HardeningMode>(), Err(MmmError::Config(_))),
                "{s:?} must be rejected"
            );
        }
        assert_eq!(HardeningMode::Hardened.to_string(), "hardened");
        assert_eq!(HardeningMode::Off.to_string(), "off");
        assert!(HardeningMode::Hardened.is_hardened());
        assert!(!HardeningMode::Off.is_hardened());
    }

    #[test]
    fn hardening_knob_and_equality() {
        let c = EngineConfig::default().with_hardening(HardeningMode::Hardened);
        assert!(c.hardening().is_hardened());
        // Hardening is a configuration value, not an instrumentation
        // handle: it participates in equality.
        assert_ne!(c, EngineConfig::default());
    }

    #[test]
    fn verify_knobs_and_equality_semantics() {
        let c = EngineConfig::default().with_verify(VerifyPolicy::Full);
        assert_eq!(c.verify(), VerifyPolicy::Full);
        let ctx = c.verify_context();
        assert_eq!(ctx.policy, VerifyPolicy::Full);
        assert!(Arc::ptr_eq(&ctx.faults, c.faults()));
        assert!(Arc::ptr_eq(&ctx.quarantine, c.quarantine()));

        // Equality ignores the instrumentation handles (fresh plan per
        // default config) but not the policy.
        assert_eq!(EngineConfig::default(), EngineConfig::default());
        assert_ne!(EngineConfig::default(), c);
        let q = Arc::new(Quarantine::new());
        assert_eq!(
            EngineConfig::default().with_quarantine(Arc::clone(&q)),
            EngineConfig::default(),
            "handles are not configuration values"
        );
        assert!(Arc::ptr_eq(
            EngineConfig::default()
                .with_quarantine(Arc::clone(&q))
                .quarantine(),
            &q
        ));
        // Default sessions share the process-global quarantine, so
        // serving counters aggregate across sessions.
        assert!(Arc::ptr_eq(
            EngineConfig::default().quarantine(),
            &Quarantine::global()
        ));
        // ... but each default config gets its own inert fault plan.
        assert!(!Arc::ptr_eq(
            EngineConfig::default().faults(),
            EngineConfig::default().faults()
        ));
    }

    #[test]
    fn serving_knobs_validate() {
        let c = EngineConfig::default()
            .with_flush_deadline(Duration::from_micros(250))
            .with_queue_bound(8)
            .unwrap()
            .with_workers(3)
            .unwrap();
        assert_eq!(c.flush_deadline(), Duration::from_micros(250));
        assert_eq!(c.queue_bound(), 8);
        assert_eq!(c.workers(), 3);
        // Zero deadline is a policy (flush immediately), zero
        // queue/workers are misconfigurations.
        let zero = EngineConfig::default().with_flush_deadline(Duration::ZERO);
        assert_eq!(zero.flush_deadline(), Duration::ZERO);
        assert!(matches!(
            EngineConfig::default().with_queue_bound(0),
            Err(MmmError::Config(_))
        ));
        assert!(matches!(
            EngineConfig::default().with_workers(0),
            Err(MmmError::Config(_))
        ));
    }

    #[test]
    fn builder_setters_validate() {
        let c = EngineConfig::default()
            .with_backend(EngineKind::BitSliced)
            .with_window(WindowPolicy::Fixed(5))
            .unwrap()
            .with_shard_lanes(16)
            .unwrap();
        assert_eq!(c.backend(), EngineKind::BitSliced);
        assert_eq!(c.window(), WindowPolicy::Fixed(5));
        assert_eq!(c.shard_lanes(), 16);

        assert_eq!(
            EngineConfig::default().with_window(WindowPolicy::Fixed(0)),
            Err(MmmError::WindowOutOfRange { window: 0 })
        );
        assert_eq!(
            EngineConfig::default().with_window(WindowPolicy::Fixed(9)),
            Err(MmmError::WindowOutOfRange { window: 9 })
        );
        assert!(matches!(
            EngineConfig::default().with_shard_lanes(0),
            Err(MmmError::Config(_))
        ));
        assert!(matches!(
            EngineConfig::default().with_shard_lanes(65),
            Err(MmmError::Config(_))
        ));
    }

    /// `override_from` over a fixed variable table, never the process
    /// environment (which every test in the binary shares).
    fn with_vars(vars: &[(&str, &str)]) -> Result<EngineConfig, MmmError> {
        EngineConfig::default().override_from(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
                .ok_or(VarError::NotPresent)
        })
    }

    #[test]
    fn env_typos_are_config_errors_naming_the_variable() {
        let typos = [
            ("MMM_HARDENED", "typo"),
            ("MMM_HARDENED", "2"),
            ("MMM_HARDENED", "yes!"),
            ("MMM_HARDENED", " hardened"),
            ("MMM_ENGINE", "coos"),
            ("MMM_POOL_KEYS", "0"),
            ("MMM_POOL_KEYS", "many"),
            ("MMM_VERIFY", "sampled:0"),
        ];
        for (name, typo) in typos {
            match with_vars(&[(name, typo)]) {
                Err(MmmError::Config(msg)) => {
                    assert!(msg.contains(name), "names the variable: {msg}");
                    assert!(msg.contains(typo.trim()), "echoes the value: {msg}");
                }
                other => panic!("{name}={typo:?}: expected a Config error, got {other:?}"),
            }
        }
        let unreadable = EngineConfig::default()
            .override_from(|_| Err(VarError::NotUnicode("\u{fffd}".into())))
            .unwrap_err();
        assert!(unreadable.to_string().contains("unreadable MMM_ENGINE"));
    }

    #[test]
    fn env_values_override_the_defaults() {
        for (ok, want) in [
            ("1", HardeningMode::Hardened),
            ("on", HardeningMode::Hardened),
            ("hardened", HardeningMode::Hardened),
            ("0", HardeningMode::Off),
            ("off", HardeningMode::Off),
        ] {
            let c = with_vars(&[("MMM_HARDENED", ok)]).unwrap();
            assert_eq!(c.hardening(), want, "{ok}");
        }
        let c = with_vars(&[
            ("MMM_ENGINE", "cios52"),
            ("MMM_POOL_KEYS", "7"),
            ("MMM_VERIFY", "full"),
        ])
        .unwrap();
        assert_eq!(c.backend(), EngineKind::Cios52);
        assert_eq!(c.pool_capacity(), 7);
        assert_eq!(c.verify(), VerifyPolicy::Full);
        assert_eq!(
            with_vars(&[]).unwrap(),
            EngineConfig::default(),
            "absent variables keep the defaults"
        );
    }

    #[test]
    fn from_env_without_overrides_is_default() {
        // The test environment leaves MMM_ENGINE / MMM_POOL_KEYS unset
        // (or, in the CI engine-override jobs, MMM_ENGINE=cios /
        // cios52 / bitsliced — which from_env must follow, like
        // default_kind does).
        let c = EngineConfig::from_env().expect("clean environment parses");
        match std::env::var("MMM_ENGINE").as_deref() {
            Ok("bitsliced") | Ok("bit-sliced") => {
                assert_eq!(c.backend(), EngineKind::BitSliced)
            }
            Ok("cios52") => assert_eq!(c.backend(), EngineKind::Cios52),
            Ok("cios") => assert_eq!(c.backend(), EngineKind::Cios),
            _ => assert_eq!(c.backend(), host_rule()),
        }
        assert_eq!(c.window(), WindowPolicy::Auto);
    }
}

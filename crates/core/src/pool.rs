//! Per-key engine pool: cached [`MontgomeryParams`] and warm batch
//! engines of **either backend**, keyed by `(modulus, width)`, with
//! bounded LRU eviction.
//!
//! The serving shape this workspace targets is *one key, many
//! requests*: every batch entry point (`try_mont_mul_many`,
//! `try_modexp_many`, the `mmm-rsa` session sign/verify/decrypt paths)
//! used to rebuild `MontgomeryParams` — several wide divisions — and
//! allocate a fresh engine on **every call**. Under sustained traffic
//! that is pure overhead: the modulus set is small (one per RSA key,
//! two per CRT key) and engine state is perfectly reusable.
//!
//! [`EnginePool`] fixes both:
//!
//! * [`EnginePool::params_for`] caches hardware-safe parameters per
//!   modulus (constants included, since `MontgomeryParams`
//!   precomputes them at construction);
//! * [`EnginePool::checkout_kind`] hands out a warm engine of the
//!   requested backend for the parameters, building one only when
//!   every pooled engine of that kind for that key is already on
//!   loan. The returned
//!   [`PooledEngine`] implements [`BatchMontMul`] and parks its engine
//!   back in the pool on drop, so rayon workers naturally recycle
//!   engines across shards and calls.
//!
//! ## Bounded LRU eviction
//!
//! The pool caps its key population (default
//! [`DEFAULT_MAX_KEYS`]; [`EnginePool::with_capacity`] tunes it): when
//! a fresh `(modulus, width)` would exceed the cap, the
//! least-recently-used key entry — its parameters *and* its idle
//! engines — is dropped. A process feeding ephemeral or rotating
//! moduli through the pooled entry points therefore holds at most
//! `capacity` sets of parameters instead of growing monotonically;
//! evicted keys simply rebuild on next use (observable as a fresh
//! `key_misses` increment). Engines on loan keep an `Arc` to their
//! (now orphaned) entry and are dropped with it when returned.
//!
//! One retention caveat remains: an entry keyed by a secret modulus
//! (the CRT primes behind `mmm-rsa`'s `KeyedSession::decrypt_crt`)
//! keeps that secret in memory until evicted or
//! [`EnginePool::clear`]ed — this workspace is a throughput simulator,
//! not a hardened key store; nothing here is zeroized.
//!
//! The process-wide instance is [`global`], and [`try_sharded`] is the
//! one shard fan-out every batched operation runs through: it splits
//! the lanes into shard-wide ranges and checks one engine out of
//! [`global`] per range.

use crate::config::EngineConfig;
use crate::engine::{AnyBatchEngine, EngineKind};
use crate::error::MmmError;
use crate::montgomery::MontgomeryParams;
use crate::traits::BatchMontMul;
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;
use rayon::prelude::*;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering from poisoning instead of panicking.
///
/// The pool's locks guard state that is **valid by construction** at
/// every instant a guard can be dropped: the key map and the idle
/// lists are plain collections whose entries are complete values —
/// there is no multi-step invariant a panicking holder could leave
/// half-written. Poisoning therefore carries no information here, and
/// propagating it (`.expect("poisoned")`) would let one panicked
/// checkout — e.g. a fault-injected serving worker — brick the
/// process-global pool and cascade the failure to every other key and
/// caller. The serving plane ([`crate::serve`]) makes the same
/// argument for its own locks and reuses this helper.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default cap on distinct `(modulus, width)` entries a pool retains:
/// generous for real key populations (an RSA key costs two entries on
/// the CRT path, plus one for the public modulus), small enough that
/// rotating-key workloads stay bounded.
pub const DEFAULT_MAX_KEYS: usize = 64;

/// Counters describing how well the pool is amortizing setup work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Key lookups that found a cached entry.
    pub key_hits: u64,
    /// Key lookups that had to build parameters.
    pub key_misses: u64,
    /// Checkouts served by a warm, previously returned engine.
    pub engine_reuses: u64,
    /// Checkouts that had to construct a fresh engine.
    pub engine_builds: u64,
    /// Key entries dropped by the LRU policy to stay under capacity.
    pub evictions: u64,
}

/// Number of backends the pool keeps idle lists for (one per
/// [`EngineKind`]; sized from `ALL` so a new variant grows the array
/// at compile time instead of panicking on first checkout).
const BACKENDS: usize = EngineKind::ALL.len();

/// One pooled key: its parameters, idle engines per backend, and the
/// LRU stamp of its last use.
#[derive(Debug)]
struct KeyEntry {
    params: MontgomeryParams,
    /// Idle engines, one list per [`EngineKind`] (indexable because
    /// `EngineKind::ALL` is dense).
    idle: [Mutex<Vec<AnyBatchEngine>>; BACKENDS],
    /// Logical clock value of the most recent lookup of this key.
    last_used: AtomicU64,
}

impl KeyEntry {
    fn idle_of(&self, kind: EngineKind) -> &Mutex<Vec<AnyBatchEngine>> {
        &self.idle[kind as usize]
    }
}

/// A pool of per-key parameters and warm batch engines with a bounded
/// LRU key population.
#[derive(Debug)]
pub struct EnginePool {
    /// Width → (modulus → entry). The two-level shape lets the hit
    /// path probe with the caller's `&Ubig` — no modulus clone, no
    /// allocation — and keeps the map lock free of any wide
    /// arithmetic (entries are built outside it).
    keys: Mutex<HashMap<usize, HashMap<Ubig, Arc<KeyEntry>>>>,
    /// Maximum number of key entries retained (≥ 1).
    capacity: usize,
    /// Monotonic logical clock stamping entry uses for LRU order.
    clock: AtomicU64,
    key_hits: AtomicU64,
    key_misses: AtomicU64,
    engine_reuses: AtomicU64,
    engine_builds: AtomicU64,
    evictions: AtomicU64,
}

impl Default for EnginePool {
    fn default() -> Self {
        EnginePool::new()
    }
}

impl EnginePool {
    /// Creates an empty pool retaining up to [`DEFAULT_MAX_KEYS`] keys.
    pub fn new() -> Self {
        EnginePool::with_capacity(DEFAULT_MAX_KEYS)
    }

    /// Creates an empty pool retaining up to `capacity` key entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "pool capacity must be at least 1");
        EnginePool {
            keys: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            key_hits: AtomicU64::new(0),
            key_misses: AtomicU64::new(0),
            engine_reuses: AtomicU64::new(0),
            engine_builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The key-entry cap this pool was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up (or creates) the entry for modulus `n` at width `l`,
    /// building parameters with `make` **outside** the map lock on a
    /// miss (the constant divisions must not stall other keys'
    /// checkouts). Two threads racing on the same fresh key may both
    /// build; the first insert wins and the loser's build is discarded
    /// — `key_misses` counts build attempts. Inserting past capacity
    /// evicts the least-recently-used entry.
    fn entry_with(
        &self,
        n: &Ubig,
        l: usize,
        make: impl FnOnce() -> MontgomeryParams,
    ) -> Arc<KeyEntry> {
        {
            let keys = lock_unpoisoned(&self.keys);
            if let Some(entry) = keys.get(&l).and_then(|per_n| per_n.get(n)) {
                self.key_hits.fetch_add(1, Ordering::Relaxed);
                let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                entry.last_used.store(stamp, Ordering::Relaxed);
                return Arc::clone(entry);
            }
        }
        self.key_misses.fetch_add(1, Ordering::Relaxed);
        let params = make();
        debug_assert!(params.n() == n && params.l() == l, "make() key mismatch");
        // Stamp *after* the (slow) build, just before insert: a stamp
        // taken up front could already be the globally oldest by the
        // time the build finishes, making the fresh entry the first
        // eviction victim under contention.
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(KeyEntry {
            params,
            idle: std::array::from_fn(|_| Mutex::new(Vec::new())),
            last_used: AtomicU64::new(stamp),
        });
        let mut keys = lock_unpoisoned(&self.keys);
        let entry = Arc::clone(keys.entry(l).or_default().entry(n.clone()).or_insert(entry));
        self.evict_lru_locked(&mut keys);
        entry
    }

    /// Drops least-recently-used entries until the population fits the
    /// cap. Called with the map lock held, right after an insert.
    fn evict_lru_locked(&self, keys: &mut HashMap<usize, HashMap<Ubig, Arc<KeyEntry>>>) {
        loop {
            let population: usize = keys.values().map(HashMap::len).sum();
            if population <= self.capacity {
                return;
            }
            // O(population) scan — the cap is small by design. Only
            // the single victim's modulus is cloned (the scan runs
            // under the map lock; per-entry clones would stall
            // concurrent checkouts for nothing).
            let victim = keys
                .iter()
                .flat_map(|(&l, per_n)| {
                    per_n
                        .iter()
                        .map(move |(n, e)| (e.last_used.load(Ordering::Relaxed), l, n))
                })
                .min_by_key(|(stamp, _, _)| *stamp)
                .map(|(_, l, n)| (l, n.clone()));
            let Some((l, n)) = victim else { return };
            if let Some(per_n) = keys.get_mut(&l) {
                per_n.remove(&n);
                if per_n.is_empty() {
                    keys.remove(&l);
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cached hardware-safe parameters for modulus `n` (the expensive
    /// constant divisions run once per key, not once per call).
    pub fn params_for(&self, n: &Ubig) -> MontgomeryParams {
        let l = MontgomeryParams::min_hardware_width(n);
        self.entry_with(n, l, || MontgomeryParams::new(n, l))
            .params
            .clone()
    }

    /// Fallible [`EnginePool::checkout_kind`]: rejects a bit-sliced
    /// checkout on hardware-unsafe parameters with
    /// [`MmmError::HardwareUnsafeWidth`] instead of panicking inside
    /// the engine constructor — the serving-session path uses this so
    /// a misconfigured backend surfaces as an error at session build,
    /// not a crash at first request.
    pub fn try_checkout_kind(
        &self,
        params: &MontgomeryParams,
        kind: EngineKind,
    ) -> Result<PooledEngine, MmmError> {
        kind.ensure_supports(params)?;
        Ok(self.checkout_kind(params, kind))
    }

    /// Checks out a warm engine of backend `kind` for `params`,
    /// building one only if no idle engine of that kind is pooled for
    /// this key. The engine returns to the pool when the guard drops.
    ///
    /// # Panics
    /// Panics if the bit-sliced backend is requested for
    /// hardware-unsafe parameters;
    /// [`EnginePool::try_checkout_kind`] is the fallible variant.
    pub fn checkout_kind(&self, params: &MontgomeryParams, kind: EngineKind) -> PooledEngine {
        // The caller already computed the params, so a miss here costs
        // one clone, never a division.
        let entry = self.entry_with(params.n(), params.l(), || params.clone());
        let idle = lock_unpoisoned(entry.idle_of(kind)).pop();
        let engine = match idle {
            Some(mut engine) => {
                self.engine_reuses.fetch_add(1, Ordering::Relaxed);
                // A recycled engine must look fresh to its borrower:
                // cycle counts are a per-loan observable.
                engine.reset_loan_state();
                engine
            }
            None => {
                self.engine_builds.fetch_add(1, Ordering::Relaxed);
                kind.build(entry.params.clone())
            }
        };
        PooledEngine {
            engine: Some(engine),
            home: entry,
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            key_hits: self.key_hits.load(Ordering::Relaxed),
            key_misses: self.key_misses.load(Ordering::Relaxed),
            engine_reuses: self.engine_reuses.load(Ordering::Relaxed),
            engine_builds: self.engine_builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached key and idle engine (engines on loan return
    /// to a fresh entry the next time their key is used).
    pub fn clear(&self) {
        lock_unpoisoned(&self.keys).clear();
    }
}

/// RAII guard over a checked-out batch engine: usable wherever a
/// [`BatchMontMul`] is expected, parked back into its pool (under its
/// backend's idle list) on drop.
#[derive(Debug)]
pub struct PooledEngine {
    engine: Option<AnyBatchEngine>,
    home: Arc<KeyEntry>,
}

impl PooledEngine {
    fn engine_mut(&mut self) -> &mut AnyBatchEngine {
        self.engine.as_mut().expect("engine present until drop")
    }

    fn engine_ref(&self) -> &AnyBatchEngine {
        self.engine.as_ref().expect("engine present until drop")
    }

    /// Which backend this loan carries.
    pub fn kind(&self) -> EngineKind {
        self.engine_ref().kind()
    }
}

impl Drop for PooledEngine {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            lock_unpoisoned(self.home.idle_of(engine.kind())).push(engine);
        }
    }
}

impl BatchMontMul for PooledEngine {
    fn params(&self) -> &MontgomeryParams {
        self.engine_ref().params()
    }

    fn max_lanes(&self) -> usize {
        self.engine_ref().max_lanes()
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        self.engine_mut().mont_mul_batch(xs, ys)
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        self.engine_mut().mont_mul_batch_into(xs, ys, out);
    }

    fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        self.engine_mut().try_mont_mul_rows(x, y, lanes, out)
    }

    fn consumed_cycles(&self) -> Option<u64> {
        self.engine_ref().consumed_cycles()
    }

    fn demote_kernel(&mut self) -> bool {
        // The demoted engine is parked back on drop, so the whole pool
        // stops re-issuing the faulty kernel for this key — exactly
        // what a persistent SIMD fault needs.
        self.engine_mut().demote_kernel()
    }

    fn set_hardening(&mut self, mode: crate::config::HardeningMode) {
        // Unlike demotion, hardening is a per-loan property: checkout
        // resets it to Off (`AnyBatchEngine::reset_loan_state`), so a
        // hardened borrower never bleeds canonicalized outputs into an
        // unhardened one sharing the pool.
        self.engine_mut().set_hardening(mode);
    }

    fn hardening(&self) -> crate::config::HardeningMode {
        self.engine_ref().hardening()
    }

    fn name(&self) -> &'static str {
        self.engine_ref().name()
    }
}

/// The process-wide pool used by the sharded `try_*_many` entry points
/// and the `mmm-rsa` sessions. Its key cap is [`DEFAULT_MAX_KEYS`],
/// overridable once per process with the `MMM_POOL_KEYS` environment
/// variable (a positive integer) — the escape hatch for serving
/// processes whose live key population exceeds the default (each CRT
/// RSA key costs three entries: `N`, `p`, `q`), where LRU thrash
/// would otherwise degrade checkouts to rebuild-per-call.
///
/// The environment is parsed once through
/// [`EngineConfig::from_env`] — the single home of all `MMM_*`
/// parsing — and the parse *result* is cached, so an invalid
/// environment yields the same clean panic on every call rather than
/// a one-shot panic inside a `OnceLock` initializer.
///
/// # Panics
/// Panics on an invalid `MMM_*` environment (the [`MmmError::Config`]
/// text) — a typo must not silently fall back to the default cap.
/// [`try_global`] is the fallible variant the `try_*`/session paths
/// use, so callers who never opted into env parsing get the broken
/// environment as an error value instead of a process abort.
pub fn global() -> &'static EnginePool {
    try_global().unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`global`]: returns the process-wide pool, or the
/// [`MmmError::Config`] describing the invalid `MMM_*` environment.
/// The parse runs once; the cached result is shared with [`global`].
pub fn try_global() -> Result<&'static EnginePool, MmmError> {
    static POOL: OnceLock<Result<EnginePool, MmmError>> = OnceLock::new();
    POOL.get_or_init(|| {
        EngineConfig::from_env().map(|c| EnginePool::with_capacity(c.pool_capacity()))
    })
    .as_ref()
    .map_err(Clone::clone)
}

/// Counters of the process-wide pool ([`PoolStats`]: key hits/misses,
/// engine reuses/builds, LRU evictions) — the operator-facing view of
/// cache health and eviction churn, paired with
/// [`Quarantine::stats`](crate::verify::Quarantine::stats) for the
/// degraded-backend state, so neither needs a debugger to inspect.
/// Fails like [`try_global`] on a broken `MMM_*` environment.
pub fn global_stats() -> Result<PoolStats, MmmError> {
    try_global().map(EnginePool::stats)
}

/// The one shard fan-out of every batched operation: splits `0..lanes`
/// into [`EngineConfig::shard_lanes`]-wide ranges, checks out one warm
/// engine of backend `kind` per range from the process-wide pool in
/// `config`'s hardening mode, runs `job(engine, range)` on every range
/// in parallel, and joins the outputs in range order.
///
/// Callers pass [`EngineConfig::run_kind`] as `kind`, so dispatch
/// follows the quarantine ledger. One range runs on the calling thread
/// with no fan-out; zero lanes return `Ok(vec![])` without running
/// `job`. The first error in range order is returned: a job's own, or
/// [`MmmError::HardwareUnsafeWidth`] when `kind` cannot run `params`,
/// or the [`MmmError::Config`] of a broken `MMM_*` environment.
pub fn try_sharded<T, F>(
    params: &MontgomeryParams,
    kind: EngineKind,
    config: &EngineConfig,
    lanes: usize,
    job: F,
) -> Result<Vec<T>, MmmError>
where
    T: Send,
    F: Fn(PooledEngine, Range<usize>) -> Result<Vec<T>, MmmError> + Sync,
{
    let pool = try_global()?;
    let width = config.shard_lanes();
    let ranges: Vec<Range<usize>> = (0..lanes)
        .step_by(width)
        .map(|start| start..lanes.min(start + width))
        .collect();
    let outs = ranges
        .into_par_iter()
        .map(|range| {
            let mut engine = pool.try_checkout_kind(params, kind)?;
            engine.set_hardening(config.hardening());
            job(engine, range)
        })
        .collect::<Result<Vec<Vec<T>>, MmmError>>()?;
    Ok(outs.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modgen::{random_operand, random_safe_params};
    use crate::montgomery::mont_mul_alg2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn checkout_reuses_engines_and_params() {
        let mut rng = StdRng::seed_from_u64(401);
        let pool = EnginePool::new();
        let p = random_safe_params(&mut rng, 24);
        {
            let _a = pool.checkout_kind(&p, EngineKind::Cios);
            let _b = pool.checkout_kind(&p, EngineKind::Cios);
            let s = pool.stats();
            assert_eq!(s.engine_builds, 2, "both on loan: two builds");
            assert_eq!(s.engine_reuses, 0);
        }
        // Both returned; the next two checkouts must be warm.
        let _c = pool.checkout_kind(&p, EngineKind::Cios);
        let _d = pool.checkout_kind(&p, EngineKind::Cios);
        let s = pool.stats();
        assert_eq!(s.engine_builds, 2);
        assert_eq!(s.engine_reuses, 2);
        assert_eq!(s.key_misses, 1, "one key entry for one modulus");
    }

    #[test]
    fn global_stats_reads_the_process_pool() {
        let before = global_stats().expect("clean environment");
        let mut rng = StdRng::seed_from_u64(409);
        let p = random_safe_params(&mut rng, 16);
        drop(global().checkout_kind(&p, EngineKind::Cios));
        let after = global_stats().expect("clean environment");
        assert!(
            after.engine_builds + after.engine_reuses > before.engine_builds + before.engine_reuses,
            "the checkout must be visible in the public counters"
        );
    }

    #[test]
    fn pooled_engine_demotion_walks_every_simd_tier() {
        use crate::cios52::Cios52Kernel;
        let mut rng = StdRng::seed_from_u64(410);
        let pool = EnginePool::new();
        let p = random_safe_params(&mut rng, 24);
        let mut loan = pool.checkout_kind(&p, EngineKind::Cios52);
        let mut demotions = 0;
        while loan.demote_kernel() {
            demotions += 1;
        }
        assert_eq!(
            demotions,
            Cios52Kernel::available().len() - 1,
            "one demotion per tier down to portable"
        );
        // Backends with a single implementation have nothing to step
        // down — the default hook reports false.
        let mut cios = pool.checkout_kind(&p, EngineKind::Cios);
        assert!(!cios.demote_kernel());
    }

    #[test]
    fn default_checkout_follows_process_default_and_kinds_pool_separately() {
        let mut rng = StdRng::seed_from_u64(405);
        let pool = EnginePool::new();
        let p = random_safe_params(&mut rng, 20);
        // The process default (`MMM_ENGINE`, CIOS when unset) is just
        // one more kind: its engine parks under its own idle list.
        let default = EngineKind::default_kind();
        {
            let a = pool.checkout_kind(&p, default);
            assert_eq!(a.kind(), default);
        }
        {
            let c = pool.checkout_kind(&p, EngineKind::Cios);
            assert_eq!(c.kind(), EngineKind::Cios);
            assert_eq!(c.name(), "radix-2^64 CIOS batch (64 lanes)");
        }
        // A bit-sliced request must not steal a parked CIOS engine.
        {
            let b = pool.checkout_kind(&p, EngineKind::BitSliced);
            assert_eq!(b.kind(), EngineKind::BitSliced);
        }
        // One build per distinct backend: an explicit checkout of the
        // default's kind reuses the engine the default parked.
        let kinds = 2 + usize::from(!matches!(default, EngineKind::Cios | EngineKind::BitSliced));
        assert_eq!(
            pool.stats().engine_builds,
            kinds as u64,
            "one build per backend"
        );
        // Now every kind is warm: five checkouts, `kinds` builds.
        let _c = pool.checkout_kind(&p, EngineKind::Cios);
        let _d = pool.checkout_kind(&p, EngineKind::BitSliced);
        assert_eq!(pool.stats().engine_reuses, 5 - kinds as u64);
    }

    #[test]
    fn pooled_engine_computes_correctly_across_generations() {
        let mut rng = StdRng::seed_from_u64(402);
        let pool = EnginePool::new();
        let p = random_safe_params(&mut rng, 20);
        for round in 0..4 {
            let xs: Vec<Ubig> = (0..5).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..5).map(|_| random_operand(&mut rng, &p)).collect();
            let mut engine = pool.checkout_kind(&p, EngineKind::Cios);
            let got = engine.mont_mul_batch(&xs, &ys);
            for k in 0..5 {
                assert_eq!(got[k], mont_mul_alg2(&p, &xs[k], &ys[k]), "round {round}");
            }
        }
        assert_eq!(
            pool.stats().engine_builds,
            1,
            "one engine serves all rounds"
        );
    }

    #[test]
    fn recycled_engine_reports_only_its_own_cycles() {
        let mut rng = StdRng::seed_from_u64(403);
        let pool = EnginePool::new();
        let p = random_safe_params(&mut rng, 16);
        let xs: Vec<Ubig> = (0..3).map(|_| random_operand(&mut rng, &p)).collect();
        let per_batch = (3 * 16 + 4) as u64;
        {
            let mut first = pool.checkout_kind(&p, EngineKind::BitSliced);
            let _ = first.mont_mul_batch(&xs, &xs);
            let _ = first.mont_mul_batch(&xs, &xs);
            assert_eq!(first.consumed_cycles(), Some(2 * per_batch));
        }
        // Same engine, next loan: the counter starts from zero again.
        let mut second = pool.checkout_kind(&p, EngineKind::BitSliced);
        assert_eq!(pool.stats().engine_reuses, 1, "warm engine recycled");
        assert_eq!(second.consumed_cycles(), Some(0));
        let _ = second.mont_mul_batch(&xs, &xs);
        assert_eq!(second.consumed_cycles(), Some(per_batch));
    }

    #[test]
    fn recycled_engine_does_not_inherit_hardening() {
        use crate::config::HardeningMode;
        let mut rng = StdRng::seed_from_u64(411);
        let pool = EnginePool::new();
        let p = random_safe_params(&mut rng, 18);
        let xs: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &p)).collect();
        {
            let mut hardened = pool.checkout_kind(&p, EngineKind::Cios);
            hardened.set_hardening(HardeningMode::Hardened);
            for out in hardened.mont_mul_batch(&xs, &xs) {
                assert!(out < *p.n(), "hardened loan canonicalizes");
            }
        }
        // Same engine, next loan: back to the raw < 2N contract.
        let mut plain = pool.checkout_kind(&p, EngineKind::Cios);
        assert_eq!(pool.stats().engine_reuses, 1, "warm engine recycled");
        assert_eq!(plain.hardening(), HardeningMode::Off);
        let got = plain.mont_mul_batch(&xs, &xs);
        for k in 0..4 {
            assert_eq!(got[k], mont_mul_alg2(&p, &xs[k], &xs[k]));
        }
    }

    #[test]
    fn params_for_caches_per_modulus() {
        let pool = EnginePool::new();
        let n = Ubig::from(1000003u64);
        let a = pool.params_for(&n);
        let b = pool.params_for(&n);
        assert_eq!(a, b);
        assert_eq!(a, MontgomeryParams::hardware_safe(&n));
        let s = pool.stats();
        assert_eq!(s.key_misses, 1);
        assert_eq!(s.key_hits, 1);
    }

    #[test]
    fn distinct_widths_get_distinct_entries() {
        let pool = EnginePool::new();
        let n = Ubig::from(101u64);
        let narrow = MontgomeryParams::new(&n, 8);
        let wide = MontgomeryParams::new(&n, 10);
        let _a = pool.checkout_kind(&narrow, EngineKind::Cios);
        let _b = pool.checkout_kind(&wide, EngineKind::Cios);
        assert_eq!(pool.stats().key_misses, 2, "width is part of the key");
    }

    #[test]
    fn clear_forgets_idle_engines() {
        let pool = EnginePool::new();
        let n = Ubig::from(1009u64);
        let p = MontgomeryParams::hardware_safe(&n);
        drop(pool.checkout_kind(&p, EngineKind::Cios));
        pool.clear();
        drop(pool.checkout_kind(&p, EngineKind::Cios));
        assert_eq!(pool.stats().engine_builds, 2, "cleared pool rebuilds");
    }

    #[test]
    fn warm_reuse_still_hits_under_the_cap() {
        // Three keys cycling through a capacity-4 pool: every key
        // keeps its entry and its warm engine — zero evictions.
        let mut rng = StdRng::seed_from_u64(406);
        let pool = EnginePool::with_capacity(4);
        let ps: Vec<MontgomeryParams> = (0..3).map(|_| random_safe_params(&mut rng, 18)).collect();
        for round in 0..5 {
            for p in &ps {
                let xs: Vec<Ubig> = (0..3).map(|_| random_operand(&mut rng, p)).collect();
                let mut e = pool.checkout_kind(p, EngineKind::Cios);
                let got = e.mont_mul_batch(&xs, &xs);
                for k in 0..3 {
                    assert_eq!(got[k], mont_mul_alg2(p, &xs[k], &xs[k]), "round {round}");
                }
            }
        }
        let s = pool.stats();
        assert_eq!(s.evictions, 0, "population fits the cap");
        assert_eq!(s.engine_builds, 3, "one engine per key, then warm");
        assert_eq!(s.engine_reuses, 12);
    }

    #[test]
    fn lru_evicts_coldest_key_and_evicted_keys_rebuild() {
        let mut rng = StdRng::seed_from_u64(407);
        let pool = EnginePool::with_capacity(2);
        let a = random_safe_params(&mut rng, 16);
        let b = random_safe_params(&mut rng, 17);
        let c = random_safe_params(&mut rng, 18);
        drop(pool.checkout_kind(&a, EngineKind::Cios));
        drop(pool.checkout_kind(&b, EngineKind::Cios));
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        drop(pool.checkout_kind(&a, EngineKind::Cios));
        drop(pool.checkout_kind(&c, EngineKind::Cios));
        let s = pool.stats();
        assert_eq!(s.evictions, 1, "b evicted to admit c");
        // a and c are still warm…
        drop(pool.checkout_kind(&a, EngineKind::Cios));
        drop(pool.checkout_kind(&c, EngineKind::Cios));
        let s2 = pool.stats();
        assert_eq!(s2.engine_reuses, 3, "a twice, c once");
        assert_eq!(s2.key_misses, 3, "no rebuild for retained keys");
        // …and the evicted key rebuilds from scratch, correctly.
        let xs: Vec<Ubig> = (0..2).map(|_| random_operand(&mut rng, &b)).collect();
        let mut e = pool.checkout_kind(&b, EngineKind::Cios);
        let got = e.mont_mul_batch(&xs, &xs);
        assert_eq!(got[0], mont_mul_alg2(&b, &xs[0], &xs[0]));
        let s3 = pool.stats();
        assert_eq!(s3.key_misses, 4, "evicted key is a fresh miss");
        assert_eq!(s3.evictions, 2, "admitting b evicts the next LRU");
    }

    #[test]
    fn rotating_keys_never_exceed_capacity() {
        // The ephemeral-modulus workload the ROADMAP called out: many
        // one-shot keys must not grow the pool monotonically.
        let mut rng = StdRng::seed_from_u64(408);
        let pool = EnginePool::with_capacity(4);
        for i in 0..20 {
            let p = random_safe_params(&mut rng, 16 + (i % 7));
            let xs = vec![random_operand(&mut rng, &p)];
            let mut e = pool.checkout_kind(&p, EngineKind::Cios);
            let got = e.mont_mul_batch(&xs, &xs);
            assert_eq!(got[0], mont_mul_alg2(&p, &xs[0], &xs[0]), "key {i}");
        }
        let s = pool.stats();
        assert!(s.evictions >= 16, "population stayed bounded: {s:?}");
        let keys = pool.keys.lock().unwrap();
        let population: usize = keys.values().map(HashMap::len).sum();
        assert!(population <= 4, "population {population} exceeds cap");
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn rejects_zero_capacity() {
        let _ = EnginePool::with_capacity(0);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        // One panicked lock holder must not brick the pool: a serving
        // worker that dies mid-checkout leaves the key map and idle
        // lists poisoned but structurally intact, and every later
        // caller recovers via `lock_unpoisoned`.
        let mut rng = StdRng::seed_from_u64(409);
        let pool = Arc::new(EnginePool::new());
        let p = random_safe_params(&mut rng, 20);
        drop(pool.checkout_kind(&p, EngineKind::Cios)); // park one engine so idle lists exist
        let poisoner = Arc::clone(&pool);
        let pp = p.clone();
        let _ = std::thread::spawn(move || {
            let _keys = poisoner.keys.lock().unwrap();
            panic!("injected: die while holding the key map");
        })
        .join();
        let entry = pool.entry_with(p.n(), p.l(), || p.clone());
        let _ = std::thread::spawn(move || {
            let _idle = entry.idle_of(EngineKind::Cios).lock().unwrap();
            panic!("injected: die while holding an idle list");
        })
        .join();
        assert!(pool.keys.is_poisoned(), "the key map really was poisoned");
        // The pool still serves checkouts, reuses the parked engine,
        // and computes correctly.
        let xs: Vec<Ubig> = (0..3).map(|_| random_operand(&mut rng, &pp)).collect();
        let mut e = pool.checkout_kind(&pp, EngineKind::Cios);
        let got = e.mont_mul_batch(&xs, &xs);
        for k in 0..3 {
            assert_eq!(got[k], mont_mul_alg2(&pp, &xs[k], &xs[k]));
        }
        drop(e);
        pool.clear();
        drop(pool.checkout_kind(&pp, EngineKind::Cios));
    }

    #[test]
    fn try_checkout_rejects_bitsliced_on_unsafe_params() {
        let pool = EnginePool::new();
        // 251 at tight width l=8 is hardware-unsafe (3N-1 > 2^9).
        let p = MontgomeryParams::tight(&Ubig::from(251u64));
        assert!(!p.is_hardware_safe());
        assert!(matches!(
            pool.try_checkout_kind(&p, EngineKind::BitSliced),
            Err(MmmError::HardwareUnsafeWidth { l: 8 })
        ));
        // The word-level backend has no carry cell to overflow.
        let cios = pool.try_checkout_kind(&p, EngineKind::Cios).unwrap();
        assert_eq!(cios.kind(), EngineKind::Cios);
    }

    #[test]
    fn try_sharded_tiles_the_lanes_in_order_on_the_run_kind() {
        use crate::config::HardeningMode;
        use crate::verify::{Quarantine, QUARANTINE_THRESHOLD};
        let mut rng = StdRng::seed_from_u64(412);
        let p = random_safe_params(&mut rng, 20);
        // Cios52 is benched, so a Cios52 config runs on Cios.
        let quarantine = Arc::new(Quarantine::new());
        for _ in 0..QUARANTINE_THRESHOLD {
            quarantine.record_violation(EngineKind::Cios52);
        }
        for backend in EngineKind::ALL {
            for hardening in [HardeningMode::Off, HardeningMode::Hardened] {
                for width in [1usize, 2, 64] {
                    let config = EngineConfig::default()
                        .with_backend(backend)
                        .with_hardening(hardening)
                        .with_quarantine(Arc::clone(&quarantine))
                        .with_shard_lanes(width)
                        .unwrap();
                    let kind = config.run_kind(&p);
                    let want = match backend {
                        EngineKind::Cios52 => EngineKind::Cios,
                        other => other,
                    };
                    assert_eq!(kind, want, "{backend:?}");
                    for lanes in [0usize, 1, 63, 64, 65, 129] {
                        let ranges = try_sharded(&p, kind, &config, lanes, |engine, range| {
                            assert_eq!(engine.kind(), kind);
                            assert_eq!(engine.hardening(), hardening);
                            Ok(vec![range])
                        })
                        .unwrap();
                        let what = format!("{backend:?} {hardening} width={width} lanes={lanes}");
                        assert_eq!(ranges.len(), lanes.div_ceil(width), "{what}");
                        let mut next = 0;
                        for range in ranges {
                            assert_eq!(range.start, next, "{what}");
                            assert!(range.end > range.start, "{what}");
                            assert!(range.len() <= width, "{what}");
                            next = range.end;
                        }
                        assert_eq!(next, lanes, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global() as *const EnginePool;
        let b = global() as *const EnginePool;
        assert_eq!(a, b);
    }
}

//! Fault injection: one inert-by-default plan of deterministic
//! switches that make the stack's failure handling testable — the
//! arithmetic integrity layer ([`crate::verify`]) and the serving
//! plane ([`crate::serve`]).
//!
//! A verification layer that has never seen a corrupted value, or a
//! robustness layer that has never seen a failure, is decoration.
//! Every [`EngineConfig`](crate::config::EngineConfig) carries one
//! [`CorruptionPlan`] (a fresh, inert plan per config; reachable via
//! `config.faults()`), and a [`Server`](crate::serve::Server) serves
//! with its config's plan (`server.faults()`). Tests arm it to produce
//! the silent-data-corruption shapes the integrity layer must catch:
//!
//! * **A flipped digit in one lane of a batch multiplication**
//!   ([`CorruptionPlan::inject_mont_mul_flip`]) — the next `n` batch
//!   multiplications flip one bit of one lane's output *after* the
//!   engine computes it, modeling a faulted SIMD lane or a cosmic-ray
//!   bit flip in the result path. Caught by the mod-`m` residue check
//!   ([`crate::verify::ResidueCheck`]) when a
//!   [`VerifyPolicy`](crate::verify::VerifyPolicy) is active.
//! * **A faulted CRT half-run**
//!   ([`CorruptionPlan::inject_crt_half_fault`]) — the next `n`
//!   half-exponentiations of `mmm-rsa`'s CRT decryption have one lane
//!   flipped (and re-reduced mod the half prime, so Garner's inputs
//!   stay in range — the flip still changes the residue with
//!   certainty because the prime is odd). This is the Bellcore fault
//!   model: one wrong half leaks the private key if released. Caught
//!   by verify-before-release (`m^e ≡ c (mod N)`).
//! * **A corrupted pooled parameter**
//!   ([`CorruptionPlan::inject_param_corruption`]) — the next `n`
//!   half-runs perturb one lane's input residue, modeling a bit-rot
//!   in a pooled engine's cached constants producing a wrong
//!   reduction. Also caught by verify-before-release.
//!
//! …and the three production failure shapes the serving plane must
//! absorb:
//!
//! * **Worker panics** ([`CorruptionPlan::inject_flush_panics`]) — the
//!   next `n` flushes panic *outside* the per-flush `catch_unwind`, so
//!   the panic unwinds the whole worker thread. This exercises the
//!   outermost safety nets at once: the worker supervisor loop
//!   restarts the thread, and the in-flight shard's responders
//!   resolve their tickets with
//!   [`MmmError::WorkerPanicked`](crate::MmmError::WorkerPanicked)
//!   from `Drop` — every caller is answered.
//! * **Flush stalls** ([`CorruptionPlan::inject_flush_stalls`]) — the
//!   next `n` flushes sleep before computing, simulating a slow or
//!   wedged backend; any-worker flushing and queue backpressure
//!   must absorb the stall without losing or reordering responses.
//!   [`CorruptionPlan::reset`] ends a stall in progress, so a test can
//!   hold a worker for exactly as long as it needs.
//! * **Queue-full storms** ([`CorruptionPlan::inject_queue_full`]) —
//!   the next `n` submissions are refused as if the bounded queue were
//!   full, producing `MmmError::Overloaded` bursts without needing to
//!   actually saturate a queue.
//!
//! The plan is **inert by default**: the hot path pays one atomic
//! load per hook when nothing is armed. Switches are compiled in
//! unconditionally so integration tests and examples drive them
//! through the public API without a feature flag; arming is scoped to
//! the plan instance (each `EngineConfig::default()` gets its own), so
//! parallel tests never interfere.
//!
//! ## Atomic-ordering convention
//!
//! **Arming switches** are a handoff protocol, so they keep
//! `fetch_update(AcqRel, Acquire)` (the armer's writes — the lane and
//! bit of a flip, the stall duration — must be visible to the thread
//! that wins the slot); **fired counters** are monotone diagnostics
//! read after the fact, so they are `u64` tallies updated and read
//! with `Relaxed` ordering, like the serving counters.

use crate::pool::lock_unpoisoned;
use crate::rows::ROW_LANES;
use mmm_bigint::limbs::{Limb, LIMB_BITS};
use mmm_bigint::Ubig;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Per-config fault switches for the engines, the CRT path and the
/// serving plane. See the module docs; all methods are thread-safe
/// and may be called mid-serving.
#[derive(Debug, Default)]
pub struct CorruptionPlan {
    /// Remaining batch multiplications that must corrupt a lane.
    mont_flips: AtomicUsize,
    /// Lane index for the next mont-mul flip (mod the batch width).
    mont_lane: AtomicUsize,
    /// Bit index for the next mont-mul flip.
    mont_bit: AtomicUsize,
    /// Remaining CRT half-runs that must corrupt a lane.
    half_faults: AtomicUsize,
    /// Lane index for the next half fault (mod the shard width).
    half_lane: AtomicUsize,
    /// Bit index for the next half fault.
    half_bit: AtomicUsize,
    /// Remaining half-runs that must perturb an input residue.
    param_faults: AtomicUsize,
    /// Lane index for the next param perturbation (mod shard width).
    param_lane: AtomicUsize,
    /// Remaining serving flushes that must panic.
    panic_flushes: AtomicUsize,
    /// Remaining serving flushes that must stall.
    stall_flushes: AtomicUsize,
    /// Stall length, microseconds.
    stall_us: AtomicU64,
    /// Bumped by [`CorruptionPlan::reset`]: a stall in progress ends
    /// when it changes.
    stall_epoch: Mutex<u64>,
    /// Wakes stalls in progress on a reset.
    stall_ended: Condvar,
    /// Remaining submissions that must see a full queue.
    full_submits: AtomicUsize,
    /// Observability: injections that actually fired (monotone
    /// tallies — relaxed ordering by the convention above).
    mont_flips_fired: AtomicU64,
    half_faults_fired: AtomicU64,
    param_faults_fired: AtomicU64,
    panics_fired: AtomicU64,
    stalls_fired: AtomicU64,
    fulls_fired: AtomicU64,
}

/// Decrements `counter` if it is positive; true when this caller won
/// one of the armed slots.
fn take_one(counter: &AtomicUsize) -> bool {
    counter
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
        .is_ok()
}

/// Flips bit `bit` of `v` in place.
fn flip_bit_of(v: &mut Ubig, bit: usize) {
    let cur = v.bit(bit);
    v.set_bit(bit, !cur);
}

/// The shared never-armed plan used by internal verification passes
/// (the CRT verify-before-release re-encryption) that must not consume
/// a caller's armed injections. **Never arm this plan** — it is shared
/// process-wide precisely because it stays inert.
pub fn inert_plan() -> Arc<CorruptionPlan> {
    static INERT: OnceLock<Arc<CorruptionPlan>> = OnceLock::new();
    Arc::clone(INERT.get_or_init(|| Arc::new(CorruptionPlan::default())))
}

impl CorruptionPlan {
    /// Arms the next `n` batch multiplications (through any
    /// [`VerifiedEngine`](crate::verify::VerifiedEngine) carrying this
    /// plan) to flip bit `bit` of lane `lane % width`'s output.
    pub fn inject_mont_mul_flip(&self, lane: usize, bit: usize, n: usize) {
        self.mont_lane.store(lane, Ordering::Release);
        self.mont_bit.store(bit, Ordering::Release);
        self.mont_flips.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` CRT half-runs to flip bit `bit` of lane
    /// `lane % width`'s half-result (re-reduced mod the half prime so
    /// downstream Garner arithmetic stays in range; the residue still
    /// changes with certainty since the prime is odd).
    pub fn inject_crt_half_fault(&self, lane: usize, bit: usize, n: usize) {
        self.half_lane.store(lane, Ordering::Release);
        self.half_bit.store(bit, Ordering::Release);
        self.half_faults.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` CRT half-runs to perturb lane
    /// `lane % width`'s *input* residue — the corrupted-pooled-param
    /// model (a wrong cached constant yields a wrong reduction).
    pub fn inject_param_corruption(&self, lane: usize, n: usize) {
        self.param_lane.store(lane, Ordering::Release);
        self.param_faults.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` serving flushes (across all workers of every
    /// server built from this plan's config) to panic.
    pub fn inject_flush_panics(&self, n: usize) {
        self.panic_flushes.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` serving flushes to sleep for `stall` before
    /// running.
    pub fn inject_flush_stalls(&self, stall: Duration, n: usize) {
        self.stall_us.store(
            stall.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Release,
        );
        self.stall_flushes.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` server submissions to be refused as
    /// overloaded.
    pub fn inject_queue_full(&self, n: usize) {
        self.full_submits.fetch_add(n, Ordering::AcqRel);
    }

    /// Disarms every pending injection and ends any flush stall in
    /// progress (fired counters are kept). A test that holds a worker
    /// in a long stall releases it here, at a point of its choosing.
    pub fn reset(&self) {
        *lock_unpoisoned(&self.stall_epoch) += 1;
        self.stall_ended.notify_all();
        self.mont_flips.store(0, Ordering::Release);
        self.half_faults.store(0, Ordering::Release);
        self.param_faults.store(0, Ordering::Release);
        self.panic_flushes.store(0, Ordering::Release);
        self.stall_flushes.store(0, Ordering::Release);
        self.full_submits.store(0, Ordering::Release);
    }

    /// Mont-mul lane flips that actually fired.
    pub fn mont_flips_fired(&self) -> u64 {
        self.mont_flips_fired.load(Ordering::Relaxed)
    }

    /// CRT half faults that actually fired.
    pub fn half_faults_fired(&self) -> u64 {
        self.half_faults_fired.load(Ordering::Relaxed)
    }

    /// Param perturbations that actually fired.
    pub fn param_faults_fired(&self) -> u64 {
        self.param_faults_fired.load(Ordering::Relaxed)
    }

    /// Injected flush panics that actually fired.
    pub fn panics_fired(&self) -> u64 {
        self.panics_fired.load(Ordering::Relaxed)
    }

    /// Injected flush stalls that actually fired.
    pub fn stalls_fired(&self) -> u64 {
        self.stalls_fired.load(Ordering::Relaxed)
    }

    /// Injected queue-full refusals that actually fired.
    pub fn fulls_fired(&self) -> u64 {
        self.fulls_fired.load(Ordering::Relaxed)
    }

    /// Engine-side hook, called on every batch-multiplication output
    /// by [`VerifiedEngine`](crate::verify::VerifiedEngine): `out` is
    /// the result rows ([`crate::rows`]) with `lanes` live lanes.
    /// Applies an armed lane flip (a bit past the rows wraps modulo
    /// their width); true when a corruption fired.
    pub fn corrupt_mont_batch(&self, out: &mut [Limb], lanes: usize) -> bool {
        let bits = out.len() / ROW_LANES * LIMB_BITS;
        if lanes == 0 || bits == 0 || !take_one(&self.mont_flips) {
            return false;
        }
        let lane = self.mont_lane.load(Ordering::Acquire) % lanes;
        let bit = self.mont_bit.load(Ordering::Acquire) % bits;
        out[bit / LIMB_BITS * ROW_LANES + lane] ^= 1 << (bit % LIMB_BITS);
        self.mont_flips_fired.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// CRT-side hook, called by `mmm-rsa` on every half-run result
    /// slice with the half modulus. Applies an armed half fault; true
    /// when a corruption fired.
    pub fn corrupt_crt_half(&self, outs: &mut [Ubig], modulus: &Ubig) -> bool {
        if outs.is_empty() || !take_one(&self.half_faults) {
            return false;
        }
        let lane = self.half_lane.load(Ordering::Acquire) % outs.len();
        flip_bit_of(&mut outs[lane], self.half_bit.load(Ordering::Acquire));
        outs[lane] = outs[lane].rem(modulus);
        self.half_faults_fired.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// CRT-side hook, called by `mmm-rsa` on every half-run's *input*
    /// residues. Applies an armed param perturbation (adds one mod the
    /// half modulus — always a different residue); true when fired.
    pub fn corrupt_param_residue(&self, residues: &mut [Ubig], modulus: &Ubig) -> bool {
        if residues.is_empty() || !take_one(&self.param_faults) {
            return false;
        }
        let lane = self.param_lane.load(Ordering::Acquire) % residues.len();
        residues[lane] = residues[lane].modadd(&Ubig::one(), modulus);
        self.param_faults_fired.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Serving-worker hook, called at the top of every flush. Applies
    /// an armed stall, then an armed panic.
    ///
    /// # Panics
    /// Panics (by design) when a flush panic is armed.
    pub(crate) fn on_flush(&self) {
        if take_one(&self.stall_flushes) {
            let until =
                Instant::now() + Duration::from_micros(self.stall_us.load(Ordering::Acquire));
            let mut epoch = lock_unpoisoned(&self.stall_epoch);
            let armed_in = *epoch;
            // Counted under the lock, so a reset by a thread that saw
            // this stall fire always ends it.
            self.stalls_fired.fetch_add(1, Ordering::Relaxed);
            while *epoch == armed_in {
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                epoch = self
                    .stall_ended
                    .wait_timeout(epoch, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        if take_one(&self.panic_flushes) {
            self.panics_fired.fetch_add(1, Ordering::Relaxed);
            panic!("injected worker panic (mmm_core::verify::faults)");
        }
    }

    /// Submit-side hook: true when this submission must be refused as
    /// overloaded.
    pub(crate) fn on_submit(&self) -> bool {
        if !take_one(&self.full_submits) {
            return false;
        }
        self.fulls_fired.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_by_default() {
        let plan = CorruptionPlan::default();
        let mut rows = vec![5; ROW_LANES];
        assert!(!plan.corrupt_mont_batch(&mut rows, 1));
        assert_eq!(rows[0], 5);
        let mut outs = vec![Ubig::from(5u64)];
        assert!(!plan.corrupt_crt_half(&mut outs, &Ubig::from(13u64)));
        assert!(!plan.corrupt_param_residue(&mut outs, &Ubig::from(13u64)));
        assert_eq!(outs[0], Ubig::from(5u64));
        plan.on_flush();
        assert!(!plan.on_submit());
        for fired in [
            plan.mont_flips_fired(),
            plan.half_faults_fired(),
            plan.param_faults_fired(),
            plan.panics_fired(),
            plan.stalls_fired(),
            plan.fulls_fired(),
        ] {
            assert_eq!(fired, 0);
        }
    }

    #[test]
    fn armed_flip_fires_exactly_n_times_on_the_chosen_lane() {
        let plan = CorruptionPlan::default();
        // Two rows, two live lanes; bit 66 is bit 2 of lane 1's row 1.
        plan.inject_mont_mul_flip(1, 66, 2);
        let mut rows = vec![8; 2 * ROW_LANES];
        assert!(plan.corrupt_mont_batch(&mut rows, 2));
        assert_eq!(rows[1], 8, "row 0 untouched");
        assert_eq!(rows[ROW_LANES], 8, "lane 0 untouched");
        assert_eq!(rows[ROW_LANES + 1], 12, "bit 2 of lane 1's row 1 flipped");
        assert!(plan.corrupt_mont_batch(&mut rows, 2));
        assert!(!plan.corrupt_mont_batch(&mut rows, 2), "disarmed after n");
        assert_eq!(plan.mont_flips_fired(), 2);
    }

    #[test]
    fn half_fault_keeps_the_residue_reduced_but_changed() {
        let plan = CorruptionPlan::default();
        let q = Ubig::from(17u64);
        // Flip a bit above the modulus: the result must re-reduce.
        plan.inject_crt_half_fault(0, 9, 1);
        let mut outs = vec![Ubig::from(16u64)];
        assert!(plan.corrupt_crt_half(&mut outs, &q));
        assert!(outs[0] < q, "stays a valid residue");
        assert_ne!(outs[0], Ubig::from(16u64), "odd modulus: flip detected");
        assert_eq!(plan.half_faults_fired(), 1);
    }

    #[test]
    fn param_corruption_changes_the_residue_and_reset_disarms() {
        let plan = CorruptionPlan::default();
        let p = Ubig::from(13u64);
        plan.inject_param_corruption(0, 3);
        let mut rs = vec![Ubig::from(12u64)];
        assert!(plan.corrupt_param_residue(&mut rs, &p));
        assert_eq!(rs[0], Ubig::zero(), "12 + 1 wraps mod 13");
        plan.reset();
        assert!(!plan.corrupt_param_residue(&mut rs, &p), "reset disarms");
        assert_eq!(plan.param_faults_fired(), 1);
    }

    #[test]
    fn armed_panic_fires_exactly_n_times() {
        let plan = CorruptionPlan::default();
        plan.inject_flush_panics(2);
        for _ in 0..2 {
            let r = std::panic::catch_unwind(|| plan.on_flush());
            assert!(r.is_err(), "armed flush must panic");
        }
        plan.on_flush(); // disarmed again
        assert_eq!(plan.panics_fired(), 2);
    }

    #[test]
    fn armed_stall_sleeps() {
        let plan = CorruptionPlan::default();
        plan.inject_flush_stalls(Duration::from_millis(15), 1);
        let t0 = std::time::Instant::now();
        plan.on_flush();
        assert!(t0.elapsed() >= Duration::from_millis(15));
        let t1 = std::time::Instant::now();
        plan.on_flush();
        assert!(t1.elapsed() < Duration::from_millis(15), "one-shot stall");
        assert_eq!(plan.stalls_fired(), 1);
    }

    #[test]
    fn reset_ends_a_stall_in_progress() {
        let plan = Arc::new(CorruptionPlan::default());
        plan.inject_flush_stalls(Duration::from_secs(600), 1);
        let t0 = Instant::now();
        let stalled = {
            let plan = Arc::clone(&plan);
            std::thread::spawn(move || plan.on_flush())
        };
        while plan.stalls_fired() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        plan.reset();
        stalled.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(60), "released early");
        assert_eq!(plan.stalls_fired(), 1);
    }

    #[test]
    fn queue_full_storm_and_reset() {
        let plan = CorruptionPlan::default();
        plan.inject_queue_full(3);
        assert!(plan.on_submit());
        plan.reset();
        assert!(!plan.on_submit(), "reset disarms the storm");
        assert_eq!(plan.fulls_fired(), 1);
    }

    #[test]
    fn inert_plan_is_shared_and_unarmed() {
        let a = inert_plan();
        let b = inert_plan();
        assert!(Arc::ptr_eq(&a, &b));
        let mut rows = vec![1; ROW_LANES];
        assert!(!a.corrupt_mont_batch(&mut rows, 1));
    }
}

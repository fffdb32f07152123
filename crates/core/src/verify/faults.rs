//! Engine-level corruption injection: deterministic switches that make
//! the *arithmetic* integrity layer ([`crate::verify`]) testable, the
//! way [`mmm-rsa`'s serving fault plan] makes the serving layer's
//! failure modes testable.
//!
//! A verification layer that has never seen a corrupted value is
//! decoration. Every [`EngineConfig`](crate::config::EngineConfig)
//! carries one [`CorruptionPlan`] (a fresh, inert plan per config;
//! reachable via `config.faults()`); tests arm it to produce the three
//! silent-data-corruption shapes the integrity layer must catch:
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
//! The plan is **inert by default**: the hot path pays one atomic
//! load per hook when nothing is armed. Switches are compiled in
//! unconditionally so integration tests drive them through the public
//! API without a feature flag; arming is scoped to the plan instance
//! (each `EngineConfig::default()` gets its own), so parallel tests
//! never interfere.
//!
//! [`mmm-rsa`'s serving fault plan]: ../../../mmm_rsa/serve/faults/index.html

use mmm_bigint::Ubig;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-config engine-corruption switches. See the module docs; all
/// methods are thread-safe and may be called mid-serving.
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
    /// Observability: injections that actually fired (monotone
    /// tallies — relaxed ordering by the workspace convention).
    mont_flips_fired: AtomicU64,
    half_faults_fired: AtomicU64,
    param_faults_fired: AtomicU64,
}

/// Decrements `counter` if it is positive; true when this caller won
/// one of the armed slots (same pattern as the serving fault plan).
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

    /// Disarms every pending injection (fired counters are kept).
    pub fn reset(&self) {
        self.mont_flips.store(0, Ordering::Release);
        self.half_faults.store(0, Ordering::Release);
        self.param_faults.store(0, Ordering::Release);
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

    /// Engine-side hook, called on every batch-multiplication output
    /// by [`VerifiedEngine`](crate::verify::VerifiedEngine). Applies
    /// an armed lane flip; true when a corruption fired.
    pub fn corrupt_mont_batch(&self, outs: &mut [Ubig]) -> bool {
        if outs.is_empty() || !take_one(&self.mont_flips) {
            return false;
        }
        let lane = self.mont_lane.load(Ordering::Acquire) % outs.len();
        flip_bit_of(&mut outs[lane], self.mont_bit.load(Ordering::Acquire));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_by_default() {
        let plan = CorruptionPlan::default();
        let mut outs = vec![Ubig::from(5u64)];
        assert!(!plan.corrupt_mont_batch(&mut outs));
        assert!(!plan.corrupt_crt_half(&mut outs, &Ubig::from(13u64)));
        assert!(!plan.corrupt_param_residue(&mut outs, &Ubig::from(13u64)));
        assert_eq!(outs[0], Ubig::from(5u64));
        assert_eq!(plan.mont_flips_fired(), 0);
        assert_eq!(plan.half_faults_fired(), 0);
        assert_eq!(plan.param_faults_fired(), 0);
    }

    #[test]
    fn armed_flip_fires_exactly_n_times_on_the_chosen_lane() {
        let plan = CorruptionPlan::default();
        plan.inject_mont_mul_flip(1, 2, 2);
        let mut outs = vec![Ubig::from(8u64), Ubig::from(8u64)];
        assert!(plan.corrupt_mont_batch(&mut outs));
        assert_eq!(outs[0], Ubig::from(8u64), "lane 0 untouched");
        assert_eq!(outs[1], Ubig::from(12u64), "bit 2 of lane 1 flipped");
        assert!(plan.corrupt_mont_batch(&mut outs));
        assert!(!plan.corrupt_mont_batch(&mut outs), "disarmed after n");
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
    fn inert_plan_is_shared_and_unarmed() {
        let a = inert_plan();
        let b = inert_plan();
        assert!(Arc::ptr_eq(&a, &b));
        let mut outs = vec![Ubig::one()];
        assert!(!a.corrupt_mont_batch(&mut outs));
    }
}

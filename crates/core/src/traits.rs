//! The [`MontMul`] abstraction: one interface over every Montgomery
//! multiplication engine in the workspace (software Algorithm 2, the
//! fast wave model, the gate-level MMMC, and the baselines), so the
//! exponentiator, RSA and ECC layers are engine-agnostic.

use crate::config::HardeningMode;
use crate::error::{validate_mont_batch, MmmError};
use crate::montgomery::{mont_mul_alg2, MontgomeryParams};
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;

/// A Montgomery multiplication engine with the paper's contract:
/// `mont_mul(x, y) ≡ x·y·R⁻¹ (mod N)` with `R = 2^{l+2}`, operands and
/// result bounded by `2N`.
pub trait MontMul {
    /// The engine's fixed parameters (modulus and width).
    fn params(&self) -> &MontgomeryParams;

    /// One Montgomery multiplication.
    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig;

    /// Total simulated clock cycles consumed so far, if this engine is
    /// cycle-accurate (`None` for pure software references).
    fn consumed_cycles(&self) -> Option<u64> {
        None
    }

    /// Engine name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// A Montgomery multiplication engine advancing several **independent**
/// multiplications per call — the serving-throughput interface.
///
/// All lanes share the engine's modulus (`params().n()`); lane `k` of
/// the result is `mont_mul(xs[k], ys[k])` with the same contract as
/// [`MontMul`]: `x·y·R⁻¹ (mod N)`, operands and results `< 2N`. Every
/// lane must be bit-identical to what a scalar engine produces, so the
/// two interfaces are freely interchangeable.
pub trait BatchMontMul {
    /// The engine's fixed parameters (modulus and width).
    fn params(&self) -> &MontgomeryParams;

    /// Largest batch one call accepts (64 for the bit-sliced engine;
    /// shard wider workloads, e.g. with
    /// [`crate::batch::try_mont_mul_many`]).
    fn max_lanes(&self) -> usize;

    /// One batch of Montgomery multiplications: lane `k` of the result
    /// is `xs[k]·ys[k]·R⁻¹ (mod N)`.
    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig>;

    /// Fallible [`BatchMontMul::mont_mul_batch`]: validates the batch
    /// contract up front (non-empty, equal lengths, within
    /// [`BatchMontMul::max_lanes`], every operand `< 2N` — reported
    /// with the offending lane index) and returns a typed
    /// [`MmmError`] instead of panicking. The Ok path is bit-identical
    /// to the panicking entry point on every engine.
    fn try_mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        validate_mont_batch(self.params(), self.max_lanes(), xs, ys)?;
        Ok(self.mont_mul_batch(xs, ys))
    }

    /// Like [`BatchMontMul::mont_mul_batch`], but writing into a
    /// caller-provided buffer so engines that support it can recycle
    /// the output lanes' allocations across calls (every batch engine
    /// does, through the staging adapter of [`crate::rows`]). The
    /// default delegates to `mont_mul_batch`.
    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        *out = self.mont_mul_batch(xs, ys);
    }

    /// One batch of Montgomery multiplications on operands already in
    /// the engines' limb-row layout ([`crate::rows`]): limb `j` of lane
    /// `k` at `[j·64 + k]`, `s = ⌈(l+2)/64⌉` rows, every buffer
    /// `s · 64` limbs. Lanes `0..lanes` are live: their results land in
    /// the same columns of `out`, bit-identical to
    /// [`BatchMontMul::mont_mul_batch`] on the same lanes. Dead
    /// columns of `x` and `y` are ignored; dead columns of `out` are
    /// unspecified.
    ///
    /// Rejects `lanes` outside `1..=64`
    /// ([`MmmError::EmptyBatch`], [`MmmError::BatchTooWide`]), a
    /// buffer of the wrong length ([`MmmError::LengthMismatch`]) and a
    /// live operand `≥ 2N` ([`MmmError::OperandOutOfRange`] naming its
    /// lane). This is the engines' one contract: `CiosBatch`,
    /// `Cios52Batch` and `BitSlicedBatch` multiply the rows in place and
    /// serve their `Vec<Ubig>` methods from here. The default, for
    /// engines with no rows entry of their own, converts the live lanes
    /// to `Ubig`, runs [`BatchMontMul::mont_mul_batch_into`] and
    /// converts back.
    fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        crate::rows::via_lanes(self, x, y, lanes, out)
    }

    /// Total simulated clock cycles consumed so far, if cycle-accurate.
    fn consumed_cycles(&self) -> Option<u64> {
        None
    }

    /// Steps the engine down one implementation tier (e.g. IFMA →
    /// AVX2 → portable for the radix-2⁵² SIMD kernels) after the
    /// integrity layer ([`crate::verify`]) catches this engine
    /// producing a corrupted lane — a broken vector unit should stop
    /// being used without benching the whole backend. Returns `true`
    /// if a demotion happened; the default is `false` (nothing to
    /// step down), which single-implementation engines keep.
    fn demote_kernel(&mut self) -> bool {
        false
    }

    /// Switches the engine's constant-time hardening mode. Under
    /// [`HardeningMode::Hardened`] the engine appends a branchless
    /// canonicalizing final subtraction to every multiplication, so
    /// outputs are fully reduced (`< N`) instead of the raw
    /// Algorithm-2 `< 2N` band — the same *residue*, the canonical
    /// representative, identically on every backend (DESIGN.md §12).
    /// The default is a no-op for engines with no hardened path (the
    /// research/reference engines).
    fn set_hardening(&mut self, _mode: HardeningMode) {}

    /// The engine's current hardening mode ([`HardeningMode::Off`]
    /// unless [`BatchMontMul::set_hardening`] switched it and the
    /// engine supports hardening).
    fn hardening(&self) -> HardeningMode {
        HardeningMode::Off
    }

    /// Engine name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// The software reference engine: Algorithm 2 executed on [`Ubig`]s.
/// Not cycle-accurate; used as the oracle and as the fast path for
/// RSA/ECC when hardware fidelity is not needed.
#[derive(Debug, Clone)]
pub struct SoftwareEngine {
    params: MontgomeryParams,
}

impl SoftwareEngine {
    /// Creates the engine.
    pub fn new(params: MontgomeryParams) -> Self {
        SoftwareEngine { params }
    }
}

impl MontMul for SoftwareEngine {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig {
        mont_mul_alg2(&self.params, x, y)
    }

    fn name(&self) -> &'static str {
        "software Algorithm 2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_engine_is_not_cycle_accurate() {
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let e = SoftwareEngine::new(p);
        assert_eq!(e.consumed_cycles(), None);
        assert_eq!(e.name(), "software Algorithm 2");
    }

    #[test]
    fn software_engine_contract() {
        let n = Ubig::from(97u64);
        let p = MontgomeryParams::new(&n, 7);
        let mut e = SoftwareEngine::new(p.clone());
        let x = Ubig::from(150u64); // < 2N = 194
        let y = Ubig::from(193u64);
        let got = e.mont_mul(&x, &y);
        let rinv = p.r().rem(&n).modinv(&n).unwrap();
        assert_eq!(got.rem(&n), (&x * &y).modmul(&rinv, &n));
        assert!(got < p.two_n());
    }
}

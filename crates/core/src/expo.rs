//! Algorithm 3 — modular exponentiation by left-to-right
//! square-and-multiply over any [`MontMul`] engine, with the
//! Montgomery-domain pre- and post-processing of §4.5:
//!
//! 1. pre-compute `M̄ = Mont(M, R² mod N) = M·R mod N`;
//! 2. run Algorithm 3 on `M̄` (squares and multiplies stay in the
//!    domain and never need reduction, thanks to Walter's bound);
//! 3. post-process `Mont(A, 1)`, which strips the `R` factor.
//!
//! `R² mod N` is computed in software and fed as a circuit operand, as
//! real deployments do (the paper's `5l+10`-cycle pre-computation is
//! modelled in [`crate::cost`]).

use crate::montgomery::MontgomeryParams;
use crate::traits::MontMul;
use mmm_bigint::Ubig;

/// Statistics from one exponentiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpoStats {
    /// Squarings performed (Step 3 of Algorithm 3).
    pub squarings: u64,
    /// Conditional multiplications performed (Step 5).
    pub multiplications: u64,
    /// Montgomery multiplications total, including pre/post transforms.
    pub total_mont_muls: u64,
}

/// A modular exponentiator bound to a Montgomery engine.
#[derive(Debug, Clone)]
pub struct ModExp<E: MontMul> {
    engine: E,
    stats: ExpoStats,
}

impl<E: MontMul> ModExp<E> {
    /// Wraps an engine.
    pub fn new(engine: E) -> Self {
        ModExp {
            engine,
            stats: ExpoStats::default(),
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MontgomeryParams {
        self.engine.params()
    }

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> ExpoStats {
        self.stats
    }

    /// Access to the underlying engine (e.g. for cycle counts).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Computes `m^e mod N`.
    ///
    /// # Panics
    /// Panics if `m ≥ N` (messages must be reduced residues).
    pub fn modexp(&mut self, m: &Ubig, e: &Ubig) -> Ubig {
        let params = self.engine.params().clone();
        let n = params.n().clone();
        assert!(m < &n, "message must be < N");
        if e.is_zero() {
            return if n.is_one() {
                Ubig::zero()
            } else {
                Ubig::one()
            };
        }

        // Pre-computation: M̄ = Mont(M, R² mod N) = M·R mod 2N.
        let r2 = params.r2_mod_n();
        let mbar = self.engine.mont_mul(m, &r2);
        self.stats.total_mont_muls += 1;

        // Algorithm 3 body: A ← M̄; scan e from bit t−2 down to 0.
        let t = e.bit_len();
        let mut a = mbar.clone();
        for i in (0..t.saturating_sub(1)).rev() {
            a = self.engine.mont_mul(&a, &a);
            self.stats.squarings += 1;
            self.stats.total_mont_muls += 1;
            if e.bit(i) {
                a = self.engine.mont_mul(&a, &mbar);
                self.stats.multiplications += 1;
                self.stats.total_mont_muls += 1;
            }
        }

        // Post-processing: Mont(A, 1) ≤ N, with equality only when
        // A ≡ 0 (mod N) — in that case the residue is 0.
        let result = self.engine.mont_mul(&a, &Ubig::one());
        self.stats.total_mont_muls += 1;
        if result == n {
            Ubig::zero()
        } else {
            debug_assert!(result < n, "post-processing bound violated");
            result
        }
    }

    /// Total simulated cycles consumed by the engine, if it counts.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::SoftwareEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn soft(n: u64, l: usize) -> ModExp<SoftwareEngine> {
        let p = MontgomeryParams::new(&Ubig::from(n), l);
        ModExp::new(SoftwareEngine::new(p))
    }

    #[test]
    fn matches_bigint_modpow_small() {
        let mut me = soft(101, 7);
        let n = Ubig::from(101u64);
        for m in [0u64, 1, 2, 50, 100] {
            for e in [1u64, 2, 3, 17, 100, 255] {
                let got = me.modexp(&Ubig::from(m), &Ubig::from(e));
                let want = Ubig::from(m).modpow(&Ubig::from(e), &n);
                assert_eq!(got, want, "m={m} e={e}");
            }
        }
    }

    #[test]
    fn exponent_zero_and_one() {
        let mut me = soft(97, 7);
        assert_eq!(me.modexp(&Ubig::from(5u64), &Ubig::zero()), Ubig::one());
        assert_eq!(me.modexp(&Ubig::from(5u64), &Ubig::one()), Ubig::from(5u64));
    }

    #[test]
    fn base_zero() {
        let mut me = soft(97, 7);
        assert_eq!(me.modexp(&Ubig::zero(), &Ubig::from(5u64)), Ubig::zero());
    }

    #[test]
    #[should_panic(expected = "message must be < N")]
    fn rejects_unreduced_message() {
        let mut me = soft(97, 7);
        let _ = me.modexp(&Ubig::from(97u64), &Ubig::from(2u64));
    }

    #[test]
    fn stats_count_algorithm3_operations() {
        let mut me = soft(101, 7);
        // e = 0b1011: t = 4, 3 squarings, 2 multiplies.
        let _ = me.modexp(&Ubig::from(7u64), &Ubig::from(0b1011u64));
        let s = me.stats();
        assert_eq!(s.squarings, 3);
        assert_eq!(s.multiplications, 2);
        // pre + 3 + 2 + post = 7.
        assert_eq!(s.total_mont_muls, 7);
    }

    #[test]
    fn random_agreement_with_modpow_across_widths() {
        let mut rng = StdRng::seed_from_u64(123);
        for l in [8usize, 16, 32, 64] {
            let mut n = Ubig::random_exact_bits(&mut rng, l);
            n.set_bit(0, true);
            if n.is_one() {
                continue;
            }
            let p = MontgomeryParams::new(&n, l);
            let mut me = ModExp::new(SoftwareEngine::new(p));
            for _ in 0..5 {
                let m = Ubig::random_below(&mut rng, &n);
                let e = Ubig::random_bits(&mut rng, l);
                let e = if e.is_zero() { Ubig::one() } else { e };
                assert_eq!(me.modexp(&m, &e), m.modpow(&e, &n), "l={l}");
            }
        }
    }
}

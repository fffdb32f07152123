//! GF(p) arithmetic routed through a Montgomery multiplication engine.
//!
//! Elements are kept in the Montgomery domain (`x̄ = x·R mod N`) with
//! the Algorithm-2 residue bound `x̄ < 2N` — never fully reduced
//! between operations, exactly as the hardware would hold them:
//!
//! * multiplication is one engine call (`Mont(x̄, ȳ) = x·y·R mod N`,
//!   output `< 2N`);
//! * addition computes `x̄ + ȳ < 4N` and conditionally subtracts `2N`
//!   once — a single bounded correction, *not* a general reduction;
//! * negation/subtraction use the `2N` complement.
//!
//! Leaving the domain (for affine coordinates or display) costs one
//! multiplication by 1 plus a final conditional subtraction.

use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::traits::MontMul;

/// A GF(p) element in the Montgomery domain, bounded by `2p`.
pub type Fe = Ubig;

/// Field context: an engine plus the constants needed to enter/leave
/// the Montgomery domain.
#[derive(Debug, Clone)]
pub struct FieldCtx<E: MontMul> {
    engine: E,
    two_n: Ubig,
    r2: Ubig,
}

impl<E: MontMul> FieldCtx<E> {
    /// Wraps an engine whose modulus is the field prime.
    pub fn new(engine: E) -> Self {
        FieldCtx {
            two_n: engine.params().two_n(),
            r2: engine.params().r2_mod_n(),
            engine,
        }
    }

    /// The engine parameters.
    pub fn params(&self) -> &MontgomeryParams {
        self.engine.params()
    }

    /// The field prime.
    pub fn p(&self) -> &Ubig {
        self.engine.params().n()
    }

    /// Enters the Montgomery domain: `x ↦ x·R mod 2p`.
    pub fn to_mont(&mut self, x: &Ubig) -> Fe {
        let r2 = self.r2.clone();
        self.engine.mont_mul(&x.rem(self.p()), &r2)
    }

    /// Leaves the domain, returning a fully reduced value `< p`.
    pub fn from_mont(&mut self, x: &Fe) -> Ubig {
        let v = self.engine.mont_mul(x, &Ubig::one());
        if &v >= self.p() {
            v - self.p()
        } else {
            v
        }
    }

    /// Domain multiplication.
    pub fn mul(&mut self, a: &Fe, b: &Fe) -> Fe {
        self.engine.mont_mul(a, b)
    }

    /// Domain squaring.
    pub fn sqr(&mut self, a: &Fe) -> Fe {
        self.engine.mont_mul(a, a)
    }

    /// Domain addition with single conditional correction.
    pub fn add(&mut self, a: &Fe, b: &Fe) -> Fe {
        let s = a + b;
        if s >= self.two_n {
            s - &self.two_n
        } else {
            s
        }
    }

    /// Domain subtraction (`a − b mod 2p`).
    pub fn sub(&mut self, a: &Fe, b: &Fe) -> Fe {
        if a >= b {
            a - b
        } else {
            &(a + &self.two_n) - b
        }
    }

    /// Domain doubling.
    pub fn dbl(&mut self, a: &Fe) -> Fe {
        self.add(&a.clone(), a)
    }

    /// Multiplication by a small constant via repeated addition.
    pub fn mul_small(&mut self, a: &Fe, k: u64) -> Fe {
        let mut acc = Ubig::zero();
        let mut base = a.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc = self.add(&acc, &base);
            }
            base = self.dbl(&base);
            k >>= 1;
        }
        acc
    }

    /// Field inversion (leaves and re-enters the domain; inversion is
    /// host-side arithmetic, as in the paper's ECC processor sketch
    /// where it is done once, at the end, for the affine conversion).
    pub fn inv(&mut self, a: &Fe) -> Option<Fe> {
        let plain = self.from_mont(a);
        let inv = plain.modinv(self.p())?;
        Some(self.to_mont(&inv))
    }

    /// True iff the element represents zero (`≡ 0 mod p`; residues are
    /// bounded by `2p`, so the only representations are `0` and `p`).
    pub fn is_zero(&self, a: &Fe) -> bool {
        a.is_zero() || a == self.p()
    }

    /// Cycle count consumed by the engine so far, if cycle-accurate.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::traits::SoftwareEngine;

    fn ctx(p: u64) -> FieldCtx<SoftwareEngine> {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(p));
        FieldCtx::new(SoftwareEngine::new(params))
    }

    #[test]
    fn domain_roundtrip() {
        let mut f = ctx(97);
        for x in [0u64, 1, 50, 96] {
            let m = f.to_mont(&Ubig::from(x));
            assert_eq!(f.from_mont(&m), Ubig::from(x), "x={x}");
        }
    }

    #[test]
    fn field_ops_match_plain_arithmetic() {
        let mut f = ctx(97);
        for a in [0u64, 3, 50, 96] {
            for b in [1u64, 42, 96] {
                let am = f.to_mont(&Ubig::from(a));
                let bm = f.to_mont(&Ubig::from(b));
                let mul = f.mul(&am, &bm);
                assert_eq!(f.from_mont(&mul), Ubig::from(a * b % 97), "mul {a}*{b}");
                let add = f.add(&am, &bm);
                assert_eq!(f.from_mont(&add), Ubig::from((a + b) % 97), "add {a}+{b}");
                let sub = f.sub(&am, &bm);
                assert_eq!(
                    f.from_mont(&sub),
                    Ubig::from((a + 97 - b) % 97),
                    "sub {a}-{b}"
                );
            }
        }
    }

    #[test]
    fn residues_stay_bounded() {
        let mut f = ctx(97);
        let mut x = f.to_mont(&Ubig::from(13u64));
        for _ in 0..100 {
            x = f.add(&x, &x.clone());
            assert!(x < f.two_n.clone());
            x = f.sqr(&x);
            assert!(x < f.two_n.clone());
        }
    }

    #[test]
    fn inversion() {
        let mut f = ctx(97);
        for a in [1u64, 2, 42, 96] {
            let am = f.to_mont(&Ubig::from(a));
            let inv = f.inv(&am).unwrap();
            let prod = f.mul(&am, &inv);
            assert_eq!(f.from_mont(&prod), Ubig::one(), "a={a}");
        }
        let zero = f.to_mont(&Ubig::zero());
        assert!(f.inv(&zero).is_none());
    }

    #[test]
    fn mul_small_matches() {
        let mut f = ctx(97);
        let a = f.to_mont(&Ubig::from(13u64));
        for k in [0u64, 1, 2, 3, 8, 31] {
            let got = f.mul_small(&a, k);
            assert_eq!(f.from_mont(&got), Ubig::from(13 * k % 97), "k={k}");
        }
    }

    #[test]
    fn is_zero_recognizes_representations() {
        let mut f = ctx(97);
        let z = f.to_mont(&Ubig::zero());
        assert!(f.is_zero(&z));
        let one = f.to_mont(&Ubig::one());
        assert!(!f.is_zero(&one));
    }
}

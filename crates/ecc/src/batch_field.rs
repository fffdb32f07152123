//! 64-lane GF(p) arithmetic routed through a [`BatchMontMul`] engine.
//!
//! The batch analogue of [`crate::field::FieldCtx`]: a lane vector is a
//! struct-of-arrays `Vec<Fe>` with every element in the Montgomery
//! domain under the Algorithm-2 residue bound (`x̄ < 2N`, never fully
//! reduced between operations). Multiplications and squarings advance
//! **all lanes in one engine call**; additions, subtractions and small
//! constant multiples are host-side single-pass corrections, exactly
//! the per-lane algorithm [`FieldCtx`](crate::field::FieldCtx) runs —
//! so every lane is bit-identical to what the solo context produces on
//! the same inputs.
//!
//! Inversion uses **Montgomery's simultaneous-inversion trick**: a
//! prefix chain of Montgomery products, a *single* `modinv`, then a
//! backward sweep — one field inversion amortized over the whole batch
//! (the dominant cost of the batched affine conversion). The sweeps
//! are a serial chain of single products, so they run on the scalar
//! radix-2⁶⁴ [`CiosMont`] rather than the batch engine; it is
//! bit-identical to every Algorithm-2 engine.
//!
//! The exception-patching companion ops (`lane_*`) run the reference
//! `mont_mul_alg2` on a single lane; the engines are bit-identical to
//! it by contract, so patched lanes cannot be distinguished from
//! engine-computed ones.

use crate::field::Fe;
use mmm_bigint::Ubig;
use mmm_core::cios::CiosMont;
use mmm_core::error::MmmError;
use mmm_core::montgomery::{mont_mul_alg2, MontgomeryParams};
use mmm_core::traits::{BatchMontMul, MontMul};

/// Batch field context: a [`BatchMontMul`] engine plus the constants
/// needed to enter/leave the Montgomery domain.
#[derive(Debug)]
pub struct BatchFieldCtx<E: BatchMontMul> {
    engine: E,
    two_n: Ubig,
    r2: Ubig,
    one_bar: Ubig,
}

impl<E: BatchMontMul> BatchFieldCtx<E> {
    /// Wraps an engine whose modulus is the field prime.
    pub fn new(engine: E) -> Self {
        let params = engine.params().clone();
        let one_bar = params.r().rem(params.n());
        BatchFieldCtx {
            two_n: params.two_n(),
            r2: params.r2_mod_n(),
            one_bar,
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

    /// Largest batch one engine call accepts.
    pub fn max_lanes(&self) -> usize {
        self.engine.max_lanes()
    }

    /// Engine name, for reports.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The Montgomery representation of 1 (`R mod p`) — the domain's
    /// multiplicative identity.
    pub fn one_bar(&self) -> &Fe {
        &self.one_bar
    }

    /// A mutable borrow of the underlying engine (for hardening
    /// switches or cycle counters).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// A shared borrow of the underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Enters the Montgomery domain lane-wise: `x ↦ x·R mod 2p`.
    pub fn to_mont(&mut self, xs: &[Ubig]) -> Vec<Fe> {
        let reduced: Vec<Ubig> = xs.iter().map(|x| x.rem(self.p())).collect();
        let r2s = vec![self.r2.clone(); xs.len()];
        self.batch(&reduced, &r2s)
    }

    /// Leaves the domain lane-wise, returning fully reduced values
    /// `< p`.
    pub fn from_mont(&mut self, xs: &[Fe]) -> Vec<Ubig> {
        let ones = vec![Ubig::one(); xs.len()];
        let vs = self.batch(xs, &ones);
        vs.into_iter()
            .map(|v| if &v >= self.p() { v - self.p() } else { v })
            .collect()
    }

    /// Lane-wise domain multiplication: one engine call.
    pub fn mul(&mut self, a: &[Fe], b: &[Fe]) -> Vec<Fe> {
        self.batch(a, b)
    }

    /// Lane-wise domain squaring: one engine call.
    pub fn sqr(&mut self, a: &[Fe]) -> Vec<Fe> {
        self.batch(a, a)
    }

    /// Lane-wise multiplication by one shared domain constant.
    pub fn mul_const(&mut self, a: &[Fe], c: &Fe) -> Vec<Fe> {
        let cs = vec![c.clone(); a.len()];
        self.batch(a, &cs)
    }

    /// Lane-wise domain addition with single conditional correction.
    pub fn add(&mut self, a: &[Fe], b: &[Fe]) -> Vec<Fe> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| self.lane_add(x, y)).collect()
    }

    /// Lane-wise domain subtraction (`a − b mod 2p`).
    pub fn sub(&mut self, a: &[Fe], b: &[Fe]) -> Vec<Fe> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| self.lane_sub(x, y)).collect()
    }

    /// Lane-wise domain doubling.
    pub fn dbl(&mut self, a: &[Fe]) -> Vec<Fe> {
        a.iter().map(|x| self.lane_add(x, x)).collect()
    }

    /// Lane-wise multiplication by a small constant via repeated
    /// addition (same ladder as the solo context).
    pub fn mul_small(&mut self, a: &[Fe], k: u64) -> Vec<Fe> {
        a.iter().map(|x| self.lane_mul_small(x, k)).collect()
    }

    /// True iff lane `a` represents zero (`≡ 0 mod p`; residues are
    /// bounded by `2p`, so the only representations are `0` and `p`).
    pub fn is_zero(&self, a: &Fe) -> bool {
        a.is_zero() || a == self.p()
    }

    /// Lane-wise **simultaneous inversion** (Montgomery's trick),
    /// entirely in the Montgomery domain: `None` for zero lanes.
    ///
    /// Cost: `3(k−1)` Montgomery multiplications plus **one** `modinv`
    /// for `k` nonzero lanes, instead of `k` inversions. The prefix and
    /// backward sweeps run on a scalar [`CiosMont`], which computes the
    /// Algorithm-2 function bit for bit, so the `< 2N` residue bound is
    /// maintained throughout.
    pub fn inv(&mut self, a: &[Fe]) -> Vec<Option<Fe>> {
        let nz: Vec<usize> = (0..a.len()).filter(|&k| !self.is_zero(&a[k])).collect();
        let mut out: Vec<Option<Fe>> = vec![None; a.len()];
        if nz.is_empty() {
            return out;
        }
        let mut mont = CiosMont::new(self.engine.params().clone());
        // Prefix chain of Montgomery products over the nonzero lanes:
        // prefix[i] = ā₀·ā₁⋯āᵢ (Montgomery domain, < 2N).
        let mut prefix: Vec<Fe> = Vec::with_capacity(nz.len());
        let mut acc = a[nz[0]].clone();
        prefix.push(acc.clone());
        for &k in &nz[1..] {
            acc = mont.mont_mul(&acc, &a[k]);
            prefix.push(acc.clone());
        }
        // One inversion of the total product.
        let total_plain = {
            let v = mont.mont_mul(&acc, &Ubig::one());
            if &v >= self.p() {
                v - self.p()
            } else {
                v
            }
        };
        let Some(inv_plain) = total_plain.modinv(self.p()) else {
            // Non-prime modulus with a lane sharing a factor: fall back
            // to per-lane inversion so the batch still answers.
            for &k in &nz {
                out[k] = self.lane_inv(&a[k]);
            }
            return out;
        };
        // Re-enter the domain, then sweep backwards stripping one lane
        // per step: u = (ā₀⋯āᵢ)⁻¹ before visiting lane i.
        let mut u = mont.mont_mul(&inv_plain, &self.r2);
        for i in (0..nz.len()).rev() {
            let k = nz[i];
            if i == 0 {
                out[k] = Some(u.clone());
            } else {
                out[k] = Some(mont.mont_mul(&u, &prefix[i - 1]));
                u = mont.mont_mul(&u, &a[k]);
            }
        }
        out
    }

    /// Cycle count consumed by the engine so far, if cycle-accurate.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }

    // ------------------------------------------------------------------
    // Single-lane companions — the exception-patching ops. These run
    // the reference Algorithm 2 (`mont_mul_alg2`), which every engine
    // is bit-identical to, so a patched lane is indistinguishable from
    // an engine-computed one.
    // ------------------------------------------------------------------

    /// Single-lane domain multiplication via the reference algorithm.
    pub fn lane_mul(&self, a: &Fe, b: &Fe) -> Fe {
        mont_mul_alg2(self.engine.params(), a, b)
    }

    /// Single-lane domain squaring via the reference algorithm.
    pub fn lane_sqr(&self, a: &Fe) -> Fe {
        mont_mul_alg2(self.engine.params(), a, a)
    }

    /// Single-lane domain addition.
    pub fn lane_add(&self, a: &Fe, b: &Fe) -> Fe {
        let s = a + b;
        if s >= self.two_n {
            s - &self.two_n
        } else {
            s
        }
    }

    /// Single-lane domain subtraction.
    pub fn lane_sub(&self, a: &Fe, b: &Fe) -> Fe {
        if a >= b {
            a - b
        } else {
            &(a + &self.two_n) - b
        }
    }

    /// Single-lane domain doubling.
    pub fn lane_dbl(&self, a: &Fe) -> Fe {
        self.lane_add(a, a)
    }

    /// Single-lane multiplication by a small constant (same ladder as
    /// the solo context, so representatives agree bit for bit).
    pub fn lane_mul_small(&self, a: &Fe, k: u64) -> Fe {
        let mut acc = Ubig::zero();
        let mut base = a.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc = self.lane_add(&acc, &base);
            }
            base = self.lane_dbl(&base);
            k >>= 1;
        }
        acc
    }

    /// Single-lane field inversion (leaves and re-enters the domain).
    pub fn lane_inv(&self, a: &Fe) -> Option<Fe> {
        let params = self.engine.params();
        let plain = {
            let v = mont_mul_alg2(params, a, &Ubig::one());
            if &v >= self.p() {
                v - self.p()
            } else {
                v
            }
        };
        let inv = plain.modinv(self.p())?;
        Some(mont_mul_alg2(params, &inv, &self.r2))
    }

    /// One engine call; panics on a malformed batch (callers validate
    /// shard sizes up front).
    fn batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        self.engine.mont_mul_batch(xs, ys)
    }

    /// One engine call writing into a caller-provided buffer, for hot
    /// loops that recycle lane allocations (the scan client's
    /// double/combine steps).
    pub fn mul_into(&mut self, xs: &[Fe], ys: &[Fe], out: &mut Vec<Fe>) {
        self.engine.mont_mul_batch_into(xs, ys, out);
    }

    /// Fallible batch validation for serving entry points: checks the
    /// lane count against the engine and every operand against the
    /// `< 2N` bound without performing the multiplication.
    pub fn try_check(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Result<(), MmmError> {
        self.engine.try_mont_mul_batch(xs, ys).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldCtx;
    use mmm_core::engine::EngineKind;
    use mmm_core::traits::SoftwareEngine;

    fn batch_ctx(p: u64) -> BatchFieldCtx<mmm_core::engine::AnyBatchEngine> {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(p));
        BatchFieldCtx::new(EngineKind::Cios.build(params))
    }

    fn solo_ctx(p: u64) -> FieldCtx<SoftwareEngine> {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(p));
        FieldCtx::new(SoftwareEngine::new(params))
    }

    #[test]
    fn lanes_match_solo_context_bit_for_bit() {
        let mut bf = batch_ctx(97);
        let mut sf = solo_ctx(97);
        let xs: Vec<Ubig> = [3u64, 50, 96, 0, 13]
            .iter()
            .map(|&v| Ubig::from(v))
            .collect();
        let ys: Vec<Ubig> = [42u64, 1, 96, 7, 90]
            .iter()
            .map(|&v| Ubig::from(v))
            .collect();
        let xm = bf.to_mont(&xs);
        let ym = bf.to_mont(&ys);
        for (k, (x, y)) in xs.iter().zip(&ys).enumerate() {
            assert_eq!(xm[k], sf.to_mont(x), "to_mont lane {k}");
            assert_eq!(ym[k], sf.to_mont(y), "to_mont lane {k}");
        }
        let mul = bf.mul(&xm, &ym);
        let add = bf.add(&xm, &ym);
        let sub = bf.sub(&xm, &ym);
        let dbl = bf.dbl(&xm);
        let m3 = bf.mul_small(&xm, 3);
        for k in 0..xs.len() {
            let (a, b) = (sf.to_mont(&xs[k]), sf.to_mont(&ys[k]));
            assert_eq!(mul[k], sf.mul(&a, &b), "mul lane {k}");
            assert_eq!(add[k], sf.add(&a, &b), "add lane {k}");
            assert_eq!(sub[k], sf.sub(&a, &b), "sub lane {k}");
            assert_eq!(dbl[k], sf.dbl(&a), "dbl lane {k}");
            assert_eq!(m3[k], sf.mul_small(&a, 3), "mul_small lane {k}");
        }
        let back = bf.from_mont(&mul);
        for k in 0..xs.len() {
            let (a, b) = (sf.to_mont(&xs[k]), sf.to_mont(&ys[k]));
            let solo = sf.mul(&a, &b);
            assert_eq!(back[k], sf.from_mont(&solo), "from_mont lane {k}");
        }
    }

    #[test]
    fn simultaneous_inversion_matches_solo() {
        let mut bf = batch_ctx(97);
        let mut sf = solo_ctx(97);
        // Mixed zero/nonzero lanes, including the p-representation of 0.
        let plain: Vec<Ubig> = [1u64, 0, 42, 96, 2, 0, 13]
            .iter()
            .map(|&v| Ubig::from(v))
            .collect();
        let lanes = bf.to_mont(&plain);
        let invs = bf.inv(&lanes);
        for (k, x) in plain.iter().enumerate() {
            let xm = sf.to_mont(x);
            let solo = sf.inv(&xm);
            match (&invs[k], &solo) {
                (Some(got), Some(want)) => {
                    // Same residue; check via the product being 1.
                    let prod = bf.lane_mul(&lanes[k], got);
                    assert_eq!(bf.from_mont(&[prod])[0], Ubig::one(), "lane {k}");
                    let prod_solo = sf.mul(&xm, want);
                    assert_eq!(sf.from_mont(&prod_solo), Ubig::one(), "solo lane {k}");
                }
                (None, None) => {}
                other => panic!("lane {k}: batch/solo disagree on invertibility: {other:?}"),
            }
        }
        // All-zero batch: every lane None.
        let zeros = bf.to_mont(&[Ubig::zero(), Ubig::zero()]);
        assert!(bf.inv(&zeros).iter().all(Option::is_none));
    }

    #[test]
    fn inversion_falls_back_on_composite_modulus() {
        // 91 = 7·13: lanes divisible by 7 are non-invertible, others
        // must still invert through the per-lane fallback.
        let mut bf = batch_ctx(91);
        let plain: Vec<Ubig> = [2u64, 7, 3].iter().map(|&v| Ubig::from(v)).collect();
        let lanes = bf.to_mont(&plain);
        let invs = bf.inv(&lanes);
        assert!(invs[0].is_some());
        assert!(invs[1].is_none(), "gcd(7, 91) > 1");
        assert!(invs[2].is_some());
        let prod = bf.lane_mul(&lanes[0], invs[0].as_ref().unwrap());
        assert_eq!(bf.from_mont(&[prod])[0], Ubig::one());
    }

    #[test]
    fn lane_companions_match_batch_ops() {
        let mut bf = batch_ctx(97);
        let xs: Vec<Ubig> = (0..8u64).map(|v| Ubig::from(v * 11 % 97)).collect();
        let ys: Vec<Ubig> = (0..8u64).map(|v| Ubig::from(v * 29 % 97)).collect();
        let xm = bf.to_mont(&xs);
        let ym = bf.to_mont(&ys);
        let mul = bf.mul(&xm, &ym);
        let sq = bf.sqr(&xm);
        for k in 0..xs.len() {
            assert_eq!(mul[k], bf.lane_mul(&xm[k], &ym[k]), "lane {k}");
            assert_eq!(sq[k], bf.lane_sqr(&xm[k]), "lane {k}");
        }
    }
}

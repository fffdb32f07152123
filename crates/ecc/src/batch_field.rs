//! 64-lane GF(p) arithmetic routed through a [`BatchMontMul`] engine.
//!
//! The batch analogue of [`crate::field::FieldCtx`]: every element is
//! in the Montgomery domain under the Algorithm-2 residue bound
//! (`x̄ < 2N`, never fully reduced between operations), and every lane
//! is bit-identical to what the solo context produces on the same
//! inputs.
//!
//! **Resident lanes.** The working form is [`FeRows`], the one
//! resident-lane type of [`mmm_core::rows`]: up to 64 lanes kept in the
//! engines' own limb rows, limb `j` of lane `k` at `[j·64 + k]`. A
//! multiplication is one [`BatchMontMul::try_mont_mul_rows`] call on
//! the rows as they stand, with no transpose and no allocation. Additions, subtractions,
//! doublings and small-constant ladders are branchless passes over the
//! live lanes of each row, computing the same function as the solo
//! [`FieldCtx::add`], [`FieldCtx::sub`] and [`FieldCtx::mul_small`],
//! bit for bit. Scratch rows are reused across operations, so a warm
//! computation on rows never touches the heap. The `Vec<Fe>` methods
//! (`mul`, `add`, …) are the boundary form: load, one rows operation,
//! store.
//!
//! Inversion uses **Montgomery's simultaneous-inversion trick**: a
//! prefix chain of Montgomery products, a *single* `modinv`, then a
//! backward sweep — one field inversion amortized over the whole batch
//! (the dominant cost of the batched affine conversion). The sweeps
//! are a serial chain of single products, so they run on the context's
//! solo reference ([`BatchFieldCtx::solo`]): a [`FieldCtx`] over the
//! scalar radix-2⁶⁴ [`CiosMont`] rather than the batch engine.
//!
//! The batch curve layer patches its exceptional lanes on that same
//! solo context. [`CiosMont`] computes the Algorithm-2 function bit for
//! bit, like every engine, so patched lanes cannot be distinguished
//! from engine-computed ones.

use crate::field::{Fe, FieldCtx};
use mmm_bigint::limbs::{adc, sbb, Limb};
use mmm_bigint::Ubig;
use mmm_core::cios::CiosMont;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::rows::{cond_sub_rows, padded_limbs, row_count, try_mont_mul, FeRows, ROW_LANES};
use mmm_core::traits::BatchMontMul;

/// Batch field context: a [`BatchMontMul`] engine plus the constants
/// needed to enter/leave the Montgomery domain, the solo reference for
/// single-lane work, and the scratch rows the operations reuse.
#[derive(Debug)]
pub struct BatchFieldCtx<E: BatchMontMul> {
    engine: E,
    /// The solo reference on the scalar radix-2⁶⁴ engine: inversion
    /// sweeps and exception patches.
    solo: FieldCtx<CiosMont>,
    one_bar: Ubig,
    /// Rows per resident vector, `⌈(l+2)/64⌉`.
    rows: usize,
    /// `p` and `2p` padded to `rows` limbs.
    p_limbs: Vec<Limb>,
    two_p_limbs: Vec<Limb>,
    /// Broadcast-constant operand of `mul_const_rows` and friends.
    konst: FeRows,
    /// The two working rows of the `mul_small_rows` ladder.
    base: FeRows,
    next: FeRows,
}

impl<E: BatchMontMul> BatchFieldCtx<E> {
    /// Wraps an engine whose modulus is the field prime.
    pub fn new(engine: E) -> Self {
        let params = engine.params();
        let rows = row_count(params);
        BatchFieldCtx {
            p_limbs: padded_limbs(params.n(), rows),
            two_p_limbs: padded_limbs(&params.two_n(), rows),
            one_bar: params.r_mod_n(),
            rows,
            konst: FeRows::zeros(rows, 0),
            base: FeRows::zeros(rows, 0),
            next: FeRows::zeros(rows, 0),
            solo: FieldCtx::new(CiosMont::new(params.clone())),
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

    /// The solo reference the context's single-lane work runs on: a
    /// [`FieldCtx`] over the scalar radix-2⁶⁴ [`CiosMont`], which every
    /// batch engine matches bit for bit. The inversion sweeps and the
    /// batch curve layer's exception patches use it.
    pub fn solo(&mut self) -> &mut FieldCtx<CiosMont> {
        &mut self.solo
    }

    // ------------------------------------------------------------------
    // Resident lane vectors.
    // ------------------------------------------------------------------

    /// A zeroed resident vector of `lanes` lanes.
    pub fn zeros(&self, lanes: usize) -> FeRows {
        FeRows::zeros(self.rows, lanes)
    }

    /// Loads one element per lane into a resident vector.
    ///
    /// # Panics
    /// Panics on more than 64 lanes or a value wider than the rows.
    pub fn load(&self, vals: &[Fe]) -> FeRows {
        FeRows::load(self.rows, vals)
    }

    /// Stores a resident vector's live lanes, one element per lane.
    pub fn store(&self, a: &FeRows) -> Vec<Fe> {
        a.store()
    }

    /// `out = a · b` lane-wise: one engine call on the rows.
    ///
    /// # Panics
    /// Panics if the engine rejects the batch (lane counts differ, or
    /// an operand is not `< 2p`).
    pub fn mul_rows(&mut self, a: &FeRows, b: &FeRows, out: &mut FeRows) {
        try_mont_mul(&mut self.engine, a, b, out).unwrap_or_else(|e| panic!("{e}"));
    }

    /// `out = a²` lane-wise: one engine call.
    pub(crate) fn sqr_rows(&mut self, a: &FeRows, out: &mut FeRows) {
        self.mul_rows(a, a, out);
    }

    /// `out = a · c` lane-wise for one shared domain constant `c`: one
    /// engine call.
    pub(crate) fn mul_const_rows(&mut self, a: &FeRows, c: &Fe, out: &mut FeRows) {
        self.konst.broadcast(c, a.lanes());
        try_mont_mul(&mut self.engine, a, &self.konst, out).unwrap_or_else(|e| panic!("{e}"));
    }

    /// `out = a + b`, less `2p` when the sum reaches `2p`: the function
    /// of [`FieldCtx::add`] on every live lane.
    pub fn add_rows(&self, a: &FeRows, b: &FeRows, out: &mut FeRows) {
        assert_eq!(a.lanes(), b.lanes(), "operand lane counts differ");
        out.set_lanes(a.lanes());
        let (two_p, lanes) = (&self.two_p_limbs, a.lanes());
        add_mod_rows(two_p, a.limbs(), b.limbs(), lanes, out.limbs_mut());
    }

    /// `out = a − b`, plus `2p` when it borrows: the function of
    /// [`FieldCtx::sub`] on every live lane.
    pub fn sub_rows(&self, a: &FeRows, b: &FeRows, out: &mut FeRows) {
        assert_eq!(a.lanes(), b.lanes(), "operand lane counts differ");
        out.set_lanes(a.lanes());
        let (two_p, lanes) = (&self.two_p_limbs, a.lanes());
        sub_mod_rows(two_p, a.limbs(), b.limbs(), lanes, out.limbs_mut());
    }

    /// `out = 2a` via [`BatchFieldCtx::add_rows`].
    pub fn dbl_rows(&self, a: &FeRows, out: &mut FeRows) {
        self.add_rows(a, a, out);
    }

    /// `out = k·a` by the add/double ladder of
    /// [`FieldCtx::mul_small`], on every live lane.
    pub fn mul_small_rows(&mut self, a: &FeRows, k: u64, out: &mut FeRows) {
        let lanes = a.lanes();
        if k == 0 {
            out.clear(lanes);
            return;
        }
        let two_p = &self.two_p_limbs;
        self.base.limbs_mut().copy_from_slice(a.limbs());
        self.base.set_lanes(lanes);
        self.next.set_lanes(lanes);
        for bit in 0..u64::BITS - k.leading_zeros() {
            if bit > 0 {
                let base = self.base.limbs();
                add_mod_rows(two_p, base, base, lanes, self.next.limbs_mut());
                std::mem::swap(&mut self.base, &mut self.next);
            }
            if k >> bit & 1 == 0 {
                continue;
            }
            if bit == k.trailing_zeros() {
                // The ladder's first add is 0 + base = base (< 2p).
                out.limbs_mut().copy_from_slice(self.base.limbs());
                out.set_lanes(lanes);
            } else {
                let (acc, base) = (out.limbs(), self.base.limbs());
                add_mod_rows(two_p, acc, base, lanes, self.next.limbs_mut());
                std::mem::swap(out, &mut self.next);
            }
        }
    }

    /// Enters the Montgomery domain lane-wise into a resident vector:
    /// `x ↦ x·R mod 2p`, one engine call.
    pub(crate) fn load_mont(&mut self, xs: &[Ubig]) -> FeRows {
        let reduced: Vec<Ubig> = xs.iter().map(|x| x.rem(self.p())).collect();
        let a = self.load(&reduced);
        let mut out = self.zeros(a.lanes());
        let r2 = self.params().r2_mod_n();
        self.mul_const_rows(&a, &r2, &mut out);
        out
    }

    /// Leaves the domain lane-wise, fully reduced below `p`: one
    /// engine call by 1, then a branchless conditional subtraction.
    pub(crate) fn exit_mont_rows(&mut self, a: &FeRows, out: &mut FeRows) {
        self.mul_const_rows(a, &Ubig::one(), out);
        cond_sub_rows(&self.p_limbs, out.limbs_mut());
    }

    /// Bit `k` is set iff live lane `k` represents zero (`0` or `p`:
    /// residues are bounded by `2p`).
    pub(crate) fn zero_lanes(&self, a: &FeRows) -> u64 {
        let mut zero_or = [0 as Limb; ROW_LANES];
        let mut p_or = [0 as Limb; ROW_LANES];
        for (row, &pj) in a.limbs().chunks_exact(ROW_LANES).zip(&self.p_limbs) {
            for k in 0..a.lanes() {
                zero_or[k] |= row[k];
                p_or[k] |= row[k] ^ pj;
            }
        }
        (0..a.lanes()).fold(0, |mask, k| {
            mask | (u64::from(zero_or[k] == 0 || p_or[k] == 0) << k)
        })
    }

    // ------------------------------------------------------------------
    // `Vec<Fe>` boundary: load, one rows operation, store.
    // ------------------------------------------------------------------

    /// Runs `op` on resident copies of `a` and `b`.
    fn on_rows(
        &mut self,
        a: &[Fe],
        b: &[Fe],
        op: impl FnOnce(&mut Self, &FeRows, &FeRows, &mut FeRows),
    ) -> Vec<Fe> {
        let (a, b) = (self.load(a), self.load(b));
        let mut out = self.zeros(a.lanes());
        op(self, &a, &b, &mut out);
        self.store(&out)
    }

    /// Enters the Montgomery domain lane-wise: `x ↦ x·R mod 2p`.
    pub fn to_mont(&mut self, xs: &[Ubig]) -> Vec<Fe> {
        let a = self.load_mont(xs);
        self.store(&a)
    }

    /// Leaves the domain lane-wise, returning fully reduced values
    /// `< p`.
    pub fn from_mont(&mut self, xs: &[Fe]) -> Vec<Ubig> {
        self.on_rows(xs, xs, |f, a, _, out| f.exit_mont_rows(a, out))
    }

    /// Lane-wise domain multiplication: one engine call.
    pub fn mul(&mut self, a: &[Fe], b: &[Fe]) -> Vec<Fe> {
        self.on_rows(a, b, Self::mul_rows)
    }

    /// Lane-wise domain squaring: one engine call.
    pub fn sqr(&mut self, a: &[Fe]) -> Vec<Fe> {
        self.on_rows(a, a, |f, a, _, out| f.sqr_rows(a, out))
    }

    /// Lane-wise domain addition with single conditional correction.
    pub fn add(&mut self, a: &[Fe], b: &[Fe]) -> Vec<Fe> {
        self.on_rows(a, b, |f, a, b, out| f.add_rows(a, b, out))
    }

    /// Lane-wise domain subtraction (`a − b mod 2p`).
    pub fn sub(&mut self, a: &[Fe], b: &[Fe]) -> Vec<Fe> {
        self.on_rows(a, b, |f, a, b, out| f.sub_rows(a, b, out))
    }

    /// Lane-wise domain doubling.
    pub fn dbl(&mut self, a: &[Fe]) -> Vec<Fe> {
        self.on_rows(a, a, |f, a, _, out| f.dbl_rows(a, out))
    }

    /// Lane-wise multiplication by a small constant via repeated
    /// addition (same ladder as the solo context).
    pub fn mul_small(&mut self, a: &[Fe], k: u64) -> Vec<Fe> {
        self.on_rows(a, a, |f, a, _, out| f.mul_small_rows(a, k, out))
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
    /// backward sweeps run on the solo reference
    /// ([`BatchFieldCtx::solo`]), which computes the Algorithm-2
    /// function bit for bit, so the `< 2N` residue bound is maintained
    /// throughout.
    pub fn inv(&mut self, a: &[Fe]) -> Vec<Option<Fe>> {
        let nz: Vec<usize> = (0..a.len()).filter(|&k| !self.is_zero(&a[k])).collect();
        let mut out: Vec<Option<Fe>> = vec![None; a.len()];
        if nz.is_empty() {
            return out;
        }
        let f = &mut self.solo;
        // Prefix chain of Montgomery products over the nonzero lanes:
        // prefix[i] = ā₀·ā₁⋯āᵢ (Montgomery domain, < 2N).
        let mut prefix: Vec<Fe> = Vec::with_capacity(nz.len());
        let mut acc = a[nz[0]].clone();
        prefix.push(acc.clone());
        for &k in &nz[1..] {
            acc = f.mul(&acc, &a[k]);
            prefix.push(acc.clone());
        }
        // One inversion of the total product.
        let total_plain = f.from_mont(&acc);
        let Some(inv_plain) = total_plain.modinv(f.p()) else {
            // Non-prime modulus with a lane sharing a factor: fall back
            // to per-lane inversion so the batch still answers.
            for &k in &nz {
                out[k] = f.inv(&a[k]);
            }
            return out;
        };
        // Re-enter the domain, then sweep backwards stripping one lane
        // per step: u = (ā₀⋯āᵢ)⁻¹ before visiting lane i.
        let mut u = f.to_mont(&inv_plain);
        for i in (0..nz.len()).rev() {
            let k = nz[i];
            if i == 0 {
                out[k] = Some(u.clone());
            } else {
                out[k] = Some(f.mul(&u, &prefix[i - 1]));
                u = f.mul(&u, &a[k]);
            }
        }
        out
    }

    /// Cycle count consumed by the engine so far, if cycle-accurate.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }
}

/// Limb `j` of lane `k` in a rows buffer.
#[inline(always)]
fn at(j: usize, k: usize) -> usize {
    j * ROW_LANES + k
}

/// Lane `k` of `out` less `m` when `take`, with the same instructions
/// either way: the masked second pass of a branchless conditional
/// subtraction.
#[inline(always)]
fn sub_masked(m: &[Limb], take: bool, k: usize, out: &mut [Limb]) {
    let mask = Limb::from(take).wrapping_neg();
    let mut borrow = false;
    for (j, &mj) in m.iter().enumerate() {
        let (d, b) = sbb(out[at(j, k)], mj & mask, borrow);
        out[at(j, k)] = d;
        borrow = b;
    }
}

/// `out = a + b`, less `2p` when the sum reaches `2p`, on lanes
/// `..lanes`: a carry chain for the sum and a borrow chain deciding
/// `sum ≥ 2p`, then a masked subtraction. Operands are below
/// `2p < 2^{64·rows − 1}`, so the sum never carries out.
fn add_mod_rows(two_p: &[Limb], a: &[Limb], b: &[Limb], lanes: usize, out: &mut [Limb]) {
    for k in 0..lanes {
        let (mut carry, mut borrow) = (false, false);
        for (j, &pj) in two_p.iter().enumerate() {
            let (s, c) = adc(a[at(j, k)], b[at(j, k)], carry);
            out[at(j, k)] = s;
            carry = c;
            borrow = sbb(s, pj, borrow).1;
        }
        sub_masked(two_p, !borrow, k, out);
    }
}

/// `out = a − b`, plus `2p` when it borrows, on lanes `..lanes`: the
/// wrapped difference plus `2p` is the true value, which fits the rows.
fn sub_mod_rows(two_p: &[Limb], a: &[Limb], b: &[Limb], lanes: usize, out: &mut [Limb]) {
    for k in 0..lanes {
        let mut borrow = false;
        for j in 0..two_p.len() {
            let (d, bo) = sbb(a[at(j, k)], b[at(j, k)], borrow);
            out[at(j, k)] = d;
            borrow = bo;
        }
        let mask = Limb::from(borrow).wrapping_neg();
        let mut carry = false;
        for (j, &pj) in two_p.iter().enumerate() {
            let (s, c) = adc(out[at(j, k)], pj & mask, carry);
            out[at(j, k)] = s;
            carry = c;
        }
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
                    let prod = bf.solo().mul(&lanes[k], got);
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
        let prod = bf.solo().mul(&lanes[0], invs[0].as_ref().unwrap());
        assert_eq!(bf.from_mont(&[prod])[0], Ubig::one());
    }

    #[test]
    fn solo_field_matches_batch_ops() {
        let mut bf = batch_ctx(97);
        let xs: Vec<Ubig> = (0..8u64).map(|v| Ubig::from(v * 11 % 97)).collect();
        let ys: Vec<Ubig> = (0..8u64).map(|v| Ubig::from(v * 29 % 97)).collect();
        let xm = bf.to_mont(&xs);
        let ym = bf.to_mont(&ys);
        let mul = bf.mul(&xm, &ym);
        let sq = bf.sqr(&xm);
        for k in 0..xs.len() {
            assert_eq!(mul[k], bf.solo().mul(&xm[k], &ym[k]), "lane {k}");
            assert_eq!(sq[k], bf.solo().sqr(&xm[k]), "lane {k}");
        }
    }

    #[test]
    fn zero_lanes_flags_both_representations() {
        let bf = batch_ctx(97);
        let vals: Vec<Ubig> = [0u64, 97, 1, 96, 193, 0]
            .iter()
            .map(|&v| Ubig::from(v))
            .collect();
        assert_eq!(bf.zero_lanes(&bf.load(&vals)), 0b100011);
    }
}

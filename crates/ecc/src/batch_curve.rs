//! 64-lane Jacobian point arithmetic and batched windowed scalar
//! multiplication — ECC as a second tenant on the batch engine stack.
//!
//! A [`PointLanes`] is a struct-of-arrays batch of Jacobian points:
//! lane `k` is `(X[k] : Y[k] : Z[k])` in the Montgomery domain, with
//! `Z ≡ 0` marking the identity, exactly as in the solo
//! [`Curve`](crate::curve::Curve). The formulas are the same
//! `dbl-2007-bl` / `add-2007-bl` chains, vectorized so that every
//! field multiplication advances all lanes in **one engine call**.
//!
//! **Exception handling.** The solo code branches before the formulas
//! (identity operands, equal points, inverse points); a batch cannot,
//! because one lane's exception would stall 63 others. Instead:
//!
//! * doubling needs *no* patching — `Z3 = 2YZ` vanishes exactly when
//!   the input is the identity (`Z ≡ 0`) or 2-torsion (`Y ≡ 0`), so the
//!   degenerate lanes come out of the unified formula already correct;
//! * addition runs the unified formula, then patches the (rare)
//!   exceptional lanes with the scalar reference ops from
//!   [`BatchFieldCtx`]: identity operands copy the other point, equal
//!   points re-dispatch to a single-lane double, inverse points produce
//!   the identity — the same case analysis as the solo `add`.
//!
//! **Scalar multiplication** is fixed-window over the shared
//! windowed-scan core (`mmm_core::scan`) that also drives the RSA
//! exponentiator: one table of `[d]P` lane batches, then per window a
//! run of batched doublings and one batched table addition. The window
//! is chosen by the same weighted cost model ([`scan_window`]), with
//! doubling 10 and addition 16 engine calls (the formulas'
//! multiplication counts). The two-scalar form
//! ([`BatchCurve::joint_scalar_mul`], ECDSA verify's `[u1]G + [u2]Q`)
//! drives both scalars through one scan, so each window's doublings
//! are shared; a base given at one lane (the generator) keeps its
//! table at one lane and is broadcast as its entries are gathered.

use crate::batch_field::BatchFieldCtx;
use crate::curve::Point;
use crate::field::Fe;
use mmm_bigint::Ubig;
use mmm_core::error::MmmError;
use mmm_core::scan::{best_fixed_window_weighted, run_windowed_scan, ScalarSet, WindowScanClient};
use mmm_core::traits::BatchMontMul;

/// Engine calls per batched point doubling (2M + 8S).
pub const DOUBLE_FIELD_MULS: usize = 10;
/// Engine calls per batched point addition (11M + 5S).
pub const ADD_FIELD_MULS: usize = 16;

/// The cost-model window width for `sets` scalar sets of at most `t`
/// bits driving one accumulator, `per_lane_tables` of whose window
/// tables are built at the batch's full lane width (a broadcast
/// one-lane table is priced at zero). Each window costs its shared
/// doublings plus one addition per set.
pub fn scan_window(t: usize, per_lane_tables: usize, sets: usize) -> usize {
    best_fixed_window_weighted(
        t,
        (per_lane_tables * ADD_FIELD_MULS) as f64,
        DOUBLE_FIELD_MULS as f64,
        (sets * ADD_FIELD_MULS) as f64,
    )
}

/// A lane-sliced batch of Jacobian points (Montgomery-domain
/// coordinates; lane `k` is identity ⇔ `Z[k] ≡ 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointLanes {
    /// X coordinates, one per lane.
    pub x: Vec<Fe>,
    /// Y coordinates, one per lane.
    pub y: Vec<Fe>,
    /// Z coordinates, one per lane.
    pub z: Vec<Fe>,
}

impl PointLanes {
    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.x.len()
    }

    /// Extracts lane `k` as a solo [`Point`].
    pub fn lane(&self, k: usize) -> Point {
        Point {
            x: self.x[k].clone(),
            y: self.y[k].clone(),
            z: self.z[k].clone(),
        }
    }

    /// Overwrites lane `k` with a solo [`Point`].
    pub fn set_lane(&mut self, k: usize, p: &Point) {
        self.x[k].clone_from(&p.x);
        self.y[k].clone_from(&p.y);
        self.z[k].clone_from(&p.z);
    }

    /// Slices a batch out of solo points.
    pub fn from_points(pts: &[Point]) -> Self {
        PointLanes {
            x: pts.iter().map(|p| p.x.clone()).collect(),
            y: pts.iter().map(|p| p.y.clone()).collect(),
            z: pts.iter().map(|p| p.z.clone()).collect(),
        }
    }

    /// Broadcasts one solo point across `lanes` lanes.
    pub fn splat(p: &Point, lanes: usize) -> Self {
        PointLanes {
            x: vec![p.x.clone(); lanes],
            y: vec![p.y.clone(); lanes],
            z: vec![p.z.clone(); lanes],
        }
    }
}

/// A short-Weierstrass curve `y² = x³ + ax + b` for batched point
/// arithmetic (coefficients in the Montgomery domain, like the solo
/// [`Curve`](crate::curve::Curve)).
#[derive(Debug, Clone)]
pub struct BatchCurve {
    /// Coefficient `a` (Montgomery domain).
    pub a: Fe,
    /// Coefficient `b` (Montgomery domain).
    pub b: Fe,
}

impl BatchCurve {
    /// Builds a curve from plain (non-Montgomery) coefficients,
    /// rejecting singular curves with a typed error.
    pub fn try_new<E: BatchMontMul>(
        f: &mut BatchFieldCtx<E>,
        a_plain: &Ubig,
        b_plain: &Ubig,
    ) -> Result<BatchCurve, MmmError> {
        let p = f.p().clone();
        let a3 = a_plain.modpow(&Ubig::from(3u64), &p);
        let b2 = b_plain.modmul(b_plain, &p);
        let disc = Ubig::from(4u64)
            .modmul(&a3, &p)
            .modadd(&Ubig::from(27u64).modmul(&b2, &p), &p);
        if disc.is_zero() {
            return Err(MmmError::SingularCurve);
        }
        let coeffs = f.to_mont(&[a_plain.clone(), b_plain.clone()]);
        Ok(BatchCurve {
            a: coeffs[0].clone(),
            b: coeffs[1].clone(),
        })
    }

    /// Builds a curve from plain coefficients.
    ///
    /// # Panics
    /// Panics if the discriminant `4a³ + 27b²` vanishes (singular
    /// curve); [`BatchCurve::try_new`] is the fallible twin.
    pub fn new<E: BatchMontMul>(
        f: &mut BatchFieldCtx<E>,
        a_plain: &Ubig,
        b_plain: &Ubig,
    ) -> BatchCurve {
        Self::try_new(f, a_plain, b_plain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adopts a solo [`Curve`](crate::curve::Curve)'s Montgomery-domain
    /// coefficients (they are engine-independent for a fixed modulus).
    pub fn from_solo(c: &crate::curve::Curve) -> BatchCurve {
        BatchCurve {
            a: c.a.clone(),
            b: c.b.clone(),
        }
    }

    /// A batch of identity elements.
    pub fn identity<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, lanes: usize) -> PointLanes {
        PointLanes {
            x: vec![f.one_bar().clone(); lanes],
            y: vec![f.one_bar().clone(); lanes],
            z: vec![Ubig::zero(); lanes],
        }
    }

    /// The single-lane identity element.
    pub fn identity_lane<E: BatchMontMul>(&self, f: &BatchFieldCtx<E>) -> Point {
        Point {
            x: f.one_bar().clone(),
            y: f.one_bar().clone(),
            z: Ubig::zero(),
        }
    }

    /// Lifts affine plain coordinate pairs onto the curve, reporting
    /// the first lane that fails the curve equation.
    pub fn try_points<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        xy: &[(Ubig, Ubig)],
    ) -> Result<PointLanes, MmmError> {
        let xs: Vec<Ubig> = xy.iter().map(|(x, _)| x.clone()).collect();
        let ys: Vec<Ubig> = xy.iter().map(|(_, y)| y.clone()).collect();
        let xm = f.to_mont(&xs);
        let ym = f.to_mont(&ys);
        let one = f.to_mont(&vec![Ubig::one(); xy.len()]);
        let pts = PointLanes {
            x: xm,
            y: ym,
            z: one,
        };
        let on = self.contains(f, &pts);
        if let Some(lane) = on.iter().position(|ok| !ok) {
            return Err(MmmError::PointNotOnCurve { lane });
        }
        Ok(pts)
    }

    /// Lane-wise projective curve-equation check
    /// (`Y² = X³ + a·X·Z⁴ + b·Z⁶`; identity lanes pass).
    pub fn contains<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        pts: &PointLanes,
    ) -> Vec<bool> {
        let y2 = f.sqr(&pts.y);
        let x2 = f.sqr(&pts.x);
        let x3 = f.mul(&x2, &pts.x);
        let z2 = f.sqr(&pts.z);
        let z4 = f.sqr(&z2);
        let z6 = f.mul(&z4, &z2);
        let ax = f.mul_const(&pts.x, &self.a);
        let axz4 = f.mul(&ax, &z4);
        let bz6 = f.mul_const(&z6, &self.b);
        let rhs = {
            let t = f.add(&x3, &axz4);
            f.add(&t, &bz6)
        };
        let lhs_plain = f.from_mont(&y2);
        let rhs_plain = f.from_mont(&rhs);
        (0..pts.lanes())
            .map(|k| f.is_zero(&pts.z[k]) || lhs_plain[k] == rhs_plain[k])
            .collect()
    }

    /// Batched point doubling (`dbl-2007-bl`), exception-free: lanes
    /// holding the identity (`Z ≡ 0`) or a 2-torsion point (`Y ≡ 0`)
    /// come out with `Z3 = 2YZ ≡ 0` — already the identity.
    pub fn double<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, p1: &PointLanes) -> PointLanes {
        let xx = f.sqr(&p1.x);
        let yy = f.sqr(&p1.y);
        let yyyy = f.sqr(&yy);
        let zz = f.sqr(&p1.z);
        // S = 2((X+YY)² − XX − YYYY)
        let s = {
            let t = f.add(&p1.x, &yy);
            let t = f.sqr(&t);
            let t = f.sub(&t, &xx);
            let t = f.sub(&t, &yyyy);
            f.dbl(&t)
        };
        // M = 3XX + a·ZZ²
        let m = {
            let t3 = f.mul_small(&xx, 3);
            let zz2 = f.sqr(&zz);
            let azz2 = f.mul_const(&zz2, &self.a);
            f.add(&t3, &azz2)
        };
        // X3 = M² − 2S
        let x3 = {
            let m2 = f.sqr(&m);
            let s2 = f.dbl(&s);
            f.sub(&m2, &s2)
        };
        // Y3 = M(S − X3) − 8·YYYY
        let y3 = {
            let t = f.sub(&s, &x3);
            let t = f.mul(&m, &t);
            let y8 = f.mul_small(&yyyy, 8);
            f.sub(&t, &y8)
        };
        // Z3 = (Y+Z)² − YY − ZZ  (= 2YZ)
        let z3 = {
            let t = f.add(&p1.y, &p1.z);
            let t = f.sqr(&t);
            let t = f.sub(&t, &yy);
            f.sub(&t, &zz)
        };
        PointLanes {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Batched point addition (`add-2007-bl`) with per-lane exception
    /// patching (identity operands, equal points, inverse points).
    pub fn add<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        p1: &PointLanes,
        p2: &PointLanes,
    ) -> PointLanes {
        let z1z1 = f.sqr(&p1.z);
        let z2z2 = f.sqr(&p2.z);
        let u1 = f.mul(&p1.x, &z2z2);
        let u2 = f.mul(&p2.x, &z1z1);
        let s1 = {
            let t = f.mul(&p1.y, &p2.z);
            f.mul(&t, &z2z2)
        };
        let s2 = {
            let t = f.mul(&p2.y, &p1.z);
            f.mul(&t, &z1z1)
        };
        let h = f.sub(&u2, &u1);
        let r_half = f.sub(&s2, &s1);
        let i = {
            let h2 = f.dbl(&h);
            f.sqr(&h2)
        };
        let j = f.mul(&h, &i);
        let r = f.dbl(&r_half);
        let v = f.mul(&u1, &i);
        // X3 = r² − J − 2V
        let x3 = {
            let r2 = f.sqr(&r);
            let t = f.sub(&r2, &j);
            let v2 = f.dbl(&v);
            f.sub(&t, &v2)
        };
        // Y3 = r(V − X3) − 2·S1·J
        let y3 = {
            let t = f.sub(&v, &x3);
            let t = f.mul(&r, &t);
            let sj = f.mul(&s1, &j);
            let sj2 = f.dbl(&sj);
            f.sub(&t, &sj2)
        };
        // Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H
        let z3 = {
            let t = f.add(&p1.z, &p2.z);
            let t = f.sqr(&t);
            let t = f.sub(&t, &z1z1);
            let t = f.sub(&t, &z2z2);
            f.mul(&t, &h)
        };
        let mut out = PointLanes {
            x: x3,
            y: y3,
            z: z3,
        };
        // Patch the exceptional lanes — the same case analysis the solo
        // `add` performs up front, applied after the fact to only the
        // lanes that need it (scalar reference ops, bit-identical to
        // the engines).
        for k in 0..out.lanes() {
            if f.is_zero(&p1.z[k]) {
                out.set_lane(k, &p2.lane(k));
            } else if f.is_zero(&p2.z[k]) {
                out.set_lane(k, &p1.lane(k));
            } else if f.is_zero(&h[k]) {
                if f.is_zero(&r_half[k]) {
                    let d = self.double_lane(f, &p1.lane(k));
                    out.set_lane(k, &d);
                } else {
                    out.set_lane(k, &self.identity_lane(f));
                }
            }
        }
        out
    }

    /// Single-lane doubling via the scalar reference multiplication —
    /// the exception-patching companion of [`BatchCurve::double`],
    /// running the identical `dbl-2007-bl` chain (same early-outs as
    /// the solo curve).
    pub fn double_lane<E: BatchMontMul>(&self, f: &BatchFieldCtx<E>, p1: &Point) -> Point {
        if f.is_zero(&p1.z) || f.is_zero(&p1.y) {
            return Point {
                x: f.one_bar().clone(),
                y: f.one_bar().clone(),
                z: Ubig::zero(),
            };
        }
        let xx = f.lane_sqr(&p1.x);
        let yy = f.lane_sqr(&p1.y);
        let yyyy = f.lane_sqr(&yy);
        let zz = f.lane_sqr(&p1.z);
        let s = {
            let t = f.lane_add(&p1.x, &yy);
            let t = f.lane_sqr(&t);
            let t = f.lane_sub(&t, &xx);
            let t = f.lane_sub(&t, &yyyy);
            f.lane_dbl(&t)
        };
        let m = {
            let t3 = f.lane_mul_small(&xx, 3);
            let zz2 = f.lane_sqr(&zz);
            let azz2 = f.lane_mul(&self.a, &zz2);
            f.lane_add(&t3, &azz2)
        };
        let x3 = {
            let m2 = f.lane_sqr(&m);
            let s2 = f.lane_dbl(&s);
            f.lane_sub(&m2, &s2)
        };
        let y3 = {
            let t = f.lane_sub(&s, &x3);
            let t = f.lane_mul(&m, &t);
            let y8 = f.lane_mul_small(&yyyy, 8);
            f.lane_sub(&t, &y8)
        };
        let z3 = {
            let t = f.lane_add(&p1.y, &p1.z);
            let t = f.lane_sqr(&t);
            let t = f.lane_sub(&t, &yy);
            f.lane_sub(&t, &zz)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Batched fixed-window scalar multiplication: lane `k` of the
    /// result is `[ks[k]]·P[k]`. Driven by the shared windowed-scan
    /// core; `window` forces a width (1..=8), `None` picks the
    /// cost-model optimum for the batch's maximum scalar length. Under
    /// engine hardening the scan never skips all-zero windows, making
    /// the double/add schedule scalar-independent.
    pub fn scalar_mul<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        ks: &[Ubig],
        base: &PointLanes,
        window: Option<usize>,
    ) -> PointLanes {
        assert_eq!(ks.len(), base.lanes(), "one scalar per lane");
        self.scan(f, base.lanes(), &[ScalarSet::PerLane(ks)], &[base], window)
    }

    /// Batched scalar multiplication with one scalar shared by every
    /// lane — `[k]·P[j]` for each lane `j` (the ECDH server's shape
    /// when one ephemeral key meets many peer points is the transpose;
    /// this one serves fixed-base multi-point workloads).
    pub fn scalar_mul_shared<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        k: &Ubig,
        base: &PointLanes,
        window: Option<usize>,
    ) -> PointLanes {
        self.scan(f, base.lanes(), &[ScalarSet::Shared(k)], &[base], window)
    }

    /// Batched joint scalar multiplication (Straus–Shamir): lane `k` of
    /// the result is `[u1[k]]·P1 + [u2[k]]·P2[k]` — ECDSA verify's
    /// `[u1]G + [u2]Q`. One scan drives both scalars, so each window's
    /// doublings are shared and only the additions come per scalar.
    /// A base given at **one** lane (the generator) is broadcast to
    /// every lane: its window table is built at one lane and its
    /// entries are gathered into each lane. `window` forces a width
    /// (1..=8); `None` picks [`scan_window`]'s optimum, pricing only
    /// the full-width tables. Hardening disables window skipping as in
    /// [`BatchCurve::scalar_mul`]. Every lane's affine result equals
    /// `add(scalar_mul(u1, P1), scalar_mul(u2, P2))`.
    ///
    /// # Panics
    /// Panics if `u1` and `u2` differ in length or a base has neither
    /// one lane nor one lane per scalar.
    pub fn joint_scalar_mul<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        u1: &[Ubig],
        p1: &PointLanes,
        u2: &[Ubig],
        p2: &PointLanes,
        window: Option<usize>,
    ) -> PointLanes {
        let lanes = u1.len();
        assert_eq!(u2.len(), lanes, "one scalar per lane in each set");
        for base in [p1, p2] {
            assert!(
                base.lanes() == 1 || base.lanes() == lanes,
                "a base has one lane or one lane per scalar"
            );
        }
        self.scan(
            f,
            lanes,
            &[ScalarSet::PerLane(u1), ScalarSet::PerLane(u2)],
            &[p1, p2],
            window,
        )
    }

    /// Runs the windowed scan of `sets[i]` against `bases[i]` over one
    /// `lanes`-wide accumulator.
    fn scan<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        lanes: usize,
        sets: &[ScalarSet<'_>],
        bases: &[&PointLanes],
        window: Option<usize>,
    ) -> PointLanes {
        let t = sets.iter().map(ScalarSet::max_bit_len).max().unwrap_or(0);
        let window = window.unwrap_or_else(|| {
            let per_lane = bases.iter().filter(|b| b.lanes() == lanes).count();
            scan_window(t, per_lane, sets.len())
        });
        assert!(
            (1..=8).contains(&window),
            "window width {window} not in 1..=8"
        );
        let hardened = f.engine().hardening().is_hardened();
        let tables = if t == 0 {
            Vec::new()
        } else {
            bases
                .iter()
                .map(|base| self.window_table(f, base, window))
                .collect()
        };
        let mut client = PointScanClient {
            curve: self,
            f,
            tables,
            acc: None,
            gather: None,
            lanes,
        };
        run_windowed_scan(&mut client, lanes, sets, window, hardened);
        let acc = client.acc.take();
        acc.unwrap_or_else(|| self.identity(f, lanes))
    }

    /// Table of `[d]P` lane batches for `d = 0 .. 2^w − 1`, at the
    /// base's own lane count; the chain `P + [d−1]P` exercises the
    /// patched add (`d = 2` hits the equal-points case on every lane).
    fn window_table<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        base: &PointLanes,
        window: usize,
    ) -> Vec<PointLanes> {
        let mut table = Vec::with_capacity(1 << window);
        table.push(self.identity(f, base.lanes()));
        table.push(base.clone());
        for _ in 2..(1usize << window) {
            let next = self.add(f, table.last().unwrap(), base);
            table.push(next);
        }
        table
    }

    /// Converts every lane to affine plain coordinates with **one**
    /// field inversion for the whole batch (simultaneous inversion);
    /// `None` for identity lanes.
    pub fn to_affine<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        pts: &PointLanes,
    ) -> Vec<Option<(Ubig, Ubig)>> {
        let zinv = f.inv(&pts.z);
        // Substitute 1̄ on identity lanes so the batch keeps its shape;
        // those lanes are masked out of the result below.
        let zi: Vec<Fe> = zinv
            .iter()
            .map(|o| o.clone().unwrap_or_else(|| f.one_bar().clone()))
            .collect();
        let zi2 = f.sqr(&zi);
        let zi3 = f.mul(&zi2, &zi);
        let xm = f.mul(&pts.x, &zi2);
        let ym = f.mul(&pts.y, &zi3);
        let xs = f.from_mont(&xm);
        let ys = f.from_mont(&ym);
        zinv.iter()
            .zip(xs.into_iter().zip(ys))
            .map(|(inv, (x, y))| inv.as_ref().map(|_| (x, y)))
            .collect()
    }
}

/// The scan client for batched point multiplication: the accumulator
/// is a lane batch, "double" is a batched point doubling, "combine"
/// gathers each lane's entry of one set's table by its window digit
/// and performs one batched addition. Digit 0 gathers the identity,
/// which the patched add turns into a copy — the point analogue of
/// multiplying by 1̄.
struct PointScanClient<'c, 'f, E: BatchMontMul> {
    curve: &'c BatchCurve,
    f: &'f mut BatchFieldCtx<E>,
    /// One window table per scalar set (empty when every scalar is
    /// zero); a one-lane table is broadcast to every lane.
    tables: Vec<Vec<PointLanes>>,
    acc: Option<PointLanes>,
    gather: Option<PointLanes>,
    lanes: usize,
}

impl<E: BatchMontMul> PointScanClient<'_, '_, E> {
    fn gather_digits(&mut self, set: usize, digits: &[usize]) -> PointLanes {
        let mut g = self
            .gather
            .take()
            .unwrap_or_else(|| self.curve.identity(self.f, self.lanes));
        for (k, &d) in digits.iter().enumerate() {
            let entry = &self.tables[set][d];
            let j = if entry.lanes() == 1 { 0 } else { k };
            g.x[k].clone_from(&entry.x[j]);
            g.y[k].clone_from(&entry.y[j]);
            g.z[k].clone_from(&entry.z[j]);
        }
        g
    }
}

impl<E: BatchMontMul> WindowScanClient for PointScanClient<'_, '_, E> {
    fn init(&mut self, digits: &[usize]) {
        self.acc = Some(if self.tables.is_empty() {
            // Zero-length scalars: everything is [0]P = ∞.
            self.curve.identity(self.f, self.lanes)
        } else {
            self.gather_digits(0, digits)
        });
    }

    fn double(&mut self) {
        let acc = self.acc.take().expect("init runs first");
        self.acc = Some(self.curve.double(self.f, &acc));
    }

    fn combine(&mut self, set: usize, digits: &[usize]) {
        let g = self.gather_digits(set, digits);
        let acc = self.acc.take().expect("init runs first");
        self.acc = Some(self.curve.add(self.f, &acc, &g));
        self.gather = Some(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Curve;
    use crate::field::FieldCtx;
    use mmm_core::engine::EngineKind;
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::traits::SoftwareEngine;

    /// GF(97), y² = x³ + 2x + 3, G = (3, 6) — the solo fixture.
    fn setup() -> (
        BatchFieldCtx<mmm_core::engine::AnyBatchEngine>,
        BatchCurve,
        FieldCtx<SoftwareEngine>,
        Curve,
        Point,
    ) {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut bf = BatchFieldCtx::new(EngineKind::Cios.build(params.clone()));
        let bc = BatchCurve::try_new(&mut bf, &Ubig::from(2u64), &Ubig::from(3u64)).unwrap();
        let mut sf = FieldCtx::new(SoftwareEngine::new(params));
        let sc = Curve::new(&mut sf, &Ubig::from(2u64), &Ubig::from(3u64));
        let g = sc.point(&mut sf, &Ubig::from(3u64), &Ubig::from(6u64));
        (bf, bc, sf, sc, g)
    }

    #[test]
    fn batch_coefficients_match_solo() {
        let (bf, bc, _, sc, _) = setup();
        let _ = bf;
        assert_eq!(bc.a, sc.a);
        assert_eq!(bc.b, sc.b);
        let via = BatchCurve::from_solo(&sc);
        assert_eq!(via.a, bc.a);
        assert_eq!(via.b, bc.b);
    }

    #[test]
    fn singular_curve_is_a_typed_error() {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut bf = BatchFieldCtx::new(EngineKind::Cios.build(params));
        let err = BatchCurve::try_new(&mut bf, &Ubig::zero(), &Ubig::zero()).unwrap_err();
        assert!(matches!(err, MmmError::SingularCurve));
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn off_curve_lane_is_reported() {
        let (mut bf, bc, _, _, _) = setup();
        let pts = [
            (Ubig::from(3u64), Ubig::from(6u64)),
            (Ubig::from(3u64), Ubig::from(7u64)), // not on the curve
        ];
        let err = bc.try_points(&mut bf, &pts).unwrap_err();
        assert!(matches!(err, MmmError::PointNotOnCurve { lane: 1 }));
        assert!(err.to_string().contains("not on curve"));
    }

    #[test]
    fn batched_double_and_add_match_solo_lanes() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        // Lanes: ∞, G, 2G, 3G, −G, a 2-torsion-free spread.
        let id = sc.identity(&mut sf);
        let g2 = sc.double(&mut sf, &g);
        let g3 = sc.add(&mut sf, &g2, &g);
        let (gx, gy) = sc.to_affine(&mut sf, &g).unwrap();
        let p = sf.p().clone();
        let neg = sc.point(&mut sf, &gx, &(&p - &gy));
        let pts = vec![id.clone(), g.clone(), g2.clone(), g3.clone(), neg.clone()];
        let lanes = PointLanes::from_points(&pts);

        let dbl = bc.double(&mut bf, &lanes);
        for (k, pt) in pts.iter().enumerate() {
            let want = sc.double(&mut sf, pt);
            assert_eq!(
                sc.to_affine(&mut sf, &dbl.lane(k)),
                sc.to_affine(&mut sf, &want),
                "double lane {k}"
            );
        }

        // Add the batch to splat(G): exercises identity (lane 0),
        // equal-points (lane 1) and inverse-points (lane 4) patches.
        let gs = PointLanes::splat(&g, pts.len());
        let sum = bc.add(&mut bf, &lanes, &gs);
        for (k, pt) in pts.iter().enumerate() {
            let want = sc.add(&mut sf, pt, &g);
            assert_eq!(
                sc.to_affine(&mut sf, &sum.lane(k)),
                sc.to_affine(&mut sf, &want),
                "add lane {k}"
            );
        }
    }

    #[test]
    fn batched_scalar_mul_matches_solo_every_lane() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        for lanes in [1usize, 3, 5] {
            let ks: Vec<Ubig> = (0..lanes as u64).map(|k| Ubig::from(3 * k + 1)).collect();
            let base = PointLanes::splat(&g, lanes);
            for window in [None, Some(1), Some(2), Some(4)] {
                let got = bc.scalar_mul(&mut bf, &ks, &base, window);
                for (k, kk) in ks.iter().enumerate() {
                    let want = sc.scalar_mul(&mut sf, kk, &g);
                    assert_eq!(
                        sc.to_affine(&mut sf, &got.lane(k)),
                        sc.to_affine(&mut sf, &want),
                        "lanes={lanes} window={window:?} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_scalars_give_identity() {
        let (mut bf, bc, _, _, g) = setup();
        let ks = vec![Ubig::zero(); 3];
        let base = PointLanes::splat(&g, 3);
        let got = bc.scalar_mul(&mut bf, &ks, &base, None);
        let aff = bc.to_affine(&mut bf, &got);
        assert!(aff.iter().all(Option::is_none));
    }

    #[test]
    fn shared_scalar_matches_per_lane() {
        let (mut bf, bc, _, _, g) = setup();
        let k = Ubig::from(29u64);
        let base = PointLanes::splat(&g, 4);
        let shared = bc.scalar_mul_shared(&mut bf, &k, &base, None);
        let ks = vec![k.clone(); 4];
        let per = bc.scalar_mul(&mut bf, &ks, &base, None);
        assert_eq!(bc.to_affine(&mut bf, &shared), bc.to_affine(&mut bf, &per));
    }

    #[test]
    fn batched_affine_matches_solo() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        let id = sc.identity(&mut sf);
        let g2 = sc.double(&mut sf, &g);
        let pts = vec![g.clone(), id, g2];
        let lanes = PointLanes::from_points(&pts);
        let aff = bc.to_affine(&mut bf, &lanes);
        for (k, pt) in pts.iter().enumerate() {
            assert_eq!(aff[k], sc.to_affine(&mut sf, pt), "lane {k}");
        }
    }

    #[test]
    fn contains_flags_lanes_correctly() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        let id = sc.identity(&mut sf);
        let mut lanes = PointLanes::from_points(&[g.clone(), id, g.clone()]);
        // Corrupt lane 2's X coordinate.
        lanes.x[2] = bf.to_mont(&[Ubig::from(5u64)])[0].clone();
        let on = bc.contains(&mut bf, &lanes);
        assert_eq!(on, vec![true, true, false]);
    }
}

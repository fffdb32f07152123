//! Short-Weierstrass curves over GF(p) with Jacobian-coordinate
//! point arithmetic, every field multiplication routed through the
//! Montgomery engine.
//!
//! Formulas: `dbl-1998-cmo-2` and `add-1998-cmo-2` (Cohen–Miyaji–Ono,
//! as listed in the Explicit-Formulas Database), valid for arbitrary
//! `a`, and the same chains the batched [`crate::batch_curve`] runs.
//! They spend a multiplication where the `2007-bl` forms spend a
//! squaring plus two or three additions (`2·(Y·Z)` rather than
//! `(Y+Z)² − YY − ZZ`). A squaring is one engine call, as a
//! multiplication is, so the fewer additions win. A point is
//! `(X : Y : Z)` with affine `x = X/Z²`, `y = Y/Z³`; the identity is
//! any point with `Z ≡ 0`.

use crate::field::{Fe, FieldCtx};
use mmm_bigint::Ubig;
use mmm_core::error::MmmError;
use mmm_core::traits::MontMul;

/// A short-Weierstrass curve `y² = x³ + ax + b` over GF(p), with the
/// coefficients stored in the Montgomery domain.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Coefficient `a` (Montgomery domain).
    pub a: Fe,
    /// Coefficient `b` (Montgomery domain).
    pub b: Fe,
}

/// A Jacobian projective point (Montgomery-domain coordinates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point {
    /// X coordinate.
    pub x: Fe,
    /// Y coordinate.
    pub y: Fe,
    /// Z coordinate (`Z ≡ 0` ⇔ identity).
    pub z: Fe,
}

impl Curve {
    /// Builds a curve from plain (non-Montgomery) coefficients.
    ///
    /// # Panics
    /// Panics if the discriminant `4a³ + 27b²` vanishes (singular
    /// curve); [`Curve::try_new`] is the fallible twin.
    pub fn new<E: MontMul>(f: &mut FieldCtx<E>, a_plain: &Ubig, b_plain: &Ubig) -> Curve {
        Self::try_new(f, a_plain, b_plain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a curve from plain coefficients, rejecting a vanishing
    /// discriminant with [`MmmError::SingularCurve`] instead of
    /// panicking — the serving-grade twin of [`Curve::new`].
    pub fn try_new<E: MontMul>(
        f: &mut FieldCtx<E>,
        a_plain: &Ubig,
        b_plain: &Ubig,
    ) -> Result<Curve, MmmError> {
        let p = f.p().clone();
        let a3 = a_plain.modpow(&Ubig::from(3u64), &p);
        let b2 = b_plain.modmul(b_plain, &p);
        let disc = Ubig::from(4u64)
            .modmul(&a3, &p)
            .modadd(&Ubig::from(27u64).modmul(&b2, &p), &p);
        if disc.is_zero() {
            return Err(MmmError::SingularCurve);
        }
        Ok(Curve {
            a: f.to_mont(a_plain),
            b: f.to_mont(b_plain),
        })
    }

    /// The identity element.
    pub fn identity<E: MontMul>(&self, f: &mut FieldCtx<E>) -> Point {
        Point {
            x: f.to_mont(&Ubig::one()),
            y: f.to_mont(&Ubig::one()),
            z: Ubig::zero(),
        }
    }

    /// Lifts affine plain coordinates onto the curve.
    ///
    /// # Panics
    /// Panics if the point does not satisfy the curve equation;
    /// [`Curve::try_point`] is the fallible twin.
    pub fn point<E: MontMul>(&self, f: &mut FieldCtx<E>, x: &Ubig, y: &Ubig) -> Point {
        self.try_point(f, x, y).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Lifts affine plain coordinates onto the curve, rejecting a pair
    /// that fails the curve equation with
    /// [`MmmError::PointNotOnCurve`] (lane 0 — the solo path has one
    /// lane) instead of panicking.
    pub fn try_point<E: MontMul>(
        &self,
        f: &mut FieldCtx<E>,
        x: &Ubig,
        y: &Ubig,
    ) -> Result<Point, MmmError> {
        let pt = Point {
            x: f.to_mont(x),
            y: f.to_mont(y),
            z: f.to_mont(&Ubig::one()),
        };
        if !self.contains(f, &pt) {
            return Err(MmmError::PointNotOnCurve { lane: 0 });
        }
        Ok(pt)
    }

    /// Checks the (projective) curve equation
    /// `Y² = X³ + a·X·Z⁴ + b·Z⁶`.
    pub fn contains<E: MontMul>(&self, f: &mut FieldCtx<E>, pt: &Point) -> bool {
        if f.is_zero(&pt.z) {
            return true;
        }
        let y2 = f.sqr(&pt.y);
        let x3 = {
            let x2 = f.sqr(&pt.x);
            f.mul(&x2, &pt.x)
        };
        let z2 = f.sqr(&pt.z);
        let z4 = f.sqr(&z2);
        let z6 = f.mul(&z4, &z2);
        let axz4 = {
            let t = f.mul(&self.a, &pt.x);
            f.mul(&t, &z4)
        };
        let bz6 = f.mul(&self.b, &z6);
        let rhs = {
            let t = f.add(&x3, &axz4);
            f.add(&t, &bz6)
        };
        // Compare as field elements (residues may differ by p).
        f.from_mont(&y2) == f.from_mont(&rhs)
    }

    /// Point doubling (`dbl-1998-cmo-2`): 4M + 6S, the `a·ZZ²` product
    /// one of the 4M, and 11 additions, subtractions or doublings (the
    /// `3·XX` ladder counts two).
    pub fn double<E: MontMul>(&self, f: &mut FieldCtx<E>, p1: &Point) -> Point {
        if f.is_zero(&p1.z) || f.is_zero(&p1.y) {
            // 2·∞ = ∞ ; doubling a 2-torsion point (y = 0) gives ∞.
            return self.identity(f);
        }
        let xx = f.sqr(&p1.x);
        let yy = f.sqr(&p1.y);
        let zz = f.sqr(&p1.z);
        // D = 2·YY, S = 2·X·D (= 4·X·YY)
        let d = f.dbl(&yy);
        let s = {
            let t = f.mul(&p1.x, &d);
            f.dbl(&t)
        };
        // M = 3XX + a·ZZ²
        let m = {
            let t3 = f.mul_small(&xx, 3);
            let zz2 = f.sqr(&zz);
            let azz2 = f.mul(&self.a, &zz2);
            f.add(&t3, &azz2)
        };
        // X3 = M² − 2S
        let x3 = {
            let m2 = f.sqr(&m);
            let s2 = f.dbl(&s);
            f.sub(&m2, &s2)
        };
        // Y3 = M(S − X3) − 2·D²  (= 8·YY²)
        let y3 = {
            let t = f.sub(&s, &x3);
            let t = f.mul(&m, &t);
            let dd = f.sqr(&d);
            let dd2 = f.dbl(&dd);
            f.sub(&t, &dd2)
        };
        // Z3 = 2·Y·Z
        let z3 = {
            let t = f.mul(&p1.y, &p1.z);
            f.dbl(&t)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (`add-1998-cmo-2`): 12M + 4S and 7 subtractions or
    /// doublings, complete via case analysis.
    pub fn add<E: MontMul>(&self, f: &mut FieldCtx<E>, p1: &Point, p2: &Point) -> Point {
        if f.is_zero(&p1.z) {
            return p2.clone();
        }
        if f.is_zero(&p2.z) {
            return p1.clone();
        }
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
        let r = f.sub(&s2, &s1);
        if f.is_zero(&h) {
            return if f.is_zero(&r) {
                // Same point: double.
                self.double(f, p1)
            } else {
                // Inverses: P + (−P) = ∞.
                self.identity(f)
            };
        }
        let hh = f.sqr(&h);
        let hhh = f.mul(&h, &hh);
        let v = f.mul(&u1, &hh);
        // X3 = r² − HHH − 2V
        let x3 = {
            let r2 = f.sqr(&r);
            let t = f.sub(&r2, &hhh);
            let v2 = f.dbl(&v);
            f.sub(&t, &v2)
        };
        // Y3 = r(V − X3) − S1·HHH
        let y3 = {
            let t = f.sub(&v, &x3);
            let t = f.mul(&r, &t);
            let sh = f.mul(&s1, &hhh);
            f.sub(&t, &sh)
        };
        // Z3 = Z1·Z2·H
        let z3 = {
            let t = f.mul(&p1.z, &p2.z);
            f.mul(&t, &h)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication `[k]P` by MSB-first double-and-add — the
    /// point-multiplication analogue of the paper's Algorithm 3.
    pub fn scalar_mul<E: MontMul>(&self, f: &mut FieldCtx<E>, k: &Ubig, p: &Point) -> Point {
        let mut acc = self.identity(f);
        for i in (0..k.bit_len()).rev() {
            acc = self.double(f, &acc);
            if k.bit(i) {
                acc = self.add(f, &acc, p);
            }
        }
        acc
    }

    /// Scalar multiplication by the **Montgomery ladder**: one double
    /// *and* one add per exponent bit, with a data-independent
    /// operation sequence — the countermeasure to the timing/SPA
    /// side channels the paper's conclusion worries about ("reduction
    /// steps that are presumed to be vulnerable to side-channel
    /// attacks"). Costs ~2× the double-and-add multiplications; the
    /// cycle-count invariance is asserted in the tests.
    pub fn scalar_mul_ladder<E: MontMul>(&self, f: &mut FieldCtx<E>, k: &Ubig, p: &Point) -> Point {
        let mut r0 = self.identity(f);
        let mut r1 = p.clone();
        for i in (0..k.bit_len()).rev() {
            // Invariant: r1 = r0 + P.
            if k.bit(i) {
                r0 = self.add(f, &r0, &r1);
                r1 = self.double(f, &r1);
            } else {
                r1 = self.add(f, &r0, &r1);
                r0 = self.double(f, &r0);
            }
        }
        r0
    }

    /// Lifts an x-coordinate onto the curve: finds `y` with
    /// `y² = x³ + ax + b (mod p)` via Tonelli–Shanks, returning the
    /// point with the smaller root. `None` when the right-hand side is
    /// a quadratic non-residue (x is not on the curve).
    pub fn lift_x<E: MontMul>(&self, f: &mut FieldCtx<E>, x: &Ubig) -> Option<Point> {
        let p = f.p().clone();
        let rhs = {
            let x3 = x.modpow(&Ubig::from(3u64), &p);
            let a_plain = f.from_mont(&self.a.clone());
            let b_plain = f.from_mont(&self.b.clone());
            x3.modadd(&a_plain.modmul(x, &p), &p).modadd(&b_plain, &p)
        };
        let y = rhs.modsqrt(&p)?;
        let y_alt = if y.is_zero() { y.clone() } else { &p - &y };
        let y = if y <= y_alt { y } else { y_alt };
        Some(self.point(f, x, &y))
    }

    /// Converts to affine plain coordinates; `None` for the identity.
    pub fn to_affine<E: MontMul>(&self, f: &mut FieldCtx<E>, p: &Point) -> Option<(Ubig, Ubig)> {
        if f.is_zero(&p.z) {
            return None;
        }
        let zinv = f.inv(&p.z).expect("nonzero Z");
        let zinv2 = f.sqr(&zinv);
        let zinv3 = f.mul(&zinv2, &zinv);
        let x = f.mul(&p.x, &zinv2);
        let y = f.mul(&p.y, &zinv3);
        Some((f.from_mont(&x), f.from_mont(&y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::traits::SoftwareEngine;

    /// Test fixture: y² = x³ + 2x + 3 over GF(97), generator (3, 6).
    fn setup() -> (FieldCtx<SoftwareEngine>, Curve, Point) {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut f = FieldCtx::new(SoftwareEngine::new(params));
        let curve = Curve::new(&mut f, &Ubig::from(2u64), &Ubig::from(3u64));
        let g = curve.point(&mut f, &Ubig::from(3u64), &Ubig::from(6u64));
        (f, curve, g)
    }

    /// Brute-force affine group reference for GF(97), a=2, b=3.
    fn affine_add(p1: Option<(u64, u64)>, p2: Option<(u64, u64)>) -> Option<(u64, u64)> {
        const P: u64 = 97;
        const A: u64 = 2;
        fn inv(x: u64) -> u64 {
            // P is prime: x^(P-2).
            let mut acc = 1u64;
            let mut base = x % P;
            let mut e = P - 2;
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc * base % P;
                }
                base = base * base % P;
                e >>= 1;
            }
            acc
        }
        match (p1, p2) {
            (None, q) => q,
            (q, None) => q,
            (Some((x1, y1)), Some((x2, y2))) => {
                if x1 == x2 && (y1 + y2) % P == 0 {
                    return None;
                }
                let lambda = if x1 == x2 && y1 == y2 {
                    (3 * x1 % P * x1 % P + A) % P * inv(2 * y1 % P) % P
                } else {
                    (y2 + P - y1) % P * inv((x2 + P - x1) % P) % P
                };
                let x3 = (lambda * lambda % P + 2 * P - x1 - x2) % P;
                let y3 = (lambda * ((x1 + P - x3) % P) % P + P - y1) % P;
                Some((x3, y3))
            }
        }
    }

    #[test]
    fn generator_is_on_curve() {
        let (mut f, curve, g) = setup();
        assert!(curve.contains(&mut f, &g));
        // 6² = 36; 3³+2·3+3 = 36 mod 97 ✓ (sanity of the fixture)
        assert_eq!((3u64 * 3 * 3 + 2 * 3 + 3), 36);
    }

    #[test]
    #[should_panic(expected = "not on curve")]
    fn rejects_off_curve_point() {
        let (mut f, curve, _) = setup();
        let _ = curve.point(&mut f, &Ubig::from(3u64), &Ubig::from(7u64));
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn rejects_singular_curve() {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut f = FieldCtx::new(SoftwareEngine::new(params));
        // 4a³+27b² ≡ 0: a = 0, b = 0.
        let _ = Curve::new(&mut f, &Ubig::zero(), &Ubig::zero());
    }

    #[test]
    fn try_twins_return_typed_errors() {
        let (mut f, curve, _) = setup();
        let err = curve
            .try_point(&mut f, &Ubig::from(3u64), &Ubig::from(7u64))
            .unwrap_err();
        assert!(matches!(err, MmmError::PointNotOnCurve { lane: 0 }));
        let err = Curve::try_new(&mut f, &Ubig::zero(), &Ubig::zero()).unwrap_err();
        assert!(matches!(err, MmmError::SingularCurve));
        // Ok paths are identical to the panicking twins.
        let p1 = curve
            .try_point(&mut f, &Ubig::from(3u64), &Ubig::from(6u64))
            .unwrap();
        let p2 = curve.point(&mut f, &Ubig::from(3u64), &Ubig::from(6u64));
        assert_eq!(p1, p2);
    }

    #[test]
    fn scalar_multiples_match_affine_reference() {
        let (mut f, curve, g) = setup();
        let mut reference = None; // [0]G
        for k in 0u64..60 {
            let got = curve.scalar_mul(&mut f, &Ubig::from(k), &g);
            let got_affine = curve
                .to_affine(&mut f, &got)
                .map(|(x, y)| (x.to_u64().unwrap(), y.to_u64().unwrap()));
            assert_eq!(got_affine, reference, "k={k}");
            assert!(curve.contains(&mut f, &got), "k={k} stays on curve");
            reference = affine_add(reference, Some((3, 6)));
        }
    }

    #[test]
    fn doubling_equals_adding_to_self_via_add_path() {
        let (mut f, curve, g) = setup();
        let d = curve.double(&mut f, &g);
        let a = curve.add(&mut f, &g.clone(), &g);
        assert_eq!(
            curve.to_affine(&mut f, &d),
            curve.to_affine(&mut f, &a),
            "H=0,r=0 branch must fall through to double"
        );
    }

    #[test]
    fn inverse_points_sum_to_identity() {
        let (mut f, curve, g) = setup();
        let (gx, gy) = curve.to_affine(&mut f, &g).unwrap();
        let p = f.p().clone();
        let neg = curve.point(&mut f, &gx, &(&p - &gy));
        let sum = curve.add(&mut f, &g, &neg);
        assert!(f.is_zero(&sum.z), "P + (−P) = ∞");
    }

    #[test]
    fn identity_laws() {
        let (mut f, curve, g) = setup();
        let id = curve.identity(&mut f);
        let r1 = curve.add(&mut f, &id, &g);
        let r2 = curve.add(&mut f, &g, &id);
        assert_eq!(curve.to_affine(&mut f, &r1), curve.to_affine(&mut f, &g));
        assert_eq!(curve.to_affine(&mut f, &r2), curve.to_affine(&mut f, &g));
        let dd = curve.double(&mut f, &id);
        assert!(f.is_zero(&dd.z));
    }

    #[test]
    fn scalar_mul_is_homomorphic() {
        let (mut f, curve, g) = setup();
        // [a]G + [b]G = [a+b]G
        for (a, b) in [(5u64, 7u64), (12, 1), (20, 33)] {
            let pa = curve.scalar_mul(&mut f, &Ubig::from(a), &g);
            let pb = curve.scalar_mul(&mut f, &Ubig::from(b), &g);
            let sum = curve.add(&mut f, &pa, &pb);
            let direct = curve.scalar_mul(&mut f, &Ubig::from(a + b), &g);
            assert_eq!(
                curve.to_affine(&mut f, &sum),
                curve.to_affine(&mut f, &direct),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn ladder_matches_double_and_add() {
        let (mut f, curve, g) = setup();
        for k in [0u64, 1, 2, 7, 29, 58, 123] {
            let a = curve.scalar_mul(&mut f, &Ubig::from(k), &g);
            let b = curve.scalar_mul_ladder(&mut f, &Ubig::from(k), &g);
            assert_eq!(
                curve.to_affine(&mut f, &a),
                curve.to_affine(&mut f, &b),
                "k={k}"
            );
        }
    }

    #[test]
    fn ladder_work_is_scalar_independent() {
        // Same bit length, wildly different Hamming weight: the ladder
        // must consume identical cycle counts (double-and-add must
        // not). Uses the cycle-accurate wave engine as the probe.
        use mmm_systolic::wave::WaveMmmc;
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut f = FieldCtx::new(WaveMmmc::new(params));
        let curve = Curve::new(&mut f, &Ubig::from(2u64), &Ubig::from(3u64));
        let g = curve.point(&mut f, &Ubig::from(3u64), &Ubig::from(6u64));

        let sparse = Ubig::from(0b100000u64); // weight 1
        let dense = Ubig::from(0b111111u64); // weight 6, same length

        let c0 = f.consumed_cycles().unwrap();
        let _ = curve.scalar_mul_ladder(&mut f, &sparse, &g);
        let c1 = f.consumed_cycles().unwrap();
        let _ = curve.scalar_mul_ladder(&mut f, &dense, &g);
        let c2 = f.consumed_cycles().unwrap();
        assert_eq!(c1 - c0, c2 - c1, "ladder timing must not leak the scalar");

        let c3 = f.consumed_cycles().unwrap();
        let _ = curve.scalar_mul(&mut f, &sparse, &g);
        let c4 = f.consumed_cycles().unwrap();
        let _ = curve.scalar_mul(&mut f, &dense, &g);
        let c5 = f.consumed_cycles().unwrap();
        assert!(
            c4 - c3 < c5 - c4,
            "double-and-add leaks the Hamming weight (that is the point)"
        );
    }

    #[test]
    fn lift_x_finds_points() {
        let (mut f, curve, g) = setup();
        let (gx, gy) = curve.to_affine(&mut f, &g).unwrap();
        let lifted = curve.lift_x(&mut f, &gx).expect("gx is on the curve");
        let (lx, ly) = curve.to_affine(&mut f, &lifted).unwrap();
        assert_eq!(lx, gx);
        let p = f.p().clone();
        assert!(ly == gy || &ly + &gy == p, "y or its negation");
        // Some x with no point: count lifts over the whole field —
        // roughly half the x values have points.
        let lifts = (0u64..97)
            .filter(|&x| curve.lift_x(&mut f, &Ubig::from(x)).is_some())
            .count();
        assert!((30..=70).contains(&lifts), "lifts = {lifts}");
    }

    #[test]
    fn group_order_annihilates() {
        let (mut f, curve, g) = setup();
        // Find the order of G by brute force with the affine reference.
        let mut order = 1u64;
        let mut acc = Some((3u64, 6u64));
        while acc.is_some() {
            acc = affine_add(acc, Some((3, 6)));
            order += 1;
        }
        let res = curve.scalar_mul(&mut f, &Ubig::from(order), &g);
        assert!(f.is_zero(&res.z), "[order]G = ∞ (order = {order})");
    }
}

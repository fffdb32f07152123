//! 64-lane Jacobian point arithmetic and batched windowed scalar
//! multiplication — ECC as a second tenant on the batch engine stack.
//!
//! A [`PointLanes`] is a struct-of-arrays batch of Jacobian points:
//! lane `k` is `(X[k] : Y[k] : Z[k])` in the Montgomery domain, with
//! `Z ≡ 0` marking the identity, exactly as in the solo
//! [`Curve`]. The formulas are the solo curve's
//! `dbl-1998-cmo-2` / `add-1998-cmo-2` chains, in the same operation
//! order, vectorized so that every field multiplication advances all
//! lanes in **one engine call** and every addition, subtraction or
//! doubling is one pass over the live lanes (`mul_small` by 3 is its
//! ladder's two). A doubling makes 10 calls and 11 passes, an addition
//! 16 calls and 7 passes. A squaring costs the engine what a
//! multiplication does, so these forms multiply where the `2007-bl`
//! forms square and then add, which took 17 and 13 passes for the
//! same calls.
//!
//! **Resident points.** `PointLanes` is the public boundary type. Inside,
//! every formula, window table and scan accumulator works on points
//! whose coordinates are resident [`FeRows`] (`mmm_core::rows`): the
//! engines' own limb rows. Each public method converts once at entry and once at exit,
//! and a scan moves no lane through a `Ubig` between those two points.
//!
//! **Exception handling.** The solo code branches before the formulas
//! (identity operands, equal points, inverse points); a batch cannot,
//! because one lane's exception would stall 63 others. Instead:
//!
//! * doubling needs *no* patching — `Z3 = 2·(Y·Z)` vanishes exactly when
//!   the input is the identity (`Z ≡ 0`) or 2-torsion (`Y ≡ 0`), so the
//!   degenerate lanes come out of the unified formula already correct;
//! * addition runs the unified formula, then flags the (rare)
//!   exceptional lanes with three lane masks (either operand the
//!   identity, `h ≡ 0`) and patches only those: identity operands copy
//!   the other point's column, equal points re-dispatch to the solo
//!   [`Curve::double`] on the context's solo field
//!   ([`BatchFieldCtx::solo`]), inverse points take the solo
//!   [`Curve::identity`] — the same case analysis as the solo `add`.
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
//! Table entries are read by `mmm_core::rows::gather`, the one gather
//! RSA's scan uses too: under engine hardening it sweeps every table
//! entry with a lane mask instead of indexing the table by the secret
//! digit.

use crate::batch_field::BatchFieldCtx;
use crate::curve::{Curve, Point};
use crate::field::Fe;
use mmm_bigint::Ubig;
use mmm_core::error::MmmError;
use mmm_core::rows::{self, FeRows};
use mmm_core::scan::{best_fixed_window_weighted, run_windowed_scan, ScalarSet, WindowScanClient};
use mmm_core::traits::BatchMontMul;

/// Engine calls per batched point doubling (`dbl-1998-cmo-2`: 4M + 6S,
/// the `a·ZZ²` product one of the 4M).
pub const DOUBLE_FIELD_MULS: usize = 10;
/// Engine calls per batched point addition (`add-1998-cmo-2`: 12M + 4S).
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

/// Jacobian points resident in limb rows: the working form of every
/// formula, window table and scan accumulator.
#[derive(Debug, Clone)]
struct PointRows {
    x: FeRows,
    y: FeRows,
    z: FeRows,
}

impl PointRows {
    /// `lanes` lanes of zeros (not yet a point).
    fn zeros<E: BatchMontMul>(f: &BatchFieldCtx<E>, lanes: usize) -> Self {
        PointRows {
            x: f.zeros(lanes),
            y: f.zeros(lanes),
            z: f.zeros(lanes),
        }
    }

    fn load<E: BatchMontMul>(f: &BatchFieldCtx<E>, p: &PointLanes) -> Self {
        PointRows {
            x: f.load(&p.x),
            y: f.load(&p.y),
            z: f.load(&p.z),
        }
    }

    fn store<E: BatchMontMul>(&self, f: &BatchFieldCtx<E>) -> PointLanes {
        PointLanes {
            x: f.store(&self.x),
            y: f.store(&self.y),
            z: f.store(&self.z),
        }
    }

    fn lanes(&self) -> usize {
        self.x.lanes()
    }

    fn coords_mut(&mut self) -> [&mut FeRows; 3] {
        [&mut self.x, &mut self.y, &mut self.z]
    }

    /// Lane `k` becomes column `col` of `src`.
    fn copy_lane(&mut self, k: usize, src: &PointRows, col: usize) {
        for (dst, src) in self.coords_mut().into_iter().zip([&src.x, &src.y, &src.z]) {
            dst.copy_lane(k, src, col);
        }
    }

    fn lane(&self, k: usize) -> Point {
        Point {
            x: self.x.lane(k),
            y: self.y.lane(k),
            z: self.z.lane(k),
        }
    }

    fn set_lane(&mut self, k: usize, p: &Point) {
        self.x.set_lane(k, &p.x);
        self.y.set_lane(k, &p.y);
        self.z.set_lane(k, &p.z);
    }

    /// Every one of `lanes` lanes becomes the identity `(1̄ : 1̄ : 0)`.
    fn set_identity<E: BatchMontMul>(&mut self, f: &BatchFieldCtx<E>, lanes: usize) {
        for c in self.coords_mut() {
            c.clear(lanes);
        }
        for k in 0..lanes {
            self.x.set_lane(k, f.one_bar());
            self.y.set_lane(k, f.one_bar());
        }
    }
}

/// Lane `k` of `out` becomes entry `digits[k]` of `table`, one
/// coordinate at a time through [`rows::gather`]: its lane `k`, or
/// lane 0 of a one-lane table, swept under a lane mask when `hardened`.
fn gather(table: &[PointRows], digits: &[usize], hardened: bool, out: &mut PointRows) {
    let n = table.len();
    rows::gather(
        n,
        |d, j| table[d].x.gather_row(j),
        digits,
        hardened,
        &mut out.x,
    );
    rows::gather(
        n,
        |d, j| table[d].y.gather_row(j),
        digits,
        hardened,
        &mut out.y,
    );
    rows::gather(
        n,
        |d, j| table[d].z.gather_row(j),
        digits,
        hardened,
        &mut out.z,
    );
}

/// The temporaries of one point formula, reused across calls so a
/// warm scan allocates nothing.
struct Scratch([FeRows; 13]);

impl Scratch {
    fn new<E: BatchMontMul>(f: &BatchFieldCtx<E>) -> Self {
        Scratch(std::array::from_fn(|_| f.zeros(0)))
    }
}

/// The solo [`Curve`] lifted to batched point arithmetic: the same
/// short-Weierstrass curve `y² = x³ + ax + b`, its coefficients in the
/// Montgomery domain, with every formula run across lanes.
#[derive(Debug, Clone)]
pub struct BatchCurve {
    curve: Curve,
}

impl BatchCurve {
    /// Builds a curve from plain (non-Montgomery) coefficients through
    /// [`Curve::try_new`] on the context's solo field, rejecting
    /// singular curves with a typed error.
    pub fn try_new<E: BatchMontMul>(
        f: &mut BatchFieldCtx<E>,
        a_plain: &Ubig,
        b_plain: &Ubig,
    ) -> Result<BatchCurve, MmmError> {
        Curve::try_new(f.solo(), a_plain, b_plain).map(|curve| BatchCurve { curve })
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

    /// Lifts a solo [`Curve`] (its Montgomery-domain coefficients are
    /// engine-independent for a fixed modulus).
    pub fn from_solo(c: &Curve) -> BatchCurve {
        BatchCurve { curve: c.clone() }
    }

    /// The solo curve this one lifts.
    pub fn solo(&self) -> &Curve {
        &self.curve
    }

    /// A batch of identity elements.
    pub fn identity<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, lanes: usize) -> PointLanes {
        PointLanes::splat(&self.curve.identity(f.solo()), lanes)
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
        let pts = PointRows {
            x: f.load_mont(&xs),
            y: f.load_mont(&ys),
            z: f.load_mont(&vec![Ubig::one(); xy.len()]),
        };
        let on = self.contains_rows(f, &pts);
        if let Some(lane) = on.iter().position(|ok| !ok) {
            return Err(MmmError::PointNotOnCurve { lane });
        }
        Ok(pts.store(f))
    }

    /// Lane-wise projective curve-equation check
    /// (`Y² = X³ + a·X·Z⁴ + b·Z⁶`; identity lanes pass).
    pub fn contains<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        pts: &PointLanes,
    ) -> Vec<bool> {
        self.contains_rows(f, &PointRows::load(f, pts))
    }

    fn contains_rows<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, p: &PointRows) -> Vec<bool> {
        let mut ws = Scratch::new(f);
        let [y2, x2, x3, z2, z4, z6, t0, t1, t2, lhs, rhs, ..] = &mut ws.0;
        f.sqr_rows(&p.y, y2);
        f.sqr_rows(&p.x, x2);
        f.mul_rows(x2, &p.x, x3);
        f.sqr_rows(&p.z, z2);
        f.sqr_rows(z2, z4);
        f.mul_rows(z4, z2, z6);
        f.mul_const_rows(&p.x, &self.curve.a, t0);
        f.mul_rows(t0, z4, t1);
        f.mul_const_rows(z6, &self.curve.b, t0);
        f.add_rows(x3, t1, t2);
        f.add_rows(t2, t0, t1);
        f.exit_mont_rows(y2, lhs);
        f.exit_mont_rows(t1, rhs);
        let identity = f.zero_lanes(&p.z);
        (0..p.lanes())
            .map(|k| identity >> k & 1 == 1 || lhs.lane(k) == rhs.lane(k))
            .collect()
    }

    /// Batched point doubling (`dbl-1998-cmo-2`), exception-free: lanes
    /// holding the identity (`Z ≡ 0`) or a 2-torsion point (`Y ≡ 0`)
    /// come out with `Z3 = 2·(Y·Z) ≡ 0` — already the identity.
    pub fn double<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, p1: &PointLanes) -> PointLanes {
        let p = PointRows::load(f, p1);
        let mut out = PointRows::zeros(f, p.lanes());
        self.double_rows(f, &p, &mut out, &mut Scratch::new(f));
        out.store(f)
    }

    /// Batched point addition (`add-1998-cmo-2`) with per-lane exception
    /// patching (identity operands, equal points, inverse points).
    pub fn add<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        p1: &PointLanes,
        p2: &PointLanes,
    ) -> PointLanes {
        let (a, b) = (PointRows::load(f, p1), PointRows::load(f, p2));
        let mut out = PointRows::zeros(f, a.lanes());
        self.add_rows(f, &a, &b, &mut out, &mut Scratch::new(f));
        out.store(f)
    }

    /// `dbl-1998-cmo-2` on resident points: `out = 2p`, in the
    /// operation order of the solo [`Curve::double`].
    fn double_rows<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        p: &PointRows,
        out: &mut PointRows,
        ws: &mut Scratch,
    ) {
        let [xx, yy, zz, d, s, m, t0, t1, t2, ..] = &mut ws.0;
        f.sqr_rows(&p.x, xx);
        f.sqr_rows(&p.y, yy);
        f.sqr_rows(&p.z, zz);
        // D = 2·YY, S = 2·X·D (= 4·X·YY)
        f.dbl_rows(yy, d);
        f.mul_rows(&p.x, d, t0);
        f.dbl_rows(t0, s);
        // M = 3XX + a·ZZ²
        f.mul_small_rows(xx, 3, t0);
        f.sqr_rows(zz, t1);
        f.mul_const_rows(t1, &self.curve.a, t2);
        f.add_rows(t0, t2, m);
        // X3 = M² − 2S
        f.sqr_rows(m, t0);
        f.dbl_rows(s, t1);
        f.sub_rows(t0, t1, &mut out.x);
        // Y3 = M(S − X3) − 2·D²  (= 8·YY²)
        f.sub_rows(s, &out.x, t0);
        f.mul_rows(m, t0, t1);
        f.sqr_rows(d, t0);
        f.dbl_rows(t0, t2);
        f.sub_rows(t1, t2, &mut out.y);
        // Z3 = 2·Y·Z
        f.mul_rows(&p.y, &p.z, t0);
        f.dbl_rows(t0, &mut out.z);
    }

    /// `add-1998-cmo-2` on resident points, `out = p1 + p2`, in the
    /// operation order of the solo [`Curve::add`], with the exceptional
    /// lanes patched.
    fn add_rows<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        p1: &PointRows,
        p2: &PointRows,
        out: &mut PointRows,
        ws: &mut Scratch,
    ) {
        let [z1z1, z2z2, u1, u2, s1, s2, h, r, hh, hhh, v, t0, t1] = &mut ws.0;
        f.sqr_rows(&p1.z, z1z1);
        f.sqr_rows(&p2.z, z2z2);
        f.mul_rows(&p1.x, z2z2, u1);
        f.mul_rows(&p2.x, z1z1, u2);
        f.mul_rows(&p1.y, &p2.z, t0);
        f.mul_rows(t0, z2z2, s1);
        f.mul_rows(&p2.y, &p1.z, t0);
        f.mul_rows(t0, z1z1, s2);
        f.sub_rows(u2, u1, h);
        f.sub_rows(s2, s1, r);
        f.sqr_rows(h, hh);
        f.mul_rows(h, hh, hhh);
        f.mul_rows(u1, hh, v);
        // X3 = r² − HHH − 2V
        f.sqr_rows(r, t0);
        f.sub_rows(t0, hhh, t1);
        f.dbl_rows(v, t0);
        f.sub_rows(t1, t0, &mut out.x);
        // Y3 = r(V − X3) − S1·HHH
        f.sub_rows(v, &out.x, t0);
        f.mul_rows(r, t0, t1);
        f.mul_rows(s1, hhh, t0);
        f.sub_rows(t1, t0, &mut out.y);
        // Z3 = Z1·Z2·H
        f.mul_rows(&p1.z, &p2.z, t0);
        f.mul_rows(t0, h, &mut out.z);
        // Patch the exceptional lanes — the same case analysis the solo
        // `add` performs up front, applied after the fact to only the
        // flagged lanes, on the solo curve and field.
        let (inf1, inf2, h0) = (f.zero_lanes(&p1.z), f.zero_lanes(&p2.z), f.zero_lanes(h));
        let mut flagged = inf1 | inf2 | h0;
        let r0 = if flagged == 0 { 0 } else { f.zero_lanes(r) };
        while flagged != 0 {
            let k = flagged.trailing_zeros() as usize;
            flagged &= flagged - 1;
            if inf1 >> k & 1 == 1 {
                out.copy_lane(k, p2, k);
            } else if inf2 >> k & 1 == 1 {
                out.copy_lane(k, p1, k);
            } else if r0 >> k & 1 == 1 {
                let d = self.curve.double(f.solo(), &p1.lane(k));
                out.set_lane(k, &d);
            } else {
                out.set_lane(k, &self.curve.identity(f.solo()));
            }
        }
    }

    /// Batched fixed-window scalar multiplication: lane `k` of the
    /// result is `[ks[k]]·P[k]`. Driven by the shared windowed-scan
    /// core; `window` forces a width (1..=8), `None` picks the
    /// cost-model optimum for the batch's maximum scalar length. Under
    /// engine hardening the scan never skips all-zero windows and the
    /// table gather sweeps every entry, making the memory trace and the
    /// double/add schedule scalar-independent.
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

    /// Batched joint scalar multiplication (Straus–Shamir): lane `k` of
    /// the result is `[u1[k]]·P1 + [u2[k]]·P2[k]` — ECDSA verify's
    /// `[u1]G + [u2]Q`. One scan drives both scalars, so each window's
    /// doublings are shared and only the additions come per scalar.
    /// A base given at **one** lane (the generator) is broadcast to
    /// every lane: its window table is built at one lane and its
    /// entries are gathered into each lane. `window` forces a width
    /// (1..=8); `None` picks [`scan_window`]'s optimum, pricing only
    /// the full-width tables. Hardening disables window skipping and
    /// indexed gathers as in [`BatchCurve::scalar_mul`]. Every lane's
    /// affine result equals `add(scalar_mul(u1, P1), scalar_mul(u2, P2))`.
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
    /// `lanes`-wide resident accumulator.
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
        let mut ws = Scratch::new(f);
        let tables = if t == 0 {
            Vec::new()
        } else {
            bases
                .iter()
                .map(|base| self.window_table(f, &PointRows::load(f, base), window, &mut ws))
                .collect()
        };
        let mut client = PointScanClient {
            curve: self,
            acc: PointRows::zeros(f, lanes),
            next: PointRows::zeros(f, lanes),
            gathered: PointRows::zeros(f, lanes),
            f,
            tables,
            ws,
            hardened,
        };
        run_windowed_scan(&mut client, lanes, sets, window, hardened);
        client.acc.store(client.f)
    }

    /// Table of `[d]P` lane batches for `d = 0 .. 2^w − 1`, at the
    /// base's own lane count; the chain `P + [d−1]P` exercises the
    /// patched add (`d = 2` hits the equal-points case on every lane).
    fn window_table<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        base: &PointRows,
        window: usize,
        ws: &mut Scratch,
    ) -> Vec<PointRows> {
        let mut identity = PointRows::zeros(f, base.lanes());
        identity.set_identity(f, base.lanes());
        let mut table = Vec::with_capacity(1 << window);
        table.push(identity);
        table.push(base.clone());
        for _ in 2..(1usize << window) {
            let mut next = PointRows::zeros(f, base.lanes());
            self.add_rows(f, table.last().unwrap(), base, &mut next, ws);
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
        let (zi, x, y) = (f.load(&zi), f.load(&pts.x), f.load(&pts.y));
        let mut ws = Scratch::new(f);
        let [zi2, zi3, xm, ym, xs, ys, ..] = &mut ws.0;
        f.sqr_rows(&zi, zi2);
        f.mul_rows(zi2, &zi, zi3);
        f.mul_rows(&x, zi2, xm);
        f.mul_rows(&y, zi3, ym);
        f.exit_mont_rows(xm, xs);
        f.exit_mont_rows(ym, ys);
        zinv.iter()
            .enumerate()
            .map(|(k, inv)| inv.as_ref().map(|_| (xs.lane(k), ys.lane(k))))
            .collect()
    }
}

/// The scan client for batched point multiplication: the accumulator
/// is a resident lane batch, "double" is a batched point doubling,
/// "combine" gathers each lane's entry of one set's table by its window
/// digit and performs one batched addition. Digit 0 gathers the
/// identity, which the patched add turns into a copy — the point
/// analogue of multiplying by 1̄.
struct PointScanClient<'c, 'f, E: BatchMontMul> {
    curve: &'c BatchCurve,
    f: &'f mut BatchFieldCtx<E>,
    /// One window table per scalar set (empty when every scalar is
    /// zero); a one-lane table is broadcast to every lane.
    tables: Vec<Vec<PointRows>>,
    acc: PointRows,
    /// The other half of the accumulator's ping-pong.
    next: PointRows,
    gathered: PointRows,
    ws: Scratch,
    hardened: bool,
}

impl<E: BatchMontMul> WindowScanClient for PointScanClient<'_, '_, E> {
    fn init(&mut self, digits: &[usize]) {
        if self.tables.is_empty() {
            // Zero-length scalars: everything is [0]P = ∞.
            self.acc.set_identity(self.f, digits.len());
        } else {
            gather(&self.tables[0], digits, self.hardened, &mut self.acc);
        }
    }

    fn double(&mut self) {
        self.curve
            .double_rows(self.f, &self.acc, &mut self.next, &mut self.ws);
        std::mem::swap(&mut self.acc, &mut self.next);
    }

    fn combine(&mut self, set: usize, digits: &[usize]) {
        gather(&self.tables[set], digits, self.hardened, &mut self.gathered);
        self.curve.add_rows(
            self.f,
            &self.acc,
            &self.gathered,
            &mut self.next,
            &mut self.ws,
        );
        std::mem::swap(&mut self.acc, &mut self.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldCtx;
    use mmm_core::config::HardeningMode;
    use mmm_core::engine::{AnyBatchEngine, EngineKind};
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::traits::{MontMul, SoftwareEngine};

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
        let (_, bc, _, sc, _) = setup();
        assert_eq!(bc.solo().a, sc.a);
        assert_eq!(bc.solo().b, sc.b);
        let via = BatchCurve::from_solo(&sc);
        assert_eq!(via.solo().a, sc.a);
        assert_eq!(via.solo().b, sc.b);
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

    /// A solo engine that makes one-lane calls on a batch engine, so the
    /// solo [`Curve`] runs on that engine's exact function: `< 2p`
    /// products, or canonical `< p` ones when hardened.
    struct OneLane(AnyBatchEngine);

    impl MontMul for OneLane {
        fn params(&self) -> &MontgomeryParams {
            self.0.params()
        }

        fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig {
            let mut out = self
                .0
                .mont_mul_batch(std::slice::from_ref(x), std::slice::from_ref(y));
            out.pop().expect("one lane in, one lane out")
        }

        fn name(&self) -> &'static str {
            "one-lane"
        }
    }

    /// Each lane of `got` equals the solo `a[k] + b[k]` bit for bit, in
    /// Jacobian coordinates. A lane the solo case analysis sends away
    /// from the generic formula (an identity operand, equal x) is
    /// patched by the batch on its context's solo field, so its solo
    /// twin runs there; every other lane runs the formula on the
    /// engine, so its twin runs on `engine`, the same engine one lane
    /// at a time.
    fn assert_adds_match_solo<E: BatchMontMul>(
        bf: &mut BatchFieldCtx<E>,
        engine: &mut FieldCtx<OneLane>,
        sc: &Curve,
        got: &PointLanes,
        a: &[Point],
        b: &[Point],
        what: &str,
    ) {
        for (k, (a, b)) in a.iter().zip(b).enumerate() {
            let (xa, xb) = (sc.to_affine(engine, a), sc.to_affine(engine, b));
            let generic = matches!((xa, xb), (Some((xa, _)), Some((xb, _))) if xa != xb);
            let want = if generic {
                sc.add(engine, a, b)
            } else {
                sc.add(bf.solo(), a, b)
            };
            assert_eq!(got.lane(k), want, "{what}: add lane {k}");
        }
    }

    /// Doubles the lanes ∞, G, 2G, 3G, −G and the 2-torsion point
    /// `torsion`, if the curve has one, and adds three second operands
    /// to them, on every backend, hardened and not, checking each lane
    /// against the solo [`Curve`].
    fn assert_double_and_add_match_solo(
        p: &Ubig,
        (a, b): (&Ubig, &Ubig),
        (gx, gy): (&Ubig, &Ubig),
        torsion: Option<(&Ubig, &Ubig)>,
    ) {
        let params = MontgomeryParams::hardware_safe(p);
        let mut sf = FieldCtx::new(SoftwareEngine::new(params.clone()));
        let sc = Curve::new(&mut sf, a, b);
        let bc = BatchCurve::from_solo(&sc);
        let g = sc.point(&mut sf, gx, gy);
        let g2 = sc.double(&mut sf, &g);
        let g3 = sc.add(&mut sf, &g2, &g);
        let neg = sc.point(&mut sf, gx, &(p - gy));
        let mut pts = vec![sc.identity(&mut sf), g.clone(), g2, g3, neg];
        if let Some((tx, ty)) = torsion {
            let t = sc.point(&mut sf, tx, ty);
            let tt = sc.add(&mut sf, &t, &t);
            assert!(sf.is_zero(&tt.z), "T + T = ∞");
            pts.push(t);
        }
        let lanes = PointLanes::from_points(&pts);
        // The second operands: G (the identity, equal-points and
        // inverse-points patches, and the generic formula on 2G, 3G and
        // T, with Z2 = 1̄); each lane's double (the generic formula with
        // neither Z one); the lane itself (every lane patched, T + T
        // through the equal-points double).
        let doubles = pts.iter().map(|pt| sc.double(&mut sf, pt)).collect();
        let seconds: [(&str, Vec<Point>); 3] = [
            ("G", vec![g; pts.len()]),
            ("2·lane", doubles),
            ("lane", pts.clone()),
        ];
        for kind in EngineKind::ALL {
            for mode in [HardeningMode::Off, HardeningMode::Hardened] {
                let what = format!("p={p} {kind:?} {mode:?}");
                let build = || {
                    let mut e = kind.build(params.clone());
                    e.set_hardening(mode);
                    e
                };
                let mut bf = BatchFieldCtx::new(build());
                let mut engine = FieldCtx::new(OneLane(build()));

                // Every lane doubles through the one formula. Where the
                // double is the identity (∞, and 2T through Y ≡ 0) the
                // solo code returns `Curve::identity` and the formula a
                // point with Z ≡ 0, so those lanes compare as identities.
                let dbl = bc.double(&mut bf, &lanes);
                for (k, pt) in pts.iter().enumerate() {
                    let want = sc.double(&mut engine, pt);
                    if engine.is_zero(&want.z) {
                        assert!(engine.is_zero(&dbl.z[k]), "{what}: double lane {k} is ∞");
                    } else {
                        assert_eq!(dbl.lane(k), want, "{what}: double lane {k}");
                    }
                }

                for (name, second) in &seconds {
                    let sum = bc.add(&mut bf, &lanes, &PointLanes::from_points(second));
                    let what = format!("{what}, lane + {name}");
                    assert_adds_match_solo(&mut bf, &mut engine, &sc, &sum, &pts, second, &what);
                }
            }
        }
    }

    #[test]
    fn batched_double_and_add_match_solo_lanes() {
        // The solo fixture, with its 2-torsion point T = (96, 0): x = −1
        // is a root of x³ + 2x + 3 over GF(97).
        let small = |v: u64| Ubig::from(v);
        assert_double_and_add_match_solo(
            &small(97),
            (&small(2), &small(3)),
            (&small(3), &small(6)),
            Some((&small(96), &small(0))),
        );
        // P-256: every pass and product over five-limb rows, as served.
        let c = crate::curves::p256();
        assert_double_and_add_match_solo(&c.p, (&c.a, &c.b), (&c.gx, &c.gy), None);
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

    #[test]
    fn swept_gather_equals_indexed_gather_for_every_digit() {
        // Multi-row entries (P-256 width) with a distinct limb pattern
        // per (digit, lane, coordinate); a one-lane table is broadcast.
        let params = MontgomeryParams::hardware_safe(&crate::curves::p256().p);
        let f = BatchFieldCtx::new(EngineKind::Cios.build(params));
        let value = |d: usize, k: usize, c: usize| {
            Ubig::from_limbs(vec![d as u64, k as u64, c as u64, (d << 8 | k) as u64, 1])
        };
        let (mut plain, mut swept) = (PointRows::zeros(&f, 64), PointRows::zeros(&f, 64));
        for w in 1..=6usize {
            for table_lanes in [1usize, 64] {
                let table: Vec<PointRows> = (0..1 << w)
                    .map(|d| {
                        let coord = |c| {
                            let vals: Vec<Fe> = (0..table_lanes).map(|k| value(d, k, c)).collect();
                            f.load(&vals)
                        };
                        PointRows {
                            x: coord(0),
                            y: coord(1),
                            z: coord(2),
                        }
                    })
                    .collect();
                for lanes in [1usize, 3, 64] {
                    // Shifts stepping by the lane count put every digit
                    // on some lane.
                    for shift in (0..1usize << w).step_by(lanes) {
                        let digits: Vec<usize> =
                            (0..lanes).map(|k| (k + shift) % (1 << w)).collect();
                        gather(&table, &digits, false, &mut plain);
                        gather(&table, &digits, true, &mut swept);
                        let what =
                            format!("w={w} table lanes={table_lanes} lanes={lanes} shift={shift}");
                        assert_eq!(plain.store(&f), swept.store(&f), "{what}");
                        for (k, &d) in digits.iter().enumerate() {
                            let col = if table_lanes == 1 { 0 } else { k };
                            assert_eq!(plain.lane(k), table[d].lane(col), "{what} lane {k}");
                        }
                    }
                }
            }
        }
    }
}

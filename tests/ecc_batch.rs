//! Batched ECC vs the solo oracle: every lane of the 64-lane batch
//! layer must be **bit-identical** (at affine coordinates, which are
//! unique reduced representatives) to the solo `curve.rs` path on the
//! same inputs — across every backend, at word-boundary field widths,
//! and for partial batches.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::engine::EngineKind;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::scan::fixed_window_schedule;
use montgomery_systolic::core::traits::{BatchMontMul, SoftwareEngine};
use montgomery_systolic::core::{HardeningMode, MmmError};
use montgomery_systolic::ecc::batch_curve::{
    scan_window, BatchCurve, PointLanes, ADD_FIELD_MULS, DOUBLE_FIELD_MULS,
};
use montgomery_systolic::ecc::batch_field::BatchFieldCtx;
use montgomery_systolic::ecc::curve::{Curve, Point};
use montgomery_systolic::ecc::curves::p256;
use montgomery_systolic::ecc::field::FieldCtx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

type Affine = Vec<Option<(Ubig, Ubig)>>;

/// The word-boundary test primes: NIST P-256's field prime (256-bit),
/// 2²⁵⁵ − 19 (255-bit, one under the limb boundary) and a 257-bit
/// prime (one over).
fn boundary_primes() -> Vec<(&'static str, Ubig)> {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let p255 = Ubig::pow2(255) - Ubig::from(19u64);
    assert!(p255.is_probable_prime(&mut rng, 16));
    // Smallest prime above 2²⁵⁶ (so bit_len = 257): search odd offsets.
    let mut p257 = Ubig::pow2(256) + Ubig::one();
    while !p257.is_probable_prime(&mut rng, 16) {
        p257 = p257 + Ubig::from(2u64);
    }
    assert_eq!(p257.bit_len(), 257);
    vec![("p256", p256().p), ("2^255-19", p255), ("257-bit", p257)]
}

/// Builds a solo context + curve + point over `p`, choosing small
/// coefficients and lifting the first x with a quadratic residue.
fn solo_fixture(p: &Ubig) -> (FieldCtx<SoftwareEngine>, Curve, Point) {
    let params = MontgomeryParams::hardware_safe(p);
    let mut f = FieldCtx::new(SoftwareEngine::new(params));
    let curve = Curve::try_new(&mut f, &Ubig::from(5u64), &Ubig::from(7u64))
        .expect("a=5, b=7 is non-singular for the test primes");
    let g = (2u64..)
        .find_map(|x| curve.lift_x(&mut f, &Ubig::from(x)))
        .expect("some small x lies on the curve");
    (f, curve, g)
}

/// Batch context for `p` on `kind`.
fn batch_fixture(
    p: &Ubig,
    kind: EngineKind,
) -> (
    BatchFieldCtx<montgomery_systolic::core::engine::AnyBatchEngine>,
    BatchCurve,
) {
    let params = MontgomeryParams::hardware_safe(p);
    let mut f = BatchFieldCtx::new(kind.build(params));
    let curve = BatchCurve::try_new(&mut f, &Ubig::from(5u64), &Ubig::from(7u64)).unwrap();
    (f, curve)
}

/// Affine output of the batched scalar mult for `ks` over splat(g).
fn batch_affine(p: &Ubig, kind: EngineKind, g: &Point, ks: &[Ubig]) -> Vec<Option<(Ubig, Ubig)>> {
    let (mut bf, bc) = batch_fixture(p, kind);
    let base = PointLanes::splat(g, ks.len());
    let acc = bc.scalar_mul(&mut bf, ks, &base, None);
    bc.to_affine(&mut bf, &acc)
}

// ---------------------------------------------------------------------
// Exhaustive bit-identity on a small prime: all backends, partial
// batches {1, 3, 63, 64}, forced and auto windows.
// ---------------------------------------------------------------------

#[test]
fn small_prime_lanes_match_solo_on_every_backend() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let mut rng = StdRng::seed_from_u64(42);
    for lanes in [1usize, 3, 63, 64] {
        let ks: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &Ubig::from(20000u64)))
            .collect();
        let solo: Vec<Option<(Ubig, Ubig)>> = ks
            .iter()
            .map(|k| {
                let r = sc.scalar_mul(&mut sf, k, &g);
                sc.to_affine(&mut sf, &r)
            })
            .collect();
        for kind in EngineKind::ALL {
            let got = batch_affine(&p, kind, &g, &ks);
            assert_eq!(got, solo, "kind={kind:?} lanes={lanes}");
        }
    }
}

#[test]
fn small_prime_forced_windows_match_solo() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let ks: Vec<Ubig> = (0..7u64).map(|k| Ubig::from(k * k * 37 + 1)).collect();
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .map(|k| {
            let r = sc.scalar_mul(&mut sf, k, &g);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    let (mut bf, bc) = batch_fixture(&p, EngineKind::Cios);
    let base = PointLanes::splat(&g, ks.len());
    for w in 1..=6usize {
        let acc = bc.scalar_mul(&mut bf, &ks, &base, Some(w));
        assert_eq!(bc.to_affine(&mut bf, &acc), solo, "window={w}");
    }
}

#[test]
fn small_prime_distinct_base_points_per_lane() {
    // Lanes multiply *different* points: [k0]G, [k1]2G, [k2]3G, ...
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let mut bases_solo = Vec::new();
    let mut acc = g.clone();
    for _ in 0..6 {
        bases_solo.push(acc.clone());
        acc = sc.add(&mut sf, &acc, &g);
    }
    let ks: Vec<Ubig> = (0..6u64).map(|k| Ubig::from(k * 13 + 5)).collect();
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .zip(&bases_solo)
        .map(|(k, b)| {
            let r = sc.scalar_mul(&mut sf, k, b);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    for kind in EngineKind::ALL {
        let (mut bf, bc) = batch_fixture(&p, kind);
        let base = PointLanes::from_points(&bases_solo);
        let got = bc.scalar_mul(&mut bf, &ks, &base, None);
        assert_eq!(bc.to_affine(&mut bf, &got), solo, "kind={kind:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scalars (including zero and beyond-the-order values) on
    /// random lane counts: batch ≡ solo on the default backend.
    #[test]
    fn prop_batch_lanes_match_solo(
        seed in 0u64..u64::MAX,
        lanes in 1usize..16,
    ) {
        let p = Ubig::from(10007u64);
        let (mut sf, sc, g) = solo_fixture(&p);
        let mut rng = StdRng::seed_from_u64(seed);
        let ks: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_bits(&mut rng, 16))
            .collect();
        let solo: Vec<Option<(Ubig, Ubig)>> = ks
            .iter()
            .map(|k| {
                let r = sc.scalar_mul(&mut sf, k, &g);
                sc.to_affine(&mut sf, &r)
            })
            .collect();
        let got = batch_affine(&p, EngineKind::default_kind(), &g, &ks);
        prop_assert_eq!(got, solo);
    }
}

// ---------------------------------------------------------------------
// Word-boundary field widths: 255 / 256 / 257-bit primes. The solo
// oracle anchors the default backend with a mixed scalar profile
// (full-width, short, 0, 1); the other backends are then checked
// bit-identical to the default backend's batch output.
// ---------------------------------------------------------------------

#[test]
fn word_boundary_primes_match_solo_and_cross_backend() {
    let mut rng = StdRng::seed_from_u64(7);
    for (name, p) in boundary_primes() {
        let (mut sf, sc, g) = solo_fixture(&p);
        // Distinct scalar profile, cycled across 64 lanes so partial
        // and full batches reuse the same four oracle results.
        let profile: Vec<Ubig> = vec![
            Ubig::random_below(&mut rng, &p), // full width
            Ubig::random_bits(&mut rng, 48),  // short
            Ubig::zero(),
            Ubig::one(),
        ];
        let oracle: Vec<Option<(Ubig, Ubig)>> = profile
            .iter()
            .map(|k| {
                let r = sc.scalar_mul(&mut sf, k, &g);
                sc.to_affine(&mut sf, &r)
            })
            .collect();
        for lanes in [1usize, 3, 63, 64] {
            let ks: Vec<Ubig> = (0..lanes).map(|i| profile[i % 4].clone()).collect();
            let want: Vec<Option<(Ubig, Ubig)>> =
                (0..lanes).map(|i| oracle[i % 4].clone()).collect();
            let got = batch_affine(&p, EngineKind::default_kind(), &g, &ks);
            assert_eq!(got, want, "prime={name} lanes={lanes}");
        }
        // Cross-backend identity with short scalars (the slow engines
        // only re-prove lane identity, already anchored above).
        let ks: Vec<Ubig> = (0..8).map(|_| Ubig::random_bits(&mut rng, 40)).collect();
        let reference = batch_affine(&p, EngineKind::default_kind(), &g, &ks);
        for kind in EngineKind::ALL {
            let got = batch_affine(&p, kind, &g, &ks);
            assert_eq!(got, reference, "prime={name} kind={kind:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Exception lanes inside batches: identity, 2-torsion-free doubling
// chain, equal points, inverse points — each patched lane must agree
// with the solo case analysis.
// ---------------------------------------------------------------------

#[test]
fn exceptional_lanes_match_solo_case_analysis() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let id = sc.identity(&mut sf);
    let g2 = sc.double(&mut sf, &g);
    let (gx, gy) = sc.to_affine(&mut sf, &g).unwrap();
    let neg = sc.point(&mut sf, &gx, &(&p - &gy));
    let pts = vec![id.clone(), g.clone(), g2.clone(), neg.clone(), g.clone()];
    let others = vec![g.clone(), g.clone(), g.clone(), g.clone(), id.clone()];
    let solo: Vec<Option<(Ubig, Ubig)>> = pts
        .iter()
        .zip(&others)
        .map(|(a, b)| {
            let r = sc.add(&mut sf, a, b);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    for kind in EngineKind::ALL {
        let (mut bf, bc) = batch_fixture(&p, kind);
        let sum = bc.add(
            &mut bf,
            &PointLanes::from_points(&pts),
            &PointLanes::from_points(&others),
        );
        assert_eq!(bc.to_affine(&mut bf, &sum), solo, "kind={kind:?}");
    }
}

// ---------------------------------------------------------------------
// Hardened mode: the constant-time scan schedule must not change any
// result.
// ---------------------------------------------------------------------

#[test]
fn hardened_scan_is_result_identical() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let ks: Vec<Ubig> = (0..5u64).map(|k| Ubig::from(k * 701 + 3)).collect();
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .map(|k| {
            let r = sc.scalar_mul(&mut sf, k, &g);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    for kind in EngineKind::ALL {
        let (mut bf, bc) = batch_fixture(&p, kind);
        bf.engine_mut().set_hardening(HardeningMode::Hardened);
        let base = PointLanes::splat(&g, ks.len());
        let acc = bc.scalar_mul(&mut bf, &ks, &base, None);
        assert_eq!(bc.to_affine(&mut bf, &acc), solo, "kind={kind:?}");
    }
}

// ---------------------------------------------------------------------
// The joint scan: `joint_scalar_mul(u1, P1, u2, P2)` must equal the
// composition it replaces, `add(scalar_mul(u1, P1), scalar_mul(u2, P2))`,
// lane for lane at affine coordinates.
// ---------------------------------------------------------------------

/// `[u1]P1 + [u2]P2` both ways on one batch context: (joint scan,
/// two scans plus an add). A one-lane `p1` is broadcast.
fn joint_and_composed<E: BatchMontMul>(
    bf: &mut BatchFieldCtx<E>,
    bc: &BatchCurve,
    (u1, p1): (&[Ubig], &PointLanes),
    (u2, p2): (&[Ubig], &PointLanes),
    window: Option<usize>,
) -> (Affine, Affine) {
    let joint = bc.joint_scalar_mul(bf, u1, p1, u2, p2, window);
    let p1 = if p1.lanes() == 1 {
        PointLanes::splat(&p1.lane(0), u1.len())
    } else {
        p1.clone()
    };
    let r1 = bc.scalar_mul(bf, u1, &p1, window);
    let r2 = bc.scalar_mul(bf, u2, p2, window);
    let sum = bc.add(bf, &r1, &r2);
    (bc.to_affine(bf, &joint), bc.to_affine(bf, &sum))
}

/// `count` distinct solo points `[2]G, [3]G, …`.
fn multiples(sf: &mut FieldCtx<SoftwareEngine>, sc: &Curve, g: &Point, count: usize) -> Vec<Point> {
    let mut out = Vec::with_capacity(count);
    let mut acc = sc.double(sf, g);
    for _ in 0..count {
        out.push(acc.clone());
        acc = sc.add(sf, &acc, g);
    }
    out
}

#[test]
fn joint_scan_matches_two_scans_plus_add_on_every_backend() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let q_all = multiples(&mut sf, &sc, &g, 64);
    let mut rng = StdRng::seed_from_u64(21);
    for lanes in [1usize, 3, 63, 64] {
        let mut scalars = || -> Vec<Ubig> {
            (0..lanes)
                .map(|_| Ubig::random_below(&mut rng, &Ubig::from(20000u64)))
                .collect()
        };
        let (mut u1, u2) = (scalars(), scalars());
        u1[0] = Ubig::zero();
        let q = PointLanes::from_points(&q_all[..lanes]);
        let g1 = PointLanes::splat(&g, 1);
        let per_lane_p1 = PointLanes::from_points(&q_all[64 - lanes..]);
        for kind in EngineKind::ALL {
            let (mut bf, bc) = batch_fixture(&p, kind);
            for p1 in [&g1, &per_lane_p1] {
                let (joint, composed) =
                    joint_and_composed(&mut bf, &bc, (&u1, p1), (&u2, &q), None);
                assert_eq!(
                    joint,
                    composed,
                    "kind={kind:?} lanes={lanes} p1 lanes={}",
                    p1.lanes()
                );
            }
        }
    }
}

#[test]
fn joint_scan_forced_windows_and_hardened() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let q = PointLanes::from_points(&multiples(&mut sf, &sc, &g, 7));
    let g1 = PointLanes::splat(&g, 1);
    let u1: Vec<Ubig> = (0..7u64).map(|k| Ubig::from(k * k * 37 + 1)).collect();
    let u2: Vec<Ubig> = (0..7u64).map(|k| Ubig::from(k * 701 + 3)).collect();
    for kind in EngineKind::ALL {
        let (mut bf, bc) = batch_fixture(&p, kind);
        for w in 1..=6usize {
            let (joint, composed) =
                joint_and_composed(&mut bf, &bc, (&u1, &g1), (&u2, &q), Some(w));
            assert_eq!(joint, composed, "kind={kind:?} window={w}");
        }
        bf.engine_mut().set_hardening(HardeningMode::Hardened);
        for window in [None, Some(2)] {
            let (joint, composed) = joint_and_composed(&mut bf, &bc, (&u1, &g1), (&u2, &q), window);
            assert_eq!(joint, composed, "hardened kind={kind:?} window={window:?}");
        }
    }
}

#[test]
fn joint_scan_at_word_boundary_primes() {
    let mut rng = StdRng::seed_from_u64(5);
    for (name, p) in boundary_primes() {
        let (mut sf, sc, g) = solo_fixture(&p);
        let q = PointLanes::from_points(&multiples(&mut sf, &sc, &g, 6));
        let g1 = PointLanes::splat(&g, 1);
        // Full-width, short, zero and one scalars in both sets.
        let profile = |rng: &mut StdRng| -> Vec<Ubig> {
            vec![
                Ubig::random_below(rng, &p),
                Ubig::random_bits(rng, 48),
                Ubig::zero(),
                Ubig::one(),
                Ubig::random_below(rng, &p),
                Ubig::random_bits(rng, 8),
            ]
        };
        let (u1, u2) = (profile(&mut rng), profile(&mut rng));
        let (mut bf, bc) = batch_fixture(&p, EngineKind::default_kind());
        let (joint, composed) = joint_and_composed(&mut bf, &bc, (&u1, &g1), (&u2, &q), None);
        assert_eq!(joint, composed, "prime={name}");
    }
}

/// y² = x³ + 2x + 3 over GF(97), G = (3, 6) of order 5 — small enough
/// that table entries of G and Q collide all the time.
#[test]
fn joint_scan_exception_lanes_on_tiny_curve() {
    let p = Ubig::from(97u64);
    let params = MontgomeryParams::hardware_safe(&p);
    let mut sf = FieldCtx::new(SoftwareEngine::new(params.clone()));
    let sc = Curve::new(&mut sf, &Ubig::from(2u64), &Ubig::from(3u64));
    let g = sc.point(&mut sf, &Ubig::from(3u64), &Ubig::from(6u64));
    let neg_g = sc.point(&mut sf, &Ubig::from(3u64), &Ubig::from(91u64));
    let g2 = sc.double(&mut sf, &g);
    let g3 = sc.add(&mut sf, &g2, &g);
    // (u1, u2, Q) per lane.
    let lanes: Vec<(u64, u64, Point)> = vec![
        (0, 3, g2.clone()),    // u1 = 0
        (2, 0, g3.clone()),    // u2 = 0
        (0, 0, g.clone()),     // both 0: the identity
        (1, 2, g.clone()),     // Q = G
        (3, 3, g.clone()),     // Q = G with equal digits: doubling collisions
        (2, 3, neg_g.clone()), // Q = −G
        (2, 2, neg_g.clone()), // u1·G = −u2·Q: the identity
        (1, 4, g.clone()),     // [5]G = ∞
        (2, 1, g3.clone()),    // [2]G + [3]G = ∞
        (4, 1, neg_g.clone()), // [4]G − G = [3]G
    ];
    let u1: Vec<Ubig> = lanes.iter().map(|l| Ubig::from(l.0)).collect();
    let u2: Vec<Ubig> = lanes.iter().map(|l| Ubig::from(l.1)).collect();
    let qs: Vec<Point> = lanes.iter().map(|l| l.2.clone()).collect();
    let q = PointLanes::from_points(&qs);
    let g1 = PointLanes::splat(&g, 1);
    for kind in EngineKind::ALL {
        let mut bf = BatchFieldCtx::new(kind.build(params.clone()));
        let bc = BatchCurve::try_new(&mut bf, &Ubig::from(2u64), &Ubig::from(3u64)).unwrap();
        for hardened in [false, true] {
            if hardened {
                bf.engine_mut().set_hardening(HardeningMode::Hardened);
            }
            for window in [None, Some(1), Some(2), Some(3)] {
                let (joint, composed) =
                    joint_and_composed(&mut bf, &bc, (&u1, &g1), (&u2, &q), window);
                let what = format!("kind={kind:?} hardened={hardened} window={window:?}");
                assert_eq!(joint, composed, "{what}");
                for k in [2, 6, 7, 8] {
                    assert!(joint[k].is_none(), "{what}: lane {k} is the identity");
                }
            }
        }
    }
}

/// Counts engine calls by batch width; results pass through unchanged.
struct Counting<E> {
    inner: E,
    calls: BTreeMap<usize, u64>,
}

impl<E: BatchMontMul> BatchMontMul for Counting<E> {
    fn params(&self) -> &MontgomeryParams {
        self.inner.params()
    }

    fn max_lanes(&self) -> usize {
        self.inner.max_lanes()
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        *self.calls.entry(xs.len()).or_default() += 1;
        self.inner.mont_mul_batch(xs, ys)
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        *self.calls.entry(xs.len()).or_default() += 1;
        self.inner.mont_mul_batch_into(xs, ys, out);
    }

    fn set_hardening(&mut self, mode: HardeningMode) {
        self.inner.set_hardening(mode);
    }

    fn hardening(&self) -> HardeningMode {
        self.inner.hardening()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The §6 cost model, executed: on 64 P-256 lanes the joint scan makes
/// exactly the engine calls `fixed_window_schedule` predicts at the
/// window it picks — G's table at one lane, everything else at 64.
#[test]
fn joint_scan_engine_calls_match_the_cost_model() {
    let spec = p256();
    let params = MontgomeryParams::hardware_safe(&spec.p);
    let mut f = BatchFieldCtx::new(Counting {
        inner: EngineKind::Cios.build(params),
        calls: BTreeMap::new(),
    });
    let curve = BatchCurve::try_new(&mut f, &spec.a, &spec.b).unwrap();
    let g = {
        let m = f.to_mont(&[spec.gx.clone(), spec.gy.clone(), Ubig::one()]);
        Point {
            x: m[0].clone(),
            y: m[1].clone(),
            z: m[2].clone(),
        }
    };
    let ds: Vec<Ubig> = (2..66u64).map(Ubig::from).collect();
    let q = curve.scalar_mul(&mut f, &ds, &PointLanes::splat(&g, 64), None);
    let mut rng = StdRng::seed_from_u64(256);
    let mut scalars = || -> Vec<Ubig> {
        (0..64)
            .map(|_| Ubig::random_below(&mut rng, &spec.order))
            .collect()
    };
    let (u1, u2) = (scalars(), scalars());
    let t = u1.iter().chain(&u2).map(Ubig::bit_len).max().unwrap();
    assert_eq!(t, 256);

    f.engine_mut().calls.clear();
    let g1 = PointLanes::splat(&g, 1);
    curve.joint_scalar_mul(&mut f, &u1, &g1, &u2, &q, None);
    let calls = std::mem::take(&mut f.engine_mut().calls);

    // One full-width table (Q's) is priced; two adds per window.
    let w = scan_window(t, 1, 2);
    let s = fixed_window_schedule(t, w);
    let (add, dbl) = (ADD_FIELD_MULS as u64, DOUBLE_FIELD_MULS as u64);
    // Set 0 (u1) loads the top window; set 1 (u2) folds its top
    // window in with one extra add.
    let want64 = s.table_entries * add + s.doublings * dbl + (2 * s.combines + 1) * add;
    let want1 = s.table_entries * add;
    assert_eq!(w, 5);
    assert_eq!(
        calls,
        BTreeMap::from([(1, want1), (64, want64)]),
        "one-lane calls build G's table; 64-lane calls build Q's table and run the scan"
    );
    // Two separate scans plus an add made 7,520 64-lane calls here.
    assert!(want64 < 5300, "{want64} 64-lane calls");
}

// ---------------------------------------------------------------------
// Batched field primitives at a word boundary: simultaneous inversion
// and the Montgomery domain round trip.
// ---------------------------------------------------------------------

#[test]
fn simultaneous_inversion_at_word_boundaries() {
    let mut rng = StdRng::seed_from_u64(11);
    for (name, p) in boundary_primes() {
        let params = MontgomeryParams::hardware_safe(&p);
        let mut bf = BatchFieldCtx::new(EngineKind::default_kind().build(params));
        let mut plain: Vec<Ubig> = (0..9).map(|_| Ubig::random_below(&mut rng, &p)).collect();
        plain[4] = Ubig::zero();
        let lanes = bf.to_mont(&plain);
        let invs = bf.inv(&lanes);
        for (k, inv) in invs.iter().enumerate() {
            if plain[k].is_zero() {
                assert!(inv.is_none(), "prime={name} lane {k}");
            } else {
                let prod = bf.solo().mul(&lanes[k], inv.as_ref().unwrap());
                let back = bf.from_mont(&[prod]);
                assert_eq!(back[0], Ubig::one(), "prime={name} lane {k}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed errors from the batch layer.
// ---------------------------------------------------------------------

#[test]
fn batch_layer_reports_typed_errors() {
    let p = Ubig::from(10007u64);
    let (mut bf, bc) = batch_fixture(&p, EngineKind::default_kind());
    let err = bc
        .try_points(&mut bf, &[(Ubig::from(2u64), Ubig::from(9999u64))])
        .unwrap_err();
    assert!(matches!(err, MmmError::PointNotOnCurve { lane: 0 }));
    let err = BatchCurve::try_new(&mut bf, &Ubig::zero(), &Ubig::zero()).unwrap_err();
    assert!(matches!(err, MmmError::SingularCurve));
}

// ---------------------------------------------------------------------
// Resident field operations: every rows op computes the function of
// the solo field op, bit for bit, at the word-boundary primes,
// on the edge operands 0, 1, p−1, p and 2p−1, at 1, 3, 63 and 64 live
// lanes.
// ---------------------------------------------------------------------

#[test]
fn rows_field_ops_match_solo_field() {
    for (name, p) in boundary_primes() {
        let params = MontgomeryParams::hardware_safe(&p);
        let mut f = BatchFieldCtx::new(EngineKind::default_kind().build(params));
        let one = Ubig::one();
        let edges = [
            Ubig::zero(),
            one.clone(),
            &p - &one,
            p.clone(),
            &(&p + &p) - &one,
        ];
        let pairs: Vec<(&Ubig, &Ubig)> = edges
            .iter()
            .flat_map(|a| edges.iter().map(move |b| (a, b)))
            .collect();
        for lanes in [1usize, 3, 63, 64] {
            // Offsets stepping by the lane count put every pair on a lane.
            for offset in (0..pairs.len()).step_by(lanes) {
                let pick = |k: usize| pairs[(offset + k) % pairs.len()];
                let a: Vec<Ubig> = (0..lanes).map(|k| pick(k).0.clone()).collect();
                let b: Vec<Ubig> = (0..lanes).map(|k| pick(k).1.clone()).collect();
                let (ra, rb) = (f.load(&a), f.load(&b));
                let mut out = f.zeros(lanes);
                let what = |op: &str, k: usize| format!("{op} prime={name} lanes={lanes} lane {k}");
                f.add_rows(&ra, &rb, &mut out);
                for (k, got) in f.store(&out).iter().enumerate() {
                    assert_eq!(*got, f.solo().add(&a[k], &b[k]), "{}", what("add", k));
                }
                f.sub_rows(&ra, &rb, &mut out);
                for (k, got) in f.store(&out).iter().enumerate() {
                    assert_eq!(*got, f.solo().sub(&a[k], &b[k]), "{}", what("sub", k));
                }
                f.dbl_rows(&ra, &mut out);
                for (k, got) in f.store(&out).iter().enumerate() {
                    assert_eq!(*got, f.solo().dbl(&a[k]), "{}", what("dbl", k));
                }
                for small in [0u64, 1, 2, 3, 5, 8, 13] {
                    f.mul_small_rows(&ra, small, &mut out);
                    for (k, got) in f.store(&out).iter().enumerate() {
                        let op = format!("mul_small({small})");
                        assert_eq!(*got, f.solo().mul_small(&a[k], small), "{}", what(&op, k));
                    }
                }
                f.mul_rows(&ra, &rb, &mut out);
                for (k, got) in f.store(&out).iter().enumerate() {
                    assert_eq!(*got, f.solo().mul(&a[k], &b[k]), "{}", what("mul", k));
                }
            }
        }
    }
}

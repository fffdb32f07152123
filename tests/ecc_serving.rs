//! The ECC serving surface end to end: batched ECDSA verification
//! against an independent known-answer vector and an in-test affine
//! signer, ECDH round trips, the serving plane's collector ordering
//! and error semantics for both ECC operations, and cross-backend
//! result identity. Honors `MMM_ENGINE` through
//! `EngineConfig::from_env` so the CI backend sweep drives the same
//! assertions on every engine.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::batch::try_mont_mul_many;
use montgomery_systolic::core::montgomery::{mont_mul_alg2, MontgomeryParams};
use montgomery_systolic::core::serve::Collector;
use montgomery_systolic::core::traits::SoftwareEngine;
use montgomery_systolic::core::verify::{Quarantine, QUARANTINE_THRESHOLD};
use montgomery_systolic::core::{EngineConfig, EngineKind, HardeningMode, MmmError};
use montgomery_systolic::ecc::curve::Curve;
use montgomery_systolic::ecc::curves::{p256, CurveSpec};
use montgomery_systolic::ecc::field::FieldCtx;
use montgomery_systolic::ecc::serve::{CurveSession, Ecdh, EcdhRequest, EcdsaRequest, EcdsaVerify};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig::from_env().expect("clean MMM_* environment")
}

// ---------------------------------------------------------------------
// Plain affine reference arithmetic (independent of every engine and
// of the Jacobian/Montgomery machinery under test).
// ---------------------------------------------------------------------

type Aff = Option<(Ubig, Ubig)>;

fn inv_mod(x: &Ubig, p: &Ubig) -> Ubig {
    x.rem(p).modinv(p).expect("inverse exists for test inputs")
}

fn aff_add(p: &Ubig, a: &Ubig, p1: &Aff, p2: &Aff) -> Aff {
    match (p1, p2) {
        (None, q) => q.clone(),
        (q, None) => q.clone(),
        (Some((x1, y1)), Some((x2, y2))) => {
            if x1 == x2 && y1.modadd(y2, p).is_zero() {
                return None;
            }
            let l = if x1 == x2 && y1 == y2 {
                let num = Ubig::from(3u64).modmul(&x1.modmul(x1, p), p).modadd(a, p);
                num.modmul(&inv_mod(&y1.modadd(y1, p), p), p)
            } else {
                y2.modsub(y1, p).modmul(&inv_mod(&x2.modsub(x1, p), p), p)
            };
            let x3 = l.modmul(&l, p).modsub(x1, p).modsub(x2, p);
            let y3 = l.modmul(&x1.modsub(&x3, p), p).modsub(y1, p);
            Some((x3, y3))
        }
    }
}

fn aff_mul(p: &Ubig, a: &Ubig, k: &Ubig, pt: &Aff) -> Aff {
    let mut acc: Aff = None;
    for i in (0..k.bit_len()).rev() {
        acc = aff_add(p, a, &acc, &acc.clone());
        if k.bit(i) {
            acc = aff_add(p, a, &acc, pt);
        }
    }
    acc
}

/// Textbook ECDSA signing over the affine reference: `r = x([k]G) mod
/// n`, `s = k⁻¹(z + r·d) mod n`. The chosen `k` values in the tests
/// never produce `r = 0` or `s = 0`.
fn ecdsa_sign(spec: &CurveSpec, z: &Ubig, d: &Ubig, k: &Ubig) -> (Ubig, Ubig) {
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let (rx, _) = aff_mul(&spec.p, &spec.a, k, &g).expect("k < order");
    let n = &spec.order;
    let r = rx.rem(n);
    assert!(!r.is_zero(), "test nonce produced r = 0");
    let s = inv_mod(k, n).modmul(&z.rem(n).modadd(&r.modmul(&d.rem(n), n), n), n);
    assert!(!s.is_zero(), "test nonce produced s = 0");
    (r, s)
}

// ---------------------------------------------------------------------
// Known-answer test: RFC 6979 §A.2.5, P-256 + SHA-256, message
// "sample" — an externally published vector, independent of every
// line of this workspace.
// ---------------------------------------------------------------------

fn rfc6979_sample_request() -> EcdsaRequest {
    let hex = |s: &str| Ubig::from_hex(s).unwrap();
    EcdsaRequest {
        z: hex("AF2BDBE1AA9B6EC1E2ADE1D694F41FC71A831D0268E9891562113D8A62ADD1BF"),
        r: hex("EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"),
        s: hex("F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"),
        qx: hex("60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6"),
        qy: hex("7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299"),
    }
}

#[test]
fn ecdsa_rfc6979_p256_known_answer() {
    let session = CurveSession::new(p256(), config()).unwrap();
    let good = rfc6979_sample_request();
    let mut bad_s = good.clone();
    bad_s.s = bad_s.s.modadd(&Ubig::one(), &session.spec().order);
    let mut bad_z = good.clone();
    bad_z.z = bad_z.z.modadd(&Ubig::one(), &session.spec().order);
    let verdicts = session.verify_ecdsa(&[good.clone(), bad_s, bad_z]).unwrap();
    assert_eq!(verdicts, vec![true, false, false]);
    // Degenerate r/s are verdicts, not errors.
    let mut zero_r = good.clone();
    zero_r.r = Ubig::zero();
    let mut huge_s = good;
    huge_s.s = session.spec().order.clone();
    let verdicts = session.verify_ecdsa(&[zero_r, huge_s]).unwrap();
    assert_eq!(verdicts, vec![false, false]);
}

#[test]
fn ecdsa_round_trip_against_affine_signer() {
    let spec = p256();
    let session = CurveSession::new(spec.clone(), config()).unwrap();
    let mut rng = StdRng::seed_from_u64(1009);
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let mut reqs = Vec::new();
    for _ in 0..3 {
        let d = Ubig::random_below(&mut rng, &spec.order);
        let k = Ubig::random_below(&mut rng, &spec.order);
        let z = Ubig::random_bits(&mut rng, 256);
        let (qx, qy) = aff_mul(&spec.p, &spec.a, &d, &g).expect("d > 0");
        let (r, s) = ecdsa_sign(&spec, &z, &d, &k);
        reqs.push(EcdsaRequest { z, r, s, qx, qy });
    }
    let verdicts = session.verify_ecdsa(&reqs).unwrap();
    assert_eq!(
        verdicts,
        vec![true; reqs.len()],
        "genuine signatures verify"
    );
    // Cross-wire digests: every verdict flips.
    let mut crossed = reqs.clone();
    crossed[0].z = reqs[1].z.clone();
    crossed[1].z = reqs[2].z.clone();
    crossed[2].z = reqs[0].z.clone();
    let verdicts = session.verify_ecdsa(&crossed).unwrap();
    assert_eq!(verdicts, vec![false; crossed.len()]);
}

#[test]
fn ecdsa_rejects_off_curve_public_key() {
    let session = CurveSession::new(p256(), config()).unwrap();
    let mut req = rfc6979_sample_request();
    req.qy = req.qy.modadd(&Ubig::one(), &session.spec().p);
    let err = session
        .verify_ecdsa(&[rfc6979_sample_request(), req])
        .unwrap_err();
    assert!(matches!(err, MmmError::PointNotOnCurve { lane: 1 }));
}

// ---------------------------------------------------------------------
// ECDH on P-256: mirrored derivations agree; the shared secret
// matches the affine reference.
// ---------------------------------------------------------------------

#[test]
fn ecdh_p256_round_trip_matches_affine_reference() {
    let spec = p256();
    let session = CurveSession::new(spec.clone(), config()).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let da = Ubig::random_below(&mut rng, &spec.order);
    let db = Ubig::random_below(&mut rng, &spec.order);
    let qa = aff_mul(&spec.p, &spec.a, &da, &g).unwrap();
    let qb = aff_mul(&spec.p, &spec.a, &db, &g).unwrap();
    let sa = session
        .ecdh(&[EcdhRequest {
            scalar: da.clone(),
            qx: qb.0.clone(),
            qy: qb.1.clone(),
        }])
        .unwrap();
    let sb = session
        .ecdh(&[EcdhRequest {
            scalar: db.clone(),
            qx: qa.0.clone(),
            qy: qa.1.clone(),
        }])
        .unwrap();
    assert_eq!(sa, sb, "mirrored derivations agree");
    let reference = aff_mul(&spec.p, &spec.a, &da, &Some(qb)).unwrap().0;
    assert_eq!(sa[0], reference, "matches the affine reference");
}

// ---------------------------------------------------------------------
// Cross-backend and hardened-mode result identity (tiny curve: cheap
// enough to run every engine).
// ---------------------------------------------------------------------

/// y² = x³ + 2x + 3 over GF(97), G = (3, 6) of order 5.
fn tiny_spec() -> CurveSpec {
    CurveSpec {
        name: "tiny97",
        p: Ubig::from(97u64),
        a: Ubig::from(2u64),
        b: Ubig::from(3u64),
        gx: Ubig::from(3u64),
        gy: Ubig::from(6u64),
        order: Ubig::from(5u64),
    }
}

/// FIPS 186-4 §6.4 verification over the affine reference.
fn ecdsa_verify_reference(spec: &CurveSpec, req: &EcdsaRequest) -> bool {
    let n = &spec.order;
    let in_range = |v: &Ubig| !v.is_zero() && v < n;
    if !in_range(&req.r) || !in_range(&req.s) {
        return false;
    }
    let w = inv_mod(&req.s, n);
    let u1 = req.z.rem(n).modmul(&w, n);
    let u2 = req.r.modmul(&w, n);
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let q = Some((req.qx.clone(), req.qy.clone()));
    let x = aff_add(
        &spec.p,
        &spec.a,
        &aff_mul(&spec.p, &spec.a, &u1, &g),
        &aff_mul(&spec.p, &spec.a, &u2, &q),
    );
    x.is_some_and(|(x, _)| x.rem(n) == req.r)
}

#[test]
fn ecdsa_every_tiny_signature_matches_the_affine_reference() {
    // Every key d ∈ [1, 5), nonce k ∈ [1, 5) and digest z ∈ [0, 5) on
    // the order-5 fixture, where u1·G and u2·Q collide, cancel and
    // vanish all the time. Each signature is sent as signed and with
    // r and s nudged, and every verdict must match the reference.
    let spec = tiny_spec();
    let session = CurveSession::new(spec.clone(), config()).unwrap();
    let n = &spec.order;
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let mut reqs = Vec::new();
    let mut genuine = Vec::new();
    for d in 1..5u64 {
        let (qx, qy) = aff_mul(&spec.p, &spec.a, &Ubig::from(d), &g).unwrap();
        for k in 1..5u64 {
            let (rx, _) = aff_mul(&spec.p, &spec.a, &Ubig::from(k), &g).unwrap();
            let r = rx.rem(n);
            for z in 0..5u64 {
                let z = Ubig::from(z);
                let s = inv_mod(&Ubig::from(k), n)
                    .modmul(&z.modadd(&r.modmul(&Ubig::from(d), n), n), n);
                let req = EcdsaRequest {
                    z,
                    r: r.clone(),
                    s: s.clone(),
                    qx: qx.clone(),
                    qy: qy.clone(),
                };
                genuine.push(!r.is_zero() && !s.is_zero());
                let mut nudged_r = req.clone();
                nudged_r.r = r.modadd(&Ubig::one(), n);
                let mut nudged_s = req.clone();
                nudged_s.s = s.modadd(&Ubig::one(), n);
                reqs.extend([req, nudged_r, nudged_s]);
            }
        }
    }
    let want: Vec<bool> = reqs
        .iter()
        .map(|req| ecdsa_verify_reference(&spec, req))
        .collect();
    for (i, &ok) in genuine.iter().enumerate() {
        assert!(
            !ok || want[3 * i],
            "the reference accepts genuine signature {i}"
        );
    }
    assert!(want.iter().any(|&v| !v), "some nudged signatures fail");
    assert_eq!(session.verify_ecdsa(&reqs).unwrap(), want);
}

#[test]
fn backends_agree_on_ecdh_and_base_multiples() {
    let reference = {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        session
            .scalar_mul_base(&[Ubig::from(1u64), Ubig::from(2u64), Ubig::from(3u64)])
            .unwrap()
    };
    for kind in EngineKind::ALL {
        let session =
            CurveSession::new(tiny_spec(), EngineConfig::default().with_backend(kind)).unwrap();
        let got = session
            .scalar_mul_base(&[Ubig::from(1u64), Ubig::from(2u64), Ubig::from(3u64)])
            .unwrap();
        assert_eq!(got, reference, "kind={kind:?}");
        let q = got[1].clone().unwrap();
        let secret = session
            .ecdh(&[EcdhRequest {
                scalar: Ubig::from(3u64),
                qx: q.0,
                qy: q.1,
            }])
            .unwrap();
        // [3]([2]G) = [6]G = [1]G (order 5).
        let g1 = reference[0].clone().unwrap();
        assert_eq!(secret[0], g1.0, "kind={kind:?}");
    }
}

#[test]
fn hardened_session_is_result_identical() {
    let spec = p256();
    let plain = CurveSession::new(spec.clone(), config()).unwrap();
    let hardened =
        CurveSession::new(spec, config().with_hardening(HardeningMode::Hardened)).unwrap();
    let req = rfc6979_sample_request();
    assert_eq!(
        plain.verify_ecdsa(std::slice::from_ref(&req)).unwrap(),
        hardened.verify_ecdsa(&[req]).unwrap()
    );
    let ks = [Ubig::from(0xDEAD_BEEFu64), Ubig::from(7u64)];
    assert_eq!(
        plain.scalar_mul_base(&ks).unwrap(),
        hardened.scalar_mul_base(&ks).unwrap()
    );
}

#[test]
fn benched_backend_reroutes_ecc_and_mont_mul_many() {
    // Three strikes on the configured backend in a private ledger: the
    // ECC operations and `try_mont_mul_many` must run on the next
    // weaker backend, as RSA's CRT dispatch does, and still match a
    // healthy session, the direct oracle and the solo curve. Shard
    // width 2 puts every call across several shards.
    let spec = tiny_spec();
    let (p, a, n) = (&spec.p, &spec.a, &spec.order);
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let params = MontgomeryParams::hardware_safe(p);
    let mut solo = FieldCtx::new(SoftwareEngine::new(params.clone()));
    let curve = Curve::try_new(&mut solo, a, &spec.b).unwrap();
    let mut verify_reqs = Vec::new();
    let mut ecdh_reqs = Vec::new();
    for d in 1..5u64 {
        let (qx, qy) = aff_mul(p, a, &Ubig::from(d), &g).unwrap();
        for k in 1..5u64 {
            let (rx, _) = aff_mul(p, a, &Ubig::from(k), &g).unwrap();
            let (z, r) = (Ubig::from(d + k), rx.rem(n));
            let s =
                inv_mod(&Ubig::from(k), n).modmul(&z.modadd(&r.modmul(&Ubig::from(d), n), n), n);
            // Every third request carries a tampered s.
            let s = if (d + k) % 3 == 0 {
                s.modadd(&Ubig::one(), n)
            } else {
                s
            };
            let (qx, qy) = (qx.clone(), qy.clone());
            verify_reqs.push(EcdsaRequest {
                z,
                r,
                s,
                qx: qx.clone(),
                qy: qy.clone(),
            });
            ecdh_reqs.push(EcdhRequest {
                scalar: Ubig::from(k),
                qx,
                qy,
            });
        }
    }
    let verdicts: Vec<bool> = verify_reqs
        .iter()
        .map(|req| ecdsa_verify_reference(&spec, req))
        .collect();
    assert!(verdicts.iter().any(|&v| v) && verdicts.iter().any(|&v| !v));
    let secrets: Vec<Ubig> = ecdh_reqs
        .iter()
        .map(|req| {
            let q = curve.point(&mut solo, &req.qx, &req.qy);
            let dq = curve.scalar_mul(&mut solo, &req.scalar, &q);
            curve.to_affine(&mut solo, &dq).unwrap().0
        })
        .collect();
    let xs: Vec<Ubig> = (0..9u64).map(|k| Ubig::from(k * 23 % 194)).collect();
    let ys: Vec<Ubig> = (0..9u64).map(|k| Ubig::from(193 - k * 41 % 194)).collect();
    let products: Vec<Ubig> = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| mont_mul_alg2(&params, x, y))
        .collect();
    for kind in EngineKind::ALL {
        let quarantine = Arc::new(Quarantine::new());
        for _ in 0..QUARANTINE_THRESHOLD {
            quarantine.record_violation(kind);
        }
        let healthy = EngineConfig::default()
            .with_backend(kind)
            .with_shard_lanes(2)
            .unwrap();
        let benched = healthy.clone().with_quarantine(quarantine);
        assert_eq!(
            benched.run_kind(&params),
            kind.weaker().unwrap_or(kind),
            "{kind:?}"
        );
        let got = try_mont_mul_many(&params, &xs, &ys, &benched).unwrap();
        assert_eq!(got, products, "{kind:?}");
        assert_eq!(
            got,
            try_mont_mul_many(&params, &xs, &ys, &healthy).unwrap(),
            "{kind:?}"
        );
        let session = CurveSession::new(spec.clone(), benched).unwrap();
        let direct = CurveSession::new(spec.clone(), healthy).unwrap();
        let got = session.verify_ecdsa(&verify_reqs).unwrap();
        assert_eq!(got, verdicts, "{kind:?}");
        assert_eq!(got, direct.verify_ecdsa(&verify_reqs).unwrap(), "{kind:?}");
        let got = session.ecdh(&ecdh_reqs).unwrap();
        assert_eq!(got, secrets, "{kind:?}");
        assert_eq!(got, direct.ecdh(&ecdh_reqs).unwrap(), "{kind:?}");
    }
}

// ---------------------------------------------------------------------
// Collector semantics: ordering, validation, drain, empty flush.
// ---------------------------------------------------------------------

#[test]
fn ecdsa_collector_orders_validates_and_drains() {
    let spec = p256();
    let session = CurveSession::new(spec.clone(), config()).unwrap();
    let good = rfc6979_sample_request();
    let mut c = Collector::new(&session, EcdsaVerify);
    assert!(c.is_empty());
    assert!(matches!(c.flush(), Err(MmmError::EmptyBatch)));
    let mut tampered = good.clone();
    tampered.s = tampered.s.modadd(&Ubig::one(), &spec.order);
    assert_eq!(c.submit(good.clone()).unwrap(), 0);
    assert_eq!(c.submit(tampered).unwrap(), 1);
    // Off-curve key bounces with the would-be id; queue intact.
    let mut off = good.clone();
    off.qy = off.qy.modadd(&Ubig::one(), &spec.p);
    assert!(matches!(
        c.submit(off),
        Err(MmmError::PointNotOnCurve { lane: 2 })
    ));
    assert_eq!(c.len(), 2);
    assert_eq!(c.full_shards(), 0);
    let verdicts = c.flush().unwrap();
    assert_eq!(verdicts, vec![true, false]);
    assert!(c.is_empty());
    // Drain returns ids with requests.
    c.submit(good).unwrap();
    let drained = c.drain();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].0, 0);
    assert!(c.is_empty());
}

#[test]
fn ecdh_collector_matches_direct_calls_across_shards() {
    // Shard width 2 forces the 5-request queue across three shards;
    // order must still be submission order.
    let session = CurveSession::new(
        tiny_spec(),
        EngineConfig::default()
            .with_shard_lanes(2)
            .expect("2 is a valid shard width"),
    )
    .unwrap();
    let pts: Vec<(Ubig, Ubig)> = session
        .scalar_mul_base(&[
            Ubig::from(1u64),
            Ubig::from(2u64),
            Ubig::from(3u64),
            Ubig::from(4u64),
            Ubig::from(1u64),
        ])
        .unwrap()
        .into_iter()
        .map(Option::unwrap)
        .collect();
    let reqs: Vec<EcdhRequest> = pts
        .iter()
        .enumerate()
        .map(|(i, (qx, qy))| EcdhRequest {
            scalar: Ubig::from((i % 4) as u64 + 1),
            qx: qx.clone(),
            qy: qy.clone(),
        })
        .collect();
    let direct = session.ecdh(&reqs).unwrap();
    let mut c = Collector::new(&session, Ecdh);
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(c.submit(r.clone()).unwrap(), i);
    }
    assert_eq!(c.full_shards(), 2);
    assert_eq!(c.flush().unwrap(), direct);
}

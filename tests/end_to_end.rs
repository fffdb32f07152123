//! End-to-end application tests: RSA and ECC running on the simulated
//! hardware, spanning every crate in the workspace.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::expo::ModExp;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::ecc::{Curve, FieldCtx};
use montgomery_systolic::hdl::CarryStyle;
use montgomery_systolic::rsa::RsaKeyPair;
use montgomery_systolic::systolic::mmmc::GateEngine;
use montgomery_systolic::systolic::wave::WaveMmmc;
use montgomery_systolic::systolic::Mmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn rsa_gate_level_roundtrip() {
    let mut rng = StdRng::seed_from_u64(1001);
    let key = RsaKeyPair::generate(&mut rng, 24, 12);
    let params = MontgomeryParams::hardware_safe(&key.n);
    let mmmc = Mmmc::build(params.l(), CarryStyle::XorMux);

    for _ in 0..3 {
        let m = Ubig::random_below(&mut rng, &key.n);
        let c = ModExp::new(GateEngine::new(&mmmc, params.clone())).modexp(&m, &key.e);
        assert_eq!(c, m.modpow(&key.e, &key.n), "hardware encrypt");
        let back = ModExp::new(GateEngine::new(&mmmc, params.clone())).modexp(&c, &key.d);
        assert_eq!(back, m, "hardware decrypt");
        assert_eq!(
            montgomery_systolic::rsa::decrypt_crt(&key, &c),
            m,
            "CRT decrypt"
        );
    }
}

#[test]
fn rsa_wave_engine_512_bit() {
    // A realistic RSA size on the fast cycle-accurate engine.
    let mut rng = StdRng::seed_from_u64(1002);
    let key = RsaKeyPair::generate(&mut rng, 512, 8);
    let params = MontgomeryParams::hardware_safe(&key.n);
    let m = Ubig::random_below(&mut rng, &key.n);
    let mut enc = ModExp::new(WaveMmmc::new(params.clone()));
    let c = enc.modexp(&m, &key.e);
    assert_eq!(c, m.modpow(&key.e, &key.n));
    // e = 65537: 19 Montgomery multiplications at 3l+4 cycles each.
    let l = params.l() as u64;
    assert_eq!(enc.consumed_cycles(), Some(19 * (3 * l + 4)));
    // Decrypt via CRT (software) to round-trip.
    assert_eq!(montgomery_systolic::rsa::decrypt_crt(&key, &c), m);
}

#[test]
fn ecc_scalar_mul_on_gate_engine() {
    // Tiny field so the gate-level field multiplier stays fast:
    // p = 43 is hardware-safe at its own bit length (3·43−1 = 128 = 2^7).
    let p = Ubig::from(43u64);
    let params = MontgomeryParams::hardware_safe(&p);
    let mmmc = Mmmc::build(params.l(), CarryStyle::XorMux);
    let mut f = FieldCtx::new(GateEngine::new(&mmmc, params));
    // y² = x³ + 2x + 9 over GF(43); (1, 5): 1 + 2 + 9 = 12... find one.
    let curve = Curve::new(&mut f, &Ubig::from(2u64), &Ubig::from(9u64));
    // Find a valid affine point by brute force.
    let mut g = None;
    'search: for x in 1u64..43 {
        for y in 1u64..43 {
            if (y * y) % 43 == (x * x * x + 2 * x + 9) % 43 {
                g = Some(curve.point(&mut f, &Ubig::from(x), &Ubig::from(y)));
                break 'search;
            }
        }
    }
    let g = g.expect("curve has a point");
    // [6]G = [2]([3]G)
    let p3 = curve.scalar_mul(&mut f, &Ubig::from(3u64), &g);
    let p6a = curve.double(&mut f, &p3);
    let p6b = curve.scalar_mul(&mut f, &Ubig::from(6u64), &g);
    assert_eq!(
        curve.to_affine(&mut f, &p6a),
        curve.to_affine(&mut f, &p6b),
        "[2][3]G = [6]G on the gate-level engine"
    );
    assert!(f.consumed_cycles().unwrap() > 0, "cycles were counted");
}

#[test]
fn ecc_wave_engine_larger_field() {
    let p = Ubig::pow2(61) - Ubig::one(); // M61
    let params = MontgomeryParams::hardware_safe(&p);
    let mut f = FieldCtx::new(WaveMmmc::new(params));
    let curve = Curve::new(&mut f, &Ubig::from(2u64), &Ubig::from(3u64));
    // x = 2: rhs = 8 + 4 + 3 = 15; lift y via (p+1)/4 if QR.
    let exp = (&p + &Ubig::one()).shr_bits(2);
    let mut x = Ubig::from(1u64);
    let g = loop {
        let rhs = x
            .modpow(&Ubig::from(3u64), &p)
            .modadd(&Ubig::from(2u64).modmul(&x, &p), &p)
            .modadd(&Ubig::from(3u64), &p);
        let y = rhs.modpow(&exp, &p);
        if y.modmul(&y, &p) == rhs {
            break curve.point(&mut f, &x, &y);
        }
        x = &x + &Ubig::one();
    };
    // Homomorphism with large scalars.
    let a = Ubig::from(0x1234_5678u64);
    let b = Ubig::from(0x0FED_CBA9u64);
    let pa = curve.scalar_mul(&mut f, &a, &g);
    let pb = curve.scalar_mul(&mut f, &b, &g);
    let sum = curve.add(&mut f, &pa, &pb);
    let direct = curve.scalar_mul(&mut f, &(&a + &b), &g);
    assert_eq!(
        curve.to_affine(&mut f, &sum),
        curve.to_affine(&mut f, &direct)
    );
    assert!(curve.contains(&mut f, &sum));
}

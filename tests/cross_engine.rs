//! Cross-engine equivalence: every Montgomery multiplication engine in
//! the workspace must agree bit-for-bit (same `R`) or up to the domain
//! constant (different `R`), across random operands and widths.
//!
//! This is the license for the benchmark methodology: results measured
//! on the cheap engines stand in for the expensive ones because the
//! engines are *proven interchangeable* here.

use montgomery_systolic::baselines::blum_paar;
use montgomery_systolic::bigint::{Ubig, WordMontgomery};
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::{mont_mul_alg2, mont_spec};
use montgomery_systolic::core::MontMul;
use montgomery_systolic::hdl::CarryStyle;
use montgomery_systolic::systolic::mmmc::GateEngine;
use montgomery_systolic::systolic::wave::WaveMmmc;
use montgomery_systolic::systolic::Mmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_same_r_engines_agree_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for l in [5usize, 8, 16, 24] {
        let params = random_safe_params(&mut rng, l);
        let mmmc_xor = Mmmc::build(l, CarryStyle::XorMux);
        let mmmc_maj = Mmmc::build(l, CarryStyle::Majority);
        let mut gate_xor = GateEngine::new(&mmmc_xor, params.clone());
        let mut gate_maj = GateEngine::new(&mmmc_maj, params.clone());
        let mut wave = WaveMmmc::new(params.clone());
        for _ in 0..6 {
            let x = random_operand(&mut rng, &params);
            let y = random_operand(&mut rng, &params);
            let reference = mont_mul_alg2(&params, &x, &y);
            assert_eq!(wave.mont_mul(&x, &y), reference, "wave l={l}");
            assert_eq!(gate_xor.mont_mul(&x, &y), reference, "gate/XorMux l={l}");
            assert_eq!(gate_maj.mont_mul(&x, &y), reference, "gate/Majority l={l}");
        }
    }
}

#[test]
fn different_r_engines_agree_after_domain_compensation() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + 1);
    for l in [8usize, 16, 32] {
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let plain = (&x * &y).rem(&n);

        // Our design: xy·2^{-(l+2)}; recover by multiplying 2^{l+2}.
        let ours = mont_mul_alg2(&params, &x, &y);
        assert_eq!(ours.modmul(&Ubig::pow2(l + 2), &n), plain, "ours l={l}");

        // Blum–Paar: xy·2^{-(l+3)}.
        let bp = blum_paar::bp_mont_mul(&params, &x, &y);
        assert_eq!(bp.modmul(&Ubig::pow2(l + 3), &n), plain, "BP l={l}");

        // Word-level CIOS: xy·2^{-64·s}.
        let ctx = WordMontgomery::new(&n);
        let xr = x.rem(&n);
        let yr = y.rem(&n);
        let cios = ctx.mont_mul(&xr, &yr);
        assert_eq!(cios.modmul(&ctx.r(), &n), plain, "CIOS l={l}");

        // And the analytic specification ties them all together.
        assert_eq!(ours.rem(&n), mont_spec(&params, &x, &y, &params.r()));
    }
}

#[test]
fn exponentiation_identical_across_engines() {
    use montgomery_systolic::core::expo::ModExp;
    use montgomery_systolic::core::traits::SoftwareEngine;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + 2);
    let l = 12;
    let params = random_safe_params(&mut rng, l);
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);
    for _ in 0..4 {
        let m = Ubig::random_below(&mut rng, params.n());
        let e = Ubig::random_bits(&mut rng, l);
        let e = if e.is_zero() { Ubig::one() } else { e };
        let want = m.modpow(&e, params.n());
        let soft = ModExp::new(SoftwareEngine::new(params.clone())).modexp(&m, &e);
        let wave = ModExp::new(WaveMmmc::new(params.clone())).modexp(&m, &e);
        let gate = ModExp::new(GateEngine::new(&mmmc, params.clone())).modexp(&m, &e);
        assert_eq!(soft, want);
        assert_eq!(wave, want);
        assert_eq!(gate, want);
    }
}

#[test]
fn wave_and_gate_cycle_counts_identical() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + 3);
    for l in [5usize, 9, 17] {
        let params = random_safe_params(&mut rng, l);
        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        let mut gate = GateEngine::new(&mmmc, params.clone());
        let mut wave = WaveMmmc::new(params.clone());
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let (_, gc) = gate.mont_mul_counted(&x, &y);
        let (_, wc) = wave.mont_mul_counted(&x, &y);
        assert_eq!(gc, wc, "l={l}");
        assert_eq!(gc, (3 * l + 4) as u64, "l={l}");
    }
}

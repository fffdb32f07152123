//! Property-based integration tests: the hardware engines against the
//! mathematical specification, over *randomized widths and moduli* —
//! proptest drives the shrinking if anything breaks.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::cios52::{Cios52Batch, Cios52Kernel};
use montgomery_systolic::core::montgomery::{mont_mul_alg1, mont_mul_alg2, MontgomeryParams};
use montgomery_systolic::core::{BatchMontMul, MontMul};
use montgomery_systolic::hdl::CarryStyle;
use montgomery_systolic::systolic::mmmc::GateEngine;
use montgomery_systolic::systolic::wave::WaveMmmc;
use montgomery_systolic::systolic::Mmmc;
use proptest::prelude::*;

/// Strategy: hardware-safe parameters with width in [4, 20] and a
/// uniformly chosen odd modulus below the safe limit.
fn safe_params() -> impl Strategy<Value = MontgomeryParams> {
    (4usize..=20).prop_flat_map(|l| {
        let max = MontgomeryParams::max_safe_modulus(l)
            .to_u64()
            .expect("small width");
        (Just(l), 3u64..=max).prop_map(|(l, n)| {
            let n = n | 1; // odd; still ≤ max because max is odd
            MontgomeryParams::new(&Ubig::from(n), l)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn wave_engine_matches_spec(
        params in safe_params(),
        xs in any::<u64>(),
        ys in any::<u64>()
    ) {
        let two_n = params.two_n().to_u64().unwrap();
        let x = Ubig::from(xs % two_n);
        let y = Ubig::from(ys % two_n);
        let mut wave = WaveMmmc::new(params.clone());
        let got = wave.mont_mul(&x, &y);
        prop_assert_eq!(got, mont_mul_alg2(&params, &x, &y));
    }

    #[test]
    fn gate_engine_matches_spec(
        params in safe_params(),
        xs in any::<u64>(),
        ys in any::<u64>()
    ) {
        let two_n = params.two_n().to_u64().unwrap();
        let x = Ubig::from(xs % two_n);
        let y = Ubig::from(ys % two_n);
        let mmmc = Mmmc::build(params.l(), CarryStyle::XorMux);
        let mut gate = GateEngine::new(&mmmc, params.clone());
        let (got, cycles) = gate.mont_mul_counted(&x, &y);
        prop_assert_eq!(got, mont_mul_alg2(&params, &x, &y));
        prop_assert_eq!(cycles, (3 * params.l() + 4) as u64);
    }

    #[test]
    fn cios52_every_kernel_matches_spec(
        params in safe_params(),
        xs in any::<u64>(),
        ys in any::<u64>(),
        lanes in 1usize..=64
    ) {
        // The radix-2⁵² carry-save engine against the mathematical
        // specification, on every kernel this host can run, including
        // partial batches (lanes < 64).
        let two_n = params.two_n().to_u64().unwrap();
        let xs: Vec<Ubig> = (0..lanes)
            .map(|k| {
                let step = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Ubig::from(xs.wrapping_add(step) % two_n)
            })
            .collect();
        let ys: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::from(ys.wrapping_mul(2 * k as u64 + 1) % two_n))
            .collect();
        let want: Vec<Ubig> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| mont_mul_alg2(&params, x, y))
            .collect();
        for &kernel in Cios52Kernel::available() {
            let mut e = Cios52Batch::with_kernel(params.clone(), kernel);
            prop_assert_eq!(
                e.mont_mul_batch(&xs, &ys),
                want.clone(),
                "kernel {}",
                kernel.name()
            );
        }
    }

    #[test]
    fn alg1_alg2_domain_relation(
        params in safe_params(),
        xs in any::<u64>(),
        ys in any::<u64>()
    ) {
        // Alg2 = Alg1 · 4⁻¹ (mod N) when inputs are reduced.
        let n = params.n().clone();
        let nv = n.to_u64().unwrap();
        let x = Ubig::from(xs % nv);
        let y = Ubig::from(ys % nv);
        let a1 = mont_mul_alg1(&params, &x, &y);
        let a2 = mont_mul_alg2(&params, &x, &y);
        let inv4 = Ubig::from(4u64).modinv(&n).unwrap();
        prop_assert_eq!(a2.rem(&n), a1.modmul(&inv4, &n));
    }

    #[test]
    fn output_bound_invariant(
        params in safe_params(),
        seeds in prop::collection::vec(any::<u64>(), 1..12)
    ) {
        // Arbitrary chains of multiplications stay below 2N.
        let two_n = params.two_n().to_u64().unwrap();
        let mut wave = WaveMmmc::new(params.clone());
        let mut t = Ubig::from(seeds[0] % two_n);
        for &s in &seeds {
            let u = Ubig::from(s % two_n);
            t = wave.mont_mul(&t, &u);
            prop_assert!(params.check_operand(&t));
        }
    }
}

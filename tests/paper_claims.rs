//! The paper's headline claims, asserted end-to-end through the public
//! API — each test names the section it reproduces.

use montgomery_systolic::core::cost;
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::fpga::{lut::map_luts, FpgaReport, SlicePacker, VirtexETiming};
use montgomery_systolic::hdl::{AreaReport, CarryStyle, UnitDelay};
use montgomery_systolic::systolic::array::SystolicArray;
use montgomery_systolic::systolic::cells::CellCost;
use montgomery_systolic::systolic::Mmmc;
use montgomery_systolic::Ubig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// §4.4: "the total number of clock cycles for completing one modular
/// Montgomery multiplication equals 3l + 4" — measured, not assumed.
#[test]
fn claim_3l_plus_4_cycles_measured() {
    let mut rng = StdRng::seed_from_u64(1);
    for l in [4usize, 8, 13, 21, 32] {
        let params = random_safe_params(&mut rng, l);
        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let run = mmmc.run(&x, &y, params.n());
        assert_eq!(run.cycles, (3 * l + 4) as u64, "l={l}");
    }
}

/// §4.3: the array area formula (5l−3)XOR + (7l−7)AND + (4l−5)OR —
/// leading coefficients reproduced exactly by the generated netlist
/// under the majority FA decomposition.
#[test]
fn claim_area_formula() {
    for l in [8usize, 64, 512] {
        let arr = SystolicArray::build(l, CarryStyle::Majority);
        let census = AreaReport::of(&arr.netlist);
        let paper = CellCost::paper_formula(l);
        assert!(census.xor.abs_diff(paper.xor) <= 1, "XOR l={l}");
        assert!(census.and.abs_diff(paper.and) <= 3, "AND l={l}");
        assert!(census.or.abs_diff(paper.or) <= 2, "OR l={l}");
    }
}

/// §4.3: "The critical path is the same as the critical path of one
/// regular cell and it is independent of the bit length of the
/// operands."
#[test]
fn claim_constant_critical_path() {
    let mut gate_levels = Vec::new();
    let mut lut_levels = Vec::new();
    for l in [4usize, 16, 64, 256] {
        let arr = SystolicArray::build(l, CarryStyle::XorMux);
        gate_levels.push(
            montgomery_systolic::hdl::timing::critical_path(&arr.netlist, &UnitDelay)
                .unwrap()
                .levels,
        );
        lut_levels.push(map_luts(&arr.netlist).depth);
    }
    assert!(
        gate_levels.windows(2).all(|w| w[0] == w[1]),
        "{gate_levels:?}"
    );
    assert!(
        lut_levels.windows(2).all(|w| w[0] == w[1]),
        "{lut_levels:?}"
    );
}

/// Table 2's claim in prose: "the clock frequency is independent from
/// the bit length" — across a 32× width range the predicted period
/// varies by under 15%.
#[test]
fn claim_flat_clock_frequency() {
    let packer = SlicePacker::default();
    let timing = VirtexETiming::default();
    let periods: Vec<f64> = [32usize, 128, 1024]
        .iter()
        .map(|&l| {
            let mmmc = Mmmc::build(l, CarryStyle::XorMux);
            FpgaReport::analyze(&mmmc.netlist, l, &packer, &timing).period_ns
        })
        .collect();
    let min = periods.iter().cloned().fold(f64::MAX, f64::min);
    let max = periods.iter().cloned().fold(f64::MIN, f64::max);
    assert!((max - min) / min < 0.15, "{periods:?}");
}

/// §2/§3: Walter's bound — with 4N < R = 2^{l+2} and inputs < 2N, the
/// output stays < 2N, so multiplications chain with no subtraction.
/// Run a long chain and check the bound never breaks.
#[test]
fn claim_no_final_subtraction_needed() {
    let mut rng = StdRng::seed_from_u64(2);
    let l = 24;
    let params = random_safe_params(&mut rng, l);
    let mut engine = montgomery_systolic::systolic::wave::WaveMmmc::new(params.clone());
    use montgomery_systolic::core::MontMul;
    let mut t = random_operand(&mut rng, &params);
    let u = random_operand(&mut rng, &params);
    for step in 0..200 {
        t = engine.mont_mul(&t, &u);
        assert!(params.check_operand(&t), "bound broken at step {step}");
    }
}

/// Eq. (10): measured exponentiation cycles stay within the closed-form
/// bounds for random exponents (not just the extremes).
#[test]
fn claim_eq10_random_exponents() {
    use montgomery_systolic::core::expo::ModExp;
    use montgomery_systolic::systolic::wave::WaveMmmc;
    let mut rng = StdRng::seed_from_u64(3);
    for l in [16usize, 32] {
        let (lo, hi) = cost::modexp_bounds(l);
        let params = random_safe_params(&mut rng, l);
        for _ in 0..5 {
            let m = Ubig::random_below(&mut rng, params.n());
            let mut e = Ubig::random_bits(&mut rng, l);
            e.set_bit(l - 1, true); // full-length exponent, as Eq. 10 assumes
            let mut me = ModExp::new(WaveMmmc::new(params.clone()));
            let r = me.modexp(&m, &e);
            assert_eq!(r, m.modpow(&e, params.n()));
            let stats = me.stats();
            let measured = cost::precompute_cycles(l)
                + (stats.squarings + stats.multiplications) * cost::mmm_cycles(l)
                + cost::postprocess_cycles(l);
            assert!(measured <= hi, "l={l}: {measured} > {hi}");
            // One in-loop mult of slack below the lower bound
            // (single-bit exponents do l−1 of the bound's nominal l).
            assert!(
                measured + 2 * cost::mmm_cycles(l) >= lo,
                "l={l}: {measured} << {lo}"
            );
        }
    }
}

/// §2: the improvement over Blum–Paar — n+2 iterations instead of n+3,
/// and a shorter PE critical path.
#[test]
fn claim_beats_blum_paar() {
    use montgomery_systolic::baselines::blum_paar;
    for l in [32usize, 1024] {
        assert!(cost::mmm_cycles(l) < blum_paar::bp_mmm_cycles(l));
    }
    let rows = mmm_bench::compare::compute(&[256]);
    let ours = rows
        .iter()
        .find(|r| r.design.starts_with("this work"))
        .unwrap();
    let bp = rows
        .iter()
        .find(|r| r.design.starts_with("Blum-Paar"))
        .unwrap();
    assert!(ours.tmmm_us < bp.tmmm_us);
    assert!(ours.texp_ms < bp.texp_ms);
}

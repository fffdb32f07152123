//! The complete Montgomery Modular Multiplication Circuit of Fig. 3:
//! X/Y/N input registers, the systolic array, and the ASM controller,
//! with START/DONE handshake and RESULT output.
//!
//! Port widths: X and Y are `l+1` bits because Algorithm 2 admits
//! operands up to `2N−1` (that is what lets exponentiation feed results
//! straight back in); N is `l` bits. The paper's §4.4 nominally lists
//! "three l-bit data inputs" but its own algorithm and Fig. 3's
//! "(l+1)-bit registers" require the extra bit — we follow the
//! registers.

use crate::array;
use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::traits::MontMul;
use mmm_hdl::{Bus, CarryStyle, Netlist, SignalId, Simulator};

/// A fully-elaborated MMMC netlist and its ports.
#[derive(Debug, Clone)]
pub struct Mmmc {
    /// The complete gate-level circuit (array + datapath + controller).
    pub netlist: Netlist,
    /// Bit width `l`.
    pub l: usize,
    /// Full-adder decomposition used in the array.
    pub style: CarryStyle,
    /// START command input.
    pub start: SignalId,
    /// Operand X input bus (`l+1` bits).
    pub x_bus: Bus,
    /// Operand Y input bus (`l+1` bits).
    pub y_bus: Bus,
    /// Modulus N input bus (`l` bits).
    pub n_bus: Bus,
    /// DONE output (single-cycle pulse).
    pub done: SignalId,
    /// RESULT output bus (`l+1` bits, valid while DONE is high).
    pub result: Bus,
}

impl Mmmc {
    /// Elaborates the circuit for width `l ≥ 3` with per-cell
    /// pipelines.
    pub fn build(l: usize, style: CarryStyle) -> Mmmc {
        Self::build_styled(l, style, crate::array::PipelineStyle::PerCell)
    }

    /// Elaborates the circuit with an explicit pipeline style (the
    /// SharedPair variant reconciles the paper's `4l` flip-flop
    /// budget; see [`crate::array::PipelineStyle`]).
    pub fn build_styled(
        l: usize,
        style: CarryStyle,
        pipeline: crate::array::PipelineStyle,
    ) -> Mmmc {
        let mut nl = Netlist::new();
        let start = nl.input("START");
        let x_bus = nl.input_bus("X", l + 1);
        let y_bus = nl.input_bus("Y", l + 1);
        let n_bus = nl.input_bus("N", l);

        // Controller first: its load/shift/valid signals drive the
        // datapath registers.
        let ctl = crate::controller::build_into(&mut nl, l, start);

        // X register: parallel load on `load`, right-shift on
        // `shift_x`, MSB fills with 0 (§4.4: "the X register is shifted
        // one bit right and the MSB is filled 0").
        let x_ffs: Vec<_> = (0..=l).map(|_| nl.dff_placeholder(false)).collect();
        let zero = nl.zero();
        for i in 0..=l {
            let from_right = if i == l { zero } else { x_ffs[i + 1].q() };
            // load ? X_in[i] : from_right ; enabled on load | shift.
            let d = nl.mux(ctl.load, x_bus.bit(i), from_right);
            let en = nl.or2(ctl.load, ctl.shift_x);
            nl.connect_dff(x_ffs[i], d);
            nl.set_dff_enable(x_ffs[i], en);
        }
        let x_lsb = x_ffs[0].q();
        nl.name(x_lsb, "X(0)");

        // Y and N registers: plain parallel load.
        let y_reg = Bus((0..=l)
            .map(|i| nl.dff_en(y_bus.bit(i), ctl.load, false))
            .collect());
        let n_reg = Bus((0..l)
            .map(|i| nl.dff_en(n_bus.bit(i), ctl.load, false))
            .collect());

        // The systolic array. `load` doubles as the synchronous clear;
        // MUL1 is the injection-phase signal for shared pipelines.
        let arr = array::build_into_styled(
            &mut nl,
            l,
            style,
            pipeline,
            x_lsb,
            ctl.valid,
            ctl.load,
            Some(ctl.mul1),
            &y_reg,
            &n_reg,
        );

        nl.expose_output("DONE", ctl.done);
        nl.expose_output_bus("RESULT", &arr.t);

        Mmmc {
            netlist: nl,
            l,
            style,
            start,
            x_bus,
            y_bus,
            n_bus,
            done: ctl.done,
            result: arr.t,
        }
    }

    /// The paper's latency formula for one multiplication: `3l+4`.
    pub fn expected_cycles(&self) -> u64 {
        (3 * self.l + 4) as u64
    }

    /// Convenience one-shot run; see [`GateEngine`] for repeated use.
    pub fn run(&self, x: &Ubig, y: &Ubig, n: &Ubig) -> MmmcRun {
        let params = MontgomeryParams::new(n, self.l);
        let mut engine = GateEngine::new(self, params);
        let (result, cycles) = engine.mont_mul_counted(x, y);
        MmmcRun { result, cycles }
    }
}

/// Result of a one-shot MMMC execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmmcRun {
    /// The Montgomery product `x·y·R⁻¹ mod 2N` (bounded by `2N`).
    pub result: Ubig,
    /// Measured clock cycles from START to DONE.
    pub cycles: u64,
}

/// A live gate-level execution engine: owns a simulator over an
/// [`Mmmc`] netlist and runs back-to-back multiplications on it, the
/// way the exponentiator uses the real circuit.
#[derive(Debug, Clone)]
pub struct GateEngine<'a> {
    mmmc: &'a Mmmc,
    sim: Simulator<'a>,
    params: MontgomeryParams,
    total_cycles: u64,
}

impl<'a> GateEngine<'a> {
    /// Prepares an engine for a fixed modulus.
    ///
    /// # Panics
    /// Panics if the parameter width does not match the circuit.
    pub fn new(mmmc: &'a Mmmc, params: MontgomeryParams) -> Self {
        assert_eq!(params.l(), mmmc.l, "parameter/circuit width mismatch");
        assert!(
            params.is_hardware_safe(),
            "modulus is not hardware-safe at width l={} (paper erratum: \
             the leftmost cell can drop a carry when 3N-1 > 2^(l+1)); \
             use MontgomeryParams::hardware_safe(n)",
            params.l()
        );
        let sim = Simulator::new(&mmmc.netlist).expect("MMMC has no combinational loops");
        GateEngine {
            mmmc,
            sim,
            params,
            total_cycles: 0,
        }
    }

    /// Runs one multiplication, returning the result and the measured
    /// START→DONE cycle count.
    pub fn mont_mul_counted(&mut self, x: &Ubig, y: &Ubig) -> (Ubig, u64) {
        let l = self.mmmc.l;
        assert!(
            self.params.check_operand(x) && self.params.check_operand(y),
            "operands must be < 2N"
        );
        let sim = &mut self.sim;
        sim.set_bus_bits(&self.mmmc.x_bus, &x.to_bits_le(l + 1));
        sim.set_bus_bits(&self.mmmc.y_bus, &y.to_bits_le(l + 1));
        sim.set_bus_bits(&self.mmmc.n_bus, &self.params.n().to_bits_le(l));
        sim.set(self.mmmc.start, true);
        sim.step(); // load cycle
        sim.set(self.mmmc.start, false);
        let mut cycles = 1u64;
        let limit = 4 * l as u64 + 64;
        loop {
            sim.settle();
            if sim.get(self.mmmc.done) {
                break;
            }
            sim.step();
            cycles += 1;
            assert!(cycles <= limit, "DONE never asserted (runaway circuit)");
        }
        let result = Ubig::from_bits_le(&sim.get_bus_bits(&self.mmmc.result));
        sim.step(); // OUT -> IDLE, ready for the next START
        self.total_cycles += cycles;
        (result, cycles)
    }
}

impl MontMul for GateEngine<'_> {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig {
        self.mont_mul_counted(x, y).0
    }

    fn consumed_cycles(&self) -> Option<u64> {
        Some(self.total_cycles)
    }

    fn name(&self) -> &'static str {
        "gate-level MMMC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::montgomery::{mont_mul_alg2, mont_spec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_count_is_3l_plus_4() {
        for l in [3usize, 4, 7, 8, 16] {
            let mmmc = Mmmc::build(l, CarryStyle::XorMux);
            let n = MontgomeryParams::max_safe_modulus(l);
            let run = mmmc.run(&Ubig::from(1u64), &Ubig::from(1u64), &n);
            assert_eq!(run.cycles, (3 * l + 4) as u64, "l={l}");
            assert_eq!(run.cycles, mmmc.expected_cycles());
        }
    }

    #[test]
    fn matches_algorithm2_exhaustive_l4() {
        // N = 7 needs l = 4 for hardware safety (3N-1 = 20 > 2^4).
        let n = Ubig::from(7u64);
        let p = MontgomeryParams::hardware_safe(&n);
        assert_eq!(p.l(), 4);
        let mmmc = Mmmc::build(4, CarryStyle::XorMux);
        let mut engine = GateEngine::new(&mmmc, p.clone());
        for x in 0u64..14 {
            for y in 0u64..14 {
                let got = engine.mont_mul(&Ubig::from(x), &Ubig::from(y));
                assert_eq!(
                    got,
                    mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y)),
                    "x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn matches_spec_random_both_styles() {
        let mut rng = StdRng::seed_from_u64(77);
        for style in [CarryStyle::XorMux, CarryStyle::Majority] {
            for l in [5usize, 8, 16, 32] {
                let p = mmm_core::modgen::random_safe_params(&mut rng, l);
                let n = p.n().clone();
                let mmmc = Mmmc::build(l, style);
                let mut engine = GateEngine::new(&mmmc, p.clone());
                for _ in 0..3 {
                    let x = Ubig::random_below(&mut rng, &p.two_n());
                    let y = Ubig::random_below(&mut rng, &p.two_n());
                    let got = engine.mont_mul(&x, &y);
                    assert_eq!(
                        got.rem(&n),
                        mont_spec(&p, &x, &y, &p.r()),
                        "l={l} {style:?}"
                    );
                    assert!(p.check_operand(&got), "output bound");
                }
            }
        }
    }

    #[test]
    fn back_to_back_chaining_feeds_outputs_as_inputs() {
        // The raison d'être of the no-final-subtraction design: chain
        // 20 squarings without any reduction between them.
        let mut rng = StdRng::seed_from_u64(99);
        let l = 8;
        let p = mmm_core::modgen::random_safe_params(&mut rng, l);
        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        let mut engine = GateEngine::new(&mmmc, p.clone());
        let mut t_hw = Ubig::random_below(&mut rng, &p.two_n());
        let mut t_sw = t_hw.clone();
        for step in 0..20 {
            t_hw = engine.mont_mul(&t_hw, &t_hw);
            t_sw = mont_mul_alg2(&p, &t_sw, &t_sw);
            assert_eq!(t_hw, t_sw, "diverged at step {step}");
        }
        assert_eq!(engine.consumed_cycles(), Some(20 * (3 * 8 + 4)));
    }

    #[test]
    #[should_panic(expected = "operands must be < 2N")]
    fn rejects_out_of_bound_operands() {
        let n = Ubig::from(7u64);
        let mmmc = Mmmc::build(4, CarryStyle::XorMux);
        let _ = mmmc.run(&Ubig::from(14u64), &Ubig::one(), &n);
    }

    #[test]
    fn result_width_and_register_census() {
        let l = 6;
        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        assert_eq!(mmmc.result.width(), l + 1);
        let area = mmm_hdl::AreaReport::of(&mmmc.netlist);
        // Array 6l + X (l+1) + Y (l+1) + N (l) + control (2 state + w
        // counter + 1 inject + 2 retimed comparator flags).
        let w = crate::controller::counter_width(l);
        assert_eq!(area.dff, 6 * l + (l + 1) + (l + 1) + l + 2 + w + 1 + 2);
    }
}

#[cfg(test)]
mod shared_pair_tests {
    use super::*;
    use crate::array::PipelineStyle;
    use mmm_core::modgen::{random_operand, random_safe_params};
    use mmm_core::montgomery::mont_mul_alg2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shared_pair_mmmc_matches_per_cell_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(314);
        for l in [5usize, 6, 8, 13, 16] {
            let params = random_safe_params(&mut rng, l);
            let shared = Mmmc::build_styled(l, CarryStyle::XorMux, PipelineStyle::SharedPair);
            let percell = Mmmc::build(l, CarryStyle::XorMux);
            let mut es = GateEngine::new(&shared, params.clone());
            let mut ep = GateEngine::new(&percell, params.clone());
            for _ in 0..4 {
                let x = random_operand(&mut rng, &params);
                let y = random_operand(&mut rng, &params);
                let (rs, cs) = es.mont_mul_counted(&x, &y);
                let (rp, cp) = ep.mont_mul_counted(&x, &y);
                assert_eq!(rs, rp, "l={l}");
                assert_eq!(rs, mont_mul_alg2(&params, &x, &y), "l={l}");
                assert_eq!(cs, cp, "same 3l+4 latency, l={l}");
            }
        }
    }

    #[test]
    fn shared_pair_reconciles_paper_ff_budget() {
        // Paper (§4.3): "4l flip-flops". With pair-shared x/m pipelines
        // (what Fig. 2 draws as x(l-2)/2, m(l-2)/2 registers):
        //   T(l+1) + C0(l) + C1(l-1) + x(l/2) + m(l/2) = 4l exactly,
        // plus ceil(l/2) for the valid pipeline we add for the drain.
        for l in [8usize, 16, 64] {
            let shared = Mmmc::build_styled(l, CarryStyle::XorMux, PipelineStyle::SharedPair);
            let area = mmm_hdl::AreaReport::of(&shared.netlist);
            let pairs = l.div_ceil(2);
            let array_ffs = (l + 1) + l + (l - 1) + 3 * pairs;
            assert_eq!(array_ffs, 4 * l + pairs, "paper 4l + our valid pipe");
            // Datapath + control on top of the array.
            let w = crate::controller::counter_width(l);
            let expect = array_ffs + (l + 1) + (l + 1) + l + 2 + w + 1 + 2;
            assert_eq!(area.dff, expect, "l={l}");
            // And it is genuinely smaller than the per-cell variant.
            let percell = Mmmc::build(l, CarryStyle::XorMux);
            let area_pc = mmm_hdl::AreaReport::of(&percell.netlist);
            assert!(
                area.dff + l <= area_pc.dff,
                "l={l}: {} vs {}",
                area.dff,
                area_pc.dff
            );
        }
    }

    #[test]
    fn shared_pair_back_to_back_multiplications() {
        let mut rng = StdRng::seed_from_u64(315);
        let l = 9;
        let params = random_safe_params(&mut rng, l);
        let shared = Mmmc::build_styled(l, CarryStyle::Majority, PipelineStyle::SharedPair);
        let mut engine = GateEngine::new(&shared, params.clone());
        let mut t = random_operand(&mut rng, &params);
        for step in 0..10 {
            let want = mont_mul_alg2(&params, &t, &t);
            t = engine.mont_mul(&t, &t);
            assert_eq!(t, want, "step {step}");
        }
    }
}

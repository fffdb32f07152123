//! The complete linear systolic array of Fig. 2: one row of cells with
//! the T / C0 / C1 registers and the x / m / valid pipelines between
//! neighbours.
//!
//! ## Schedule
//!
//! Cell `j` processes wave `i` (iteration `i` of Algorithm 2) at cycle
//! `2i + j`: a new wave is injected at the rightmost cell every second
//! cycle and ripples left one cell per cycle. The T register bit `j`
//! holds digit `j` of `U_i = 2·T_i`; cell `j` reads `T[j+1]`, which
//! realizes the division by 2 (the paper's §4.3 observation), so digit
//! 0 is identically zero and never stored. The stored result after the
//! final wave is `T_{l+1} = Σ_{j=1}^{l+1} T[j]·2^{j-1} < 2N`.
//!
//! ## Registers
//!
//! * `T[1..=l+1]` — `l+1` bits, written by cell `j` (cell `l` writes
//!   both `T[l]` and `T[l+1]`), **write-enabled by the valid pipeline**
//!   (the drain-phase resolution described in the crate docs);
//! * `C0[0..=l-1]`, `C1[1..=l-1]` — inter-cell carries, re-registered
//!   every cycle (bubble-phase junk in them is only ever consumed by
//!   bubble phases);
//! * `x`/`m`/`valid` pipelines — one bit per cell, shifting every
//!   cycle.
//!
//! All registers carry a synchronous clear driven by the controller's
//! load state (free on FPGA flip-flops, so the gate census stays pure).

use crate::cells;
use mmm_bigint::Ubig;
use mmm_hdl::{Bus, CarryStyle, Netlist, SignalId};

/// How the x / m / valid values travel between cells.
///
/// * [`PipelineStyle::PerCell`] — one register per cell per signal
///   (default; simplest timing story).
/// * [`PipelineStyle::SharedPair`] — one register per *cell pair*,
///   loading every second cycle; this is what Fig. 2's
///   "x(l−2)/2 / m(l−2)/2" register labels depict, and with it the
///   paper's stated `4l` flip-flop budget reconciles exactly:
///   `T(l+1) + C0(l) + C1(l−1) + x(l/2) + m(l/2) = 4l` (the valid
///   pipeline — our drain-phase addition — costs `⌈l/2⌉` more).
///   Requires a `phase` signal (high on injection/MUL1 cycles) and one
///   extra AND per T-register bit to split the shared valid between
///   the odd/even cell of a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineStyle {
    /// One pipeline register per cell (6l array FFs total).
    #[default]
    PerCell,
    /// One pipeline register per cell pair (≈4.5l array FFs total).
    SharedPair,
}

/// Signals produced by [`build_into`]: the array's outputs and probes.
#[derive(Debug, Clone)]
pub struct ArrayOutputs {
    /// T register outputs `T[1..=l+1]`, LSB first.
    pub t: Bus,
    /// The `m_i` wire from the rightmost cell.
    pub m_wire: SignalId,
    /// Probes on the leftmost cell inputs: `t_in, x, y_l, c0_in, c1_in`.
    pub leftmost_probe: [SignalId; 5],
    /// Valid-pipeline bit at the leftmost cell.
    pub valid_at_leftmost: SignalId,
}

/// Builds the systolic array *into an existing netlist*, with its
/// control/data inputs supplied by the caller (the MMMC datapath wires
/// the X register's LSB to `x_in`, the controller to
/// `valid_in`/`clear`, and the Y/N registers to `y`/`n`).
// The argument list mirrors the array's hardware ports one-to-one.
#[allow(clippy::too_many_arguments)]
pub fn build_into(
    nl: &mut Netlist,
    l: usize,
    style: CarryStyle,
    x_in: SignalId,
    valid_in: SignalId,
    clear: SignalId,
    y: &Bus,
    n: &Bus,
) -> ArrayOutputs {
    build_into_styled(
        nl,
        l,
        style,
        PipelineStyle::PerCell,
        x_in,
        valid_in,
        clear,
        None,
        y,
        n,
    )
}

/// [`build_into`] with an explicit [`PipelineStyle`]. `phase` must be
/// `Some` (high on injection cycles) for [`PipelineStyle::SharedPair`].
#[allow(clippy::too_many_arguments)]
pub fn build_into_styled(
    nl: &mut Netlist,
    l: usize,
    style: CarryStyle,
    pipeline: PipelineStyle,
    x_in: SignalId,
    valid_in: SignalId,
    clear: SignalId,
    phase: Option<SignalId>,
    y: &Bus,
    n: &Bus,
) -> ArrayOutputs {
    assert!(
        l >= 3,
        "array needs l >= 3 (rightmost, first-bit, ≥1 regular, leftmost)"
    );
    assert_eq!(y.width(), l + 1, "Y must be l+1 bits (operands < 2N)");
    assert_eq!(n.width(), l, "N must be l bits");
    assert!(
        pipeline == PipelineStyle::PerCell || phase.is_some(),
        "SharedPair pipelines need the phase signal"
    );

    // --- Registers (created first so cells can read their Q). ---
    // T register bits 1..=l+1 (index i in the vec = bit i+1).
    let t_reg: Vec<_> = (0..=l).map(|_| nl.dff_placeholder(false)).collect();
    let t_q = |j: usize| t_reg[j - 1].q(); // j in 1..=l+1
                                           // Carry registers.
    let c0_reg: Vec<_> = (0..l).map(|_| nl.dff_placeholder(false)).collect(); // C0[0..=l-1]
    let c1_reg: Vec<_> = (0..l - 1).map(|_| nl.dff_placeholder(false)).collect(); // C1[1..=l-1]
    let c1_q = |j: usize| c1_reg[j - 1].q(); // j in 1..=l-1
                                             // Pipelines. PerCell: index i in vec = cell i+1 (cells 1..=l).
                                             // SharedPair: index k in vec = pair k+1 (pair k serves cells
                                             // 2k-1 and 2k), loading only on phase (injection) cycles.
    let n_pipe = match pipeline {
        PipelineStyle::PerCell => l,
        PipelineStyle::SharedPair => l.div_ceil(2),
    };
    let xp: Vec<_> = (0..n_pipe).map(|_| nl.dff_placeholder(false)).collect();
    let mp: Vec<_> = (0..n_pipe).map(|_| nl.dff_placeholder(false)).collect();
    let vp: Vec<_> = (0..n_pipe).map(|_| nl.dff_placeholder(false)).collect();
    let pipe_idx = move |j: usize| match pipeline {
        PipelineStyle::PerCell => j - 1,
        PipelineStyle::SharedPair => j.div_ceil(2) - 1,
    };
    let xp_q = |j: usize| xp[pipe_idx(j)].q();
    let mp_q = |j: usize| mp[pipe_idx(j)].q();
    let vp_q = |j: usize| vp[pipe_idx(j)].q();
    // Per-cell T write enables (SharedPair splits the shared valid by
    // cycle parity: odd cells fire on non-phase cycles, even cells on
    // phase cycles).
    let not_phase = phase.map(|p| nl.not1(p));
    let t_enable: Vec<SignalId> = (1..=l)
        .map(|j| match pipeline {
            PipelineStyle::PerCell => vp_q(j),
            PipelineStyle::SharedPair => {
                let gate = if j % 2 == 0 {
                    phase.expect("checked above")
                } else {
                    not_phase.expect("checked above")
                };
                nl.and2(vp_q(j), gate)
            }
        })
        .collect();
    let t_en = |j: usize| t_enable[j - 1];

    // --- Cells (combinational row). ---
    // Cell 0 (rightmost): generates m_i and C0[0].
    let (m0, c00_next) = cells::rightmost_cell(nl, t_q(1), x_in, y.bit(0));
    nl.name(m0, "m_i");

    // Cell 1 (first-bit).
    let cell1 = cells::first_bit_cell(
        nl,
        style,
        t_q(2),
        xp_q(1),
        y.bit(1),
        mp_q(1),
        n.bit(1),
        c0_reg[0].q(),
    );

    // Cells 2..=l-1 (regular).
    let mut cell_out = vec![cell1];
    for j in 2..l {
        let c = cells::regular_cell(
            nl,
            style,
            t_q(j + 1),
            xp_q(j),
            y.bit(j),
            mp_q(j),
            n.bit(j),
            c0_reg[j - 1].q(),
            c1_q(j - 1),
        );
        cell_out.push(c);
    }

    // Cell l (leftmost).
    let (t_l, t_l1) = cells::leftmost_cell(
        nl,
        style,
        t_q(l + 1),
        xp_q(l),
        y.bit(l),
        c0_reg[l - 1].q(),
        c1_q(l - 1),
    );

    // --- Register next-state wiring. ---
    // T[j] <- cell j output, enabled by valid at cell j.
    for j in 1..l {
        let h = t_reg[j - 1];
        nl.connect_dff(h, cell_out[j - 1].t);
        nl.set_dff_enable(h, t_en(j));
        nl.set_dff_clear(h, clear);
    }
    {
        // Cell l writes both T[l] and T[l+1].
        let h = t_reg[l - 1];
        nl.connect_dff(h, t_l);
        nl.set_dff_enable(h, t_en(l));
        nl.set_dff_clear(h, clear);
        let h = t_reg[l];
        nl.connect_dff(h, t_l1);
        nl.set_dff_enable(h, t_en(l));
        nl.set_dff_clear(h, clear);
    }
    // Carries: C0[0] from the rightmost cell, C0[j]/C1[j] from cell j.
    nl.connect_dff(c0_reg[0], c00_next);
    nl.set_dff_clear(c0_reg[0], clear);
    for j in 1..l {
        nl.connect_dff(c0_reg[j], cell_out[j - 1].c0);
        nl.set_dff_clear(c0_reg[j], clear);
    }
    for j in 1..l {
        nl.connect_dff(c1_reg[j - 1], cell_out[j - 1].c1);
        nl.set_dff_clear(c1_reg[j - 1], clear);
    }
    // Pipelines shift toward higher cells: every cycle (PerCell) or
    // every injection cycle (SharedPair, clock-enabled by phase).
    nl.connect_dff(xp[0], x_in);
    nl.connect_dff(mp[0], m0);
    nl.connect_dff(vp[0], valid_in);
    for k in 1..n_pipe {
        nl.connect_dff(xp[k], xp[k - 1].q());
        nl.connect_dff(mp[k], mp[k - 1].q());
        nl.connect_dff(vp[k], vp[k - 1].q());
    }
    for k in 0..n_pipe {
        nl.set_dff_clear(xp[k], clear);
        nl.set_dff_clear(mp[k], clear);
        nl.set_dff_clear(vp[k], clear);
        if pipeline == PipelineStyle::SharedPair {
            let en = phase.expect("checked above");
            nl.set_dff_enable(xp[k], en);
            nl.set_dff_enable(mp[k], en);
            nl.set_dff_enable(vp[k], en);
        }
    }

    let t = Bus((1..=l + 1).map(t_q).collect());
    let leftmost_probe = [
        t_q(l + 1),
        xp_q(l),
        y.bit(l),
        c0_reg[l - 1].q(),
        c1_q(l - 1),
    ];
    let valid_at_leftmost = vp_q(l);

    ArrayOutputs {
        t,
        m_wire: m0,
        leftmost_probe,
        valid_at_leftmost,
    }
}

/// A standalone systolic array netlist with primary-input ports, for
/// direct experimentation and the Fig. 2 figure/area reproductions.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    /// The gate-level circuit.
    pub netlist: Netlist,
    /// Bit width `l` (number of modulus bits).
    pub l: usize,
    /// Which full-adder decomposition was used.
    pub style: CarryStyle,
    /// Serial operand bit `x_i`.
    pub x_in: SignalId,
    /// Wave-valid input.
    pub valid_in: SignalId,
    /// Synchronous clear for every internal register.
    pub clear: SignalId,
    /// Operand Y, bits `y_0 .. y_l`.
    pub y: Bus,
    /// Modulus N, bits `n_0 .. n_{l-1}`.
    pub n: Bus,
    /// T register outputs `T[1..=l+1]`, LSB first.
    pub t: Bus,
    /// The `m_i` wire from the rightmost cell (diagnostic).
    pub m_wire: SignalId,
    /// Probes on the leftmost cell inputs: `t_in, x, y_l, c0_in, c1_in`.
    pub leftmost_probe: [SignalId; 5],
    /// Valid-pipeline bit at the leftmost cell (diagnostic).
    pub valid_at_leftmost: SignalId,
}

impl SystolicArray {
    /// Builds the array for width `l ≥ 3` with the given carry style.
    pub fn build(l: usize, style: CarryStyle) -> SystolicArray {
        let mut nl = Netlist::new();
        let x_in = nl.input("x_in");
        let valid_in = nl.input("valid_in");
        let clear = nl.input("clear");
        let y = nl.input_bus("y", l + 1);
        let n = nl.input_bus("n", l);
        let out = build_into(&mut nl, l, style, x_in, valid_in, clear, &y, &n);
        nl.expose_output_bus("T", &out.t);
        nl.expose_output("m", out.m_wire);
        SystolicArray {
            netlist: nl,
            l,
            style,
            x_in,
            valid_in,
            clear,
            y,
            n,
            t: out.t,
            m_wire: out.m_wire,
            leftmost_probe: out.leftmost_probe,
            valid_at_leftmost: out.valid_at_leftmost,
        }
    }

    /// Number of compute cycles after the load cycle:
    /// waves `i = 0..=l+1` at cell `l` finish at cycle `2(l+1)+l`, so
    /// `3l+3` cycles are stepped (`τ = 0 ..= 3l+2`).
    pub fn compute_cycles(&self) -> u64 {
        (3 * self.l + 3) as u64
    }

    /// Interprets a T-register bit vector (LSB first, `l+1` bits
    /// `T[1..=l+1]`) as the result value `Σ T[j]·2^{j-1}`.
    pub fn result_from_bits(bits: &[bool]) -> Ubig {
        Ubig::from_bits_le(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::montgomery::{mont_mul_alg2, MontgomeryParams};
    use mmm_hdl::{AreaReport, Simulator, UnitDelay};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Drives the standalone array through one full multiplication,
    /// playing the controller's schedule by hand.
    fn run_array(arr: &SystolicArray, x: &Ubig, y: &Ubig, n: &Ubig) -> Ubig {
        let l = arr.l;
        let mut sim = Simulator::new(&arr.netlist).unwrap();
        sim.set_bus_bits(&arr.y, &y.to_bits_le(l + 1));
        sim.set_bus_bits(&arr.n, &n.to_bits_le(l));
        // Load cycle: clear all state.
        sim.set(arr.clear, true);
        sim.step();
        sim.set(arr.clear, false);
        // Compute cycles τ = 0 ..= 3l+2.
        for tau in 0..=(3 * l + 2) {
            let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
            sim.set(arr.x_in, injecting && x.bit(tau / 2));
            sim.set(arr.valid_in, injecting);
            sim.step();
        }
        SystolicArray::result_from_bits(&sim.get_bus_bits(&arr.t))
    }

    #[test]
    fn array_matches_algorithm2_exhaustive_l3() {
        // l = 3, N = 7: every x, y < 2N = 14.
        let p = MontgomeryParams::new(&Ubig::from(7u64), 3);
        let arr = SystolicArray::build(3, CarryStyle::XorMux);
        for x in 0u64..14 {
            for y in 0u64..14 {
                let got = run_array(&arr, &Ubig::from(x), &Ubig::from(y), p.n());
                let want = mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y));
                assert_eq!(got, want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn array_matches_algorithm2_random_widths() {
        let mut rng = StdRng::seed_from_u64(2024);
        for l in [4usize, 5, 8, 13, 16, 24, 32] {
            for style in [CarryStyle::XorMux, CarryStyle::Majority] {
                let arr = SystolicArray::build(l, style);
                let p = mmm_core::modgen::random_safe_params(&mut rng, l);
                let n = p.n().clone();
                for _ in 0..4 {
                    let x = Ubig::random_below(&mut rng, &p.two_n());
                    let y = Ubig::random_below(&mut rng, &p.two_n());
                    let got = run_array(&arr, &x, &y, &n);
                    let want = mont_mul_alg2(&p, &x, &y);
                    assert_eq!(got, want, "l={l} style={style:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn array_zero_operands() {
        let arr = SystolicArray::build(5, CarryStyle::XorMux);
        let n = Ubig::from(29u64);
        assert_eq!(
            run_array(&arr, &Ubig::zero(), &Ubig::from(17u64), &n),
            Ubig::zero()
        );
        assert_eq!(
            run_array(&arr, &Ubig::from(17u64), &Ubig::zero(), &n),
            Ubig::zero()
        );
    }

    #[test]
    fn array_back_to_back_runs_reuse_state_cleanly() {
        // The clear cycle must erase every trace of the previous run.
        let arr = SystolicArray::build(6, CarryStyle::XorMux);
        let n = MontgomeryParams::max_safe_modulus(6); // 43
        let p = MontgomeryParams::new(&n, 6);
        assert!(p.is_hardware_safe());
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = Simulator::new(&arr.netlist).unwrap();
        for _ in 0..8 {
            let x = Ubig::random_below(&mut rng, &p.two_n());
            let y = Ubig::random_below(&mut rng, &p.two_n());
            sim.set_bus_bits(&arr.y, &y.to_bits_le(7));
            sim.set_bus_bits(&arr.n, &n.to_bits_le(6));
            sim.set(arr.clear, true);
            sim.step();
            sim.set(arr.clear, false);
            for tau in 0..=(3 * 6 + 2) {
                let injecting = tau % 2 == 0 && tau / 2 <= 7;
                sim.set(arr.x_in, injecting && x.bit(tau / 2));
                sim.set(arr.valid_in, injecting);
                sim.step();
            }
            let got = SystolicArray::result_from_bits(&sim.get_bus_bits(&arr.t));
            assert_eq!(got, mont_mul_alg2(&p, &x, &y));
        }
    }

    #[test]
    fn gate_census_matches_cell_closed_form() {
        for style in [CarryStyle::XorMux, CarryStyle::Majority] {
            for l in [3usize, 8, 32, 100] {
                let arr = SystolicArray::build(l, style);
                let area = AreaReport::of(&arr.netlist);
                let want = cells::CellCost::array_total(l, style);
                assert_eq!(area.xor, want.xor, "XOR l={l} {style:?}");
                assert_eq!(area.and, want.and, "AND l={l} {style:?}");
                assert_eq!(area.or, want.or, "OR l={l} {style:?}");
            }
        }
    }

    #[test]
    fn flip_flop_count_is_linear() {
        // T(l+1) + C0(l) + C1(l-1) + x(l) + m(l) + valid(l) = 6l.
        for l in [3usize, 10, 64] {
            let arr = SystolicArray::build(l, CarryStyle::XorMux);
            let area = AreaReport::of(&arr.netlist);
            assert_eq!(area.dff, 6 * l, "l={l}");
        }
    }

    #[test]
    fn critical_path_independent_of_bit_length() {
        // The paper's headline claim (§4.3): reg-to-reg depth does not
        // grow with l.
        let mut depths = Vec::new();
        for l in [3usize, 8, 32, 128] {
            let arr = SystolicArray::build(l, CarryStyle::XorMux);
            let cp = mmm_hdl::timing::critical_path(&arr.netlist, &UnitDelay).unwrap();
            depths.push(cp.levels);
        }
        assert!(
            depths.windows(2).all(|w| w[0] == w[1]),
            "critical depth must be constant, got {depths:?}"
        );
        // Depth corresponds to the 2-FA + 1-HA chain of a regular cell.
        assert!(depths[0] >= 5 && depths[0] <= 8, "depth {}", depths[0]);
    }

    #[test]
    fn leftmost_overflow_never_fires_on_valid_waves() {
        // The leftmost cell's t_{l+1} XOR silently drops a carry if the
        // FA carry and c1_in are simultaneously 1; the T < 2N invariant
        // makes that state unreachable on valid waves. Probe every
        // valid wave at cell l across random multiplications.
        let l = 8;
        let arr = SystolicArray::build(l, CarryStyle::XorMux);
        let n = MontgomeryParams::max_safe_modulus(l); // 171
        let p = MontgomeryParams::new(&n, l);
        assert!(p.is_hardware_safe());
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = Simulator::new(&arr.netlist).unwrap();
        let mut valid_waves_seen = 0u32;
        for _ in 0..10 {
            let x = Ubig::random_below(&mut rng, &p.two_n());
            let y: Ubig = Ubig::random_below(&mut rng, &p.two_n());
            sim.set_bus_bits(&arr.y, &y.to_bits_le(l + 1));
            sim.set_bus_bits(&arr.n, &n.to_bits_le(l));
            sim.set(arr.clear, true);
            sim.step();
            sim.set(arr.clear, false);
            for tau in 0..=(3 * l + 2) {
                let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
                sim.set(arr.x_in, injecting && x.bit(tau / 2));
                sim.set(arr.valid_in, injecting);
                sim.settle();
                if sim.get(arr.valid_at_leftmost) {
                    valid_waves_seen += 1;
                    let [t_in, xs, yl, c0, c1] = arr.leftmost_probe.map(|s| sim.get(s));
                    assert!(
                        !cells::leftmost_would_overflow(t_in, xs, yl, c0, c1),
                        "carry lost at the leftmost cell on a valid wave"
                    );
                }
                sim.step();
            }
        }
        assert_eq!(valid_waves_seen, 10 * (l as u32 + 2), "probe coverage");
    }
}

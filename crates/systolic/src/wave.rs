//! A fast behavioral model of the systolic array: the same registers,
//! the same per-cycle wave schedule, the same cell equations — executed
//! as plain boolean updates instead of netlist evaluation.
//!
//! This is fidelity level 2 of the cross-validation tower (see
//! DESIGN.md §4.4): it is proven bit-identical to the gate-level
//! netlist (including the full per-cycle T-register trace) at small
//! widths, which licenses using it for the large-`l` experiments where
//! gate-level simulation of full exponentiations would be prohibitive.

use crate::cells;
use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::traits::MontMul;

/// Cycle-stepped behavioral state of the array (one `bool` per
/// register, mirroring `array::build_into` exactly).
#[derive(Debug, Clone)]
pub struct WaveArray {
    l: usize,
    y: Vec<bool>,  // l+1 bits
    n: Vec<bool>,  // l bits
    t: Vec<bool>,  // index 1..=l+1 (slot 0 unused)
    c0: Vec<bool>, // index 0..=l-1
    c1: Vec<bool>, // index 1..=l-1 (slot 0 unused)
    xp: Vec<bool>, // index 1..=l (slot 0 unused)
    mp: Vec<bool>, // index 1..=l
    vp: Vec<bool>, // index 1..=l
}

impl WaveArray {
    /// Creates a cleared array for operands `y` (< 2N) and modulus `n`.
    pub fn new(l: usize, y: &Ubig, n: &Ubig) -> Self {
        assert!(l >= 3);
        WaveArray {
            l,
            y: y.to_bits_le(l + 1),
            n: n.to_bits_le(l),
            t: vec![false; l + 2],
            c0: vec![false; l],
            c1: vec![false; l],
            xp: vec![false; l + 1],
            mp: vec![false; l + 1],
            vp: vec![false; l + 1],
        }
    }

    /// Clears all registers (the controller's load cycle).
    pub fn clear(&mut self) {
        self.t.fill(false);
        self.c0.fill(false);
        self.c1.fill(false);
        self.xp.fill(false);
        self.mp.fill(false);
        self.vp.fill(false);
    }

    /// One clock cycle with the given serial inputs.
    pub fn step(&mut self, x_in: bool, valid_in: bool) {
        let l = self.l;
        // --- Combinational phase (reads current registers only). ---
        // Cell 0 (rightmost).
        let (m0, c00) = cells::rightmost_behavior(self.t[1], x_in, self.y[0]);
        // Cell 1 (first-bit).
        let (t1, c01, c11) = cells::first_bit_behavior(
            self.t[2], self.xp[1], self.y[1], self.mp[1], self.n[1], self.c0[0],
        );
        // Cells 2..=l-1 (regular).
        let mut t_new = vec![false; l + 2];
        let mut c0_new = vec![false; l];
        let mut c1_new = vec![false; l];
        t_new[1] = t1;
        c0_new[0] = c00;
        c0_new[1] = c01;
        c1_new[1] = c11;
        for j in 2..l {
            let (t, c0, c1) = cells::regular_behavior(
                self.t[j + 1],
                self.xp[j],
                self.y[j],
                self.mp[j],
                self.n[j],
                self.c0[j - 1],
                self.c1[j - 1],
            );
            t_new[j] = t;
            c0_new[j] = c0;
            c1_new[j] = c1;
        }
        // Cell l (leftmost).
        debug_assert!(
            !self.vp[l]
                || !cells::leftmost_would_overflow(
                    self.t[l + 1],
                    self.xp[l],
                    self.y[l],
                    self.c0[l - 1],
                    self.c1[l - 1],
                ),
            "leftmost carry dropped on a valid wave (unsafe modulus?)"
        );
        let (tl, tl1) = cells::leftmost_behavior(
            self.t[l + 1],
            self.xp[l],
            self.y[l],
            self.c0[l - 1],
            self.c1[l - 1],
        );
        t_new[l] = tl;
        t_new[l + 1] = tl1;

        // --- Clock edge: registered updates. ---
        // T: write-enabled by the valid pipeline; cell l covers l and l+1.
        for (j, &tn) in t_new.iter().enumerate().take(l).skip(1) {
            if self.vp[j] {
                self.t[j] = tn;
            }
        }
        if self.vp[l] {
            self.t[l] = t_new[l];
            self.t[l + 1] = t_new[l + 1];
        }
        // Carries: re-registered every cycle.
        self.c0.copy_from_slice(&c0_new);
        self.c1[1..l].copy_from_slice(&c1_new[1..l]);
        // Pipelines shift (high index first to avoid overwrite).
        for j in (2..=l).rev() {
            self.xp[j] = self.xp[j - 1];
            self.mp[j] = self.mp[j - 1];
            self.vp[j] = self.vp[j - 1];
        }
        self.xp[1] = x_in;
        self.mp[1] = m0;
        self.vp[1] = valid_in;
    }

    /// Current T-register contents, `T[1..=l+1]`, LSB first — directly
    /// comparable against the netlist's `T` bus.
    pub fn t_register(&self) -> Vec<bool> {
        self.t[1..].to_vec()
    }

    /// Interprets the T register as the result value.
    pub fn result(&self) -> Ubig {
        Ubig::from_bits_le(&self.t[1..])
    }
}

/// A cycle-accurate behavioral MMMC: [`WaveArray`] plus the
/// controller's schedule, counting exactly the cycles the gate-level
/// circuit takes (`3l+4` per multiplication).
#[derive(Debug, Clone)]
pub struct WaveMmmc {
    params: MontgomeryParams,
    total_cycles: u64,
}

impl WaveMmmc {
    /// Creates the engine for fixed parameters.
    ///
    /// # Panics
    /// Panics if the parameters are not hardware-safe (see
    /// [`MontgomeryParams::is_hardware_safe`]); this model reproduces
    /// the hardware bit-for-bit, including its overflow erratum.
    pub fn new(params: MontgomeryParams) -> Self {
        assert!(
            params.is_hardware_safe(),
            "modulus is not hardware-safe at width l={}; \
             use MontgomeryParams::hardware_safe(n)",
            params.l()
        );
        WaveMmmc {
            params,
            total_cycles: 0,
        }
    }

    /// Runs one multiplication, returning the result and the cycle
    /// count (always `3l+4`, matching the measured gate-level value).
    pub fn mont_mul_counted(&mut self, x: &Ubig, y: &Ubig) -> (Ubig, u64) {
        let l = self.params.l();
        assert!(
            self.params.check_operand(x) && self.params.check_operand(y),
            "operands must be < 2N"
        );
        let mut arr = WaveArray::new(l, y, self.params.n());
        arr.clear(); // the load cycle (cycle 1)
        for tau in 0..=(3 * l + 2) {
            let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
            arr.step(injecting && x.bit(tau / 2), injecting);
        }
        // load (1) + compute (3l+3) = 3l+4; no separate OUT step is
        // simulated because the model has no controller state to drain.
        let cycles = (3 * l + 4) as u64;
        self.total_cycles += cycles;
        (arr.result(), cycles)
    }
}

impl MontMul for WaveMmmc {
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
        "behavioral wave model"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SystolicArray;
    use mmm_core::montgomery::mont_mul_alg2;
    use mmm_hdl::{CarryStyle, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wave_matches_algorithm2_exhaustive() {
        let p = MontgomeryParams::hardware_safe(&Ubig::from(7u64));
        let mut engine = WaveMmmc::new(p.clone());
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
    fn wave_matches_netlist_trace_bit_for_bit() {
        // The strong cross-validation: identical T-register contents on
        // EVERY cycle, not just identical final results.
        let mut rng = StdRng::seed_from_u64(31);
        for l in [3usize, 5, 8, 16] {
            let p = mmm_core::modgen::random_safe_params(&mut rng, l);
            let n = p.n().clone();
            let arr = SystolicArray::build(l, CarryStyle::XorMux);
            let mut sim = Simulator::new(&arr.netlist).unwrap();
            for _ in 0..3 {
                let x = Ubig::random_below(&mut rng, &p.two_n());
                let y = Ubig::random_below(&mut rng, &p.two_n());
                let mut wave = WaveArray::new(l, &y, &n);
                sim.set_bus_bits(&arr.y, &y.to_bits_le(l + 1));
                sim.set_bus_bits(&arr.n, &n.to_bits_le(l));
                sim.set(arr.clear, true);
                sim.step();
                sim.set(arr.clear, false);
                wave.clear();
                for tau in 0..=(3 * l + 2) {
                    let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
                    let xi = injecting && x.bit(tau / 2);
                    sim.set(arr.x_in, xi);
                    sim.set(arr.valid_in, injecting);
                    sim.step();
                    wave.step(xi, injecting);
                    assert_eq!(
                        sim.get_bus_bits(&arr.t),
                        wave.t_register(),
                        "trace diverged at l={l} tau={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn wave_cycle_count_matches_formula() {
        let p = MontgomeryParams::hardware_safe(&Ubig::from(251u64));
        let l = p.l() as u64; // 251 needs l = 9
        assert_eq!(l, 9);
        let mut engine = WaveMmmc::new(p);
        let (_, c) = engine.mont_mul_counted(&Ubig::from(100u64), &Ubig::from(200u64));
        assert_eq!(c, 3 * l + 4);
        let _ = engine.mont_mul(&Ubig::from(1u64), &Ubig::from(1u64));
        assert_eq!(engine.consumed_cycles(), Some(2 * (3 * l + 4)));
    }

    #[test]
    fn wave_large_widths_match_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        for l in [64usize, 128, 256] {
            let p = mmm_core::modgen::random_safe_params(&mut rng, l);
            let mut engine = WaveMmmc::new(p.clone());
            let x = Ubig::random_below(&mut rng, &p.two_n());
            let y = Ubig::random_below(&mut rng, &p.two_n());
            assert_eq!(engine.mont_mul(&x, &y), mont_mul_alg2(&p, &x, &y), "l={l}");
        }
    }
}

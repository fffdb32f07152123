//! Table 2 regeneration: slices (S), clock period (Tp), time–area
//! product (TA) and one-multiplication time (TMMM) for
//! `l ∈ {32, 64, 128, 256, 512, 1024}`.
//!
//! Methodology per row:
//! 1. elaborate the full MMMC netlist at width `l`;
//! 2. **measure** the START→DONE cycle count by gate-level simulation
//!    of an actual multiplication (up to `gate_measure_up_to`; above
//!    that the behavioral wave model — proven trace-equivalent — is
//!    used), asserting it equals `3l+4`;
//! 3. map to LUT4s, pack slices, and estimate the clock period with the
//!    calibrated Virtex-E model;
//! 4. TMMM = measured cycles × Tp, TA = S × Tp.

use mmm_core::modgen::random_safe_params;
use mmm_fpga::{FpgaReport, SlicePacker, VirtexETiming};
use mmm_hdl::CarryStyle;
use mmm_systolic::wave::WaveMmmc;
use mmm_systolic::Mmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// One computed row of Table 2, with the paper's values alongside.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bit length.
    pub l: usize,
    /// Estimated slices.
    pub slices: usize,
    /// Estimated clock period, ns.
    pub tp_ns: f64,
    /// Time–area product, slice·ns.
    pub ta: f64,
    /// Measured cycles for one multiplication.
    pub cycles: u64,
    /// One-multiplication time, µs.
    pub tmmm_us: f64,
    /// Whether the cycle count came from full gate-level simulation
    /// (vs the trace-equivalent wave model).
    pub gate_measured: bool,
    /// Paper's slices.
    pub paper_slices: usize,
    /// Paper's Tp, ns.
    pub paper_tp: f64,
    /// Paper's TA.
    pub paper_ta: f64,
    /// Paper's TMMM, µs.
    pub paper_tmmm: f64,
}

/// Computes all six rows. `gate_measure_up_to` bounds the widths that
/// run the full netlist simulation (larger widths use the wave model
/// for the cycle measurement; the netlist is still built and mapped for
/// area/timing at every width).
pub fn compute(gate_measure_up_to: usize) -> Vec<Row> {
    let packer = SlicePacker::default();
    let timing = VirtexETiming::default();
    // Rows are independent (netlist elaboration, mapping, and a full
    // gate-level simulation each): fan them out across cores.
    crate::paper::TABLE2
        .par_iter()
        .map(|&(l, ps, ptp, pta, ptmmm)| {
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ l as u64);
            let mmmc = Mmmc::build(l, CarryStyle::XorMux);
            let report = FpgaReport::analyze(&mmmc.netlist, l, &packer, &timing);
            let params = random_safe_params(&mut rng, l);
            let x = mmm_core::modgen::random_operand(&mut rng, &params);
            let y = mmm_core::modgen::random_operand(&mut rng, &params);
            let (cycles, gate_measured) = if l <= gate_measure_up_to {
                let run = mmmc.run(&x, &y, params.n());
                // Cross-check the result against the reference.
                let want = mmm_core::montgomery::mont_mul_alg2(&params, &x, &y);
                assert_eq!(run.result, want, "gate-level result mismatch at l={l}");
                (run.cycles, true)
            } else {
                let mut wave = WaveMmmc::new(params.clone());
                let (res, cyc) = wave.mont_mul_counted(&x, &y);
                let want = mmm_core::montgomery::mont_mul_alg2(&params, &x, &y);
                assert_eq!(res, want, "wave result mismatch at l={l}");
                (cyc, false)
            };
            assert_eq!(cycles, (3 * l + 4) as u64, "3l+4 must hold at l={l}");
            Row {
                l,
                slices: report.slices,
                tp_ns: report.period_ns,
                ta: report.ta,
                cycles,
                tmmm_us: report.tmmm_us(cycles),
                gate_measured,
                paper_slices: ps,
                paper_tp: ptp,
                paper_ta: pta,
                paper_tmmm: ptmmm,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::rel_err_pct;

    #[test]
    fn rows_track_paper_within_tolerance() {
        // Keep gate-level measurement to small widths in tests (debug
        // builds); area/timing still exercise every width.
        let rows = compute(64);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.cycles, (3 * r.l + 4) as u64);
            assert!(
                rel_err_pct(r.slices as f64, r.paper_slices as f64).abs() < 8.0,
                "slices l={}: {} vs {}",
                r.l,
                r.slices,
                r.paper_slices
            );
            assert!(
                rel_err_pct(r.tp_ns, r.paper_tp).abs() < 8.0,
                "Tp l={}: {} vs {}",
                r.l,
                r.tp_ns,
                r.paper_tp
            );
            assert!(
                rel_err_pct(r.tmmm_us, r.paper_tmmm).abs() < 10.0,
                "TMMM l={}: {} vs {}",
                r.l,
                r.tmmm_us,
                r.paper_tmmm
            );
        }
        assert!(rows[0].gate_measured && rows[1].gate_measured);
    }
}

//! §2/§4.4 comparison: this work vs the Blum–Paar design vs naive
//! interleaved modular multiplication (ablation A2).
//!
//! Quantities per width:
//! * cycles per multiplication (ours `3l+4`; BP `3l+7` from the extra
//!   `R = 2^{l+3}` iteration; naive `l+2`);
//! * clock period (ours: 4 LUT levels; BP: +2 levels from the PE
//!   control multiplexers; naive: three chained full-width carry
//!   trees per cycle);
//! * one-multiplication time and the end-to-end 1.5l-multiplication
//!   average exponentiation time (where the naive design also pays an
//!   extra conditional-subtraction structure).

use mmm_baselines::blum_paar;
use mmm_baselines::naive;
use mmm_core::cost;
use mmm_fpga::{FpgaReport, SlicePacker, VirtexETiming};
use mmm_hdl::CarryStyle;

/// Comparison row for one design at one width.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bit length.
    pub l: usize,
    /// Design name.
    pub design: &'static str,
    /// Cycles per Montgomery (or plain) multiplication.
    pub cycles: u64,
    /// Clock period, ns.
    pub tp_ns: f64,
    /// One multiplication, µs.
    pub tmmm_us: f64,
    /// Average exponentiation (1.5·l multiplications), ms.
    pub texp_ms: f64,
}

/// Computes the three designs at each width.
pub fn compute(widths: &[usize]) -> Vec<Row> {
    let timing = VirtexETiming::default();
    let packer = SlicePacker::default();
    let mut rows = Vec::new();
    for &l in widths {
        // Ours: depth measured from the real netlist.
        let mmmc = mmm_systolic::Mmmc::build(l, CarryStyle::XorMux);
        let report = FpgaReport::analyze(&mmmc.netlist, l, &packer, &timing);
        let ours_tp = report.period_ns;
        let ours_cycles = cost::mmm_cycles(l);
        rows.push(Row {
            l,
            design: "this work (R=2^{l+2})",
            cycles: ours_cycles,
            tp_ns: ours_tp,
            tmmm_us: ours_cycles as f64 * ours_tp * 1e-3,
            texp_ms: 1.5 * l as f64 * ours_cycles as f64 * ours_tp * 1e-6,
        });

        // Blum–Paar: +3 cycles, +2 LUT levels.
        let bp_cycles = blum_paar::bp_mmm_cycles(l);
        let bp_tp = timing.clock_period(report.lut_depth + blum_paar::BP_EXTRA_LUT_LEVELS, l);
        rows.push(Row {
            l,
            design: "Blum-Paar (R=2^{l+3})",
            cycles: bp_cycles,
            tp_ns: bp_tp,
            tmmm_us: bp_cycles as f64 * bp_tp * 1e-3,
            texp_ms: 1.5 * l as f64 * bp_cycles as f64 * bp_tp * 1e-6,
        });

        // Naive interleaved: few cycles, width-dependent clock.
        let nv_cycles = naive::interleaved_cycles(l);
        let nv_tp = naive::naive_clock_period_ns(l, &timing);
        rows.push(Row {
            l,
            design: "naive interleaved",
            cycles: nv_cycles,
            tp_ns: nv_tp,
            tmmm_us: nv_cycles as f64 * nv_tp * 1e-3,
            texp_ms: 1.5 * l as f64 * nv_cycles as f64 * nv_tp * 1e-6,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by<'a>(rows: &'a [Row], l: usize, d: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.l == l && r.design.starts_with(d))
            .unwrap()
    }

    #[test]
    fn we_beat_blum_paar_on_both_axes() {
        let rows = compute(&[32, 256, 1024]);
        for &l in &[32usize, 256, 1024] {
            let ours = by(&rows, l, "this work");
            let bp = by(&rows, l, "Blum-Paar");
            assert!(ours.cycles < bp.cycles, "fewer cycles at l={l}");
            assert!(ours.tp_ns < bp.tp_ns, "faster clock at l={l}");
            assert!(ours.tmmm_us < bp.tmmm_us, "faster multiplication at l={l}");
            // The paper's headline: the advantage compounds over ~1500
            // multiplications of an exponentiation.
            assert!(ours.texp_ms < bp.texp_ms, "faster exponentiation at l={l}");
        }
    }

    #[test]
    fn blum_paar_gap_is_modest_but_real() {
        // Sanity on magnitude: BP should be ~1.3-2x slower per mult
        // (2 extra LUT levels + 3 cycles), not 10x.
        let rows = compute(&[1024]);
        let ours = by(&rows, 1024, "this work");
        let bp = by(&rows, 1024, "Blum-Paar");
        let factor = bp.tmmm_us / ours.tmmm_us;
        assert!(
            (1.1..=2.5).contains(&factor),
            "BP slowdown factor {factor:.2}"
        );
    }

    #[test]
    fn naive_clock_degrades_with_width() {
        let rows = compute(&[32, 1024]);
        let n32 = by(&rows, 32, "naive");
        let n1024 = by(&rows, 1024, "naive");
        let ours32 = by(&rows, 32, "this work");
        let ours1024 = by(&rows, 1024, "this work");
        let naive_growth = n1024.tp_ns / n32.tp_ns;
        let ours_growth = ours1024.tp_ns / ours32.tp_ns;
        assert!(
            naive_growth > ours_growth * 1.2,
            "naive clock must degrade faster: {naive_growth:.2} vs {ours_growth:.2}"
        );
    }
}

//! One-call FPGA implementation report: every quantity of the paper's
//! Table 2 for a given netlist.

use crate::lut::{map_luts, LutMapping};
use crate::slice::SlicePacker;
use crate::timing::VirtexETiming;
use mmm_hdl::Netlist;

/// Implementation results for one circuit, in the paper's Table-2
/// units.
#[derive(Debug, Clone)]
pub struct FpgaReport {
    /// Bit length the circuit was built for.
    pub l: usize,
    /// LUT4 count after technology mapping.
    pub luts: usize,
    /// Flip-flop count.
    pub ffs: usize,
    /// LUT levels on the critical path.
    pub lut_depth: usize,
    /// Estimated slices (S).
    pub slices: usize,
    /// Estimated clock period (Tp), ns.
    pub period_ns: f64,
    /// Time–area product (TA = S · Tp), slice·ns.
    pub ta: f64,
}

impl FpgaReport {
    /// Analyzes a netlist built for bit length `l` under the given
    /// packing and timing models.
    pub fn analyze(
        netlist: &Netlist,
        l: usize,
        packer: &SlicePacker,
        timing: &VirtexETiming,
    ) -> FpgaReport {
        let mapping = map_luts(netlist);
        Self::from_mapping(&mapping, l, packer, timing)
    }

    /// Builds a report from an existing LUT mapping.
    pub fn from_mapping(
        mapping: &LutMapping,
        l: usize,
        packer: &SlicePacker,
        timing: &VirtexETiming,
    ) -> FpgaReport {
        let slices = packer.slices(mapping, l);
        let period_ns = timing.clock_period(mapping.depth, l);
        FpgaReport {
            l,
            luts: mapping.luts,
            ffs: mapping.ffs,
            lut_depth: mapping.depth,
            slices,
            period_ns,
            ta: slices as f64 * period_ns,
        }
    }

    /// Time for one Montgomery multiplication (TMMM), µs, given its
    /// cycle count.
    pub fn tmmm_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.period_ns * 1e-3
    }

    /// Time for a modular exponentiation, ms, given its cycle count.
    pub fn texp_ms(&self, cycles: f64) -> f64 {
        cycles * self.period_ns * 1e-6
    }
}

impl std::fmt::Display for FpgaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "l={:5}  S={:5}  Tp={:6.3} ns  TA={:9.2} S·ns  (LUT={}, FF={}, depth={})",
            self.l, self.slices, self.period_ns, self.ta, self.luts, self.ffs, self.lut_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_hdl::CarryStyle;
    use mmm_systolic::Mmmc;

    #[test]
    fn mmmc_report_basic_sanity() {
        let mmmc = Mmmc::build(32, CarryStyle::XorMux);
        let r = FpgaReport::analyze(
            &mmmc.netlist,
            32,
            &SlicePacker::default(),
            &VirtexETiming::default(),
        );
        assert!(r.luts > 100 && r.luts < 1000, "luts={}", r.luts);
        assert!(r.ffs > 250 && r.ffs < 400, "ffs={}", r.ffs);
        assert!(r.slices > 100 && r.slices < 400, "slices={}", r.slices);
        assert!((9.0..11.0).contains(&r.period_ns), "Tp={}", r.period_ns);
        assert!((r.ta - r.slices as f64 * r.period_ns).abs() < 1e-9);
    }

    #[test]
    fn slices_scale_linearly() {
        let packer = SlicePacker::default();
        let timing = VirtexETiming::default();
        let r32 = FpgaReport::analyze(
            &Mmmc::build(32, CarryStyle::XorMux).netlist,
            32,
            &packer,
            &timing,
        );
        let r128 = FpgaReport::analyze(
            &Mmmc::build(128, CarryStyle::XorMux).netlist,
            128,
            &packer,
            &timing,
        );
        let ratio = r128.slices as f64 / r32.slices as f64;
        assert!(
            (3.4..=4.6).contains(&ratio),
            "4x width should be ~4x slices, got {ratio:.2}"
        );
    }

    #[test]
    fn tmmm_matches_paper_shape_at_l32() {
        // Paper: TMMM(32) = 0.926 µs from 100 cycles at 9.256 ns.
        let mmmc = Mmmc::build(32, CarryStyle::XorMux);
        let r = FpgaReport::analyze(
            &mmmc.netlist,
            32,
            &SlicePacker::default(),
            &VirtexETiming::default(),
        );
        let tmmm = r.tmmm_us(100);
        assert!((0.8..=1.1).contains(&tmmm), "TMMM={tmmm:.3} µs");
    }

    #[test]
    fn display_contains_fields() {
        let mmmc = Mmmc::build(8, CarryStyle::XorMux);
        let r = FpgaReport::analyze(
            &mmmc.netlist,
            8,
            &SlicePacker::default(),
            &VirtexETiming::default(),
        );
        let s = r.to_string();
        assert!(s.contains("S="));
        assert!(s.contains("Tp="));
    }
}

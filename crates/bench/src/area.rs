//! §4.3 reproduction: the systolic-array gate-count formula
//! `(5l−3) XOR + (7l−7) AND + (4l−5) OR` + `4l` flip-flops, and the
//! critical-path claim `2·T_FA(cin→cout) + T_HA(cin→cout)` independent
//! of `l` — both derived from the *generated netlists*, under both
//! full-adder decompositions (ablation A1).

use mmm_hdl::{AreaReport, CarryStyle, UnitDelay};
use mmm_systolic::array::SystolicArray;
use mmm_systolic::cells::CellCost;

/// Computed area row for one `(l, style)` pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bit length.
    pub l: usize,
    /// Full-adder decomposition.
    pub style: CarryStyle,
    /// Netlist gate census (XOR, AND, OR).
    pub xor: usize,
    /// AND gates.
    pub and: usize,
    /// OR gates.
    pub or: usize,
    /// Flip-flops in the array netlist.
    pub ffs: usize,
    /// Paper formula (XOR, AND, OR).
    pub paper: CellCost,
    /// Critical-path depth in gate levels (reg-to-reg).
    pub critical_levels: usize,
}

/// Computes census rows across widths and styles.
pub fn compute(widths: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &l in widths {
        for style in [CarryStyle::XorMux, CarryStyle::Majority] {
            let arr = SystolicArray::build(l, style);
            let census = AreaReport::of(&arr.netlist);
            let cp = mmm_hdl::timing::critical_path(&arr.netlist, &UnitDelay)
                .expect("no combinational loops");
            rows.push(Row {
                l,
                style,
                xor: census.xor,
                and: census.and,
                or: census.or,
                ffs: census.dff,
                paper: CellCost::paper_formula(l),
                critical_levels: cp.levels,
            });
        }
    }
    rows
}

/// Flip-flop budget per pipeline style (the reconciliation of the
/// paper's `4l` figure).
#[derive(Debug, Clone)]
pub struct FfRow {
    /// Bit length.
    pub l: usize,
    /// Array FFs with per-cell pipelines.
    pub per_cell: usize,
    /// Array FFs with pair-shared pipelines (Fig. 2's drawing).
    pub shared_pair: usize,
    /// The paper's stated budget: `4l`.
    pub paper: usize,
}

/// Computes the FF-budget comparison. The shared-pair count equals the
/// paper's `4l` plus `⌈l/2⌉` valid-pipeline bits (our drain-phase
/// addition).
pub fn ff_comparison(widths: &[usize]) -> Vec<FfRow> {
    use mmm_hdl::Netlist;
    use mmm_systolic::array::{build_into_styled, PipelineStyle};
    widths
        .iter()
        .map(|&l| {
            let count = |style: PipelineStyle| {
                let mut nl = Netlist::new();
                let x = nl.input("x");
                let v = nl.input("v");
                let c = nl.input("c");
                let ph = nl.input("ph");
                let y = nl.input_bus("y", l + 1);
                let n = nl.input_bus("n", l);
                let _ = build_into_styled(
                    &mut nl,
                    l,
                    CarryStyle::XorMux,
                    style,
                    x,
                    v,
                    c,
                    Some(ph),
                    &y,
                    &n,
                );
                AreaReport::of(&nl).dff
            };
            FfRow {
                l,
                per_cell: count(PipelineStyle::PerCell),
                shared_pair: count(PipelineStyle::SharedPair),
                paper: 4 * l,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_style_matches_paper_formula_coefficients() {
        for row in compute(&[8, 64, 256]) {
            if row.style == CarryStyle::Majority {
                // Leading coefficients exact; constants within the
                // documented O(1) edge-cell accounting difference.
                assert_eq!(row.xor, 5 * row.l - 2, "l={}", row.l);
                assert_eq!(row.and, 7 * row.l - 4, "l={}", row.l);
                assert_eq!(row.or, 4 * row.l - 3, "l={}", row.l);
                assert!(row.xor.abs_diff(row.paper.xor) <= 1);
                assert!(row.and.abs_diff(row.paper.and) <= 3);
                assert!(row.or.abs_diff(row.paper.or) <= 2);
            }
        }
    }

    #[test]
    fn xor_style_saves_or_gates() {
        for chunk in compute(&[64]).chunks(2) {
            let xm = &chunk[0];
            let mj = &chunk[1];
            assert_eq!(xm.xor, mj.xor, "XOR count is style-independent");
            assert_eq!(xm.and, mj.and, "AND count is style-independent");
            assert!(
                xm.or < mj.or,
                "XorMux decomposition uses fewer ORs ({} vs {})",
                xm.or,
                mj.or
            );
        }
    }

    #[test]
    fn critical_path_constant_across_widths() {
        let rows = compute(&[8, 32, 128]);
        let depths: Vec<usize> = rows
            .iter()
            .filter(|r| r.style == CarryStyle::XorMux)
            .map(|r| r.critical_levels)
            .collect();
        assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
    }

    #[test]
    fn ff_budget_reconciliation() {
        for row in ff_comparison(&[8, 16, 64, 128]) {
            assert_eq!(row.per_cell, 6 * row.l, "l={}", row.l);
            assert_eq!(
                row.shared_pair,
                row.paper + row.l.div_ceil(2),
                "shared-pair = paper 4l + valid pipe at l={}",
                row.l
            );
        }
    }

    #[test]
    fn ff_count_documented_vs_paper() {
        // Paper says 4l; our array carries 6l (T is l+1 wide, both
        // carry chains are registered, and the valid pipeline — our
        // drain-phase resolution — adds l). The delta is linear, not
        // asymptotic.
        for row in compute(&[16, 64]) {
            assert_eq!(row.ffs, 6 * row.l, "l={}", row.l);
        }
    }
}

//! Figs. 1–4 regeneration: the schematics as DOT graphs / text dumps
//! generated from the *actual netlists*, plus machine-checkable
//! structural summaries (port lists, block inventories).

use mmm_hdl::{export, CarryStyle, Netlist, SignalId};
use mmm_systolic::array::SystolicArray;
use mmm_systolic::cells;
use mmm_systolic::Mmmc;

/// Fig. 1: the four cell schematics as DOT, with their gate
/// inventories.
pub fn fig1() -> Vec<(String, String)> {
    let style = CarryStyle::XorMux;
    let mut out = Vec::new();

    let mut nl = Netlist::new();
    let i: Vec<SignalId> = ["t_in", "x", "y", "m", "n", "c0_in", "c1_in"]
        .iter()
        .map(|n_| nl.input(n_))
        .collect();
    let c = cells::regular_cell(&mut nl, style, i[0], i[1], i[2], i[3], i[4], i[5], i[6]);
    nl.expose_output("t", c.t);
    nl.expose_output("c0", c.c0);
    nl.expose_output("c1", c.c1);
    out.push((
        "fig1a-regular".to_string(),
        export::to_dot(&nl, "Fig 1(a) regular cell: 2 FA + 1 HA + 2 AND"),
    ));

    let mut nl = Netlist::new();
    let t_in = nl.input("t_in");
    let x = nl.input("x");
    let y0 = nl.input("y0");
    let (m, c0) = cells::rightmost_cell(&mut nl, t_in, x, y0);
    nl.expose_output("m", m);
    nl.expose_output("c0", c0);
    out.push((
        "fig1b-rightmost".to_string(),
        export::to_dot(&nl, "Fig 1(b) rightmost cell: AND + XOR + OR"),
    ));

    let mut nl = Netlist::new();
    let i: Vec<SignalId> = ["t_in", "x", "y1", "m", "n1", "c0_in"]
        .iter()
        .map(|n_| nl.input(n_))
        .collect();
    let c = cells::first_bit_cell(&mut nl, style, i[0], i[1], i[2], i[3], i[4], i[5]);
    nl.expose_output("t", c.t);
    nl.expose_output("c0", c.c0);
    nl.expose_output("c1", c.c1);
    out.push((
        "fig1c-first-bit".to_string(),
        export::to_dot(&nl, "Fig 1(c) 1st-bit cell: 1 FA + 2 HA + 2 AND"),
    ));

    let mut nl = Netlist::new();
    let i: Vec<SignalId> = ["t_in", "x", "yl", "c0_in", "c1_in"]
        .iter()
        .map(|n_| nl.input(n_))
        .collect();
    let (t, t_hi) = cells::leftmost_cell(&mut nl, style, i[0], i[1], i[2], i[3], i[4]);
    nl.expose_output("t_l", t);
    nl.expose_output("t_l1", t_hi);
    out.push((
        "fig1d-leftmost".to_string(),
        export::to_dot(&nl, "Fig 1(d) leftmost cell: 1 FA + 1 AND + 1 XOR"),
    ));

    out
}

/// Fig. 2: the complete array (small `l` so the DOT stays readable)
/// plus a census summary.
pub fn fig2(l: usize) -> (String, String) {
    let arr = SystolicArray::build(l, CarryStyle::XorMux);
    let dot = export::to_dot(&arr.netlist, &format!("Fig 2: systolic array, l={l}"));
    let summary = export::summarize(&arr.netlist, &format!("systolic array l={l}"));
    (dot, summary)
}

/// Fig. 3: the MMMC block structure summary (ports, registers,
/// controller) plus the full DOT.
pub fn fig3(l: usize) -> (String, String) {
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);
    let dot = export::to_dot(&mmmc.netlist, &format!("Fig 3: MMMC, l={l}"));
    let mut summary = export::summarize(&mmmc.netlist, &format!("MMMC l={l}"));
    summary.push_str(&format!(
        "ports: START, X[{}], Y[{}], N[{}] -> DONE, RESULT[{}]\n",
        l + 1,
        l + 1,
        l,
        l + 1
    ));
    (dot, summary)
}

/// Fig. 4: the ASM chart as text (states, transitions, actions).
pub fn fig4(l: usize) -> String {
    format!(
        r#"Fig 4 — ASM of the Montgomery modular multiplier (l = {l})

  IDLE:  wait START
         START=1 -> load X,Y,N registers; clear T/C0/C1/x/m/valid,
                    counter <- 0; inject_active <- 1; goto MUL1
  MUL1:  valid <- inject_active (injects wave i = counter/2, x = X(0))
         counter <- counter + 1
         count-end (counter = {end}) ? goto OUT : goto MUL2
  MUL2:  shift X right (MSB <- 0)
         counter <- counter + 1
         inject-end (counter = {inj}) -> inject_active <- 0
         count-end (counter = {end}) ? goto OUT : goto MUL1
  OUT:   DONE <- 1; RESULT <- T register; goto IDLE

  Latency START -> DONE: 3l+4 = {cyc} cycles
  (Deviation from the paper's ASM text, documented in DESIGN.md: the
  counter ticks in both MUL states and the exit test runs in both, so
  the published 3l+4 latency holds exactly.)"#,
        l = l,
        end = 3 * l + 2,
        inj = 2 * l + 2,
        cyc = 3 * l + 4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_four_cells_with_correct_inventories() {
        let figs = fig1();
        assert_eq!(figs.len(), 4);
        // Regular: 2FA+1HA+2AND in XorMux = 5 XOR + 7 AND + 2 OR.
        let (name, dot) = &figs[0];
        assert_eq!(name, "fig1a-regular");
        assert_eq!(dot.matches("XOR#").count(), 5);
        assert_eq!(dot.matches("label=\"AND#").count(), 7);
        assert_eq!(dot.matches("label=\"OR#").count(), 2);
        // Rightmost: 1 each.
        let (_, dot) = &figs[1];
        assert_eq!(dot.matches("XOR#").count(), 1);
        assert_eq!(dot.matches("label=\"AND#").count(), 1);
        assert_eq!(dot.matches("label=\"OR#").count(), 1);
    }

    #[test]
    fn fig2_summary_counts() {
        let (_dot, summary) = fig2(4);
        assert!(summary.contains("systolic array l=4"));
        assert!(summary.contains("area:"), "{summary}");
    }

    #[test]
    fn fig3_ports() {
        let (_dot, summary) = fig3(4);
        assert!(summary.contains("ports: START, X[5], Y[5], N[4]"));
    }

    #[test]
    fn fig4_constants() {
        let asm = fig4(8);
        assert!(asm.contains("counter = 26")); // 3*8+2
        assert!(asm.contains("counter = 18")); // 2*8+2
        assert!(asm.contains("28 cycles")); // 3*8+4
    }
}

//! A guided walk through the paper's architecture: traces the ASM
//! controller state-by-state for one multiplication (Fig. 4) and then
//! the square-and-multiply schedule of a full exponentiation
//! (Algorithm 3), with cycle accounting at each step.
//!
//! ```sh
//! cargo run --example exponentiation_trace
//! ```

use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::{cost, MontMul};
use montgomery_systolic::hdl::{CarryStyle, Netlist, Simulator};
use montgomery_systolic::systolic::wave::WaveMmmc;
use montgomery_systolic::systolic::{controller, Mmmc};
use montgomery_systolic::Ubig;

fn main() {
    trace_one_multiplication();
    trace_exponentiation();
}

/// Runs the controller at l = 4 and prints the state sequence.
fn trace_one_multiplication() {
    let l = 4;
    println!("=== ASM trace of one multiplication (l = {l}) ===");
    let mut nl = Netlist::new();
    let start = nl.input("start");
    let sig = controller::build_into(&mut nl, l, start);
    let mut sim = Simulator::new(&nl).unwrap();

    sim.set(start, true);
    let mut names = Vec::new();
    for cycle in 0..(3 * l + 6) {
        sim.settle();
        let (s1, s0) = (sim.get(sig.state.0), sim.get(sig.state.1));
        let state = match (s1, s0) {
            (false, false) => "IDLE",
            (false, true) => "MUL1",
            (true, false) => "MUL2",
            (true, true) => "OUT ",
        };
        let marks = format!(
            "{}{}{}{}",
            if sim.get(sig.load) { " load" } else { "" },
            if sim.get(sig.valid) {
                " inject-wave"
            } else {
                ""
            },
            if sim.get(sig.shift_x) { " shift-X" } else { "" },
            if sim.get(sig.done) { " DONE" } else { "" },
        );
        println!("cycle {cycle:2}: {state}{marks}");
        names.push(state);
        sim.step();
        sim.set(start, false);
    }
    println!("latency: 3l+4 = {} cycles from START to DONE\n", 3 * l + 4);
    // The MMMC wraps exactly this controller:
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);
    assert_eq!(mmmc.expected_cycles(), (3 * l + 4) as u64);
}

/// Prints Algorithm 3's schedule for a small exponentiation.
fn trace_exponentiation() {
    let n = Ubig::from(40487u64);
    let params = MontgomeryParams::hardware_safe(&n);
    let l = params.l();
    let m = Ubig::from(1234u64);
    let e = Ubig::from(0b101101u64); // 45
    println!("=== Algorithm 3 schedule: {m}^{e} mod {n} (l = {l}) ===");

    let mut engine = WaveMmmc::new(params.clone());
    let r2 = params.r2_mod_n();
    let mbar = engine.mont_mul(&m, &r2);
    println!(
        "pre:  M̄ = Mont(M, R² mod N) = {mbar}   [3l+4 = {} cycles]",
        3 * l + 4
    );

    let t = e.bit_len();
    let mut a = mbar.clone();
    for i in (0..t - 1).rev() {
        a = engine.mont_mul(&a, &a);
        print!("bit {i} (e_{i} = {}): square -> {a}", u8::from(e.bit(i)));
        if e.bit(i) {
            a = engine.mont_mul(&a, &mbar);
            print!(", multiply -> {a}");
        }
        println!();
    }
    let result = engine.mont_mul(&a, &Ubig::one());
    println!("post: Mont(A, 1) = {result}");
    assert_eq!(result.rem(&n), m.modpow(&e, &n));

    let total = engine.consumed_cycles().unwrap();
    let (lo, hi) = cost::modexp_bounds(l);
    println!(
        "total simulated cycles: {total}; paper accounting {}; Eq. 10 bounds [{lo}, {hi}]",
        cost::modexp_cycles_for_exponent(l, &e)
    );
}

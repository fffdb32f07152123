//! Quickstart: build the paper's Montgomery Modular Multiplication
//! Circuit at a small width, run one multiplication gate-by-gate, and
//! check it against the textbook definition.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use montgomery_systolic::core::montgomery::{mont_spec, MontgomeryParams};
use montgomery_systolic::core::MmmError;
use montgomery_systolic::hdl::{AreaReport, CarryStyle};
use montgomery_systolic::systolic::mmmc::GateEngine;
use montgomery_systolic::systolic::Mmmc;
use montgomery_systolic::Ubig;

fn main() -> Result<(), MmmError> {
    // An odd modulus; `try_hardware_safe` picks the minimal datapath
    // width at which the systolic array provably never drops a carry
    // — and rejects an invalid modulus (even, too small) as a typed
    // error instead of a panic.
    let n = Ubig::from(40487u64);
    let params = MontgomeryParams::try_hardware_safe(&n)?;
    let l = params.l();
    println!("modulus N = {n} -> datapath width l = {l}, R = 2^{}", l + 2);

    // Elaborate the circuit of Fig. 3: systolic array + ASM controller.
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);
    let area = AreaReport::of(&mmmc.netlist);
    println!("MMMC netlist: {area}");

    // Any operands below 2N are legal (Algorithm 2 needs no final
    // subtraction thanks to Walter's bound 4N < R).
    let x = Ubig::from(52_001u64);
    let y = Ubig::from(77_503u64);
    let mut engine = GateEngine::new(&mmmc, params.clone());
    let (result, cycles) = engine.mont_mul_counted(&x, &y);

    println!(
        "Mont({x}, {y}) = {result}   [{cycles} cycles, expected 3l+4 = {}]",
        3 * l + 4
    );

    // Verify against x·y·R⁻¹ mod N computed with plain modular algebra.
    let want = mont_spec(&params, &x, &y, &params.r());
    assert_eq!(
        result.rem(&n),
        want,
        "hardware result must match the definition"
    );
    assert!(result < params.two_n(), "output bound: T < 2N");
    println!("verified: result ≡ x·y·R⁻¹ (mod N) and result < 2N ✓");
    Ok(())
}

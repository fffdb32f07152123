//! FPGA implementation report: elaborates the MMMC across the paper's
//! bit-length sweep and prints every Table-2 quantity with the
//! published values alongside (a compact version of
//! `cargo run -p mmm-bench --bin table2`).
//!
//! ```sh
//! cargo run --release --example area_report
//! ```

use montgomery_systolic::core::cost;
use montgomery_systolic::fpga::{FpgaReport, SlicePacker, VirtexETiming};
use montgomery_systolic::hdl::{AreaReport, CarryStyle};
use montgomery_systolic::systolic::Mmmc;

fn main() {
    let packer = SlicePacker::default();
    let timing = VirtexETiming::default();
    let paper = [
        (32usize, 225usize, 9.256f64, 0.926f64),
        (64, 418, 9.221, 1.807),
        (128, 806, 10.242, 3.974),
        (256, 1548, 9.956, 7.686),
        (512, 2972, 10.501, 16.171),
        (1024, 5706, 10.458, 32.168),
    ];

    println!("MMMC implementation sweep (Virtex-E model, XorMux full adders)\n");
    for (l, paper_s, paper_tp, paper_tmmm) in paper {
        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        let gates = AreaReport::of(&mmmc.netlist);
        let report = FpgaReport::analyze(&mmmc.netlist, l, &packer, &timing);
        let tmmm = report.tmmm_us(cost::mmm_cycles(l));
        println!("{report}");
        println!(
            "         gates: {gates}; TMMM = {tmmm:.3} µs   [paper: S={paper_s}, Tp={paper_tp}, TMMM={paper_tmmm}]"
        );
    }
    println!("\ncycles per multiplication: 3l+4 (measured identically at gate level; see tests)");
}

//! Dumps a VCD waveform of one complete Montgomery multiplication on
//! the gate-level MMMC (l = 4), for viewing in GTKWave.
//! Usage: waveform [--out FILE]

use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_hdl::vcd::VcdRecorder;
use mmm_hdl::{CarryStyle, Simulator};
use mmm_systolic::Mmmc;
use std::fs;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures/mmmc_l4.vcd"));

    let l = 4;
    let n = Ubig::from(11u64); // hardware-safe at l = 4 (3*11-1 = 32)
    let params = MontgomeryParams::new(&n, l);
    assert!(params.is_hardware_safe());
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);

    let x = Ubig::from(13u64);
    let y = Ubig::from(21u64);

    let mut sim = Simulator::new(&mmmc.netlist).unwrap();
    let mut vcd = VcdRecorder::new("mmmc_l4");
    vcd.watch("START", mmmc.start);
    vcd.watch("DONE", mmmc.done);
    vcd.watch_bus("RESULT", &mmmc.result);

    sim.set_bus_bits(&mmmc.x_bus, &x.to_bits_le(l + 1));
    sim.set_bus_bits(&mmmc.y_bus, &y.to_bits_le(l + 1));
    sim.set_bus_bits(&mmmc.n_bus, &n.to_bits_le(l));
    sim.set(mmmc.start, true);
    for cycle in 0..(3 * l + 6) {
        sim.settle();
        vcd.sample(&sim);
        if sim.get(mmmc.done) {
            let r = Ubig::from_bits_le(&sim.get_bus_bits(&mmmc.result));
            println!("DONE at cycle {cycle}: Mont({x}, {y}) mod 2*{n} = {r}");
        }
        sim.step();
        sim.set(mmmc.start, false);
    }

    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).expect("create output dir");
    }
    fs::write(&out, vcd.render()).expect("write VCD");
    println!("wrote {} ({} samples)", out.display(), vcd.len());
}

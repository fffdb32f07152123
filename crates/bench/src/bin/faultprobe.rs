use mmm_bigint::Ubig;
use mmm_core::modgen::random_safe_params;
use mmm_core::montgomery::mont_mul_alg2;
use mmm_hdl::netlist::GateKind;
use mmm_hdl::{CarryStyle, Simulator};
use mmm_systolic::Mmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let l = 6;
    let params = random_safe_params(&mut rng, l);
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);
    let n = params.n().clone();
    println!("N = {n}");
    // exhaustive operands for definitive redundancy check
    let two_n = params.two_n().to_u64().unwrap();
    let xor_gates: Vec<usize> = mmmc
        .netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind == GateKind::Xor)
        .map(|(i, _)| i)
        .collect();
    for &gi in xor_gates.iter().step_by(3) {
        let mut mutated = mmmc.netlist.clone();
        mutated.gates_mut()[gi].kind = GateKind::Or;
        let mut caught = false;
        'outer: for xv in 0..two_n {
            for yv in 0..two_n {
                let x = Ubig::from(xv);
                let y = Ubig::from(yv);
                let want = mont_mul_alg2(&params, &x, &y);
                let mut sim = Simulator::new(&mutated).unwrap();
                sim.set_bus_bits(&mmmc.x_bus, &x.to_bits_le(l + 1));
                sim.set_bus_bits(&mmmc.y_bus, &y.to_bits_le(l + 1));
                sim.set_bus_bits(&mmmc.n_bus, &n.to_bits_le(l));
                sim.set(mmmc.start, true);
                sim.step();
                sim.set(mmmc.start, false);
                let mut got = None;
                for _ in 0..(4 * l + 64) {
                    sim.settle();
                    if sim.get(mmmc.done) {
                        got = Some(Ubig::from_bits_le(&sim.get_bus_bits(&mmmc.result)));
                        break;
                    }
                    sim.step();
                }
                if got != Some(want) {
                    caught = true;
                    break 'outer;
                }
            }
        }
        println!(
            "gate {gi}: {}",
            if caught {
                "detected"
            } else {
                "REDUNDANT (undetectable for this N)"
            }
        );
    }
}

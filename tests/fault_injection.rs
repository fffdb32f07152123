//! Failure injection: the verification infrastructure must actually be
//! able to *fail*. These tests mutate netlists and check that the
//! equivalence/structural checks catch every injected fault — guarding
//! against a test suite that silently passes everything.

use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::{mont_mul_alg2, MontgomeryParams};
use montgomery_systolic::hdl::netlist::GateKind;
use montgomery_systolic::hdl::{CarryStyle, Netlist, Simulator};
use montgomery_systolic::systolic::Mmmc;
use montgomery_systolic::Ubig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one multiplication on a (possibly mutated) MMMC netlist.
fn run_mutated(mmmc: &Mmmc, netlist: &Netlist, x: &Ubig, y: &Ubig, n: &Ubig) -> Option<Ubig> {
    let l = mmmc.l;
    let mut sim = Simulator::new(netlist).ok()?;
    sim.set_bus_bits(&mmmc.x_bus, &x.to_bits_le(l + 1));
    sim.set_bus_bits(&mmmc.y_bus, &y.to_bits_le(l + 1));
    sim.set_bus_bits(&mmmc.n_bus, &n.to_bits_le(l));
    sim.set(mmmc.start, true);
    sim.step();
    sim.set(mmmc.start, false);
    for _ in 0..(4 * l + 64) {
        sim.settle();
        if sim.get(mmmc.done) {
            return Some(Ubig::from_bits_le(&sim.get_bus_bits(&mmmc.result)));
        }
        sim.step();
    }
    None
}

#[test]
fn gate_kind_faults_are_detected() {
    // Flip each of a sample of array gates from XOR->OR (a classic
    // wiring mistake); the multiplication result must change for at
    // least one operand pair — i.e. our oracle has teeth.
    //
    // Deterministic on purpose: the modulus is the largest
    // hardware-safe value at l=6 (N=43) and the stimulus is a fixed
    // operand grid, so the detection count cannot drift with the RNG
    // stream backing `random_safe_params`.
    let l = 6;
    let n = MontgomeryParams::max_safe_modulus(l);
    let params = MontgomeryParams::new(&n, l);
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);

    // Grid of corner and spread operands (all < 2N = 86), crossed with
    // itself: boundary values exercise the carry chains hardest.
    let two_n = params.two_n().to_u64().unwrap();
    let pool: Vec<u64> = [0, 1, 2, 3, 5, 21, 27, 42, 43, 44, 63, 64, 73, 84, 85]
        .into_iter()
        .filter(|&v| v < two_n)
        .collect();
    let cases: Vec<(Ubig, Ubig)> = pool
        .iter()
        .flat_map(|&x| pool.iter().map(move |&y| (Ubig::from(x), Ubig::from(y))))
        .collect();

    let xor_gates: Vec<usize> = mmmc
        .netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind == GateKind::Xor)
        .map(|(i, _)| i)
        .collect();
    assert!(xor_gates.len() > 10, "expect plenty of XORs");

    let mut detected = 0;
    let mut injected = 0;
    for &gi in xor_gates.iter().step_by(3) {
        let mut mutated = mmmc.netlist.clone();
        mutated.gates_mut()[gi].kind = GateKind::Or;
        injected += 1;
        let caught = cases.iter().any(|(x, y)| {
            let want = mont_mul_alg2(&params, x, y);
            match run_mutated(&mmmc, &mutated, x, y, params.n()) {
                Some(got) => got != want,
                None => true, // circuit hung: also detected
            }
        });
        if caught {
            detected += 1;
        }
    }
    // XOR->OR differs only on the (1,1) input pattern, and for a few
    // gates that pattern is unreachable in correct operation — most
    // notably the leftmost cell's t_{l+1} XOR, where carry ∧ c1_in is
    // exactly the overflow condition hardware-safe moduli exclude.
    // Exhaustive operand enumeration (`mmm-bench --bin faultprobe`)
    // shows a small number of these faults are *redundant* at this
    // modulus: allow three misses out of the sampled eleven.
    assert!(
        detected + 3 >= injected,
        "only {detected}/{injected} injected faults detected"
    );
}

#[test]
fn stuck_at_zero_on_carry_wire_detected() {
    let mut rng = StdRng::seed_from_u64(8);
    let l = 6;
    let params = random_safe_params(&mut rng, l);
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);

    // Stuck-at-0: redirect the D input of each carry register to the
    // constant zero signal.
    let mut any_detected = false;
    for ff_idx in 0..mmmc.netlist.dffs().len() {
        let mut mutated = mmmc.netlist.clone();
        let zero = mutated.zero();
        mutated.dffs_mut()[ff_idx].d = Some(zero);
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        let want = mont_mul_alg2(&params, &x, &y);
        let got = run_mutated(&mmmc, &mutated, &x, &y, params.n());
        if got != Some(want) {
            any_detected = true;
            break;
        }
    }
    assert!(any_detected, "stuck-at faults must be detectable");
}

#[test]
fn combinational_loop_rejected_not_simulated() {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let g1 = nl.and2(a, a);
    let g2 = nl.or2(g1, a);
    // Back edge: g1's second input becomes g2 — a genuine loop.
    nl.gates_mut()[0].inputs[1] = g2;
    assert!(Simulator::new(&nl).is_err(), "loops must be rejected");
}

#[test]
#[should_panic(expected = "unconnected")]
fn unconnected_flip_flop_rejected() {
    let mut nl = Netlist::new();
    let _orphan = nl.dff_placeholder(false);
    let _ = Simulator::new(&nl); // lint failure panics
}

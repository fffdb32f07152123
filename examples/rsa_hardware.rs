//! RSA on the simulated hardware (§4.5 of the paper): generate a key,
//! encrypt on the *gate-level* exponentiator, decrypt in software, and
//! report the cycle budget next to the paper's cost model.
//!
//! ```sh
//! cargo run --release --example rsa_hardware
//! ```

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::cost;
use montgomery_systolic::core::expo::ModExp;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::hdl::CarryStyle;
use montgomery_systolic::rsa::RsaKeyPair;
use montgomery_systolic::systolic::mmmc::GateEngine;
use montgomery_systolic::systolic::Mmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2003);

    // A deliberately small key so the gate-level simulation stays
    // snappy; swap 40 for 512+ with the wave engine for real sizes.
    let key = RsaKeyPair::generate(&mut rng, 40, 16);
    println!("N = {} ({} bits), E = {}", key.n, key.bits(), key.e);

    let params = MontgomeryParams::hardware_safe(&key.n);
    let l = params.l();
    let mmmc = Mmmc::build(l, CarryStyle::XorMux);
    println!(
        "MMMC elaborated at l = {l} ({} gates)",
        mmmc.netlist.gates().len()
    );

    let message = Ubig::from(123_456_789u64);
    println!("message   = {message}");

    // Encrypt: M^E mod N entirely on the simulated circuit.
    let mut enc = ModExp::new(GateEngine::new(&mmmc, params.clone()));
    let ciphertext = enc.modexp(&message, &key.e);
    let stats = enc.stats();
    let cycles = enc.consumed_cycles().expect("gate engine counts cycles");
    println!("ciphertext = {ciphertext}");
    println!(
        "encryption: {} squarings + {} multiplies + 2 domain transforms = {} Montgomery ops, {cycles} cycles",
        stats.squarings, stats.multiplications, stats.total_mont_muls
    );
    println!(
        "paper cost model for this exponent: {} cycles (pre {} + muls + post {})",
        cost::modexp_cycles_for_exponent(l, &key.e),
        cost::precompute_cycles(l),
        cost::postprocess_cycles(l)
    );

    // Decrypt two ways: gate-level exponentiator and software CRT.
    let mut dec = ModExp::new(GateEngine::new(&mmmc, params.clone()));
    let plain_hw = dec.modexp(&ciphertext, &key.d);
    let plain_crt = montgomery_systolic::rsa::decrypt_crt(&key, &ciphertext);
    println!("decrypted (hardware) = {plain_hw}");
    println!("decrypted (CRT)      = {plain_crt}");
    assert_eq!(plain_hw, message);
    assert_eq!(plain_crt, message);
    println!("round-trip OK ✓");
}

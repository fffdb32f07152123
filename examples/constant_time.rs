//! Side-channel demonstration — the paper's §5 closes by noting that
//! its reduction-free design removes "reduction steps that are presumed
//! to be vulnerable to side-channel attacks". This example makes the
//! timing channel *visible* with the cycle-accurate engine, then closes
//! it:
//!
//! 1. Algorithm 3 (double-and-add / square-and-multiply) consumes
//!    cycles proportional to the scalar's Hamming weight → the cycle
//!    counter is a timing oracle for the secret.
//! 2. The Montgomery ladder performs the same work for every
//!    equal-length scalar → the oracle goes silent.
//!
//! ```sh
//! cargo run --release --example constant_time
//! ```

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::ecc::{Curve, FieldCtx};
use montgomery_systolic::systolic::wave::WaveMmmc;

fn main() {
    let p = Ubig::from(40487u64);
    let params = MontgomeryParams::hardware_safe(&p);
    let mut f = FieldCtx::new(WaveMmmc::new(params));
    let curve = Curve::new(&mut f, &Ubig::from(2u64), &Ubig::from(3u64));
    let g = (1u64..)
        .find_map(|x| curve.lift_x(&mut f, &Ubig::from(x)))
        .expect("curve has points");

    // Three 16-bit scalars with Hamming weights 1, 8, 16.
    let scalars = [
        ("sparse (HW 1) ", Ubig::from(0x8000u64)),
        ("medium (HW 8) ", Ubig::from(0xAAAAu64)),
        ("dense  (HW 16)", Ubig::from(0xFFFFu64)),
    ];

    println!("double-and-add (Algorithm 3 style) — cycles leak the Hamming weight:");
    let mut da_counts = Vec::new();
    for (name, k) in &scalars {
        let before = f.consumed_cycles().unwrap();
        let _ = curve.scalar_mul(&mut f, k, &g);
        let used = f.consumed_cycles().unwrap() - before;
        println!("  k = {name}: {used:>7} cycles");
        da_counts.push(used);
    }
    assert!(da_counts[0] < da_counts[1] && da_counts[1] < da_counts[2]);

    println!("Montgomery ladder — identical cycles for every same-length scalar:");
    let mut ladder_counts = Vec::new();
    for (name, k) in &scalars {
        let before = f.consumed_cycles().unwrap();
        let _ = curve.scalar_mul_ladder(&mut f, k, &g);
        let used = f.consumed_cycles().unwrap() - before;
        println!("  k = {name}: {used:>7} cycles");
        ladder_counts.push(used);
    }
    assert_eq!(ladder_counts[0], ladder_counts[1]);
    assert_eq!(ladder_counts[1], ladder_counts[2]);

    println!(
        "\nladder overhead vs double-and-add on the dense scalar: {:.0}%",
        (ladder_counts[2] as f64 / da_counts[2] as f64 - 1.0) * 100.0
    );
    println!("the timing oracle is closed ✓");
}

//! Batch-engine host throughput comparison, emitting
//! `BENCH_batch.json` (the historical two-column series) and
//! `BENCH_radix.json` (the radix-2⁶⁴ and radix-2⁵² backend columns).
//!
//! Measures, at l ∈ {256, 512, 1024}:
//!
//! * 64 sequential multiplications on the packed wave model
//!   (`PackedMmmc`, the fastest solo bit-serial engine),
//! * one 64-lane bit-sliced batch (`BitSlicedBatch`),
//! * one 64-lane radix-2⁶⁴ CIOS batch (`CiosBatch`, the scalar-word
//!   production backend), and
//! * one 64-lane radix-2⁵² carry-save batch (`Cios52Batch`) on the
//!   strongest kernel this host supports (portable / avx2 / ifma —
//!   the detected set and the active choice are printed as a
//!   `features:` line and recorded in the JSON, so results always say
//!   which kernel actually ran),
//!
//! and reports multiplications per second plus the speedups. The
//! engines are verified bit-identical on the measured operands before
//! any timing. Run with
//! `cargo run --release -p mmm-bench --bin compare_batch`
//! (`-- --quick` shrinks the widths and budget to a CI smoke run and
//! skips the JSON).

use mmm_bench::hosttime::time_ns_per_call;
use mmm_bigint::Ubig;
use mmm_core::batch::{BitSlicedBatch, MAX_LANES};
use mmm_core::cios::CiosBatch;
use mmm_core::cios52::{Cios52Batch, Cios52Kernel};
use mmm_core::config::HardeningMode;
use mmm_core::modgen::{random_operand, random_safe_params};
use mmm_core::traits::{BatchMontMul, MontMul};
use mmm_systolic::wave_packed::PackedMmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Row {
    l: usize,
    seq_ns_per_mul: f64,
    batch_ns_per_mul: f64,
    cios_ns_per_mul: f64,
    cios52_ns_per_mul: f64,
    speedup: f64,
    cios_speedup: f64,
    cios52_speedup_vs_cios: f64,
    /// Hardened (constant-time canonicalizing) re-measurements of the
    /// same three batch engines — the per-backend hardening tax
    /// DESIGN.md §12 quotes.
    batch_hardened_ns_per_mul: f64,
    cios_hardened_ns_per_mul: f64,
    cios52_hardened_ns_per_mul: f64,
}

impl Row {
    fn tax_pct(plain: f64, hardened: f64) -> f64 {
        (hardened / plain - 1.0) * 100.0
    }
}

/// The `--features`-style host line: which radix-2⁵² kernels the CPU
/// supports and which one the engines below actually run.
fn features_line() -> String {
    let names: Vec<&str> = Cios52Kernel::available().iter().map(|k| k.name()).collect();
    format!(
        "features: cios52 kernels = [{}], active = {}",
        names.join(", "),
        Cios52Kernel::active().name()
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sizes, budget_ms): (&[usize], u64) = if quick {
        (&[64, 128], 150)
    } else {
        (&[256, 512, 1024], 1500)
    };
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut rows = Vec::new();

    println!("batch engines vs sequential packed wave model ({MAX_LANES} lanes)");
    println!("{}", features_line());
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>16} {:>9} {:>9} {:>9}",
        "l",
        "seq ns/mul",
        "batch ns/mul",
        "cios ns/mul",
        "cios52 ns/mul",
        "batch x",
        "cios x",
        "c52 x"
    );
    for &l in sizes {
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| random_operand(&mut rng, &params))
            .collect();
        let ys: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| random_operand(&mut rng, &params))
            .collect();

        let mut packed = PackedMmmc::new(params.clone());
        let mut batch = BitSlicedBatch::new(params.clone());
        let mut cios = CiosBatch::new(params.clone());
        let mut cios52 = Cios52Batch::new(params.clone());

        // Correctness gate: all engines (and, for the radix-2⁵² scan,
        // *every* available kernel, not just the one about to be
        // timed) bit-identical on the exact operands to be measured.
        {
            let want = batch.mont_mul_batch(&xs, &ys);
            assert_eq!(cios.mont_mul_batch(&xs, &ys), want, "cios oracle l={l}");
            for &kernel in Cios52Kernel::available() {
                let mut e = Cios52Batch::with_kernel(params.clone(), kernel);
                assert_eq!(
                    e.mont_mul_batch(&xs, &ys),
                    want,
                    "cios52/{} oracle l={l}",
                    kernel.name()
                );
            }
            for k in 0..MAX_LANES {
                assert_eq!(packed.mont_mul(&xs[k], &ys[k]), want[k], "packed lane {k}");
            }
        }

        let seq_ns = time_ns_per_call(budget_ms, || {
            for (x, y) in xs.iter().zip(&ys) {
                black_box(packed.mont_mul(black_box(x), black_box(y)));
            }
        }) / MAX_LANES as f64;

        let batch_ns = time_ns_per_call(budget_ms, || {
            black_box(batch.mont_mul_batch(black_box(&xs), black_box(&ys)));
        }) / MAX_LANES as f64;

        let cios_ns = time_ns_per_call(budget_ms, || {
            black_box(cios.mont_mul_batch(black_box(&xs), black_box(&ys)));
        }) / MAX_LANES as f64;

        let cios52_ns = time_ns_per_call(budget_ms, || {
            black_box(cios52.mont_mul_batch(black_box(&xs), black_box(&ys)));
        }) / MAX_LANES as f64;

        // Hardened re-measurement: same engines, same operands, with
        // the branchless canonicalizing subtraction enabled. Gate the
        // outputs first — hardened must equal the plain result reduced
        // to the canonical residue.
        for e in [&mut batch as &mut dyn BatchMontMul, &mut cios, &mut cios52] {
            e.set_hardening(HardeningMode::Hardened);
        }
        {
            let want = batch.mont_mul_batch(&xs, &ys);
            for (k, w) in want.iter().enumerate() {
                assert!(w < params.n(), "hardened output canonical, lane {k} l={l}");
            }
            assert_eq!(cios.mont_mul_batch(&xs, &ys), want, "hardened cios l={l}");
            assert_eq!(
                cios52.mont_mul_batch(&xs, &ys),
                want,
                "hardened cios52 l={l}"
            );
        }
        let batch_h_ns = time_ns_per_call(budget_ms, || {
            black_box(batch.mont_mul_batch(black_box(&xs), black_box(&ys)));
        }) / MAX_LANES as f64;
        let cios_h_ns = time_ns_per_call(budget_ms, || {
            black_box(cios.mont_mul_batch(black_box(&xs), black_box(&ys)));
        }) / MAX_LANES as f64;
        let cios52_h_ns = time_ns_per_call(budget_ms, || {
            black_box(cios52.mont_mul_batch(black_box(&xs), black_box(&ys)));
        }) / MAX_LANES as f64;

        let speedup = seq_ns / batch_ns;
        let cios_speedup = batch_ns / cios_ns;
        let cios52_speedup_vs_cios = cios_ns / cios52_ns;
        println!(
            "{l:>6} {seq_ns:>16.1} {batch_ns:>16.1} {cios_ns:>16.1} {cios52_ns:>16.1} {speedup:>8.2}x {cios_speedup:>8.2}x {cios52_speedup_vs_cios:>8.2}x"
        );
        println!(
            "{:>6} hardened tax: bitsliced {:+.1}%, cios {:+.1}%, cios52 {:+.1}%",
            "",
            Row::tax_pct(batch_ns, batch_h_ns),
            Row::tax_pct(cios_ns, cios_h_ns),
            Row::tax_pct(cios52_ns, cios52_h_ns)
        );
        rows.push(Row {
            l,
            seq_ns_per_mul: seq_ns,
            batch_ns_per_mul: batch_ns,
            cios_ns_per_mul: cios_ns,
            cios52_ns_per_mul: cios52_ns,
            speedup,
            cios_speedup,
            cios52_speedup_vs_cios,
            batch_hardened_ns_per_mul: batch_h_ns,
            cios_hardened_ns_per_mul: cios_h_ns,
            cios52_hardened_ns_per_mul: cios52_h_ns,
        });
    }

    if quick {
        println!("\nquick mode: smoke run only, BENCH JSON not written");
        return;
    }

    // Hand-rolled JSON (no serde in the sanctioned dependency set).
    // BENCH_batch.json keeps the historical schema; BENCH_radix.json
    // carries the radix-2^64 and radix-2^52 columns plus the kernel
    // that produced the cios52 numbers.
    let mut json = String::from("{\n  \"bench\": \"batch_vs_sequential_packed\",\n");
    json.push_str(&format!("  \"lanes\": {MAX_LANES},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"l\": {}, \"seq_ns_per_mul\": {:.1}, \"batch_ns_per_mul\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.l,
            r.seq_ns_per_mul,
            r.batch_ns_per_mul,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");

    let mut json = String::from("{\n  \"bench\": \"radix_backends_vs_bit_sliced\",\n");
    json.push_str(&format!("  \"lanes\": {MAX_LANES},\n"));
    json.push_str(&format!(
        "  \"cios52_kernel\": \"{}\",\n  \"cios52_kernels_available\": [{}],\n",
        Cios52Kernel::active().name(),
        Cios52Kernel::available()
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"l\": {}, \"bitsliced_ns_per_mul\": {:.1}, \"cios_ns_per_mul\": {:.1}, \"cios52_ns_per_mul\": {:.1}, \"cios_speedup_vs_bitsliced\": {:.2}, \"cios_speedup_vs_sequential_packed\": {:.2}, \"cios52_speedup_vs_cios\": {:.2}, \"bitsliced_hardened_ns_per_mul\": {:.1}, \"cios_hardened_ns_per_mul\": {:.1}, \"cios52_hardened_ns_per_mul\": {:.1}, \"bitsliced_hardened_tax_pct\": {:.1}, \"cios_hardened_tax_pct\": {:.1}, \"cios52_hardened_tax_pct\": {:.1}}}{}\n",
            r.l,
            r.batch_ns_per_mul,
            r.cios_ns_per_mul,
            r.cios52_ns_per_mul,
            r.cios_speedup,
            r.seq_ns_per_mul / r.cios_ns_per_mul,
            r.cios52_speedup_vs_cios,
            r.batch_hardened_ns_per_mul,
            r.cios_hardened_ns_per_mul,
            r.cios52_hardened_ns_per_mul,
            Row::tax_pct(r.batch_ns_per_mul, r.batch_hardened_ns_per_mul),
            Row::tax_pct(r.cios_ns_per_mul, r.cios_hardened_ns_per_mul),
            Row::tax_pct(r.cios52_ns_per_mul, r.cios52_hardened_ns_per_mul),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_radix.json", &json).expect("write BENCH_radix.json");
    println!("\nwrote BENCH_batch.json and BENCH_radix.json");
}

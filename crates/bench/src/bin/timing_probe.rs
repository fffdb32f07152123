//! Dudect-style timing-variance probe for the hardened engine paths
//! (DESIGN.md §12): fixed-vs-random secret classes, randomly
//! interleaved, compared with Welch's t-test (top-decile cropped).
//!
//! Runs each probe (digit selection, and final subtraction at 1 and 64
//! lanes on the radix-2⁶⁴ engine and at 64 lanes on the radix-2⁵²
//! engine's active kernel) in both [`HardeningMode::Off`] and
//! [`HardeningMode::Hardened`] and prints
//! `|t|` next to the 4.5 dudect threshold. The Off rows are
//! *informative* — they demonstrate the harness can see the
//! skip-on-zero-digit leak it exists to detect; the Hardened rows are
//! the claim under test. Exit code is non-zero only if a t-statistic
//! comes out non-finite (a broken harness), or — with
//! `MMM_TIMING_GATE=1` — if a Hardened row breaches the threshold;
//! plain runs never gate on the noisy Off rows.
//!
//! Run with `cargo run --release -p mmm-bench --bin timing_probe`
//! (`-- --quick` shrinks the sample count to a CI smoke run).

use mmm_bench::timing::{
    probe_digit_selection, probe_final_subtraction, HardeningMode, TimingReport,
    FINAL_SUBTRACTION_PATHS, T_THRESHOLD,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let gate = std::env::var("MMM_TIMING_GATE").as_deref() == Ok("1");
    let n_per_class = if quick { 60 } else { 400 };

    println!("dudect-style timing probes: Welch |t| vs threshold {T_THRESHOLD}");
    println!("samples/class = {n_per_class} (top decile cropped per class)\n");
    println!(
        "{:<28} {:>9} {:>10} {:>14} {:>14}  verdict",
        "probe", "mode", "|t|", "fixed ns", "random ns"
    );

    let mut broken = false;
    let mut hardened_leaks = Vec::new();
    type Probe = Box<dyn Fn(HardeningMode, usize) -> TimingReport>;
    let mut probes: Vec<(String, Probe)> =
        vec![("digit-selection".into(), Box::new(probe_digit_selection))];
    for (kind, lanes) in FINAL_SUBTRACTION_PATHS {
        probes.push((
            format!("final-subtraction/{}/{lanes}", kind.name()),
            Box::new(move |mode, n| probe_final_subtraction(mode, kind, lanes, n)),
        ));
    }
    for (name, probe) in probes {
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let r = probe(mode, n_per_class);
            let mode_s = if mode.is_hardened() {
                "hardened"
            } else {
                "off"
            };
            let verdict = if !r.t.is_finite() {
                broken = true;
                "BROKEN (non-finite t)"
            } else if r.passes() {
                "no leak detected"
            } else if mode.is_hardened() {
                hardened_leaks.push(format!("{name}: |t| = {:.1}", r.t.abs()));
                "LEAK"
            } else {
                "leak (expected unhardened)"
            };
            println!(
                "{name:<28} {mode_s:>9} {:>10.2} {:>14.0} {:>14.0}  {verdict}",
                r.t.abs(),
                r.mean_fixed_ns,
                r.mean_random_ns
            );
        }
    }

    if broken {
        eprintln!("\nerror: non-finite t-statistic — harness is broken");
        std::process::exit(1);
    }
    if gate && !hardened_leaks.is_empty() {
        eprintln!("\nerror: hardened probes breached |t| < {T_THRESHOLD}:");
        for leak in &hardened_leaks {
            eprintln!("  {leak}");
        }
        std::process::exit(1);
    }
    println!(
        "\nnote: |t| < {T_THRESHOLD} means no leak *detected* at this sample size, not a proof \
         of constant time; see EXPERIMENTS.md for the methodology."
    );
}

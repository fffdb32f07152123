//! Timing-variance harness smoke and (opt-in) leakage gate.
//!
//! Default mode keeps CI deterministic: run both dudect-style probes
//! (`mmm_bench::timing`; final subtraction on every path of
//! `FINAL_SUBTRACTION_PATHS`) in both hardening modes at a small sample
//! count and assert only that the harness produces *finite*
//! t-statistics — timing verdicts on shared CI hardware are noisy, so
//! the strict `|t| < 4.5` gate on the hardened rows is opt-in via
//! `MMM_TIMING_GATE=1` (run it on quiet hardware with `--release`;
//! EXPERIMENTS.md documents the methodology and the noise caveats).

use mmm_bench::timing::{
    probe_digit_selection, probe_final_subtraction, HardeningMode, TimingReport,
    FINAL_SUBTRACTION_PATHS, T_THRESHOLD,
};

fn gate_enabled() -> bool {
    std::env::var("MMM_TIMING_GATE").as_deref() == Ok("1")
}

fn run_probe(
    name: &str,
    probe: impl Fn(HardeningMode, usize) -> TimingReport,
    mode: HardeningMode,
) -> TimingReport {
    // The gate needs real statistical power; the smoke run only needs
    // to exercise every code path (including cropping, which wants
    // ≥ 10 samples per class).
    let n_per_class = if gate_enabled() { 60 } else { 12 };
    let r = probe(mode, n_per_class);
    assert!(
        r.t.is_finite(),
        "{name} ({mode:?}): non-finite t — broken harness"
    );
    assert!(r.mean_fixed_ns > 0.0 && r.mean_random_ns > 0.0, "{name}");
    assert_eq!(r.samples_per_class, n_per_class);
    r
}

#[test]
fn digit_selection_probe_is_finite_and_gates_hardened() {
    run_probe("digit-selection", probe_digit_selection, HardeningMode::Off);
    let hardened = run_probe(
        "digit-selection",
        probe_digit_selection,
        HardeningMode::Hardened,
    );
    if gate_enabled() {
        assert!(
            hardened.passes(),
            "hardened digit selection leaks: |t| = {:.2} >= {T_THRESHOLD}",
            hardened.t.abs()
        );
    }
}

/// One lane reaches the radix-2⁶⁴ engine's per-lane path, 64 lanes its
/// SoA kernel, and 64 lanes on the radix-2⁵² engine its active kernel's
/// vector region: all three hardened subtractions are gated.
#[test]
fn final_subtraction_probe_is_finite_and_gates_hardened() {
    for (kind, lanes) in FINAL_SUBTRACTION_PATHS {
        let name = format!("final-subtraction/{}/{lanes}", kind.name());
        let probe = |mode, n| probe_final_subtraction(mode, kind, lanes, n);
        run_probe(&name, probe, HardeningMode::Off);
        let hardened = run_probe(&name, probe, HardeningMode::Hardened);
        if gate_enabled() {
            assert!(
                hardened.passes(),
                "hardened {name} leaks: |t| = {:.2} >= {T_THRESHOLD}",
                hardened.t.abs()
            );
        }
    }
}

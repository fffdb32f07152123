//! Dudect-style timing-variance harness for the hardened engine paths
//! (DESIGN.md §12, EXPERIMENTS.md "timing methodology").
//!
//! The methodology is leakage *detection*, not proof: run the same
//! operation over two input classes — **fixed** (a worst-case secret,
//! e.g. an all-ones exponent) and **random** (fresh secrets per
//! sample) — in a randomly interleaved order, and compare the two
//! timing populations with **Welch's t-test**. If execution time is
//! independent of the secret, the populations are statistically
//! indistinguishable and `|t|` stays small; a `|t|` beyond
//! [`T_THRESHOLD`] (the conventional dudect cut-off, ≈ 4.5 σ) is
//! evidence of secret-dependent timing. Interleaving matters: it
//! spreads frequency scaling, cache warm-up, and scheduler drift
//! evenly over both classes instead of letting them masquerade as a
//! class difference.
//!
//! The timer is [`std::time::Instant`] (CLOCK_MONOTONIC), not a raw
//! cycle counter: the workspace forbids `unsafe`, `_rdtsc` needs it,
//! and every sample times tens of microseconds of work — three orders
//! of magnitude above the ~20 ns clock_gettime resolution, so the
//! cheaper counter buys nothing here (EXPERIMENTS.md discusses the
//! trade-off). The top decile of each class is cropped before the
//! test, dudect's standard guard against scheduler-preemption
//! outliers dominating the variance.
//!
//! Two probes ship with the harness, matching the two hardened
//! mechanisms: [`probe_digit_selection`] (exponent-dependent scan
//! time: skip-on-zero-digit vs the hardened multiply-always sweep)
//! and [`probe_final_subtraction`] (operand-dependent reduction time
//! in the hardened branchless canonicalization), the latter on each
//! path of [`final_subtraction_paths`]: both of the radix-2⁶⁴ engine's
//! subtraction paths, and the radix-2⁵² engine's wide call on every
//! kernel the host has, whose range check and subtraction run inside
//! that kernel's vector region. `timing_probe` runs them from the
//! command line;
//! `tests/timing_variance.rs` gates on them under `MMM_TIMING_GATE=1`.

use mmm_bigint::Ubig;
use mmm_core::cios::{CiosBatch, MAX_LANES};
pub use mmm_core::config::HardeningMode;
use mmm_core::expo_batch::BatchModExp;
use mmm_core::modgen::random_safe_params;
use mmm_core::montgomery::mont_mul_alg2;
use mmm_core::traits::BatchMontMul;
use mmm_core::{AnyBatchEngine, Cios52Batch, Cios52Kernel, MontgomeryParams};
use mmm_core::{ScalarSet, WindowPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The dudect convention: `|t|` at or beyond 4.5 standard deviations
/// is treated as detected secret-dependent timing. Below it the test
/// is *inconclusive at this sample size* — absence of evidence, not
/// proof of constant time.
pub const T_THRESHOLD: f64 = 4.5;

/// One engine path [`probe_final_subtraction`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtractionPath {
    /// The radix-2⁶⁴ engine at this many lanes: one lane takes its
    /// per-lane path (`cond_sub_lane` on each lane), 64 lanes its SoA
    /// kernel (`cond_sub_rows` across the lane rows).
    Cios(usize),
    /// A 64-lane call on the radix-2⁵² engine pinned to this kernel:
    /// its vector region (range check, conversions, scan and
    /// `cond_sub_rows` compiled for the kernel's ISA).
    Cios52(Cios52Kernel),
}

impl SubtractionPath {
    /// The probe's row name, `final-subtraction/<backend>/<lanes>`,
    /// with the kernel after the radix-2⁵² backend's name.
    pub fn name(self) -> String {
        match self {
            SubtractionPath::Cios(lanes) => format!("final-subtraction/cios/{lanes}"),
            SubtractionPath::Cios52(k) => format!("final-subtraction/cios52-{}/64", k.name()),
        }
    }

    fn lanes(self) -> usize {
        match self {
            SubtractionPath::Cios(lanes) => lanes,
            SubtractionPath::Cios52(_) => MAX_LANES,
        }
    }

    fn build(self, params: MontgomeryParams) -> AnyBatchEngine {
        match self {
            SubtractionPath::Cios(_) => AnyBatchEngine::Cios(CiosBatch::new(params)),
            SubtractionPath::Cios52(k) => {
                AnyBatchEngine::Cios52(Cios52Batch::with_kernel(params, k))
            }
        }
    }
}

/// Every path [`probe_final_subtraction`] runs on this host: the
/// radix-2⁶⁴ engine at 1 and 64 lanes, then the radix-2⁵² engine at 64
/// lanes on each available kernel, weakest first.
pub fn final_subtraction_paths() -> Vec<SubtractionPath> {
    let mut paths = vec![SubtractionPath::Cios(1), SubtractionPath::Cios(MAX_LANES)];
    paths.extend(
        Cios52Kernel::available()
            .iter()
            .map(|&k| SubtractionPath::Cios52(k)),
    );
    paths
}

/// Which input population a sample was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The pinned worst-case secret, identical every sample.
    Fixed,
    /// A fresh random secret per sample.
    Random,
}

/// Streaming two-class moment accumulator for Welch's t.
#[derive(Debug, Default, Clone)]
pub struct Welch {
    n: [f64; 2],
    mean: [f64; 2],
    m2: [f64; 2],
}

impl Welch {
    /// Folds one timing sample (nanoseconds) into its class
    /// (Welford's online mean/variance update).
    pub fn push(&mut self, class: Class, x: f64) {
        let i = match class {
            Class::Fixed => 0,
            Class::Random => 1,
        };
        self.n[i] += 1.0;
        let d = x - self.mean[i];
        self.mean[i] += d / self.n[i];
        self.m2[i] += d * (x - self.mean[i]);
    }

    /// Samples accumulated for `class`.
    pub fn len(&self, class: Class) -> usize {
        self.n[matches!(class, Class::Random) as usize] as usize
    }

    /// True when no samples have been pushed at all.
    pub fn is_empty(&self) -> bool {
        self.n[0] + self.n[1] == 0.0
    }

    /// Mean nanoseconds for `class` (0.0 when empty).
    pub fn mean(&self, class: Class) -> f64 {
        self.mean[matches!(class, Class::Random) as usize]
    }

    /// Welch's t-statistic between the two classes:
    /// `(μ₀−μ₁)/√(s₀²/n₀ + s₁²/n₁)`. Returns 0.0 when either class
    /// has fewer than two samples, and the classes are deemed
    /// indistinguishable (0.0) when both variances vanish while the
    /// means agree; identical-mean zero-variance data is genuinely
    /// leak-free, not an error.
    pub fn t_stat(&self) -> f64 {
        if self.n[0] < 2.0 || self.n[1] < 2.0 {
            return 0.0;
        }
        let v0 = self.m2[0] / (self.n[0] - 1.0);
        let v1 = self.m2[1] / (self.n[1] - 1.0);
        let denom = (v0 / self.n[0] + v1 / self.n[1]).sqrt();
        if denom == 0.0 {
            return if self.mean[0] == self.mean[1] {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.mean[0] - self.mean[1]) / denom
    }
}

/// One probe's verdict: the cropped t-statistic plus the per-class
/// populations that produced it.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Welch's t after per-class top-decile cropping.
    pub t: f64,
    /// Mean ns per call, fixed class (after cropping).
    pub mean_fixed_ns: f64,
    /// Mean ns per call, random class (after cropping).
    pub mean_random_ns: f64,
    /// Samples per class (before cropping).
    pub samples_per_class: usize,
}

impl TimingReport {
    /// True when the cropped `|t|` stays under [`T_THRESHOLD`] — no
    /// leak *detected* at this sample size.
    pub fn passes(&self) -> bool {
        self.t.is_finite() && self.t.abs() < T_THRESHOLD
    }
}

/// Runs `op` over `n_per_class` samples of each class in a randomly
/// interleaved schedule; input construction (`make`) is untimed, only
/// `op` on the constructed input is inside the timing window. Between
/// the two, `op` runs once untimed on `neutral`, an input of neither
/// class that is the same every sample: the two classes build their
/// inputs differently (clones of one value against fresh draws), and
/// without that call a fast `op` times the tail of its own class's
/// construction. Returns the raw samples for cropping/accumulation.
pub fn sample_interleaved<I>(
    n_per_class: usize,
    rng: &mut StdRng,
    neutral: &I,
    mut make: impl FnMut(Class, &mut StdRng) -> I,
    mut op: impl FnMut(&I),
) -> Vec<(Class, f64)> {
    // Random interleaving (not strict alternation): per-sample class
    // is an independent coin flip over a schedule that still ends
    // with exactly n_per_class of each, so slow environmental drift
    // cannot correlate with class.
    let mut schedule: Vec<Class> = Vec::with_capacity(2 * n_per_class);
    schedule.extend(std::iter::repeat_n(Class::Fixed, n_per_class));
    schedule.extend(std::iter::repeat_n(Class::Random, n_per_class));
    // Fisher–Yates with the caller's rng.
    for i in (1..schedule.len()).rev() {
        let j = rng.gen_range(0, (i + 1) as u64) as usize;
        schedule.swap(i, j);
    }
    let mut samples = Vec::with_capacity(schedule.len());
    for class in schedule {
        let input = make(class, rng);
        op(neutral);
        let start = Instant::now();
        op(&input);
        samples.push((class, start.elapsed().as_nanos() as f64));
    }
    samples
}

/// Folds samples into a [`Welch`] accumulator after dropping the
/// slowest `crop_frac` of each class — dudect's guard against
/// scheduler-preemption outliers. `crop_frac` is clamped to `[0, 0.5)`.
pub fn welch_cropped(samples: &[(Class, f64)], crop_frac: f64) -> Welch {
    let crop_frac = crop_frac.clamp(0.0, 0.49);
    let mut acc = Welch::default();
    for class in [Class::Fixed, Class::Random] {
        let mut xs: Vec<f64> = samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, x)| x)
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let keep = xs.len() - (xs.len() as f64 * crop_frac) as usize;
        for &x in &xs[..keep] {
            acc.push(class, x);
        }
    }
    acc
}

fn report(samples: &[(Class, f64)], n_per_class: usize) -> TimingReport {
    let acc = welch_cropped(samples, 0.10);
    TimingReport {
        t: acc.t_stat(),
        mean_fixed_ns: acc.mean(Class::Fixed),
        mean_random_ns: acc.mean(Class::Random),
        samples_per_class: n_per_class,
    }
}

/// Probe 1 — **digit selection**: the binary (`w = 1`) batched scan
/// on the radix-2⁶⁴ backend, secret = the exponents. Fixed class pins the
/// worst case (all-ones exponents — every digit non-zero); random
/// class draws fresh exponents per sample. Unhardened, the scan's
/// skip-on-zero-digit optimization makes dense exponents measurably
/// slower (informative leak demo); hardened, the multiply-always
/// constant-time sweep should leave the classes indistinguishable.
pub fn probe_digit_selection(mode: HardeningMode, n_per_class: usize) -> TimingReport {
    const L: usize = 128;
    // One lane: the unhardened scan skips a multiplication only when
    // *no* lane has the bit set, so a single lane maximizes the
    // skip-rate contrast between the dense fixed class (no skips) and
    // random exponents (~half skipped) — the leak the harness must be
    // able to see before its hardened verdict means anything.
    const LANES: usize = 1;
    let mut rng = StdRng::seed_from_u64(0xD16E);
    let params = random_safe_params(&mut rng, L);
    let ms: Vec<Ubig> = (0..LANES)
        .map(|_| Ubig::random_below(&mut rng, params.n()))
        .collect();
    // Dense worst case: exponent = 2^L − 1 (every scanned bit set).
    let ones = {
        let mut v = Ubig::one();
        for _ in 0..L {
            v = v.add_ref(&v);
        }
        &v - &Ubig::one()
    };
    let mut engine = CiosBatch::new(params.clone());
    engine.set_hardening(mode);
    let mut me = BatchModExp::new(engine);
    let draw = |rng: &mut StdRng| -> Vec<Ubig> {
        (0..LANES)
            .map(|_| Ubig::random_below(rng, params.n()))
            .collect()
    };
    let neutral = draw(&mut rng);
    let samples = sample_interleaved(
        n_per_class,
        &mut rng,
        &neutral,
        |class, rng| match class {
            Class::Fixed => vec![ones.clone(); LANES],
            Class::Random => draw(rng),
        },
        |es: &Vec<Ubig>| {
            let es = ScalarSet::PerLane(black_box(es));
            black_box(me.try_modexp(black_box(&ms), es, WindowPolicy::Fixed(1)))
                .expect("reduced inputs");
        },
    );
    report(&samples, n_per_class)
}

/// Probe 2 — **final subtraction**: a `mont_mul_batch` on `path`'s
/// engine at its lane count, secret = the operands. Fixed class pins
/// every operand at one full-width value whose Algorithm-2 square is
/// `≥ N`, so the hardened canonicalizing subtraction fires in every
/// lane (`N−1` would not do: for this modulus its square lands below
/// `N`); random class draws fresh operands, where it fires about one
/// time in seven. The hardened subtraction is branchless two-pass
/// (compute `t−N`, select by borrow mask), so whether it "fires" must
/// not be visible in time. `path` picks the engine path under test
/// (see [`final_subtraction_paths`]).
pub fn probe_final_subtraction(
    mode: HardeningMode,
    path: SubtractionPath,
    n_per_class: usize,
) -> TimingReport {
    const L: usize = 512;
    let mut rng = StdRng::seed_from_u64(0xF19A);
    let params = random_safe_params(&mut rng, L);
    // Both classes draw full-width (exactly-l-bit) operands: operand
    // *magnitude* is public here (it fixes the limb count and hence
    // the conversion cost), and letting it vary between classes would
    // flag that public difference as a leak. The secret under test is
    // only whether the canonicalizing subtraction fires.
    let lo = Ubig::pow2(L - 1);
    let fires = loop {
        let v = Ubig::random_range(&mut rng, &lo, params.n());
        if mont_mul_alg2(&params, &v, &v) >= *params.n() {
            break v;
        }
    };
    let mut engine = path.build(params.clone());
    engine.set_hardening(mode);
    let lanes = path.lanes();
    // Every sample times 64 lane-multiplications, whatever the lane
    // count. A single sub-microsecond call sits too close to the
    // sample's own input construction, which the first call after it
    // still feels: one 1-lane call per sample gave |t| of 4–18 with the
    // fixed class 20–30 ns faster even unhardened, where no subtraction
    // exists to leak.
    let reps = MAX_LANES / lanes;
    let mut out = Vec::new();
    let draw = |rng: &mut StdRng| -> Vec<Ubig> {
        (0..lanes)
            .map(|_| Ubig::random_range(rng, &lo, params.n()))
            .collect()
    };
    let neutral = (draw(&mut rng), draw(&mut rng));
    let samples = sample_interleaved(
        n_per_class,
        &mut rng,
        &neutral,
        |class, rng| match class {
            Class::Fixed => (vec![fires.clone(); lanes], vec![fires.clone(); lanes]),
            Class::Random => (draw(rng), draw(rng)),
        },
        |(xs, ys): &(Vec<Ubig>, Vec<Ubig>)| {
            for _ in 0..reps {
                engine.mont_mul_batch_into(black_box(xs), black_box(ys), &mut out);
                black_box(&out);
            }
        },
    );
    report(&samples, n_per_class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_t_flags_shifted_populations_and_clears_identical_ones() {
        let mut same = Welch::default();
        let mut shifted = Welch::default();
        for i in 0..200 {
            let noise = (i % 7) as f64;
            same.push(Class::Fixed, 100.0 + noise);
            same.push(Class::Random, 100.0 + ((i + 3) % 7) as f64);
            shifted.push(Class::Fixed, 100.0 + noise);
            shifted.push(Class::Random, 140.0 + noise);
        }
        assert!(same.t_stat().abs() < T_THRESHOLD, "t={}", same.t_stat());
        assert!(
            shifted.t_stat().abs() > T_THRESHOLD,
            "t={}",
            shifted.t_stat()
        );
    }

    #[test]
    fn zero_variance_identical_means_is_leak_free_not_nan() {
        let mut acc = Welch::default();
        for _ in 0..10 {
            acc.push(Class::Fixed, 50.0);
            acc.push(Class::Random, 50.0);
        }
        assert_eq!(acc.t_stat(), 0.0);
        let mut split = Welch::default();
        for _ in 0..10 {
            split.push(Class::Fixed, 50.0);
            split.push(Class::Random, 60.0);
        }
        assert!(split.t_stat().is_infinite());
    }

    #[test]
    fn cropping_discards_the_slow_tail_per_class() {
        let mut samples = Vec::new();
        for i in 0..100 {
            samples.push((Class::Fixed, 100.0));
            // One simulated preemption spike per class.
            samples.push((Class::Random, if i == 50 { 100_000.0 } else { 100.0 }));
        }
        let acc = welch_cropped(&samples, 0.10);
        assert!(acc.mean(Class::Random) < 200.0, "spike must be cropped");
        assert_eq!(acc.len(Class::Fixed), 90);
    }

    #[test]
    fn schedule_is_balanced_and_interleaved() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut calls = Vec::new();
        let samples = sample_interleaved(50, &mut rng, &None, |c, _| Some(c), |c| calls.push(*c));
        assert_eq!(samples.len(), 100);
        // Every timed call follows one untimed call on the neutral input.
        let timed = samples.iter().map(|&(c, _)| Some(c));
        let expect: Vec<Option<Class>> = timed.flat_map(|c| [None, c]).collect();
        assert_eq!(calls, expect);
        let fixed = samples.iter().filter(|(c, _)| *c == Class::Fixed).count();
        assert_eq!(fixed, 50);
        // Not strictly alternating and not two blocks: the shuffle ran.
        let first_half_fixed = samples[..50]
            .iter()
            .filter(|(c, _)| *c == Class::Fixed)
            .count();
        assert!(first_half_fixed > 5 && first_half_fixed < 45);
    }

    #[test]
    fn probes_produce_finite_reports_in_miniature() {
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let r = probe_digit_selection(mode, 8);
            assert!(r.t.is_finite(), "digit-selection t finite ({mode:?})");
            for path in final_subtraction_paths() {
                let r = probe_final_subtraction(mode, path, 8);
                assert!(r.t.is_finite(), "{} t finite ({mode:?})", path.name());
            }
        }
    }
}

//! Serving-path comparison: full-width multiply-always batch
//! decryption (PR 1's schedule, now the `w = 1` scan) versus the
//! windowed full-width scan versus windowed batched **CRT**
//! decryption, at 64 lanes. Emits `BENCH_crt_window.json`.
//!
//! For each RSA key size it measures, per operation (one full
//! decryption of one lane):
//!
//! * `full_always` — one 64-lane batch on a full-width engine,
//!   square-and-multiply-always: [`BatchModExp::try_modexp`] at
//!   [`WindowPolicy::Fixed`]`(1)` (the PR 1 baseline);
//! * `full_window` — same engine, fixed-window scan at the
//!   cost-model-picked width (isolates the windowing win);
//! * `crt_window` — [`KeyedSession::decrypt_crt`]: two half-width
//!   windowed batch exponentiations recombined with Garner per lane
//!   (the full serving path, pool-backed).
//!
//! **Backend note.** The `always`/`window` columns pin the bit-sliced
//! engine (they are the PR 1/PR 2 bit-serial baselines), while
//! `crt_window` runs the **process-default dispatch backend** — the
//! radix-2⁶⁴ CIOS scan since PR 3 — so its speedup column includes
//! the multiplier change, not just CRT + windowing. The JSON records
//! which backend the crt column ran (`crt_backend`); set
//! `MMM_ENGINE=bitsliced` to reproduce the historical bit-serial CRT
//! rows (~4.7× at 1024-bit keys).
//!
//! It also measures generic batched modexp with **per-lane** random
//! exponents (the mixed-traffic shape), multiply-always vs windowed —
//! the clean windowing comparison. With one shared exponent the
//! multiply-always scan already skips every bit that is 0 in `d`
//! (all lanes agree), so the decrypt rows understate the window win;
//! with per-lane exponents no bit position is ever all-clear and the
//! schedules differ purely by the window width.
//!
//! Every path is verified lane-for-lane against the big-integer
//! oracle before timing. Run with
//! `cargo run --release -p mmm-bench --bin compare_crt_window`
//! (`-- --quick` shrinks the sizes to a CI smoke run and skips the
//! JSON).

use mmm_bench::hosttime::time_ns_per_call;
use mmm_bigint::Ubig;
use mmm_core::batch::{BitSlicedBatch, MAX_LANES};
use mmm_core::cios52::Cios52Kernel;
use mmm_core::expo_window::best_fixed_window;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::{BatchModExp, EngineConfig, EngineKind, ScalarSet, WindowPolicy};
use mmm_rsa::{KeyedSession, RsaKeyPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Algorithm 3's square-and-multiply-always scan.
const ALWAYS: WindowPolicy = WindowPolicy::Fixed(1);

/// One `ms[k] ^ es[k]` batch on `me` with per-lane exponents, its
/// inputs hidden from the optimizer for timing.
fn modexp(
    me: &mut BatchModExp<BitSlicedBatch>,
    ms: &[Ubig],
    es: &[Ubig],
    window: WindowPolicy,
) -> Vec<Ubig> {
    me.try_modexp(black_box(ms), ScalarSet::PerLane(black_box(es)), window)
        .expect("reduced inputs, valid window")
}

struct Row {
    bits: usize,
    window: usize,
    full_always_ns: f64,
    full_window_ns: f64,
    crt_window_ns: f64,
    modexp_always_ns: f64,
    modexp_window_ns: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sizes, budget_ms): (&[usize], u64) = if quick {
        (&[64, 128], 200)
    } else {
        (&[256, 512, 1024], 1500)
    };
    let mut rng = StdRng::seed_from_u64(0xC27);
    let mut rows = Vec::new();

    println!(
        "CRT + windowed batch decryption vs PR 1 full-width multiply-always ({MAX_LANES} lanes; crt column on the {} backend)",
        EngineKind::default_kind().name()
    );
    println!(
        "features: cios52 kernels = [{}], active = {}",
        Cios52Kernel::available()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", "),
        Cios52Kernel::active().name()
    );
    println!(
        "{:>6} {:>3} {:>16} {:>16} {:>16} {:>10} {:>10} {:>10}",
        "bits",
        "w",
        "always ns/op",
        "window ns/op",
        "crt ns/op",
        "win spdup",
        "crt spdup",
        "mx spdup"
    );

    for &bits in sizes {
        let key = RsaKeyPair::generate(&mut rng, bits, 12);
        let params = MontgomeryParams::hardware_safe(&key.n);
        let ms: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| Ubig::random_below(&mut rng, &key.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
        let ds = vec![key.d.clone(); MAX_LANES];
        let window = best_fixed_window(key.d.bit_len());
        let fixed = WindowPolicy::Fixed(window);
        let sessions: Vec<KeyedSession> = EngineKind::ALL
            .iter()
            .map(|&kind| {
                KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind))
                    .expect("pooled parameters suit every backend")
            })
            .collect();
        let crt = sessions
            .iter()
            .find(|s| s.backend() == EngineKind::default_kind())
            .expect("the default kind is one of EngineKind::ALL");

        let mut engine_always = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        let mut engine_window = BatchModExp::new(BitSlicedBatch::new(params.clone()));

        // Correctness gate: all three paths bit-identical to the
        // scalar oracle before any timing — and the session entry
        // points on **every** engine kind, so a CI smoke run catches
        // engine-selection regressions, not just the default engine's
        // arithmetic.
        assert_eq!(
            modexp(&mut engine_always, &cs, &ds, ALWAYS),
            ms,
            "multiply-always oracle"
        );
        assert_eq!(
            modexp(&mut engine_window, &cs, &ds, fixed),
            ms,
            "windowed oracle"
        );
        // Signatures must agree bit-for-bit across *every* backend
        // (swept, not a hardcoded pair, so the next EngineKind
        // addition is gated automatically).
        let sig_want: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.d, &key.n)).collect();
        for session in &sessions {
            let kind = session.backend().name();
            assert_eq!(
                session.decrypt_crt(&cs).unwrap(),
                ms,
                "CRT dispatch oracle ({kind})"
            );
            assert_eq!(
                session.sign(&ms).unwrap(),
                sig_want,
                "sign dispatch cross-backend ({kind})"
            );
        }

        let full_always_ns = time_ns_per_call(budget_ms, || {
            black_box(modexp(&mut engine_always, &cs, &ds, ALWAYS));
        }) / MAX_LANES as f64;
        let full_window_ns = time_ns_per_call(budget_ms, || {
            black_box(modexp(&mut engine_window, &cs, &ds, fixed));
        }) / MAX_LANES as f64;

        let crt_window_ns = time_ns_per_call(budget_ms, || {
            black_box(crt.decrypt_crt(black_box(&cs)).unwrap());
        }) / MAX_LANES as f64;

        // Mixed traffic: per-lane random full-length exponents.
        let es: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| {
                let mut e = Ubig::random_bits(&mut rng, bits);
                e.set_bit(bits - 1, true);
                e
            })
            .collect();
        let mut modexp_always = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        let mut modexp_window = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        assert_eq!(
            modexp(&mut modexp_window, &ms, &es, fixed),
            modexp(&mut modexp_always, &ms, &es, ALWAYS),
            "mixed-traffic oracle"
        );
        let modexp_always_ns = time_ns_per_call(budget_ms, || {
            black_box(modexp(&mut modexp_always, &ms, &es, ALWAYS));
        }) / MAX_LANES as f64;
        let modexp_window_ns = time_ns_per_call(budget_ms, || {
            black_box(modexp(&mut modexp_window, &ms, &es, fixed));
        }) / MAX_LANES as f64;

        println!(
            "{bits:>6} {window:>3} {full_always_ns:>16.0} {full_window_ns:>16.0} {crt_window_ns:>16.0} {:>9.2}x {:>9.2}x {:>9.2}x",
            full_always_ns / full_window_ns,
            full_always_ns / crt_window_ns,
            modexp_always_ns / modexp_window_ns,
        );
        rows.push(Row {
            bits,
            window,
            full_always_ns,
            full_window_ns,
            crt_window_ns,
            modexp_always_ns,
            modexp_window_ns,
        });
    }

    if quick {
        println!("\nquick mode: smoke run only, BENCH_crt_window.json not written");
        return;
    }

    // Hand-rolled JSON (no serde in the sanctioned dependency set).
    let mut json = String::from("{\n  \"bench\": \"crt_window_vs_full_multiply_always\",\n");
    json.push_str(&format!(
        "  \"lanes\": {MAX_LANES},\n  \"crt_backend\": \"{}\",\n  \"cios52_kernel\": \"{}\",\n  \"rows\": [\n",
        EngineKind::default_kind().name(),
        Cios52Kernel::active().name()
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"l\": {}, \"window\": {}, \"full_always_ns_per_op\": {:.0}, \"full_window_ns_per_op\": {:.0}, \"crt_window_ns_per_op\": {:.0}, \"modexp_always_ns_per_op\": {:.0}, \"modexp_window_ns_per_op\": {:.0}, \"window_speedup\": {:.2}, \"crt_speedup\": {:.2}, \"modexp_window_speedup\": {:.2}}}{}\n",
            r.bits,
            r.window,
            r.full_always_ns,
            r.full_window_ns,
            r.crt_window_ns,
            r.modexp_always_ns,
            r.modexp_window_ns,
            r.full_always_ns / r.full_window_ns,
            r.full_always_ns / r.crt_window_ns,
            r.modexp_always_ns / r.modexp_window_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_crt_window.json", &json).expect("write BENCH_crt_window.json");
    println!("\nwrote BENCH_crt_window.json");
}

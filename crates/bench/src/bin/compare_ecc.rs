//! Batched vs solo elliptic-curve scalar multiplication, emitting
//! `BENCH_ecc.json`.
//!
//! Measures, on P-256 with full-width random scalars:
//!
//! * one 256-bit scalar multiplication through the existing solo path
//!   (`Curve::scalar_mul` over a [`FieldCtx`] on the Algorithm-2
//!   software reference engine), and
//! * one 64-lane batched fixed-window scalar multiplication
//!   ([`BatchCurve::scalar_mul`] on the windowed-scan core) on every
//!   backend in [`EngineKind::ALL`],
//!
//! and reports ns per scalar multiplication plus the per-op batched
//! speedup. Before any timing the 64 batch lanes are verified
//! bit-identical to the solo oracle on the exact scalars to be
//! measured.
//!
//! It also times ECDSA verify's `[u1]G + [u2]Q` over 64 lanes on every
//! backend two ways: as two scans plus an add, and as the joint scan
//! ([`BatchCurve::joint_scalar_mul`], generator table at one lane).
//! The two are asserted lane-for-lane identical first. The run
//! **fails** (non-zero exit) if the default backend
//! does not reach the ≥ 8× per-op speedup the roadmap gates on. Run
//! with `cargo run --release -p mmm-bench --bin compare_ecc`
//! (`-- --quick` shrinks scalars and budget to a CI smoke run and
//! skips the JSON).

use mmm_bench::hosttime::time_ns_per_call;
use mmm_bigint::Ubig;
use mmm_core::batch::MAX_LANES;
use mmm_core::cios52::Cios52Kernel;
use mmm_core::engine::EngineKind;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::traits::SoftwareEngine;
use mmm_ecc::batch_curve::{BatchCurve, PointLanes};
use mmm_ecc::batch_field::BatchFieldCtx;
use mmm_ecc::curve::Curve;
use mmm_ecc::curves::p256;
use mmm_ecc::field::FieldCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The per-op speedup the default backend must reach at 256 bits.
const SPEEDUP_GATE: f64 = 8.0;

struct Row {
    backend: &'static str,
    kernel: &'static str,
    batch_ns_per_op: f64,
    speedup_vs_solo: f64,
    /// One 64-lane `[u1]G + [u2]Q` as two scans plus an add.
    two_scans_ms: f64,
    /// The same through the joint scan.
    joint_ms: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scalar_bits, budget_ms): (usize, u64) = if quick { (64, 100) } else { (256, 1500) };

    let spec = p256();
    let mut rng = StdRng::seed_from_u64(0xECC0);
    let mut scalars = || -> Vec<Ubig> {
        (0..MAX_LANES)
            .map(|_| {
                let k = Ubig::random_bits(&mut rng, scalar_bits).rem(&spec.order);
                if k.is_zero() {
                    Ubig::one()
                } else {
                    k
                }
            })
            .collect()
    };
    let ks = scalars();
    // Verify's scalars; Q[k] = [ks[k]]G stands in for the public keys.
    let (u1, u2) = (scalars(), scalars());

    let params = MontgomeryParams::hardware_safe(&spec.p);

    // Solo path: the Algorithm-2 software reference engine under the
    // pre-existing double-and-add `Curve::scalar_mul`.
    let mut sf = FieldCtx::new(SoftwareEngine::new(params.clone()));
    let solo_curve = Curve::new(&mut sf, &spec.a, &spec.b);
    let solo_g = solo_curve.point(&mut sf, &spec.gx, &spec.gy);
    let solo_affine: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .map(|k| {
            let p = solo_curve.scalar_mul(&mut sf, k, &solo_g);
            solo_curve.to_affine(&mut sf, &p)
        })
        .collect();

    let solo_ns = time_ns_per_call(budget_ms, || {
        black_box(solo_curve.scalar_mul(&mut sf, black_box(&ks[0]), black_box(&solo_g)));
    });

    println!(
        "batched {MAX_LANES}-lane vs solo scalar multiplication, {} ({scalar_bits}-bit scalars)",
        spec.name
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
        "{:>10} {:>10} {:>18} {:>18} {:>9}",
        "backend", "kernel", "solo ns/op", "batch ns/op", "speedup"
    );

    let default_backend = EngineKind::default_kind().name();
    let mut rows = Vec::new();
    for kind in EngineKind::ALL {
        let mut f = BatchFieldCtx::new(kind.build(params.clone()));
        let curve = BatchCurve::new(&mut f, &spec.a, &spec.b);
        let g = {
            let xm = f.to_mont(std::slice::from_ref(&spec.gx));
            let ym = f.to_mont(std::slice::from_ref(&spec.gy));
            let om = f.to_mont(std::slice::from_ref(&Ubig::one()));
            mmm_ecc::curve::Point {
                x: xm[0].clone(),
                y: ym[0].clone(),
                z: om[0].clone(),
            }
        };
        let base = PointLanes::splat(&g, MAX_LANES);

        // Correctness gate: every lane bit-identical to the solo
        // oracle on the exact scalars about to be timed.
        let got = curve.scalar_mul(&mut f, &ks, &base, None);
        assert_eq!(
            curve.to_affine(&mut f, &got),
            solo_affine,
            "batch lanes vs solo oracle, backend={}",
            kind.name()
        );

        let batch_ns = time_ns_per_call(budget_ms, || {
            black_box(curve.scalar_mul(&mut f, black_box(&ks), black_box(&base), None));
        }) / MAX_LANES as f64;

        // [u1]G + [u2]Q both ways, identical lane for lane before any
        // timing.
        let q = got;
        let g1 = PointLanes::splat(&g, 1);
        let two_scans = |f: &mut BatchFieldCtx<_>| {
            let r1 = curve.scalar_mul(f, &u1, &base, None);
            let r2 = curve.scalar_mul(f, &u2, &q, None);
            curve.add(f, &r1, &r2)
        };
        let sum = two_scans(&mut f);
        let joint = curve.joint_scalar_mul(&mut f, &u1, &g1, &u2, &q, None);
        assert_eq!(
            curve.to_affine(&mut f, &joint),
            curve.to_affine(&mut f, &sum),
            "joint scan vs two scans plus an add, backend={}",
            kind.name()
        );
        let two_scans_ms = time_ns_per_call(budget_ms, || {
            black_box(two_scans(&mut f));
        }) / 1e6;
        let joint_ms = time_ns_per_call(budget_ms, || {
            black_box(curve.joint_scalar_mul(&mut f, &u1, &g1, &u2, &q, None));
        }) / 1e6;

        let kernel = match kind {
            EngineKind::Cios52 => Cios52Kernel::active().name(),
            _ => "-",
        };
        let speedup = solo_ns / batch_ns;
        println!(
            "{:>10} {:>10} {:>18.0} {:>18.0} {:>8.2}x",
            kind.name(),
            kernel,
            solo_ns,
            batch_ns,
            speedup
        );
        rows.push(Row {
            backend: kind.name(),
            kernel,
            batch_ns_per_op: batch_ns,
            speedup_vs_solo: speedup,
            two_scans_ms,
            joint_ms,
        });
    }

    println!(
        "\n{MAX_LANES}-lane [u1]G + [u2]Q\n{:>10} {:>10} {:>16} {:>16} {:>9}",
        "backend", "kernel", "two scans ms", "joint scan ms", "speedup"
    );
    for r in &rows {
        println!(
            "{:>10} {:>10} {:>16.2} {:>16.2} {:>8.2}x",
            r.backend,
            r.kernel,
            r.two_scans_ms,
            r.joint_ms,
            r.two_scans_ms / r.joint_ms
        );
    }

    let default_row = rows
        .iter()
        .find(|r| r.backend == default_backend)
        .expect("default backend measured");
    if quick {
        println!(
            "\nquick mode: smoke run only ({scalar_bits}-bit scalars), gate not applied, BENCH JSON not written"
        );
        return;
    }

    // Hand-rolled JSON (no serde in the sanctioned dependency set).
    let mut json = String::from("{\n  \"bench\": \"ecc_batch_vs_solo_scalar_mul\",\n");
    json.push_str(&format!(
        "  \"curve\": \"{}\",\n  \"scalar_bits\": {scalar_bits},\n  \"lanes\": {MAX_LANES},\n",
        spec.name
    ));
    json.push_str(&format!(
        "  \"default_backend\": \"{default_backend}\",\n  \"solo_ns_per_op\": {solo_ns:.0},\n"
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"kernel\": \"{}\", \"batch_ns_per_op\": {:.0}, \"speedup_vs_solo\": {:.2}}}{}\n",
            r.backend,
            r.kernel,
            r.batch_ns_per_op,
            r.speedup_vs_solo,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"verify_rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"kernel\": \"{}\", \"two_scans_ms\": {:.2}, \"joint_ms\": {:.2}, \"joint_speedup\": {:.2}}}{}\n",
            r.backend,
            r.kernel,
            r.two_scans_ms,
            r.joint_ms,
            r.two_scans_ms / r.joint_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_ecc.json", &json).expect("write BENCH_ecc.json");
    println!("\nwrote BENCH_ecc.json");

    assert!(
        default_row.speedup_vs_solo >= SPEEDUP_GATE,
        "default backend ({default_backend}) reached only {:.2}x per-op speedup; the roadmap gates on >= {SPEEDUP_GATE}x",
        default_row.speedup_vs_solo
    );
    println!(
        "gate: {default_backend} {:.2}x >= {SPEEDUP_GATE}x per-op — pass",
        default_row.speedup_vs_solo
    );
}

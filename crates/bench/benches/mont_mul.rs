//! Criterion bench: one Montgomery multiplication across every engine
//! fidelity level (Table-2 companion — host-side throughput of the
//! simulators themselves, complementing the modelled FPGA times).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmm_bigint::WordMontgomery;
use mmm_core::modgen::{random_operand, random_safe_params};
use mmm_core::montgomery::{mont_mul_alg1, mont_mul_alg2};
use mmm_core::traits::MontMul;
use mmm_hdl::CarryStyle;
use mmm_systolic::mmmc::GateEngine;
use mmm_systolic::wave::WaveMmmc;
use mmm_systolic::wave_packed::PackedMmmc;
use mmm_systolic::Mmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("mont_mul");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for l in [32usize, 64, 128] {
        let params = random_safe_params(&mut rng, l);
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);

        group.bench_with_input(BenchmarkId::new("alg2_software", l), &l, |b, _| {
            b.iter(|| mont_mul_alg2(&params, black_box(&x), black_box(&y)))
        });

        let xr = x.rem(params.n());
        let yr = y.rem(params.n());
        group.bench_with_input(BenchmarkId::new("alg1_software", l), &l, |b, _| {
            b.iter(|| mont_mul_alg1(&params, black_box(&xr), black_box(&yr)))
        });

        let ctx = WordMontgomery::new(params.n());
        group.bench_with_input(BenchmarkId::new("word_cios", l), &l, |b, _| {
            b.iter(|| ctx.mont_mul(black_box(&xr), black_box(&yr)))
        });

        let mut wave = WaveMmmc::new(params.clone());
        group.bench_with_input(BenchmarkId::new("wave_model", l), &l, |b, _| {
            b.iter(|| wave.mont_mul(black_box(&x), black_box(&y)))
        });

        let mut packed = PackedMmmc::new(params.clone());
        group.bench_with_input(BenchmarkId::new("packed_wave", l), &l, |b, _| {
            b.iter(|| packed.mont_mul(black_box(&x), black_box(&y)))
        });

        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        let mut gate = GateEngine::new(&mmmc, params.clone());
        group.bench_with_input(BenchmarkId::new("gate_level", l), &l, |b, _| {
            b.iter(|| gate.mont_mul(black_box(&x), black_box(&y)))
        });
    }

    // Software reference at the paper's largest width.
    for l in [512usize, 1024] {
        let params = random_safe_params(&mut rng, l);
        let x = random_operand(&mut rng, &params);
        let y = random_operand(&mut rng, &params);
        group.bench_with_input(BenchmarkId::new("alg2_software", l), &l, |b, _| {
            b.iter(|| mont_mul_alg2(&params, black_box(&x), black_box(&y)))
        });
        let mut wave = WaveMmmc::new(params.clone());
        group.bench_with_input(BenchmarkId::new("wave_model", l), &l, |b, _| {
            b.iter(|| wave.mont_mul(black_box(&x), black_box(&y)))
        });
        let mut packed = PackedMmmc::new(params.clone());
        group.bench_with_input(BenchmarkId::new("packed_wave", l), &l, |b, _| {
            b.iter(|| packed.mont_mul(black_box(&x), black_box(&y)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);

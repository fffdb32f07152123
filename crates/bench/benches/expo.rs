//! Criterion bench: full modular exponentiations (Table-1 companion)
//! and the baseline comparison at the exponentiation level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmm_baselines::blum_paar::{bp_modexp, BlumPaarEngine};
use mmm_bench::table1::balanced_exponent;
use mmm_bigint::Ubig;
use mmm_core::expo::ModExp;
use mmm_core::modgen::random_safe_params;
use mmm_core::traits::SoftwareEngine;
use mmm_systolic::wave::WaveMmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_expo(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("modexp");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for l in [64usize, 256] {
        let params = random_safe_params(&mut rng, l);
        let m = Ubig::random_below(&mut rng, params.n());
        let e = balanced_exponent(&mut rng, l);

        group.bench_with_input(BenchmarkId::new("software_alg2", l), &l, |b, _| {
            b.iter(|| {
                let mut me = ModExp::new(SoftwareEngine::new(params.clone()));
                me.modexp(black_box(&m), black_box(&e))
            })
        });

        group.bench_with_input(BenchmarkId::new("bigint_modpow", l), &l, |b, _| {
            b.iter(|| black_box(&m).modpow(black_box(&e), params.n()))
        });

        group.bench_with_input(BenchmarkId::new("blum_paar", l), &l, |b, _| {
            b.iter(|| {
                let mut engine = BlumPaarEngine::new(params.clone());
                bp_modexp(&mut engine, black_box(&m), black_box(&e))
            })
        });
    }

    // Cycle-accurate wave engine: the expensive one, small width only.
    {
        let l = 32;
        let params = random_safe_params(&mut rng, l);
        let m = Ubig::random_below(&mut rng, params.n());
        let e = balanced_exponent(&mut rng, l);
        group.bench_with_input(BenchmarkId::new("wave_engine", l), &l, |b, _| {
            b.iter(|| {
                let mut me = ModExp::new(WaveMmmc::new(params.clone()));
                me.modexp(black_box(&m), black_box(&e))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expo);
criterion_main!(benches);

//! Criterion bench: batch throughput. One 64-lane bit-sliced batch
//! step against 64 sequential `PackedMmmc` multiplications at the
//! paper's large widths — the measurement behind the batch engine's
//! multiplications-per-second claim (`Throughput::Elements(64)` makes
//! criterion report both in elem/s directly).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmm_bigint::Ubig;
use mmm_core::batch::{BitSlicedBatch, MAX_LANES};
use mmm_core::modgen::{random_operand, random_safe_params};
use mmm_core::traits::{BatchMontMul, MontMul};
use mmm_systolic::wave_packed::PackedMmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_throughput(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for l in [256usize, 512, 1024] {
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| random_operand(&mut rng, &params))
            .collect();
        let ys: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| random_operand(&mut rng, &params))
            .collect();
        group.throughput(Throughput::Elements(MAX_LANES as u64));

        let mut packed = PackedMmmc::new(params.clone());
        group.bench_with_input(BenchmarkId::new("sequential_packed_x64", l), &l, |b, _| {
            b.iter(|| {
                for (x, y) in xs.iter().zip(&ys) {
                    black_box(packed.mont_mul(black_box(x), black_box(y)));
                }
            })
        });

        let mut batch = BitSlicedBatch::new(params.clone());
        group.bench_with_input(BenchmarkId::new("bit_sliced_batch_64", l), &l, |b, _| {
            b.iter(|| black_box(batch.mont_mul_batch(black_box(&xs), black_box(&ys))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);

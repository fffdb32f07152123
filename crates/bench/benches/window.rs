//! Criterion bench: `window_sweep` — the fixed-window batched
//! exponentiation scan across window widths `w ∈ {1, 2, 4, 5, 6}`,
//! where `w = 1` is the multiply-always baseline, 64 lanes of 256-bit
//! exponents (`Throughput::Elements(64)` reports lane-exponentiations
//! per second).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmm_bigint::Ubig;
use mmm_core::batch::{BitSlicedBatch, MAX_LANES};
use mmm_core::modgen::random_safe_params;
use mmm_core::{BatchModExp, ScalarSet, WindowPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_window_sweep(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let l = 256usize;
    let params = random_safe_params(&mut rng, l);
    let ms: Vec<Ubig> = (0..MAX_LANES)
        .map(|_| Ubig::random_below(&mut rng, params.n()))
        .collect();
    let mut es: Vec<Ubig> = (0..MAX_LANES)
        .map(|_| Ubig::random_bits(&mut rng, l))
        .collect();
    es[0].set_bit(l - 1, true); // pin the batch's exponent length

    let mut group = c.benchmark_group("window_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(MAX_LANES as u64));

    for w in [1usize, 2, 4, 5, 6] {
        let mut windowed = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        group.bench_with_input(BenchmarkId::new("fixed_window", w), &w, |b, &w| {
            b.iter(|| {
                let es = ScalarSet::PerLane(black_box(&es));
                black_box(windowed.try_modexp(black_box(&ms), es, WindowPolicy::Fixed(w)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_sweep);
criterion_main!(benches);

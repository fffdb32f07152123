//! Criterion bench: the HDL substrate itself — netlist construction,
//! simulation throughput (gate evaluations/second), technology mapping
//! and timing analysis. These are the costs a downstream user of the
//! simulator pays, orthogonal to the modelled FPGA numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmm_fpga::lut::map_luts;
use mmm_hdl::{CarryStyle, Simulator, UnitDelay};
use mmm_systolic::array::SystolicArray;
use mmm_systolic::Mmmc;
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdl");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for l in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("build_mmmc", l), &l, |b, &l| {
            b.iter(|| Mmmc::build(black_box(l), CarryStyle::XorMux))
        });

        let arr = SystolicArray::build(l, CarryStyle::XorMux);
        let gates = arr.netlist.gates().len() as u64;
        group.throughput(Throughput::Elements(gates));
        group.bench_with_input(BenchmarkId::new("sim_cycle", l), &l, |b, _| {
            let mut sim = Simulator::new(&arr.netlist).unwrap();
            b.iter(|| {
                sim.step();
                black_box(sim.cycles())
            })
        });
        group.throughput(Throughput::Elements(1));

        let mmmc = Mmmc::build(l, CarryStyle::XorMux);
        group.bench_with_input(BenchmarkId::new("map_luts", l), &l, |b, _| {
            b.iter(|| map_luts(black_box(&mmmc.netlist)))
        });
        group.bench_with_input(BenchmarkId::new("critical_path", l), &l, |b, _| {
            b.iter(|| mmm_hdl::timing::critical_path(black_box(&mmmc.netlist), &UnitDelay))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);

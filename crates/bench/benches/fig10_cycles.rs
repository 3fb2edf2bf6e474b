//! Figure 10: effect of cycles in the mapping graph on the cost and size of
//! the computed fixpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orchestra_bench::build_loaded;
use orchestra_workload::DatasetKind;

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_cycles");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for cycles in 0..=3usize {
        let mut g = build_loaded(5, 50, DatasetKind::Integers, cycles, 53);
        group.bench_with_input(BenchmarkId::new("pipelined", cycles), &cycles, |b, _| {
            b.iter(|| g.cdss.recompute_all().unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);

//! Figure 6: initial computed instance size. The size numbers themselves are
//! reported by the `experiments` binary; this bench times the statistics
//! collection plus the instance computation it measures them on, so the
//! figure's full pipeline is exercised under `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orchestra_bench::build_loaded;
use orchestra_workload::DatasetKind;

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_instance_size");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for peers in [2usize, 5, 10] {
        let g = build_loaded(peers, 80, DatasetKind::Integers, 0, 31);
        group.bench_with_input(BenchmarkId::new("collect_stats", peers), &peers, |b, _| {
            b.iter(|| {
                let stats = g.cdss.instance_stats();
                criterion::black_box((stats.total_tuples, stats.total_bytes))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);

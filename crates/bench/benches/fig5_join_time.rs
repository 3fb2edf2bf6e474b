//! Figure 5: time for a peer joining the system — the initial full
//! computation of all instances — for both datasets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orchestra_bench::build_loaded;
use orchestra_workload::DatasetKind;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_join_time");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for peers in [2usize, 5] {
        for dataset in [DatasetKind::Integers, DatasetKind::Strings] {
            let base = match dataset {
                DatasetKind::Integers => 80,
                DatasetKind::Strings => 30,
            };
            let mut g = build_loaded(peers, base, dataset, 0, 23);
            group.bench_with_input(
                BenchmarkId::new(format!("{}-pipelined", dataset.label()), peers),
                &peers,
                |b, _| {
                    // recompute_all clears and rebuilds all derived
                    // relations, so repeated iterations measure the same
                    // work as a fresh join.
                    b.iter(|| g.cdss.recompute_all().unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);

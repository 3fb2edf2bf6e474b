//! Figure 9: incremental deletion scalability, for both datasets and both
//! update sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orchestra_bench::build_loaded;
use orchestra_workload::DatasetKind;

fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_deletions");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for dataset in [DatasetKind::Integers, DatasetKind::Strings] {
        let base = match dataset {
            DatasetKind::Integers => 80,
            DatasetKind::Strings => 30,
        };
        for peers in [2usize, 5] {
            for pct in [0.01f64, 0.1] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{}-{}%", dataset.label(), pct * 100.0), peers),
                    &peers,
                    |b, &peers| {
                        b.iter_batched(
                            || {
                                let mut g = build_loaded(peers, base, dataset, 0, 43);
                                let batch = g.deletion_batch(g.entries_for_ratio(pct));
                                (g, batch)
                            },
                            |(mut g, batch)| g.cdss.apply_deletions_incremental(&batch).unwrap(),
                            criterion::BatchSize::LargeInput,
                        );
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);

//! Figure 8: incremental insertion scalability on the integer (small-tuple)
//! dataset, for both update sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orchestra_bench::build_loaded;
use orchestra_workload::DatasetKind;

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_insertions_integer");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for peers in [2usize, 5] {
        for pct in [0.01f64, 0.1] {
            group.bench_with_input(
                BenchmarkId::new(format!("pipelined-{}%", pct * 100.0), peers),
                &peers,
                |b, &peers| {
                    b.iter_batched(
                        || {
                            let mut g = build_loaded(peers, 60, DatasetKind::Integers, 0, 41);
                            let batch = g.fresh_insertions(g.entries_for_ratio(pct));
                            (g, batch)
                        },
                        |(mut g, batch)| g.cdss.apply_insertions_incremental(&batch).unwrap(),
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);

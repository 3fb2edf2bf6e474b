//! Figure 4: deletion strategies — the provenance-guided incremental
//! algorithm vs DRed vs complete recomputation, as the fraction of deleted
//! base data grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orchestra_bench::build_loaded;
use orchestra_workload::DatasetKind;

const BASE: usize = 40;
const PEERS: usize = 5;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_deletion_strategies");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for ratio in [0.1f64, 0.5, 0.9] {
        for strategy in ["incremental", "dred", "recompute"] {
            group.bench_with_input(
                BenchmarkId::new(strategy, format!("{:.0}%", ratio * 100.0)),
                &(ratio, strategy),
                |b, &(ratio, strategy)| {
                    b.iter_batched(
                        || {
                            let mut g = build_loaded(PEERS, BASE, DatasetKind::Integers, 0, 11);
                            let count = g.entries_for_ratio(ratio);
                            let batch = g.deletion_batch(count);
                            (g, batch)
                        },
                        |(mut g, batch)| match strategy {
                            "incremental" => {
                                g.cdss.apply_deletions_incremental(&batch).unwrap();
                            }
                            "dred" => {
                                g.cdss.apply_deletions_dred(&batch).unwrap();
                            }
                            _ => {
                                g.cdss.apply_deletions_incremental(&batch).unwrap();
                                g.cdss.recompute_all().unwrap();
                            }
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);

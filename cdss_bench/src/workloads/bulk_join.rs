//! `bulk_join`: the "a peer joins" regime. After the base load every
//! derived relation is recomputed from base data several times over a
//! 10-peer topology with two cycles; each recomputation is followed by
//! point reads of hot keys at the last peer.

use std::time::Instant;

use orchestra_workload::DatasetKind;

use super::{digest, point_read, ReadTarget, Recorder, RunOptions};
use crate::inputs::{Inputs, Shape, Zipf};

/// Recomputations per round.
const RECOMPUTES: usize = 12;
/// Point reads after each recomputation.
const READS: usize = 20;

pub fn run(rec: &mut Recorder, opts: &RunOptions) -> u32 {
    let shape = Shape {
        peers: 10,
        base: opts.sized(1000, 20),
        cycles: 2,
        dataset: DatasetKind::Integers,
    };
    let recomputes = if opts.smoke { 2 } else { RECOMPUTES };
    let mut inputs = Inputs::new(shape, opts.seed);
    let zipf = Zipf::new(shape.base);

    while rec.more_rounds(opts) {
        let setup = Instant::now();
        let mut system = inputs.fresh_system();
        let base = inputs.load_base(&system.peers, &mut system.cdss);
        let reader = system.cdss.snapshot_reader();
        // Read keys of the last peer's own entries: only those have every
        // attribute, so only those are certain answers.
        let last = shape.peers - 1;
        let target = ReadTarget::first_relation(&system.peers[last]);
        rec.setup_s.push(setup.elapsed().as_secs_f64());

        // The oracle: what the base load maintained incrementally must
        // encode to the same bytes as every recomputation from base data.
        let incremental = digest(rec, system.cdss.database(), "bench.oracle");

        rec.window_open();
        let published_before = system.cdss.snapshots_published();
        for _ in 0..recomputes {
            rec.begin_step();
            let (keys, _) = rec.tracer.timed("workload.gen", || {
                (0..READS)
                    .map(|_| {
                        let key = base[last][zipf.sample(&mut inputs.rng)].key;
                        inputs.note_key(key);
                        key
                    })
                    .collect::<Vec<i64>>()
            });

            let span = rec.tracer.open("bench.step");
            let (report, mut ns) = rec
                .tracer
                .timed("core.exchange", || system.cdss.recompute_all());
            rec.exchange_sample(ns);
            rec.check(report.is_ok(), || {
                format!("recompute_all: {:?}", report.as_ref().err())
            });
            if let Ok(report) = report {
                rec.ops += report.total_inserted() as u64;
                rec.absorb_reports(&[report]);
            }
            for key in keys {
                ns += point_read(rec, &reader, &target, key);
            }
            rec.tracer.close(span);
            rec.spent(ns);
        }
        rec.add(
            "snapshot.epochs_published",
            (system.cdss.snapshots_published() - published_before) as f64,
        );
        rec.window_close(&[]);
        rec.storage_stats(&system.cdss);

        let recomputed = digest(rec, system.cdss.database(), "bench.oracle");
        rec.check(recomputed == incremental, || {
            "oracle: recompute_all() differs from the incrementally loaded state".to_string()
        });
        rec.end_round();
    }
    inputs.fingerprint.value()
}

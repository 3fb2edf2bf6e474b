//! `insert_stream`: one peer after another inserts a small batch of fresh
//! string entries and exchanges it, through the commit path a server runs
//! (`insert_local` then `update_exchange`), followed by one point read at
//! the last peer, whose relations every exchange of the chain has just
//! changed. Reading one relation keeps the read samples one population;
//! the peers' own relations differ 5x in size.

use std::time::Instant;

use orchestra_workload::DatasetKind;

use super::{check_against_recompute, exchange_step, point_read, ReadTarget, Recorder, RunOptions};
use crate::inputs::{Inputs, Shape, Zipf};

/// Entries a peer inserts per step.
const BATCH: usize = 10;

pub fn run(rec: &mut Recorder, opts: &RunOptions) -> u32 {
    let shape = Shape {
        peers: 5,
        base: opts.sized(1000, 20),
        cycles: 0,
        dataset: DatasetKind::Strings,
    };
    let steps = opts.sized(500, 10);
    let mut inputs = Inputs::new(shape, opts.seed);
    let zipf = Zipf::new(shape.base);
    let last = shape.peers - 1;

    while rec.more_rounds(opts) {
        let setup = Instant::now();
        let mut system = inputs.fresh_system();
        let base = inputs.load_base(&system.peers, &mut system.cdss);
        let reader = system.cdss.snapshot_reader();
        // Keys of the last peer's own entries: only those have every
        // attribute there, so only those are certain answers.
        let target = ReadTarget::first_relation(&system.peers[last]);
        rec.setup_s.push(setup.elapsed().as_secs_f64());

        rec.window_open();
        let published_before = system.cdss.snapshots_published();
        for step in 0..steps {
            rec.begin_step();
            let p = step % shape.peers;
            let peer = &system.peers[p];
            let ((inserts, key), _) = rec.tracer.timed("workload.gen", || {
                let entries = inputs.entries(BATCH);
                let key = base[last][zipf.sample(&mut inputs.rng)].key;
                inputs.note_key(key);
                (inputs.project(peer, &entries), key)
            });

            let span = rec.tracer.open("bench.step");
            let mut ns = exchange_step(rec, &mut system.cdss, &peer.id, inserts, Vec::new());
            ns += point_read(rec, &reader, &target, key);
            rec.tracer.close(span);
            rec.spent(ns);
        }
        rec.add(
            "snapshot.epochs_published",
            (system.cdss.snapshots_published() - published_before) as f64,
        );
        rec.window_close(&["snapshot.publish_s"]);
        rec.storage_stats(&system.cdss);

        check_against_recompute(rec, &mut system.cdss, "bench.oracle");
        rec.end_round();
    }
    inputs.fingerprint.value()
}

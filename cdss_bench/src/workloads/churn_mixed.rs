//! `churn_mixed`: a steady-size integer instance where each step inserts
//! fresh entries, deletes as many old ones, exchanges, and then reads the
//! provenance of hot tuples. The first read after an exchange pays
//! whatever provenance-graph maintenance the exchange deferred.

use std::time::Instant;

use orchestra_storage::Tuple;
use orchestra_workload::{DatasetKind, UniversalEntry};

use super::{check_against_recompute, exchange_step, Recorder, RunOptions};
use crate::inputs::{Inputs, Shape, Zipf};

/// Entries inserted, and entries deleted, per step.
const CHURN: usize = 6;
/// `provenance_of` reads after each exchange; the first is the cold one.
const READS: usize = 20;

pub fn run(rec: &mut Recorder, opts: &RunOptions) -> u32 {
    let shape = Shape {
        peers: 5,
        base: opts.sized(600, 20),
        cycles: 0,
        dataset: DatasetKind::Integers,
    };
    let steps = opts.sized(20, 5);
    let mut inputs = Inputs::new(shape, opts.seed);
    // Every peer's live set keeps the size of its base, so one table serves.
    let zipf = Zipf::new(shape.base);

    while rec.more_rounds(opts) {
        let setup = Instant::now();
        let mut system = inputs.fresh_system();
        let mut live: Vec<Vec<UniversalEntry>> = inputs.load_base(&system.peers, &mut system.cdss);
        rec.setup_s.push(setup.elapsed().as_secs_f64());

        rec.window_open();
        let published_before = system.cdss.snapshots_published();
        for step in 0..steps {
            rec.begin_step();
            let p = step % shape.peers;
            let peer = &system.peers[p];
            let relation = &peer.relations[0].0;
            let ((inserts, deletes, reads), _) = rec.tracer.timed("workload.gen", || {
                let gone: Vec<UniversalEntry> = (0..CHURN)
                    .map(|_| {
                        let at = inputs.rng.below(live[p].len());
                        live[p].swap_remove(at)
                    })
                    .collect();
                let fresh = inputs.entries(CHURN);
                let edits = (inputs.project(peer, &fresh), inputs.project(peer, &gone));
                live[p].extend(fresh);
                let reads: Vec<Tuple> = (0..READS)
                    .map(|_| {
                        let entry = &live[p][zipf.sample(&mut inputs.rng)];
                        inputs.note_key(entry.key);
                        peer.project(entry).swap_remove(0).1
                    })
                    .collect();
                (edits.0, edits.1, reads)
            });

            let span = rec.tracer.open("bench.step");
            let mut ns = exchange_step(rec, &mut system.cdss, &peer.id, inserts, deletes);
            for (i, tuple) in reads.iter().enumerate() {
                let name = if i == 0 {
                    "provenance.first_read"
                } else {
                    "provenance.warm_read"
                };
                let (expr, read_ns) = rec
                    .tracer
                    .timed(name, || system.cdss.provenance_of(relation, tuple));
                rec.sample(if i == 0 { "prov_first" } else { "read" }, read_ns);
                rec.check(!expr.is_zero(), || {
                    format!("provenance of a live tuple of {relation} is empty")
                });
                if rec.traced() {
                    rec.add("prov.derivations", expr.num_derivations() as f64);
                    rec.add("prov.reads", 1.0);
                }
                ns += read_ns;
            }
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

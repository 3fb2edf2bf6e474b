//! `durable_recover`: the insert stream against a persistent system whose
//! WAL is fsynced on every epoch (`set_wal_sync(true)`, the stated flush
//! policy), with a checkpoint every 25 steps. The round ends by dropping
//! the system without a final checkpoint and recovering it from its
//! directory: every acknowledged exchange must be there again.
//!
//! Latencies here are the sandbox's page cache, not a device's.

use std::path::Path;
use std::time::Instant;

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_persist::store::{SNAPSHOT_FILE, WAL_FILE};
use orchestra_workload::DatasetKind;

use super::{
    check_against_recompute, digest, exchange_step, point_read, ReadTarget, Recorder, RunOptions,
};
use crate::inputs::{Inputs, Shape, Zipf};

const BATCH: usize = 10;
const CHECKPOINT_EVERY: usize = 25;

fn file_len(dir: &Path, name: &str) -> u64 {
    std::fs::metadata(dir.join(name)).map_or(0, |m| m.len())
}

pub fn run(rec: &mut Recorder, opts: &RunOptions) -> u32 {
    let shape = Shape {
        peers: 5,
        base: opts.sized(600, 20),
        cycles: 0,
        dataset: DatasetKind::Strings,
    };
    // Not a multiple of the checkpoint interval: recovery must replay a
    // WAL tail on top of the last snapshot.
    let steps = opts.sized(235, 30);
    let mut inputs = Inputs::new(shape, opts.seed);
    let zipf = Zipf::new(shape.base);
    let last = shape.peers - 1;

    while rec.more_rounds(opts) {
        let dir = opts.scratch.join(format!("durable-{}", rec.rounds));
        // A directory left by a killed run would be refused as existing state.
        let _ = std::fs::remove_dir_all(&dir);
        let user_bytes_before = inputs.user_bytes;

        let setup = Instant::now();
        let system = inputs.fresh_system();
        let mut builder = CdssBuilder::new();
        for peer in &system.peers {
            builder = builder.add_peer(peer.id.clone(), peer.schemas());
        }
        for tgd in &system.cdss.mapping_system().tgds {
            builder = builder.add_mapping(tgd.clone());
        }
        let mut cdss = builder
            .with_persistence(&dir)
            .build()
            .expect("the persistent system builds in a fresh directory");
        cdss.set_wal_sync(true).expect("the system is persistent");
        let base = inputs.load_base(&system.peers, &mut cdss);
        // The bulk load bypasses the WAL; the checkpoint makes it durable.
        cdss.checkpoint().expect("base checkpoint");
        let reader = cdss.snapshot_reader();
        let target = ReadTarget::first_relation(&system.peers[last]);
        rec.setup_s.push(setup.elapsed().as_secs_f64());

        let mut disk_bytes = file_len(&dir, SNAPSHOT_FILE);
        rec.window_open();
        let published_before = cdss.snapshots_published();
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
            let mut ns = exchange_step(rec, &mut cdss, &peer.id, inserts, Vec::new());
            ns += point_read(rec, &reader, &target, key);
            if (step + 1) % CHECKPOINT_EVERY == 0 {
                disk_bytes += file_len(&dir, WAL_FILE);
                let (done, checkpoint_ns) =
                    rec.tracer.timed("persist.checkpoint", || cdss.checkpoint());
                rec.sample("checkpoint", checkpoint_ns);
                rec.check(done.is_ok(), || {
                    format!("checkpoint: {:?}", done.as_ref().err())
                });
                disk_bytes += file_len(&dir, SNAPSHOT_FILE);
                ns += checkpoint_ns;
            }
            rec.tracer.close(span);
            rec.spent(ns);
        }
        rec.add(
            "snapshot.epochs_published",
            (cdss.snapshots_published() - published_before) as f64,
        );
        rec.storage_stats(&cdss);

        // Crash: no final checkpoint, the WAL tail is all there is.
        let acknowledged = cdss.current_epoch();
        let before = digest(rec, cdss.database(), "persist.encode_db");
        let wal_bytes = file_len(&dir, WAL_FILE);
        disk_bytes += wal_bytes;
        rec.set("persist.wal_bytes", wal_bytes as f64);
        rec.set(
            "persist.snapshot_bytes",
            file_len(&dir, SNAPSHOT_FILE) as f64,
        );
        rec.add("persist.disk_bytes", disk_bytes as f64);
        rec.add(
            "persist.user_bytes",
            (inputs.user_bytes - user_bytes_before) as f64,
        );
        drop(cdss);

        let (recovered, recovery_ns) = rec
            .tracer
            .timed("persist.recover", || Cdss::open_or_recover(&dir));
        rec.sample("recovery", recovery_ns);
        rec.window_close(&[
            "snapshot.publish_s",
            "persist.wal_append_s",
            "persist.wal_fsync_s",
            "persist.snapshot_write_s",
        ]);
        match recovered {
            Ok((mut cdss, report)) => {
                rec.add("persist.replayed_epochs", report.replayed_epochs as f64);
                let after = digest(rec, cdss.database(), "persist.encode_db");
                let missing = acknowledged.saturating_sub(cdss.current_epoch());
                rec.check(missing == 0 && after == before && report.corrupt_tail.is_none(), || {
                    format!(
                        "recovery lost state: {missing} acknowledged epochs missing, bytes equal: {}, corrupt tail: {:?}",
                        after == before,
                        report.corrupt_tail
                    )
                });
                check_against_recompute(rec, &mut cdss, "persist.encode_db");
            }
            Err(e) => rec.check(false, || format!("open_or_recover: {e:?}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        rec.end_round();
    }
    inputs.fingerprint.value()
}

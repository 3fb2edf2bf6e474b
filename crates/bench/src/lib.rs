//! # orchestra-bench
//!
//! The benchmark harness regenerating every figure of the evaluation section
//! (§6) of *Update Exchange with Mappings and Provenance*:
//!
//! | Experiment | Paper figure | Harness entry point |
//! |---|---|---|
//! | Deletion strategies (incremental vs DRed vs recomputation) | Figure 4 | [`run_fig4`] |
//! | Time for a peer to join (initial full computation) | Figure 5 | [`run_fig5`] |
//! | Initial computed instance size | Figure 6 | [`run_fig6`] |
//! | Incremental insertions, string dataset | Figure 7 | [`run_fig7`] |
//! | Incremental insertions, integer dataset | Figure 8 | [`run_fig8`] |
//! | Incremental deletions | Figure 9 | [`run_fig9`] |
//! | Effect of mapping cycles | Figure 10 | [`run_fig10`] |
//!
//! Each `run_figN` function sweeps the same relative parameters the paper
//! sweeps (number of peers, update percentage, deletion ratio, number of
//! cycles, dataset) at a laptop-friendly scale and returns one row
//! per plotted point. The `experiments` binary prints the rows as tables,
//! and `experiments --snapshot` records reduced-size medians in
//! `BENCH_joins.json`; the Criterion benches under `benches/` time
//! representative cells of the same sweeps.
//!
//! Absolute numbers differ from the paper (the substrate is an in-memory
//! Rust engine, not DB2/Tukwila on 2007 hardware); the quantities that must
//! reproduce are the *shapes*: who wins, where the crossovers fall, and how
//! cost grows with each parameter.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod netlat;
pub mod snapshot;

use std::time::Instant;

use orchestra_core::ExchangeReport;
use orchestra_workload::{generate, DatasetKind, GeneratedCdss, WorkloadConfig};

/// Scale factor applied to the base sizes of every experiment. `1.0` is the
/// default laptop-friendly scale; raise it to stress the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

impl Scale {
    /// Read the scale from the `ORCHESTRA_SCALE` environment variable,
    /// defaulting to 1.0.
    pub fn from_env() -> Self {
        std::env::var("ORCHESTRA_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Scale)
            .unwrap_or_default()
    }

    /// Scale an entry count, keeping it at least 10.
    pub fn entries(&self, base: usize) -> usize {
        ((base as f64 * self.0).round() as usize).max(10)
    }
}

/// Build a CDSS for the given shape and load its base data.
pub fn build_loaded(
    peers: usize,
    base_size: usize,
    dataset: DatasetKind,
    cycles: usize,
    seed: u64,
) -> GeneratedCdss {
    let config = WorkloadConfig {
        peers,
        base_size,
        dataset,
        cycles,
        seed,
        ..Default::default()
    };
    let mut generated = generate(&config).expect("workload generation succeeds");
    generated.load_base().expect("base load succeeds");
    generated
}

fn seconds(report: &ExchangeReport) -> f64 {
    report.duration.as_secs_f64()
}

// ---------------------------------------------------------------------
// Figure 4: deletion strategies vs deletion ratio
// ---------------------------------------------------------------------

/// One point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Fraction of the base data deleted (0.1 = 10%).
    pub ratio: f64,
    /// Strategy label: `incremental`, `dred`, or `recompute`.
    pub strategy: &'static str,
    /// Wall-clock seconds for the deletion propagation.
    pub seconds: f64,
    /// Tuples removed from derived relations.
    pub deleted: usize,
}

/// Figure 4: compare the incremental deletion algorithm, DRed, and complete
/// recomputation while deleting 10%–90% of the base data (5 peers, chain
/// mappings, integer dataset).
pub fn run_fig4(scale: Scale) -> Vec<Fig4Row> {
    let base = scale.entries(120);
    let ratios = [0.1, 0.3, 0.5, 0.7, 0.9];
    let mut rows = Vec::new();
    for &ratio in &ratios {
        for strategy in ["incremental", "dred", "recompute"] {
            let mut g = build_loaded(5, base, DatasetKind::Integers, 0, 11);
            let count = g.entries_for_ratio(ratio);
            let batch = g.deletion_batch(count);
            let report = match strategy {
                "incremental" => g.cdss.apply_deletions_incremental(&batch).unwrap(),
                "dred" => g.cdss.apply_deletions_dred(&batch).unwrap(),
                _ => {
                    // Complete recomputation: apply the base deletions to the
                    // local-contribution tables, then recompute everything.
                    let start = Instant::now();
                    let mut report = g.cdss.apply_deletions_incremental(&batch).unwrap();
                    let rec = g.cdss.recompute_all().unwrap();
                    report.merge(&rec);
                    report.duration = start.elapsed();
                    report
                }
            };
            rows.push(Fig4Row {
                ratio,
                strategy,
                seconds: seconds(&report),
                deleted: report.total_deleted(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Figures 5 & 6: initial computation time and instance size vs #peers
// ---------------------------------------------------------------------

/// One point of Figure 5 (and the timing half of Figure 6).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Number of peers in the configuration.
    pub peers: usize,
    /// Dataset variant.
    pub dataset: DatasetKind,
    /// Wall-clock seconds for the initial full computation.
    pub seconds: f64,
}

/// Figure 5: time for the system to compute all instances from scratch
/// ("time to join"), for both datasets, as the number of peers grows.
pub fn run_fig5(scale: Scale) -> Vec<Fig5Row> {
    // The same base size for both datasets, so the string-vs-integer
    // comparison isolates per-tuple data volume (as in the paper).
    let base = scale.entries(100);
    let mut rows = Vec::new();
    for &peers in &[2usize, 5, 10] {
        for dataset in [DatasetKind::Integers, DatasetKind::Strings] {
            let mut g = build_loaded(peers, base, dataset, 0, 23);
            let report = g.cdss.recompute_all().unwrap();
            rows.push(Fig5Row {
                peers,
                dataset,
                seconds: seconds(&report),
            });
        }
    }
    rows
}

/// One point of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Number of peers in the configuration.
    pub peers: usize,
    /// Total tuples stored across all internal and provenance relations.
    pub tuples: usize,
    /// Store size in MiB for the string dataset.
    pub string_mib: f64,
    /// Store size in MiB for the integer dataset.
    pub integer_mib: f64,
}

/// Figure 6: size of the computed instances (tuples and bytes) as the number
/// of peers grows.
pub fn run_fig6(scale: Scale) -> Vec<Fig6Row> {
    let base = scale.entries(100);
    let mut rows = Vec::new();
    for &peers in &[2usize, 5, 10] {
        let g_int = build_loaded(peers, base, DatasetKind::Integers, 0, 31);
        let g_str = build_loaded(peers, base, DatasetKind::Strings, 0, 31);
        let int_stats = g_int.cdss.instance_stats();
        let str_stats = g_str.cdss.instance_stats();
        rows.push(Fig6Row {
            peers,
            tuples: int_stats.total_tuples,
            string_mib: str_stats.total_mib(),
            integer_mib: int_stats.total_mib(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figures 7, 8, 9: incremental insertions and deletions vs #peers
// ---------------------------------------------------------------------

/// One point of Figures 7, 8, or 9.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Number of peers.
    pub peers: usize,
    /// Dataset variant.
    pub dataset: DatasetKind,
    /// Update size as a fraction of the base size (0.01 or 0.1).
    pub update_pct: f64,
    /// Wall-clock seconds for the incremental propagation.
    pub seconds: f64,
    /// Tuples inserted (Figures 7/8) or deleted (Figure 9).
    pub affected: usize,
}

fn run_incremental_insertions(
    scale: Scale,
    dataset: DatasetKind,
    peer_counts: &[usize],
) -> Vec<IncrementalRow> {
    let base = match dataset {
        DatasetKind::Integers => scale.entries(150),
        DatasetKind::Strings => scale.entries(60),
    };
    let mut rows = Vec::new();
    for &peers in peer_counts {
        for &pct in &[0.01, 0.1] {
            let mut g = build_loaded(peers, base, dataset, 0, 41);
            let count = g.entries_for_ratio(pct);
            let batch = g.fresh_insertions(count);
            let report = g.cdss.apply_insertions_incremental(&batch).unwrap();
            rows.push(IncrementalRow {
                peers,
                dataset,
                update_pct: pct,
                seconds: seconds(&report),
                affected: report.total_inserted(),
            });
        }
    }
    rows
}

/// Figure 7: incremental insertion scalability on the string dataset.
pub fn run_fig7(scale: Scale) -> Vec<IncrementalRow> {
    run_incremental_insertions(scale, DatasetKind::Strings, &[2, 5, 10])
}

/// Figure 8: incremental insertion scalability on the integer dataset.
pub fn run_fig8(scale: Scale) -> Vec<IncrementalRow> {
    run_incremental_insertions(scale, DatasetKind::Integers, &[2, 5, 10])
}

/// Figure 9: incremental deletion scalability on both datasets.
pub fn run_fig9(scale: Scale) -> Vec<IncrementalRow> {
    let mut rows = Vec::new();
    for dataset in [DatasetKind::Integers, DatasetKind::Strings] {
        let base = match dataset {
            DatasetKind::Integers => scale.entries(150),
            DatasetKind::Strings => scale.entries(60),
        };
        for &peers in &[2usize, 5, 10] {
            for &pct in &[0.01, 0.1] {
                let mut g = build_loaded(peers, base, dataset, 0, 43);
                let count = g.entries_for_ratio(pct);
                let batch = g.deletion_batch(count);
                let report = g.cdss.apply_deletions_incremental(&batch).unwrap();
                rows.push(IncrementalRow {
                    peers,
                    dataset,
                    update_pct: pct,
                    seconds: seconds(&report),
                    affected: report.total_deleted(),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 10: effect of cycles
// ---------------------------------------------------------------------

/// One point of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Number of extra cycle-closing mappings.
    pub cycles: usize,
    /// Wall-clock seconds for the initial computation.
    pub seconds: f64,
    /// Number of tuples in all derived relations at fixpoint.
    pub fixpoint_tuples: usize,
}

/// Figure 10: initial computation time and fixpoint size as cycles are added
/// to the mapping graph (5 peers, 2 neighbours each).
pub fn run_fig10(scale: Scale) -> Vec<Fig10Row> {
    let base = scale.entries(100);
    let mut rows = Vec::new();
    for cycles in 0..=3usize {
        let mut g = build_loaded(5, base, DatasetKind::Integers, cycles, 53);
        let report = g.cdss.recompute_all().unwrap();
        rows.push(Fig10Row {
            cycles,
            seconds: seconds(&report),
            fixpoint_tuples: g.cdss.total_output_tuples(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Recovery figure (beyond the paper): WAL append throughput and recovery
// replay time vs snapshot-only load, for the durability subsystem.
// ---------------------------------------------------------------------

/// One point of the recovery benchmark.
#[derive(Debug, Clone)]
pub struct FigRecoveryRow {
    /// Number of published epochs in the WAL.
    pub epochs: usize,
    /// Edit operations per epoch.
    pub ops_per_epoch: usize,
    /// Raw WAL framing throughput in edit operations per second (fsync
    /// disabled, measuring the codec + framing path).
    pub wal_append_ops_per_sec: f64,
    /// Wall-clock seconds for `Cdss::open_or_recover` replaying every
    /// epoch from the WAL (no checkpoint taken).
    pub replay_recovery_seconds: f64,
    /// Wall-clock seconds for `Cdss::open_or_recover` loading a checkpoint
    /// snapshot covering the same state (empty WAL).
    pub snapshot_recovery_seconds: f64,
}

/// A persistent copy of the paper's three-peer running example.
pub fn persistent_example(dir: &std::path::Path) -> orchestra_core::Cdss {
    use orchestra_storage::RelationSchema;
    orchestra_core::CdssBuilder::new()
        .add_peer(
            "PGUS",
            vec![RelationSchema::new("G", &["id", "can", "nam"])],
        )
        .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
        .add_peer("PuBio", vec![RelationSchema::new("U", &["nam", "can"])])
        .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
        .add_mapping_str("m2", "G(i, c, n) -> U(n, c)")
        .add_mapping_str("m3", "B(i, n) -> U(n, c)")
        .add_mapping_str("m4", "B(i, c), U(n, c) -> B(i, n)")
        .with_persistence(dir)
        .build()
        .expect("persistent example builds")
}

/// Publish `epochs` epochs of `ops_per_epoch` fresh insertions each,
/// round-robin across the three peers.
pub fn publish_epochs(cdss: &mut orchestra_core::Cdss, epochs: usize, ops_per_epoch: usize) {
    use orchestra_storage::tuple::int_tuple;
    for e in 0..epochs {
        let (peer, relation, arity) = match e % 3 {
            0 => ("PGUS", "G", 3),
            1 => ("PBioSQL", "B", 2),
            _ => ("PuBio", "U", 2),
        };
        for i in 0..ops_per_epoch {
            let v = (e * ops_per_epoch + i) as i64;
            let tuple = if arity == 3 {
                int_tuple(&[v, v + 1, v + 2])
            } else {
                int_tuple(&[v, v + 1])
            };
            cdss.insert_local(peer, relation, tuple)
                .expect("edit applies");
        }
        cdss.update_exchange(peer).expect("exchange succeeds");
    }
}

/// Measure raw WAL append throughput (edit ops per second) by appending
/// synthetic epoch records with fsync disabled.
pub fn wal_append_ops_per_sec(epochs: usize, ops_per_epoch: usize) -> f64 {
    use orchestra_persist::testutil::TempDir;
    use orchestra_persist::wal::{EpochRecord, EpochWal};
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::EditLog;

    let dir = TempDir::new("bench-wal-append");
    let mut wal = EpochWal::create(dir.path().join("epochs.wal")).expect("wal creates");
    wal.set_sync_on_append(false);
    let records: Vec<EpochRecord> = (0..epochs as u64)
        .map(|e| {
            let mut log = EditLog::new("G");
            for i in 0..ops_per_epoch {
                log.push_insert(int_tuple(&[e as i64, i as i64, 0]));
            }
            EpochRecord {
                epoch: e + 1,
                peer: "PGUS".into(),
                logs: vec![log],
            }
        })
        .collect();
    let start = Instant::now();
    for r in &records {
        wal.append(r).expect("append succeeds");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (epochs * ops_per_epoch) as f64 / elapsed.max(1e-9)
}

/// The recovery benchmark: for growing WAL lengths, compare replaying the
/// epoch log against loading an equivalent checkpoint snapshot.
pub fn run_fig_recovery(scale: Scale) -> Vec<FigRecoveryRow> {
    use orchestra_core::Cdss;
    use orchestra_persist::testutil::TempDir;

    let ops_per_epoch = 10;
    let mut rows = Vec::new();
    for &base_epochs in &[3usize, 9, 30] {
        // Scale the epoch count directly (Scale::entries floors at 10,
        // which would collapse the three WAL lengths into one).
        let epochs = ((base_epochs as f64 * scale.0).round() as usize).clamp(2, 300);

        // Replay path: published epochs sit in the WAL, no checkpoint.
        let replay_dir = TempDir::new("bench-recover-replay");
        let mut cdss = persistent_example(replay_dir.path());
        cdss.set_wal_sync(false).expect("persistent");
        publish_epochs(&mut cdss, epochs, ops_per_epoch);
        drop(cdss);
        let start = Instant::now();
        let (recovered, report) = Cdss::open_or_recover(replay_dir.path()).expect("recovers");
        let replay_recovery_seconds = start.elapsed().as_secs_f64();
        assert_eq!(report.replayed_epochs, epochs);

        // Snapshot path: identical state, folded into a checkpoint.
        let snap_dir = TempDir::new("bench-recover-snap");
        let mut cdss2 = persistent_example(snap_dir.path());
        cdss2.set_wal_sync(false).expect("persistent");
        publish_epochs(&mut cdss2, epochs, ops_per_epoch);
        cdss2.checkpoint().expect("checkpoint succeeds");
        drop(cdss2);
        let start = Instant::now();
        let (snap_recovered, report) = Cdss::open_or_recover(snap_dir.path()).expect("recovers");
        let snapshot_recovery_seconds = start.elapsed().as_secs_f64();
        assert_eq!(report.replayed_epochs, 0);
        assert_eq!(
            recovered.total_output_tuples(),
            snap_recovered.total_output_tuples(),
            "both paths recover the same state"
        );

        rows.push(FigRecoveryRow {
            epochs,
            ops_per_epoch,
            wal_append_ops_per_sec: wal_append_ops_per_sec(epochs, ops_per_epoch),
            replay_recovery_seconds,
            snapshot_recovery_seconds,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_entries() {
        assert_eq!(Scale::default().entries(100), 100);
        assert_eq!(Scale(0.5).entries(100), 50);
        assert_eq!(Scale(0.001).entries(100), 10, "never below the floor of 10");
    }

    #[test]
    fn fig4_shape_holds_at_tiny_scale() {
        let rows = run_fig4(Scale(0.2));
        assert_eq!(rows.len(), 15);
        // At a modest deletion ratio the incremental algorithm beats DRed.
        let at = |ratio: f64, strategy: &str| {
            rows.iter()
                .find(|r| (r.ratio - ratio).abs() < 1e-9 && r.strategy == strategy)
                .unwrap()
                .seconds
        };
        assert!(at(0.3, "incremental") < at(0.3, "dred"));
        assert!(at(0.1, "incremental") < at(0.1, "recompute"));
    }

    #[test]
    fn fig6_string_instances_are_larger_than_integer() {
        let rows = run_fig6(Scale(0.2));
        for r in &rows {
            assert!(r.string_mib > r.integer_mib, "{r:?}");
            assert!(r.tuples > 0);
        }
        // Instance size grows with the number of peers.
        assert!(rows.last().unwrap().tuples > rows.first().unwrap().tuples);
    }

    #[test]
    fn fig_recovery_measures_both_paths() {
        let rows = run_fig_recovery(Scale(0.2));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.wal_append_ops_per_sec > 0.0, "{r:?}");
            assert!(r.replay_recovery_seconds > 0.0, "{r:?}");
            assert!(r.snapshot_recovery_seconds > 0.0, "{r:?}");
        }
        // The sweep actually varies the WAL length (wall-clock ordering is
        // too noisy to assert in debug builds).
        assert!(rows.last().unwrap().epochs > rows.first().unwrap().epochs);
    }

    #[test]
    fn fig10_fixpoint_grows_with_cycles() {
        let rows = run_fig10(Scale(0.2));
        let tuples_at = |c: usize| rows.iter().find(|r| r.cycles == c).unwrap().fixpoint_tuples;
        assert!(tuples_at(3) >= tuples_at(0));
    }
}

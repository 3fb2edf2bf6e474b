//! Property tests for value-pool compaction: a [`Cdss::compact`] pass
//! (and the snapshot round-trip that follows it at checkpoint time) must
//! be **observationally invisible** — same local instances, same canonical
//! provenance, byte-identical canonical re-encode — while actually
//! bounding intern memory; and a CDSS that keeps exchanging after the pass
//! must stay in lockstep with a never-compacted twin (stale compiled plans
//! would silently mis-evaluate if the pass forgot to invalidate them).

use proptest::prelude::*;

use orchestra_core::{Cdss, CdssBuilder, CompactionPolicy};
use orchestra_persist::codec::{Encode, Writer};
use orchestra_persist::snapshot::{load_snapshot, write_snapshot, SnapshotRef};
use orchestra_persist::testutil::TempDir;
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{Database, RelationSchema};

fn example_cdss() -> Cdss {
    CdssBuilder::new()
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
        .build()
        .unwrap()
}

/// One random edit: (peer/relation selector, values, delete?).
type Edit = (usize, i64, i64, i64, bool);

fn apply_edits(cdss: &mut Cdss, edits: &[Edit]) {
    for (sel, a, b, c, delete) in edits {
        let (peer, rel, tuple) = match sel % 3 {
            0 => ("PGUS", "G", int_tuple(&[*a, *b, *c])),
            1 => ("PBioSQL", "B", int_tuple(&[*a, *b])),
            _ => ("PuBio", "U", int_tuple(&[*a, *b])),
        };
        if *delete {
            cdss.delete_local(peer, rel, tuple).unwrap();
        } else {
            cdss.insert_local(peer, rel, tuple).unwrap();
        }
        cdss.update_exchange(peer).unwrap();
    }
}

/// Canonical byte encoding of a whole database via the persist codec
/// (sorted tuples — identical states encode identically regardless of pool
/// or slab history).
fn canonical_bytes(db: &Database) -> Vec<u8> {
    let mut w = Writer::new();
    db.encode(&mut w);
    w.into_bytes()
}

fn edits_strategy() -> impl Strategy<Value = (Vec<Edit>, Vec<Edit>)> {
    let edit = ((0usize..3), 0i64..5, 0i64..5, 0i64..5, any::<bool>());
    (
        prop::collection::vec(edit.clone(), 1..12),
        prop::collection::vec(edit, 1..8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// compact() + snapshot round-trip is observationally identical to the
    /// uncompacted database, and post-compaction exchanges stay in
    /// lockstep with a never-compacted twin.
    #[test]
    fn compaction_is_observationally_invisible((edits, more_edits) in edits_strategy()) {
        let mut compacted = example_cdss();
        let mut twin = example_cdss();
        apply_edits(&mut compacted, &edits);
        apply_edits(&mut twin, &edits);

        let report = compacted.compact();
        prop_assert_eq!(report.after, compacted.pool_live_values());
        prop_assert!(report.after <= report.before);

        // Same local instances (borrowed iterator contents), same
        // canonical provenance, same derivability.
        for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
            let mut via_compacted: Vec<_> = compacted
                .local_instance_iter(peer, rel)
                .unwrap()
                .cloned()
                .collect();
            via_compacted.sort();
            let mut via_twin: Vec<_> =
                twin.local_instance_iter(peer, rel).unwrap().cloned().collect();
            via_twin.sort();
            prop_assert_eq!(&via_compacted, &via_twin, "instances differ on {}", rel);
            for t in &via_compacted {
                prop_assert_eq!(
                    compacted.provenance_of(rel, t).canonical().to_string(),
                    twin.provenance_of(rel, t).canonical().to_string(),
                    "provenance of {}{} differs post-compaction", rel, t
                );
                prop_assert_eq!(
                    compacted.is_derivable(rel, t),
                    twin.is_derivable(rel, t)
                );
            }
        }

        // Byte-identical canonical re-encode: compaction only
        // renumbers in-memory ids, never content.
        prop_assert_eq!(
            canonical_bytes(compacted.database()),
            canonical_bytes(twin.database())
        );

        // Snapshot round-trip: the on-disk v2 codec is unchanged by
        // compaction (its dictionary is already content-canonical), so
        // both databases snapshot to byte-identical files, and the
        // compacted one reloads equal to itself.
        let dir = TempDir::new("compaction-prop");
        let snap_a = dir.path().join("compacted.snapshot");
        let snap_b = dir.path().join("twin.snapshot");
        write_snapshot(&snap_a, SnapshotRef {
            epoch: 0,
            manifest: &[],
            db: compacted.database(),
            pending: &[],
        }).unwrap();
        write_snapshot(&snap_b, SnapshotRef {
            epoch: 0,
            manifest: &[],
            db: twin.database(),
            pending: &[],
        }).unwrap();
        prop_assert_eq!(
            std::fs::read(&snap_a).unwrap(),
            std::fs::read(&snap_b).unwrap(),
            "snapshot bytes must not depend on compaction"
        );
        let reloaded = load_snapshot(&snap_a).unwrap().unwrap();
        prop_assert_eq!(&reloaded.db, compacted.database());

        // Keep exchanging after the pass: compiled plans were
        // invalidated, so the compacted CDSS must track the twin.
        apply_edits(&mut compacted, &more_edits);
        apply_edits(&mut twin, &more_edits);
        prop_assert_eq!(compacted.database(), twin.database());
    }

    /// Churn + policy-driven compaction bounds the pool: after the pass the
    /// pool holds exactly the live vocabulary, repeatedly, across rounds.
    #[test]
    fn repeated_compaction_keeps_the_pool_bounded(rounds in 2usize..5, per_round in 5i64..20) {
        let mut cdss = example_cdss();
        cdss.set_compaction_policy(CompactionPolicy {
            min_pool_len: 1,
            min_dead_ratio: 0.3,
        });
        let mut high_water = 0usize;
        for round in 0..rounds as i64 {
            for i in 0..per_round {
                let v = round * 1_000_000 + i;
                cdss.insert_local("PGUS", "G", int_tuple(&[v, v + 1, v + 2])).unwrap();
                if i > 0 {
                    let p = v - 1;
                    cdss.delete_local("PGUS", "G", int_tuple(&[p, p + 1, p + 2])).unwrap();
                }
                cdss.update_exchange("PGUS").unwrap();
            }
            cdss.maybe_compact();
            let pool = cdss.intern_stats().distinct as usize;
            high_water = high_water.max(pool);
            // Bounded: at most the live vocabulary (policy may legitimately
            // decline when little is dead).
            let live = cdss.pool_live_values();
            prop_assert!(
                pool <= live + live / 2 + 8,
                "round {}: pool {} vs live {}", round, pool, live
            );
        }
        prop_assert!(cdss.compactions_run() >= 1);
    }
}

//! Integration test for the durability subsystem's acceptance criteria:
//! a CDSS with three peers and several published epochs, torn down and
//! reopened via `Cdss::open_or_recover`, reproduces **byte-identical**
//! canonical instances and provenance relations; and a corrupted WAL tail
//! (truncated or bit-flipped) is detected and recovered past gracefully.

use orchestra_core::{Cdss, CdssBuilder, CmpOp, Predicate, TrustPolicy};
use orchestra_persist::codec::Encode;
use orchestra_persist::store::{SNAPSHOT_FILE, WAL_FILE};
use orchestra_persist::testutil::TempDir;
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::RelationSchema;

/// The paper's running three-peer example (Figure 1), persistent in `dir`,
/// with a non-trivial trust policy so the manifest round-trip is exercised.
fn build_persistent(dir: &std::path::Path) -> Cdss {
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
        .trust_policy(
            "PBioSQL",
            TrustPolicy::trust_all().with_condition(
                "m1",
                Predicate::Not(Box::new(Predicate::cmp(1, CmpOp::Ge, 90i64))),
            ),
        )
        .with_persistence(dir)
        .build()
        .expect("persistent CDSS builds")
}

/// Publish three epochs: inserts from two peers, then a curation deletion.
fn publish_epochs(cdss: &mut Cdss) {
    cdss.insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
        .unwrap();
    cdss.insert_local("PGUS", "G", int_tuple(&[3, 5, 2]))
        .unwrap();
    cdss.update_exchange("PGUS").unwrap();

    cdss.insert_local("PBioSQL", "B", int_tuple(&[3, 5]))
        .unwrap();
    cdss.insert_local("PuBio", "U", int_tuple(&[2, 5])).unwrap();
    cdss.update_exchange_all().unwrap();

    cdss.delete_local("PBioSQL", "B", int_tuple(&[3, 2]))
        .unwrap();
    cdss.update_exchange("PBioSQL").unwrap();
}

#[test]
fn recovery_reproduces_byte_identical_state() {
    let dir = TempDir::new("itest-recovery");
    let mut cdss = build_persistent(dir.path());
    publish_epochs(&mut cdss);
    assert!(cdss.current_epoch() >= 2, "at least two published epochs");

    // Capture the canonical encoding of the entire store — every peer's
    // internal relations AND all provenance relations — plus per-peer
    // instances.
    let expected_bytes = cdss.database().to_bytes();
    let expected_b = cdss.certain_answers("PBioSQL", "B").unwrap();
    let expected_u = cdss.local_instance("PuBio", "U").unwrap();
    let expected_g = cdss.local_instance("PGUS", "G").unwrap();
    let prov_relations: Vec<String> = cdss
        .database()
        .relation_names()
        .into_iter()
        .filter(|n| n.starts_with("P_"))
        .collect();
    assert!(!prov_relations.is_empty(), "provenance relations exist");

    // Tear down the process state entirely.
    drop(cdss);

    let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
    assert!(report.corrupt_tail.is_none());
    assert!(report.replayed_epochs >= 2);

    assert_eq!(
        recovered.database().to_bytes(),
        expected_bytes,
        "canonical byte encoding of the full store is identical"
    );
    assert_eq!(
        recovered.certain_answers("PBioSQL", "B").unwrap(),
        expected_b
    );
    assert_eq!(recovered.local_instance("PuBio", "U").unwrap(), expected_u);
    assert_eq!(recovered.local_instance("PGUS", "G").unwrap(), expected_g);

    // The rejection recorded in epoch 3 still holds after a recomputation
    // on the recovered instance (rejections are durable state, paper §2).
    let mut recovered = recovered;
    recovered.recompute_all().unwrap();
    assert!(!recovered
        .certain_answers("PBioSQL", "B")
        .unwrap()
        .contains(&int_tuple(&[3, 2])));
}

#[test]
fn truncated_wal_tail_recovers_the_intact_prefix() {
    let dir = TempDir::new("itest-truncate");
    let mut cdss = build_persistent(dir.path());
    publish_epochs(&mut cdss);
    let total_epochs = cdss.current_epoch();
    drop(cdss);

    // Tear bytes off the final record, as an interrupted append would.
    let wal = dir.path().join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 6).unwrap();
    drop(f);

    let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
    assert!(report.corrupt_tail.is_some(), "tear detected");
    assert_eq!(recovered.current_epoch(), total_epochs - 1);

    // The WAL was repaired: recovering again sees a clean log and the same
    // state.
    let state = recovered.database().to_bytes();
    drop(recovered);
    let (again, report) = Cdss::open_or_recover(dir.path()).unwrap();
    assert!(report.corrupt_tail.is_none(), "tail was truncated away");
    assert_eq!(again.database().to_bytes(), state);
}

#[test]
fn bit_flipped_wal_record_recovers_the_intact_prefix() {
    let dir = TempDir::new("itest-bitflip");
    let mut cdss = build_persistent(dir.path());
    publish_epochs(&mut cdss);
    drop(cdss);

    // Flip a bit inside the last record's payload: the CRC must catch it.
    let wal = dir.path().join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    let idx = bytes.len() - 2;
    bytes[idx] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();

    let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
    assert!(
        report.corrupt_tail.as_deref().unwrap_or("").contains("CRC"),
        "corruption report names the CRC mismatch: {report:?}"
    );

    // The surviving prefix must equal a fresh run of the surviving epochs.
    let dir2 = TempDir::new("itest-bitflip-ref");
    let mut reference = build_persistent(dir2.path());
    reference
        .insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
        .unwrap();
    reference
        .insert_local("PGUS", "G", int_tuple(&[3, 5, 2]))
        .unwrap();
    reference.update_exchange("PGUS").unwrap();
    reference
        .insert_local("PBioSQL", "B", int_tuple(&[3, 5]))
        .unwrap();
    reference
        .insert_local("PuBio", "U", int_tuple(&[2, 5]))
        .unwrap();
    reference.update_exchange_all().unwrap();
    assert_eq!(
        recovered.database().to_bytes(),
        reference.database().to_bytes()
    );
}

#[test]
fn recovered_cdss_continues_publishing_durably() {
    let dir = TempDir::new("itest-continue");
    let mut cdss = build_persistent(dir.path());
    publish_epochs(&mut cdss);
    drop(cdss);

    let (mut recovered, _) = Cdss::open_or_recover(dir.path()).unwrap();
    recovered
        .insert_local("PuBio", "U", int_tuple(&[8, 9]))
        .unwrap();
    recovered.update_exchange("PuBio").unwrap();
    recovered.checkpoint().unwrap();
    let state = recovered.database().to_bytes();
    let epoch = recovered.current_epoch();
    drop(recovered);

    let (again, report) = Cdss::open_or_recover(dir.path()).unwrap();
    assert_eq!(report.snapshot_epoch, epoch, "checkpoint took");
    assert_eq!(report.replayed_epochs, 0, "WAL folded into snapshot");
    assert_eq!(again.database().to_bytes(), state);
}

// ---------------------------------------------------------------------
// On-disk compatibility with state written while the manifest's engine
// byte still selected one of two execution backends.
//
// `tests/golden/state_engine{0,1}` were written by the last commit that had
// `CdssBuilder::engine` (0 = Batch, 1 = Pipelined): `build_persistent`, the
// first two steps of `publish_epochs`, a checkpoint, then the third step —
// so each holds a snapshot (manifest + store) *and* one epoch to replay.
// ---------------------------------------------------------------------

/// Copy a golden state dir into a scratch dir (recovery opens the WAL for
/// appending and may repair it in place).
fn golden_state(name: &str) -> TempDir {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let dir = TempDir::new(name);
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(src.join(file), dir.path().join(file)).unwrap();
    }
    dir
}

fn manifest_of(dir: &std::path::Path) -> Vec<u8> {
    orchestra_persist::snapshot::load_snapshot(dir.join(SNAPSHOT_FILE))
        .unwrap()
        .expect("state dir holds a snapshot")
        .manifest
}

#[test]
fn state_written_under_either_former_engine_byte_recovers() {
    let reference_dir = TempDir::new("itest-golden-ref");
    let mut reference = build_persistent(reference_dir.path());
    publish_epochs(&mut reference);

    for name in ["state_engine0", "state_engine1"] {
        let dir = golden_state(name);
        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert!(report.corrupt_tail.is_none(), "{name}: {report:?}");
        assert_eq!(
            report.replayed_epochs, 1,
            "{name}: one epoch past the snapshot"
        );
        assert_eq!(recovered.current_epoch(), reference.current_epoch());
        assert_eq!(
            recovered.database().to_bytes(),
            reference.database().to_bytes(),
            "{name}: recovered store is byte-identical to a fresh run"
        );
    }
}

#[test]
fn written_manifest_is_byte_identical_to_the_former_pipelined_one() {
    let golden0 = manifest_of(golden_state("state_engine0").path());
    let golden1 = manifest_of(golden_state("state_engine1").path());
    // The fixtures really differ in the engine byte alone: 0 vs 1.
    assert_eq!(golden0.len(), golden1.len());
    let differing: Vec<(u8, u8)> = golden0
        .iter()
        .zip(&golden1)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (*a, *b))
        .collect();
    assert_eq!(differing, vec![(0, 1)]);

    let dir = TempDir::new("itest-manifest-compat");
    let mut cdss = build_persistent(dir.path());
    publish_epochs(&mut cdss);
    cdss.checkpoint().unwrap();
    assert_eq!(manifest_of(dir.path()), golden1);
}

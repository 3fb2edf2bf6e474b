//! Property tests for the persistence subsystem: the hand-rolled codec
//! round-trips randomized values (including labeled nulls / nested Skolem
//! terms), tuples, relations, databases, and edit logs; and a randomly
//! edited multi-peer CDSS, torn down after several published epochs (with
//! or without a checkpoint), recovers to a byte-identical instance.

use proptest::prelude::*;

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_persist::codec::{Decode, Encode};
use orchestra_persist::testutil::TempDir;
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{Database, EditLog, Relation, RelationSchema, SkolemFnId, Tuple, Value};

// -----------------------------------------------------------------------
// Strategies for the storage data model.
// -----------------------------------------------------------------------

/// Values: integers, short strings, and labeled nulls whose arguments may
/// themselves be labeled nulls (up to three levels of Skolem nesting).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Value::int),
        (0u32..26, 0usize..12).prop_map(|(c, n)| {
            let ch = char::from(b'a' + (c % 26) as u8);
            Value::text(ch.to_string().repeat(n))
        }),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        (0u32..5, prop::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Value::labeled_null(SkolemFnId(f), args))
    })
}

fn arb_tuple(arity: usize) -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), arity..arity + 1).prop_map(Tuple::new)
}

fn arb_relation(name: &'static str) -> impl Strategy<Value = Relation> {
    (1usize..5).prop_flat_map(move |arity| {
        prop::collection::vec(arb_tuple(arity), 0..12).prop_map(move |tuples| {
            let mut pool = orchestra_storage::ValuePool::new();
            let mut rel = Relation::new(RelationSchema::anonymous(name, arity));
            rel.insert_all(&mut pool, tuples).expect("arities match");
            rel
        })
    })
}

proptest! {
    #[test]
    fn values_roundtrip(v in arb_value()) {
        prop_assert_eq!(Value::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn tuples_roundtrip(t in (0usize..5).prop_flat_map(arb_tuple)) {
        prop_assert_eq!(Tuple::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn relations_roundtrip_and_encode_canonically(rel in arb_relation("R")) {
        let bytes = rel.to_bytes();
        let mut r = orchestra_persist::codec::Reader::new(&bytes);
        let (schema, tuples) = orchestra_persist::codec::decode_relation_parts(&mut r).unwrap();
        prop_assert!(r.is_at_end());
        let mut db = Database::new();
        db.adopt_relation(schema, tuples).unwrap();
        let back = db.relation(rel.name()).unwrap();
        prop_assert_eq!(back, &rel);
        // Re-encoding the decoded relation is byte-stable (canonical form).
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn databases_roundtrip(
        a in arb_relation("A"),
        b in arb_relation("B"),
        c in arb_relation("C"),
    ) {
        let mut db = Database::new();
        for rel in [a, b, c] {
            db.adopt_relation(rel.schema().clone(), rel.iter().cloned()).unwrap();
        }
        let back = Database::from_bytes(&db.to_bytes()).unwrap();
        prop_assert_eq!(&back, &db);
        prop_assert_eq!(back.to_bytes(), db.to_bytes());
    }

    #[test]
    fn edit_logs_roundtrip_preserving_order(
        ops in prop::collection::vec((any::<bool>(), 0i64..20, 0i64..20), 0..30)
    ) {
        let mut log = EditLog::new("B");
        for (insert, x, y) in &ops {
            if *insert {
                log.push_insert(int_tuple(&[*x, *y]));
            } else {
                log.push_delete(int_tuple(&[*x, *y]));
            }
        }
        let back = EditLog::from_bytes(&log.to_bytes()).unwrap();
        prop_assert_eq!(back, log);
    }
}

// -----------------------------------------------------------------------
// The pooled (v2) codec: dictionary + id rows.
// -----------------------------------------------------------------------

fn arb_schema_db() -> impl Strategy<Value = Database> {
    (
        prop::collection::vec(arb_tuple(2), 0..10),
        prop::collection::vec(arb_tuple(3), 0..10),
    )
        .prop_map(|(a, b)| {
            let mut db = Database::new();
            db.adopt_relation(RelationSchema::anonymous("A", 2), a)
                .unwrap();
            db.adopt_relation(RelationSchema::anonymous("B", 3), b)
                .unwrap();
            db
        })
}

proptest! {
    /// Pooled tuple sequences: encode → decode → byte-identical re-encode.
    #[test]
    fn pooled_tuple_seq_roundtrips_byte_identically(
        tuples in prop::collection::vec((0usize..4).prop_flat_map(arb_tuple), 0..20)
    ) {
        use orchestra_persist::codec::{Reader, Writer};
        use orchestra_persist::pooled::{decode_tuple_seq_pooled, encode_tuple_seq_pooled};
        let mut w = Writer::new();
        encode_tuple_seq_pooled(tuples.len(), tuples.iter(), &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_tuple_seq_pooled(&mut r).unwrap();
        prop_assert!(r.is_at_end());
        prop_assert_eq!(&back, &tuples);
        let mut w2 = Writer::new();
        encode_tuple_seq_pooled(back.len(), back.iter(), &mut w2);
        prop_assert_eq!(w2.into_bytes(), bytes);
    }

    /// Pooled (v2) snapshot payloads: encode → decode → byte-identical
    /// re-encode, including pending edit logs.
    #[test]
    fn pooled_snapshot_roundtrips_byte_identically(
        db in arb_schema_db(),
        pending_ops in prop::collection::vec((any::<bool>(), 0i64..9, 0i64..9), 0..12),
    ) {
        use orchestra_persist::{PendingLogs, Snapshot};
        let mut log = EditLog::new("A");
        for (ins, x, y) in &pending_ops {
            if *ins {
                log.push_insert(int_tuple(&[*x, *y]));
            } else {
                log.push_delete(int_tuple(&[*x, *y]));
            }
        }
        let snap = Snapshot {
            epoch: 7,
            manifest: vec![1, 2, 3],
            db,
            pending: vec![PendingLogs { peer: "P".into(), logs: vec![log] }],
        };
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}

// -----------------------------------------------------------------------
// Canonical snapshot bytes: the row-remap encoder against the value-keyed
// reference, and the golden state dirs' exact bytes.
// -----------------------------------------------------------------------

/// The value-keyed snapshot payload encoder the row-remap one replaced,
/// kept as the byte-level reference: every relation materialised as sorted
/// tuples and every value interned by content, in traversal order.
fn reference_snapshot_payload(snap: &orchestra_persist::Snapshot) -> Vec<u8> {
    use orchestra_persist::{PooledEncoder, Writer};
    let mut w = Writer::new();
    w.put_u64(snap.epoch);
    w.put_bytes(&snap.manifest);
    let mut enc = PooledEncoder::new();
    let relations: Vec<_> = snap.db.relations().collect();
    enc.rows.put_u32(relations.len() as u32);
    for rel in relations {
        rel.schema().encode(&mut enc.rows);
        let sorted = rel.sorted_tuples();
        enc.rows.put_u32(sorted.len() as u32);
        for v in sorted.iter().flat_map(Tuple::values) {
            enc.put_value(v);
        }
    }
    enc.rows.put_u32(snap.pending.len() as u32);
    for p in &snap.pending {
        enc.rows.put_str(&p.peer);
        enc.rows.put_u32(p.logs.len() as u32);
        for log in &p.logs {
            enc.rows.put_str(log.relation());
            enc.rows.put_u32(log.len() as u32);
            for op in log.ops() {
                op.kind.encode(&mut enc.rows);
                enc.put_tuple(&op.tuple);
            }
        }
    }
    enc.finish_into(&mut w);
    w.into_bytes()
}

/// A database with a history: tuples inserted, some deleted again (their
/// values stay in the pool, dead), optionally a pool compaction that
/// re-stamps every row; plus pending logs that mix the deleted tuples,
/// live tuples and fresh values the pool has never held.
fn arb_history_snapshot() -> impl Strategy<Value = orchestra_persist::Snapshot> {
    (
        prop::collection::vec(arb_tuple(2), 0..12),
        prop::collection::vec(arb_tuple(3), 0..12),
        prop::collection::vec(any::<bool>(), 24..25),
        any::<bool>(),
        prop::collection::vec(arb_tuple(2), 0..6),
        any::<bool>(),
    )
        .prop_map(|(a, b, dead, compact, fresh, nullary)| {
            let mut db = Database::new();
            db.create_relation(RelationSchema::anonymous("A", 2))
                .unwrap();
            db.create_relation(RelationSchema::anonymous("B", 3))
                .unwrap();
            db.create_relation(RelationSchema::anonymous("Z", 0))
                .unwrap();
            if nullary {
                db.insert("Z", Tuple::empty()).unwrap();
            }
            for t in &a {
                db.insert("A", t.clone()).unwrap();
            }
            for t in &b {
                db.insert("B", t.clone()).unwrap();
            }
            let mut removed_a = Vec::new();
            let mut removed_b = Vec::new();
            for (i, t) in a.iter().enumerate() {
                if dead[i] && db.remove("A", t).unwrap() {
                    removed_a.push(t.clone());
                }
            }
            for (i, t) in b.iter().enumerate() {
                if dead[12 + i] && db.remove("B", t).unwrap() {
                    removed_b.push(t.clone());
                }
            }
            if compact {
                db.compact_pool();
            }
            let mut log_a = EditLog::new("A");
            for t in &removed_a {
                log_a.push_insert(t.clone());
            }
            for t in fresh {
                log_a.push_delete(t);
            }
            for t in a.iter().take(3) {
                log_a.push_insert(t.clone());
            }
            let mut log_b = EditLog::new("B");
            for t in removed_b {
                log_b.push_delete(t);
            }
            orchestra_persist::Snapshot {
                epoch: 11,
                manifest: vec![9, 8, 7],
                db,
                pending: vec![
                    orchestra_persist::PendingLogs {
                        peer: "P".into(),
                        logs: vec![log_a],
                    },
                    orchestra_persist::PendingLogs {
                        peer: "Q".into(),
                        logs: vec![log_b],
                    },
                ],
            }
        })
}

proptest! {
    /// The row-remap encoder writes exactly the value-keyed reference's
    /// bytes, and they decode back to the same state.
    #[test]
    fn snapshot_encoder_matches_the_value_keyed_reference(snap in arb_history_snapshot()) {
        use orchestra_persist::Snapshot;
        let bytes = snap.to_bytes();
        prop_assert_eq!(&bytes, &reference_snapshot_payload(&snap));
        let back = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}

/// The committed golden snapshots re-encode to their exact payload bytes.
#[test]
fn golden_snapshots_reencode_byte_identically() {
    use orchestra_persist::snapshot::{load_snapshot, SNAPSHOT_VERSION};
    for name in ["state_engine0", "state_engine1"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name)
            .join("state.snapshot");
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file[4], SNAPSHOT_VERSION, "{name}: current format");
        let snap = load_snapshot(&path).unwrap().expect("golden snapshot");
        assert!(snap.db.total_tuples() > 0, "{name}: holds tuples");
        let payload = &file[13..];
        assert_eq!(snap.to_bytes(), payload, "{name}: re-encoded bytes");
        assert_eq!(reference_snapshot_payload(&snap), payload, "{name}");
    }
}

/// A legacy v1 snapshot file — its payload assembled with the v1 layout the
/// codec wrote before the pooled format — must still open.
#[test]
fn v1_snapshot_fixture_still_opens() {
    use orchestra_persist::codec::{encode_seq, Writer};
    use orchestra_persist::crc::crc32;
    use orchestra_persist::snapshot::load_snapshot;
    use orchestra_persist::PendingLogs;

    let mut db = Database::new();
    db.create_relation(RelationSchema::new("B_l", &["id", "nam"]))
        .unwrap();
    db.insert("B_l", int_tuple(&[3, 5])).unwrap();
    db.insert(
        "B_l",
        Tuple::new(vec![
            Value::int(9),
            Value::labeled_null(SkolemFnId(1), vec![Value::text("x")]),
        ]),
    )
    .unwrap();
    let mut log = EditLog::new("B");
    log.push_insert(int_tuple(&[7, 8]));
    log.push_delete(int_tuple(&[1, 1]));
    let pending = vec![PendingLogs {
        peer: "PBioSQL".into(),
        logs: vec![log.clone()],
    }];

    // v1 payload: epoch, manifest, plain database, plain pending logs.
    let mut payload = Writer::new();
    payload.put_u64(4);
    payload.put_bytes(&[0xAA, 0xBB]);
    db.encode(&mut payload);
    encode_seq(&pending, &mut payload);
    let payload = payload.into_bytes();

    // v1 file framing: magic, version byte 1, crc, len, payload.
    let mut file = Vec::new();
    file.extend_from_slice(b"OSNP");
    file.push(1);
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&payload);

    let dir = TempDir::new("v1-fixture");
    let path = dir.path().join("state.snapshot");
    std::fs::write(&path, &file).unwrap();

    let snap = load_snapshot(&path).unwrap().expect("fixture opens");
    assert_eq!(snap.epoch, 4);
    assert_eq!(snap.manifest, vec![0xAA, 0xBB]);
    assert_eq!(snap.db, db);
    assert_eq!(snap.pending, pending);
}

// -----------------------------------------------------------------------
// Snapshot → recover equality on a generated multi-peer CDSS.
// -----------------------------------------------------------------------

fn running_example(dir: &std::path::Path) -> Cdss {
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
        .with_persistence(dir)
        .build()
        .unwrap()
}

/// One random epoch: a few inserts and deletes at one peer, then publish.
type EpochEdits = (u8, Vec<(i64, i64, i64)>, Vec<(i64, i64)>);

fn apply_epoch(cdss: &mut Cdss, (peer_pick, inserts, deletes): &EpochEdits) {
    let (peer, relation) = match peer_pick % 3 {
        0 => ("PGUS", "G"),
        1 => ("PBioSQL", "B"),
        _ => ("PuBio", "U"),
    };
    for (a, b, c) in inserts {
        let tuple = match relation {
            "G" => int_tuple(&[*a, *b, *c]),
            _ => int_tuple(&[*a, *b]),
        };
        cdss.insert_local(peer, relation, tuple).unwrap();
    }
    for (a, b) in deletes {
        let tuple = match relation {
            "G" => int_tuple(&[*a, *b, 0]),
            _ => int_tuple(&[*a, *b]),
        };
        cdss.delete_local(peer, relation, tuple).unwrap();
    }
    cdss.update_exchange(peer).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_cdss_recovers_byte_identically(
        epochs in prop::collection::vec(
            (
                any::<u8>(),
                prop::collection::vec((0i64..6, 0i64..6, 0i64..6), 1..5),
                prop::collection::vec((0i64..6, 0i64..6), 0..3),
            ),
            2..5,
        ),
        checkpoint_after in any::<bool>(),
    ) {
        let dir = TempDir::new("prop-recover");
        let mut cdss = running_example(dir.path());
        for epoch in &epochs {
            apply_epoch(&mut cdss, epoch);
        }
        if checkpoint_after {
            cdss.checkpoint().unwrap();
        }
        let expected = cdss.database().to_bytes();
        let expected_epoch = cdss.current_epoch();
        drop(cdss);

        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        prop_assert!(report.corrupt_tail.is_none());
        prop_assert_eq!(recovered.current_epoch(), expected_epoch);
        prop_assert_eq!(recovered.database().to_bytes(), expected);
    }
}

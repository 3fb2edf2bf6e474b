//! Integration tests for the `orchestra-net` service layer: concurrent
//! clients, serializable-equivalent final state, and the three-peer
//! end-to-end scenario over TCP (ISSUE 2 acceptance criteria).

use std::collections::BTreeMap;
use std::time::Duration;

use orchestra_net::scenario::example_scenario;
use orchestra_net::{serve, EditBatch, NetClient};
use orchestra_persist::codec::Encode;
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::Tuple;

/// The relations a client can edit in the example scenario, as
/// `(peer, relation, arity)` triples — the targets the concurrent-publish
/// tests publish against.
fn example_targets() -> Vec<(String, String, usize)> {
    vec![
        ("PGUS".into(), "G".into(), 3),
        ("PBioSQL".into(), "B".into(), 2),
        ("PuBio".into(), "U".into(), 2),
    ]
}

/// The example scenario builds, and its peers declare exactly the
/// relations and arities [`example_targets`] publishes against.
#[test]
fn scenario_builds_and_targets_match() {
    let cdss = example_scenario();
    for (peer, relation, arity) in example_targets() {
        let p = cdss.peer(&peer).unwrap();
        assert_eq!(p.relation(&relation).unwrap().arity(), arity);
    }
}

/// The tuple a given `(client, batch, op)` coordinate publishes.
fn coord_tuple(client: usize, batch: usize, op: usize, arity: usize) -> Tuple {
    let base = ((client as i64) << 16) + ((batch as i64) << 8) + op as i64;
    int_tuple(&(0..arity as i64).map(|c| base + c).collect::<Vec<_>>())
}

/// N client threads publish interleaved edits (inserts and deletes, some
/// targeting tuples other clients inserted), then one exchange folds
/// everything in. The final instances and provenance graph must be
/// byte-identical to a serial replay of the same batches in the server's
/// admission order.
#[test]
fn concurrent_publishes_equal_serial_replay() {
    const CLIENTS: usize = 8;
    const BATCHES: usize = 6;
    const OPS: usize = 10;

    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let targets = example_targets();

    // Publish phase: every client thread records the admission sequence
    // number the server assigned to each of its batches.
    let mut workers = Vec::new();
    for client_idx in 0..CLIENTS {
        let targets = targets.clone();
        workers.push(std::thread::spawn(move || {
            let mut client =
                NetClient::connect_with_retry(addr, 20, Duration::from_millis(50)).unwrap();
            let mut admitted: Vec<(u64, EditBatch)> = Vec::new();
            for batch_idx in 0..BATCHES {
                let (peer, relation, arity) = &targets[(client_idx + batch_idx) % targets.len()];
                let inserts: Vec<Tuple> = (0..OPS)
                    .map(|op| coord_tuple(client_idx, batch_idx, op, *arity))
                    .collect();
                // Odd batches also delete a tuple a *different* client
                // inserts (or will insert), exercising retraction vs
                // rejection classification under interleaving.
                let mut batch = EditBatch::for_peer(peer.clone()).insert(relation.clone(), inserts);
                if batch_idx % 2 == 1 {
                    let victim = coord_tuple((client_idx + 1) % CLIENTS, batch_idx, 0, *arity);
                    batch = batch.delete(relation.clone(), vec![victim]);
                }
                let (seq, _ops) = client.publish_edits(batch.clone()).unwrap();
                admitted.push((seq, batch));
            }
            admitted
        }));
    }
    let mut admitted: Vec<(u64, EditBatch)> = Vec::new();
    for worker in workers {
        admitted.extend(worker.join().unwrap());
    }

    // One exchange over the wire; the server drains the queue in admission
    // order under the write lock.
    let mut client = NetClient::connect(addr).unwrap();
    let summary = client.update_exchange(None).unwrap();
    assert_eq!(summary.batches_applied, (CLIENTS * BATCHES) as u64);

    // Read the final state remotely, including every tuple's provenance.
    let mut remote_instances: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    let mut remote_provenance: BTreeMap<(String, Tuple), String> = BTreeMap::new();
    for (peer, relation, _) in &targets {
        let tuples = client.query_local(peer, relation).unwrap();
        for t in &tuples {
            let prov = client.provenance_of(relation, t.clone()).unwrap();
            remote_provenance.insert((relation.clone(), t.clone()), prov.expression);
        }
        remote_instances.insert(relation.clone(), tuples);
    }
    client.shutdown().unwrap();
    let server_cdss = handle.join();

    // Serial replay: the same batches, one by one, in admission order,
    // against a fresh in-process CDSS, then one exchange for every peer in
    // id order (exactly what the server runs).
    let mut replay = example_scenario();
    admitted.sort_by_key(|(seq, _)| *seq);
    assert_eq!(admitted.len(), CLIENTS * BATCHES);
    for (_seq, batch) in &admitted {
        for (relation, tuples) in &batch.inserts {
            for t in tuples {
                replay
                    .insert_local(&batch.peer, relation, t.clone())
                    .unwrap();
            }
        }
        for (relation, tuples) in &batch.deletes {
            for t in tuples {
                replay
                    .delete_local(&batch.peer, relation, t.clone())
                    .unwrap();
            }
        }
    }
    replay.update_exchange_all().unwrap();

    // Instances agree, byte for byte, remotely and in the returned state.
    for (peer, relation, _) in &targets {
        let replayed = replay.local_instance(peer, relation).unwrap();
        assert_eq!(
            remote_instances[relation], replayed,
            "instance of {relation} diverges from serial replay"
        );
        assert_eq!(
            server_cdss.local_instance(peer, relation).unwrap(),
            replayed
        );
    }
    assert_eq!(
        server_cdss.database().to_bytes(),
        replay.database().to_bytes(),
        "auxiliary stores (instances + provenance relations) must be byte-identical"
    );

    // Provenance graphs agree on every output tuple: what the server
    // answered over the wire equals the replay's canonical expression, and
    // so does the returned server state.
    for (peer, relation, _) in &targets {
        for t in replay.local_instance(peer, relation).unwrap() {
            let replayed = replay.provenance_of(relation, &t).canonical().to_string();
            assert_eq!(
                remote_provenance[&(relation.clone(), t.clone())],
                replayed,
                "remote provenance of {relation} tuple {t} diverges"
            );
            assert_eq!(
                server_cdss
                    .provenance_of(relation, &t)
                    .canonical()
                    .to_string(),
                replayed,
                "provenance of {relation} tuple {t} diverges"
            );
        }
    }
}

/// The acceptance scenario: a three-peer CDSS served over loopback TCP —
/// publish, exchange, certain answers, remote provenance — plus publishing
/// concurrently *while* exchanges run (queued edits are never lost).
#[test]
fn three_peer_scenario_end_to_end_over_tcp() {
    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Example 3's edits, one connection per peer as if each peer's DBMS
    // were a separate process.
    let edits: [(&str, &str, Vec<Tuple>); 3] = [
        (
            "PGUS",
            "G",
            vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])],
        ),
        ("PBioSQL", "B", vec![int_tuple(&[3, 5])]),
        ("PuBio", "U", vec![int_tuple(&[2, 5])]),
    ];
    for (peer, relation, tuples) in edits {
        let mut client = NetClient::connect(addr).unwrap();
        client
            .publish_edits(EditBatch::for_peer(peer).insert(relation, tuples))
            .unwrap();
    }

    let mut client = NetClient::connect(addr).unwrap();
    let summary = client.update_exchange(None).unwrap();
    assert_eq!(summary.peers_exchanged, 3);

    let b = client.query_certain("PBioSQL", "B").unwrap();
    assert_eq!(
        b,
        vec![
            int_tuple(&[1, 3]),
            int_tuple(&[3, 2]),
            int_tuple(&[3, 3]),
            int_tuple(&[3, 5]),
        ]
    );

    let prov = client.provenance_of("B", int_tuple(&[3, 2])).unwrap();
    assert_eq!(prov.derivations, 2);
    assert!(prov.expression.contains("m4("), "{}", prov.expression);

    // Publishes racing exchanges: edits admitted mid-exchange are applied
    // by a later exchange, never dropped.
    let publisher = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        for i in 0..20 {
            client
                .publish_edits(
                    EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[500 + i, i, i])]),
                )
                .unwrap();
        }
    });
    let mut exchange_client = NetClient::connect(addr).unwrap();
    for _ in 0..5 {
        exchange_client.update_exchange(None).unwrap();
    }
    publisher.join().unwrap();
    exchange_client.update_exchange(None).unwrap();

    let g = exchange_client.query_local("PGUS", "G").unwrap();
    assert_eq!(g.len(), 2 + 20, "all raced publishes must land");
    let stats = exchange_client.stats().unwrap();
    assert_eq!(stats.pending_batches, 0);

    handle.stop_and_join();
}

/// Snapshot isolation: reader threads querying *during* a bulk exchange
/// only ever observe whole epochs — every response equals the pre-exchange
/// oracle or the post-exchange oracle, never a mix of the two — and each
/// connection's view is monotonic (once the new epoch is seen, the old one
/// never reappears).
#[test]
fn snapshot_reads_see_whole_epochs_during_exchange() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const READERS: usize = 4;
    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut client = NetClient::connect(addr).unwrap();

    // Pre-exchange oracle: a seeded, fully exchanged instance.
    let seed: Vec<Tuple> = (0..150i64).map(|i| int_tuple(&[i, i + 1, i + 2])).collect();
    client
        .publish_edits(EditBatch::for_peer("PGUS").insert("G", seed))
        .unwrap();
    client.update_exchange(Some("PGUS")).unwrap();
    let pre_b = client.query_local("PBioSQL", "B").unwrap();
    let pre_u = client.query_local("PuBio", "U").unwrap();

    // The bulk epoch the readers will race. A single-peer exchange is one
    // snapshot publication covering the whole deletion+insertion round, so
    // exactly two epochs are observable below.
    let bulk: Vec<Tuple> = (0..800i64)
        .map(|i| int_tuple(&[1_000 + i, 10_000 + i, 20_000 + i]))
        .collect();
    client
        .publish_edits(EditBatch::for_peer("PGUS").insert("G", bulk))
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client =
                    NetClient::connect_with_retry(addr, 20, Duration::from_millis(50)).unwrap();
                let mut samples: Vec<(Vec<Tuple>, Vec<Tuple>)> = Vec::new();
                loop {
                    // Read-before-stop-check: at least one sample lands
                    // even if the exchange finishes instantly.
                    let b = client.query_local("PBioSQL", "B").unwrap();
                    let u = client.query_local("PuBio", "U").unwrap();
                    samples.push((b, u));
                    if stop.load(Ordering::SeqCst) {
                        return samples;
                    }
                }
            })
        })
        .collect();

    client.update_exchange(Some("PGUS")).unwrap();
    stop.store(true, Ordering::SeqCst);

    let post_b = client.query_local("PBioSQL", "B").unwrap();
    let post_u = client.query_local("PuBio", "U").unwrap();
    assert!(post_b.len() > pre_b.len(), "the bulk epoch must be visible");

    for reader in readers {
        let samples = reader.join().unwrap();
        assert!(!samples.is_empty());
        let mut b_advanced = false;
        let mut u_advanced = false;
        for (b, u) in samples {
            // Whole-epoch reads: never a partially applied exchange.
            assert!(
                b == pre_b || b == post_b,
                "B response ({} tuples) is neither the pre-exchange epoch ({}) nor the \
                 post-exchange epoch ({})",
                b.len(),
                pre_b.len(),
                post_b.len()
            );
            assert!(
                u == pre_u || u == post_u,
                "U response ({} tuples) is neither the pre-exchange epoch ({}) nor the \
                 post-exchange epoch ({})",
                u.len(),
                pre_u.len(),
                post_u.len()
            );
            // Monotonic views: an epoch, once observed, never rolls back.
            if b_advanced {
                assert_eq!(b, post_b, "B rolled back to the pre-exchange epoch");
            }
            if u_advanced {
                assert_eq!(u, post_u, "U rolled back to the pre-exchange epoch");
            }
            b_advanced = b == post_b && post_b != pre_b;
            u_advanced = u == post_u && post_u != pre_u;
        }
    }

    // The snapshot counters saw all of it: reads were served lock-free and
    // both exchanges published a fresh epoch view.
    let stats = client.stats().unwrap();
    assert!(stats.snapshot_reads > 0, "{stats:?}");
    assert!(stats.snapshots_published >= 2, "{stats:?}");
    assert!(stats.snapshot_epoch >= 2, "{stats:?}");
    handle.stop_and_join();
}

/// A persistent server checkpoints over the wire and recovers its state.
#[test]
fn remote_checkpoint_then_recover() {
    use orchestra_net::scenario::example_scenario_builder;
    use orchestra_persist::testutil::TempDir;

    let dir = TempDir::new("net-checkpoint");
    let cdss = example_scenario_builder()
        .with_persistence(dir.path())
        .build()
        .unwrap();

    let handle = serve(cdss, "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client
        .publish_edits(
            EditBatch::for_peer("PGUS")
                .insert("G", vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])]),
        )
        .unwrap();
    let summary = client.update_exchange(Some("PGUS")).unwrap();
    assert_eq!(summary.epoch, 1);
    client.checkpoint().unwrap();
    client.shutdown().unwrap();
    let served = handle.join();
    let expected = served.database().to_bytes();

    let (recovered, report) = orchestra_core::Cdss::open_or_recover(dir.path()).unwrap();
    assert_eq!(report.snapshot_epoch, 1);
    assert_eq!(report.replayed_epochs, 0);
    assert_eq!(recovered.database().to_bytes(), expected);
}

/// A served system whose `PQ` peer owns `Q`, of arity 4, mapped onto `PS`'s
/// `S`; 30 `Q` tuples exchanged, then `reads` run over loopback between
/// two more exchanges. Returns the system once the server has stopped.
fn serve_point_reads(reads: impl Fn(&mut NetClient)) -> orchestra_core::Cdss {
    let cdss = orchestra_core::CdssBuilder::new()
        .add_peer(
            "PQ",
            vec![orchestra_storage::RelationSchema::new(
                "Q",
                &["a", "b", "c", "d"],
            )],
        )
        .add_peer(
            "PS",
            vec![orchestra_storage::RelationSchema::new("S", &["a", "d"])],
        )
        .add_mapping_str("m", "Q(a, b, c, d) -> S(a, d)")
        .build()
        .unwrap();
    let handle = serve(cdss, "127.0.0.1:0").unwrap();
    let mut client =
        NetClient::connect_with_retry(handle.addr(), 20, Duration::from_millis(50)).unwrap();
    for round in 0..3i64 {
        let tuples = (round * 10..round * 10 + 10)
            .map(|i| int_tuple(&[i, i % 3, i % 5, i % 2]))
            .collect();
        client
            .publish_edits(EditBatch::for_peer("PQ").insert("Q", tuples))
            .unwrap();
        client.update_exchange(Some("PQ")).unwrap();
        if round < 2 {
            reads(&mut client);
        }
    }
    handle.stop_and_join()
}

/// Point reads with every one of the 16 binding shapes of an arity-4
/// relation, over the wire: answers equal a filter of the full instance,
/// the writer adds at most one index per column, and neither the reads nor
/// the indexes they cause mint a snapshot epoch. Rejected reads (wrong
/// arity, a relation the peer does not own) leave the system unchanged.
#[test]
fn point_reads_of_every_shape_add_at_most_arity_indexes() {
    use orchestra_storage::Value;

    let index_counts = |cdss: &orchestra_core::Cdss| -> Vec<(String, usize)> {
        cdss.database()
            .relations()
            .map(|r| (r.name().to_string(), r.index_count()))
            .collect()
    };
    let quiet = serve_point_reads(|_| {});
    let rejected = serve_point_reads(|client| {
        let four = vec![Some(Value::int(1)); 4];
        assert!(client
            .query_certain_where("PQ", "Q", vec![None; 3])
            .is_err());
        assert!(client.query_local_where("PQ", "S", four.clone()).is_err());
        assert!(client.query_certain_where("PS", "Q", four).is_err());
    });
    let every_shape = serve_point_reads(|client| {
        let all = client.query_certain("PQ", "Q").unwrap();
        let key = int_tuple(&[7, 1, 2, 1]);
        for _ in 0..2 {
            for mask in 0..16u8 {
                let binding: Vec<Option<Value>> = (0..4)
                    .map(|i| (mask >> i & 1 == 1).then(|| key[i].clone()))
                    .collect();
                let expected: Vec<Tuple> = all
                    .iter()
                    .filter(|t| {
                        binding
                            .iter()
                            .enumerate()
                            .all(|(i, b)| b.as_ref().is_none_or(|v| &t[i] == v))
                    })
                    .cloned()
                    .collect();
                let got = client.query_certain_where("PQ", "Q", binding).unwrap();
                assert_eq!(got, expected, "shape {mask:04b}");
            }
        }
    });

    let epochs = quiet.snapshots_published();
    assert_eq!(rejected.snapshots_published(), epochs);
    assert_eq!(every_shape.snapshots_published(), epochs);
    assert_eq!(index_counts(&rejected), index_counts(&quiet));
    for ((name, quiet_n), (_, n)) in index_counts(&quiet)
        .into_iter()
        .zip(index_counts(&every_shape))
    {
        if name == "Q_o" {
            assert!(n > quiet_n && n <= quiet_n + 4, "{name}: {quiet_n} -> {n}");
        } else {
            assert_eq!(n, quiet_n, "{name}");
        }
    }
}

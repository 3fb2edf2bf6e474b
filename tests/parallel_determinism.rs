//! Determinism differential for the parallel fixpoint engine.
//!
//! The work-stealing evaluator must be **bit-for-bit deterministic**: the
//! final instance, its canonical persist-codec encoding, and canonical
//! provenance must be identical whether a fixpoint runs inline on one
//! thread, on 2 workers, or on 8 workers — and identical to the naive
//! reference interpreter, which shares no machinery with the optimized
//! path. Worker count may only change *wall-clock time*, never results.

use std::collections::HashMap;

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_datalog::reference::run_reference;
use orchestra_datalog::{parse_program, Evaluator, PlanCache, Program};
use orchestra_persist::codec::{Encode, Writer};
use orchestra_pool::Pool;
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{Database, RelationSchema, Tuple};

/// Canonical byte encoding of a whole database via the persist codec.
fn canonical_bytes(db: &Database) -> Vec<u8> {
    let mut w = Writer::new();
    db.encode(&mut w);
    w.into_bytes()
}

/// A transitive-closure-plus-negation program whose fixpoint produces
/// deltas large enough to be chunked across workers.
fn program() -> Program {
    // `banned` is a static EDB relation (never touched by the incremental
    // batches), so negating it keeps insertion propagation legal.
    parse_program(
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).\n\
         blocked(x, y) :- path(x, y), !banned(x, y).",
    )
    .unwrap()
}

/// A dense deterministic edge set: a chain plus xorshift shortcut edges.
fn edge_db(chain: i64, extra: usize) -> Database {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("edge", &["s", "d"]))
        .unwrap();
    db.create_relation(RelationSchema::new("path", &["s", "d"]))
        .unwrap();
    db.create_relation(RelationSchema::new("blocked", &["s", "d"]))
        .unwrap();
    db.create_relation(RelationSchema::new("banned", &["s", "d"]))
        .unwrap();
    for i in 0..chain - 1 {
        db.insert("edge", int_tuple(&[i, i + 1])).unwrap();
        if i % 3 == 0 {
            db.insert("banned", int_tuple(&[i, i + 1])).unwrap();
        }
    }
    let mut state: i64 = 88172645463325252;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.rem_euclid(chain)
    };
    let mut added = 0;
    while added < extra {
        let (a, b) = (next(), next());
        if a != b && db.insert("edge", int_tuple(&[a, b])).unwrap() {
            added += 1;
        }
    }
    db
}

/// Incremental edge batches extending the chain, disjoint per round.
fn edge_batch(round: i64) -> HashMap<String, Vec<Tuple>> {
    let mut m = HashMap::new();
    m.insert(
        "edge".to_string(),
        (0..6)
            .map(|i| int_tuple(&[1000 + 10 * round + i, 1001 + 10 * round + i]))
            .chain(std::iter::once(int_tuple(&[10 * round, 1000 + 10 * round])))
            .collect::<Vec<_>>(),
    );
    m
}

/// A batch above the chunk floor: 100 fresh disjoint edges, one of them
/// hanging off node 5 — enough delta rows for the first rounds to fan out
/// over the pool, and few rounds in all.
fn large_edge_batch() -> HashMap<String, Vec<Tuple>> {
    let mut m = HashMap::new();
    m.insert(
        "edge".to_string(),
        (0..100)
            .map(|i| int_tuple(&[2000 + 2 * i, 2001 + 2 * i]))
            .chain(std::iter::once(int_tuple(&[5, 2000])))
            .collect::<Vec<_>>(),
    );
    m
}

/// Every batch `run_stream` propagates: the two small ones, then the
/// large one.
fn batches() -> Vec<HashMap<String, Vec<Tuple>>> {
    vec![edge_batch(0), edge_batch(1), large_edge_batch()]
}

/// Run the fixpoint plus the incremental propagations of [`batches`] under
/// `eval`; return the canonical encoding of the final database and each
/// propagation's pool task count.
fn run_stream(mut eval: Evaluator) -> (Vec<u8>, Vec<usize>) {
    let program = program();
    let mut db = edge_db(48, 40);
    let mut cache = PlanCache::new();
    eval.run_filtered_cached(&mut cache, &program, &mut db, None)
        .unwrap();
    let mut spawned = Vec::new();
    for batch in batches() {
        eval.take_stats();
        eval.propagate_insertions_cached(&mut cache, &program, &mut db, &batch, None)
            .unwrap();
        spawned.push(eval.take_stats().parallel_tasks_spawned);
    }
    (canonical_bytes(&db), spawned)
}

/// Datalog-level differential: 1/2/8 workers, the sequential evaluator,
/// and the naive reference interpreter all reach byte-identical fixpoints.
/// The small batches stay below the chunk floor and never touch the pool;
/// the large one runs on it — so both sides of the size test are checked.
#[test]
fn fixpoint_bytes_are_worker_count_independent() {
    let (sequential, _) = run_stream(Evaluator::sequential());
    for threads in [1usize, 2, 8] {
        let (parallel, spawned) = run_stream(Evaluator::with_pool(Pool::new(threads)));
        assert_eq!(
            parallel, sequential,
            "{threads}-worker encode diverges from sequential"
        );
        if threads > 1 {
            assert_eq!(
                spawned[..2],
                [0, 0],
                "{threads} workers: small batches spawned pool tasks"
            );
            assert!(
                spawned[2] > 0,
                "{threads} workers: the large batch never reached the pool"
            );
        }
    }

    // The naive reference interpreter (full-stop semantics, no incremental
    // machinery) agrees on the same final instance.
    let program = program();
    let mut oracle = edge_db(48, 40);
    for batch in batches() {
        for (rel, tuples) in batch {
            for t in tuples {
                oracle.insert(&rel, t).unwrap();
            }
        }
    }
    run_reference(&program, &mut oracle).unwrap();
    assert_eq!(
        canonical_bytes(&oracle),
        run_stream(Evaluator::with_pool(Pool::new(8))).0,
        "8-worker fixpoint diverges from the naive reference interpreter"
    );
}

// ---------------------------------------------------------------------
// CDSS-level: the paper's running example under a deterministic edit
// stream, exchanged at different pool sizes.
// ---------------------------------------------------------------------

fn example_cdss(threads: Option<usize>) -> Cdss {
    let mut cdss = CdssBuilder::new()
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
        .unwrap();
    if let Some(t) = threads {
        cdss.set_eval_threads(t);
    }
    cdss
}

/// A deterministic interleaved insert/delete edit stream (xorshift).
fn apply_edits(cdss: &mut Cdss, edits: usize) {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..edits {
        let r = next();
        let (a, b, c) = ((r >> 8) % 5, (r >> 16) % 5, (r >> 24) % 5);
        let (a, b, c) = (a as i64, b as i64, c as i64);
        let (peer, rel, tuple) = match r % 3 {
            0 => ("PGUS", "G", int_tuple(&[a, b, c])),
            1 => ("PBioSQL", "B", int_tuple(&[a, b])),
            _ => ("PuBio", "U", int_tuple(&[a, b])),
        };
        // Delete only what was certainly inserted before: re-insert first,
        // exchange, then delete on a minority of rounds.
        cdss.insert_local(peer, rel, tuple.clone()).unwrap();
        cdss.update_exchange(peer).unwrap();
        if r % 7 == 0 {
            cdss.delete_local(peer, rel, tuple).unwrap();
            cdss.update_exchange(peer).unwrap();
        }
    }
}

/// CDSS-level differential: update exchanges at 1/2/8 workers produce a
/// byte-identical database encoding and identical canonical provenance to
/// the sequential default.
#[test]
fn cdss_exchange_is_worker_count_independent() {
    let mut baseline = example_cdss(None);
    apply_edits(&mut baseline, 24);
    let baseline_bytes = canonical_bytes(baseline.database());

    for threads in [1usize, 2, 8] {
        let mut cdss = example_cdss(Some(threads));
        assert_eq!(cdss.eval_threads(), threads);
        apply_edits(&mut cdss, 24);
        assert_eq!(
            canonical_bytes(cdss.database()),
            baseline_bytes,
            "{threads}-worker exchange encode diverges from the default"
        );
        for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
            let tuples = baseline.local_instance(peer, rel).unwrap();
            assert_eq!(&cdss.local_instance(peer, rel).unwrap(), &tuples);
            for t in &tuples {
                let mut a = baseline.provenance_of(rel, t);
                let mut b = cdss.provenance_of(rel, t);
                a.canonicalize();
                b.canonicalize();
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "{threads}-worker provenance of {rel}{t} diverges"
                );
            }
        }
    }
}

/// Stress: the same dense fixpoint repeated on a shared 8-worker pool must
/// be byte-identical every time (racing merges would show up as run-to-run
/// drift long before they produce a wrong instance).
#[test]
fn repeated_parallel_fixpoint_is_stable() {
    let pool = Pool::new(8);
    let first = run_stream(Evaluator::with_pool(pool.clone())).0;
    for round in 0..8 {
        let again = run_stream(Evaluator::with_pool(pool.clone())).0;
        assert_eq!(again, first, "run {round} diverged on the shared pool");
    }
}

//! Determinism differential for the fixpoint engine.
//!
//! Evaluation runs on one thread: every semi-naive round runs inline on
//! the caller and `Cdss::eval_threads()` is always 1. These cases once ran
//! the same work at 1, 2 and 8 pool workers; they keep their names and now
//! pin the one remaining path to oracles that share no machinery with it:
//!
//! * a fixpoint whose rounds carry hundreds of delta rows through rules
//!   with several occurrences of one relation reaches the bytes of the
//!   naive reference interpreter;
//! * a long insert/delete exchange stream on the paper's running example
//!   leaves the store and canonical provenance identical to `recompute_all`;
//! * the same fixpoint, repeated in fresh evaluators and databases, encodes
//!   to the same bytes every time.
//!
//! "Byte-identical" is checked literally: final databases are serialized
//! with the canonical persist codec and the encodings compared.

use std::collections::HashMap;

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_datalog::reference::run_reference;
use orchestra_datalog::{parse_program, Evaluator, PlanCache, Program, Seed};
use orchestra_persist::codec::{Encode, Writer};
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{Database, RelationSchema, Tuple};

/// Canonical byte encoding of a whole database via the persist codec.
fn canonical_bytes(db: &Database) -> Vec<u8> {
    let mut w = Writer::new();
    db.encode(&mut w);
    w.into_bytes()
}

/// Transitive closure plus negation plus a two-hop join: an `edge` delta
/// feeds four occurrences (both of `hop2`'s among them) and a `path` delta
/// two. `banned` is never in an incremental batch, so negating it keeps
/// insertion propagation legal.
fn closure_program() -> Program {
    parse_program(
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).\n\
         hop2(x, z) :- edge(x, y), edge(y, z).\n\
         blocked(x, y) :- path(x, y), !banned(x, y).",
    )
    .unwrap()
}

/// A chain of `chain` nodes plus `extra` xorshift shortcut edges; every
/// third chain edge is banned.
fn closure_db(chain: i64, extra: usize) -> Database {
    let mut db = Database::new();
    for rel in ["edge", "path", "hop2", "blocked", "banned"] {
        db.create_relation(RelationSchema::new(rel, &["s", "d"]))
            .unwrap();
    }
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

/// Two small edge batches extending the chain, then one of 101 edges (100
/// disjoint pairs and one hanging off node 5): its first rounds carry well
/// over a hundred delta rows.
fn closure_batches() -> Vec<HashMap<String, Vec<Tuple>>> {
    let small = |round: i64| {
        (0..6)
            .map(|i| int_tuple(&[1000 + 10 * round + i, 1001 + 10 * round + i]))
            .chain(std::iter::once(int_tuple(&[10 * round, 1000 + 10 * round])))
            .collect::<Vec<_>>()
    };
    let large = (0..100)
        .map(|i| int_tuple(&[2000 + 2 * i, 2001 + 2 * i]))
        .chain(std::iter::once(int_tuple(&[5, 2000])))
        .collect::<Vec<_>>();
    [small(0), small(1), large]
        .into_iter()
        .map(|edges| HashMap::from([("edge".to_string(), edges)]))
        .collect()
}

/// A fixpoint and the incremental propagations of [`closure_batches`]
/// through one plan cache (the exchange pattern) in a fresh evaluator;
/// returns the canonical encoding of the final database.
fn run_stream() -> Vec<u8> {
    let program = closure_program();
    let mut db = closure_db(48, 40);
    let mut cache = PlanCache::new();
    let mut eval = Evaluator::new();
    eval.fixpoint(&mut cache, &program, &mut db, Seed::All, None)
        .unwrap();
    for batch in closure_batches() {
        eval.fixpoint(&mut cache, &program, &mut db, Seed::Insert(&batch), None)
            .unwrap();
    }
    canonical_bytes(&db)
}

/// The large-delta fixpoint reaches the bytes of the naive reference
/// interpreter run over the whole edit stream at once.
#[test]
fn fixpoint_bytes_are_worker_count_independent() {
    let mut oracle = closure_db(48, 40);
    for batch in closure_batches() {
        for (rel, tuples) in batch {
            for t in tuples {
                oracle.insert(&rel, t).unwrap();
            }
        }
    }
    run_reference(&closure_program(), &mut oracle).unwrap();
    assert!(oracle.relation("hop2").unwrap().len() > 100);
    assert_eq!(
        run_stream(),
        canonical_bytes(&oracle),
        "large-delta fixpoint diverges from the reference interpreter"
    );
}

/// The same fixpoint, repeated in fresh evaluators and databases, is
/// byte-identical every time: nothing per-instance (hasher seeds, arena
/// addresses) may leak into tuple ids or encode order.
#[test]
fn repeated_parallel_fixpoint_is_stable() {
    let first = run_stream();
    for round in 0..8 {
        assert_eq!(run_stream(), first, "run {round} diverged");
    }
}

// ---------------------------------------------------------------------
// CDSS-level: the paper's running example under a deterministic edit
// stream.
// ---------------------------------------------------------------------

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

/// One edit: (peer/relation selector, values, delete?).
type Edit = (usize, i64, i64, i64, bool);

/// A deterministic interleaved insert/delete stream (xorshift): every edit
/// is inserted and exchanged, and one in seven is then deleted and
/// exchanged again, so a delete never names an absent tuple.
fn xorshift_edits(count: usize) -> Vec<Edit> {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut edits = Vec::new();
    for _ in 0..count {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = state;
        let (a, b, c) = ((r >> 8) % 5, (r >> 16) % 5, (r >> 24) % 5);
        let edit = ((r % 3) as usize, a as i64, b as i64, c as i64, false);
        edits.push(edit);
        if r.is_multiple_of(7) {
            edits.push((edit.0, edit.1, edit.2, edit.3, true));
        }
    }
    edits
}

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

/// Canonical provenance of every tuple of every peer instance, rendered.
fn canonical_provenance(cdss: &Cdss) -> Vec<String> {
    let mut out = Vec::new();
    for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
        for t in cdss.local_instance(peer, rel).unwrap() {
            let mut p = cdss.provenance_of(rel, &t);
            p.canonicalize();
            out.push(format!("{rel}{t}: {p}"));
        }
    }
    out
}

/// A 24-edit exchange stream on the running example, evaluated on the one
/// inline path, leaves the store byte-identical, with identical canonical
/// provenance, to a replay that ends in `recompute_all`.
#[test]
fn cdss_exchange_is_worker_count_independent() {
    let edits = xorshift_edits(24);
    assert!(edits.iter().any(|e| e.4), "the stream deletes something");
    let mut live = example_cdss();
    assert_eq!(live.eval_threads(), 1);
    apply_edits(&mut live, &edits);
    let mut recomputed = example_cdss();
    apply_edits(&mut recomputed, &edits);
    recomputed.recompute_all().unwrap();
    assert_eq!(
        canonical_bytes(live.database()),
        canonical_bytes(recomputed.database()),
        "incremental exchange stream diverges from recomputation"
    );
    assert_eq!(
        canonical_provenance(&live),
        canonical_provenance(&recomputed)
    );
}

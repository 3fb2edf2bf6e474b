//! Property-based tests over the core data structures and invariants:
//! semiring laws for every bundled provenance semiring, equivalence of the
//! evaluation strategies of the datalog engine, equivalence of incremental
//! update exchange and recomputation on random edit sequences, and the
//! edit-log normalisation invariants.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use proptest::prelude::*;

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_datalog::atom::Atom;
use orchestra_datalog::program::Program;
use orchestra_datalog::rule::Rule;
use orchestra_datalog::{Evaluator, PlanCache, Seed};
use orchestra_provenance::{
    CountingSemiring, Lineage, ProvenanceExpr, ProvenanceToken, Semiring, TropicalSemiring,
    WhyProvenance,
};
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{
    Database, EditLog, Relation, RelationSchema, Tuple, TupleId, Value, ValueId,
};

// -----------------------------------------------------------------------
// Semiring laws
// -----------------------------------------------------------------------

fn check_semiring_laws<S: Semiring>(a: &S, b: &S, c: &S) {
    // Commutativity.
    assert_eq!(a.plus(b), b.plus(a));
    assert_eq!(a.times(b), b.times(a));
    // Associativity.
    assert_eq!(a.plus(&b.plus(c)), a.plus(b).plus(c));
    assert_eq!(a.times(&b.times(c)), a.times(b).times(c));
    // Identities.
    assert_eq!(a.plus(&S::zero()), *a);
    assert_eq!(a.times(&S::one()), *a);
    // Annihilation.
    assert_eq!(a.times(&S::zero()), S::zero());
    // Distributivity.
    assert_eq!(a.times(&b.plus(c)), a.times(b).plus(&a.times(c)));
}

fn token(i: i64) -> ProvenanceToken {
    ProvenanceToken::new("R_l", int_tuple(&[i]))
}

proptest! {
    #[test]
    fn boolean_semiring_laws(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        check_semiring_laws::<bool>(&a, &b, &c);
    }

    #[test]
    fn counting_semiring_laws(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
        check_semiring_laws(&CountingSemiring(a), &CountingSemiring(b), &CountingSemiring(c));
    }

    #[test]
    fn tropical_semiring_laws(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
        check_semiring_laws(&TropicalSemiring(a), &TropicalSemiring(b), &TropicalSemiring(c));
    }

    #[test]
    fn lineage_semiring_laws(a in 0i64..20, b in 0i64..20, c in 0i64..20) {
        check_semiring_laws(
            &Lineage::of_token(token(a)),
            &Lineage::of_token(token(b)),
            &Lineage::of_token(token(c)),
        );
    }

    #[test]
    fn why_provenance_semiring_laws(a in 0i64..20, b in 0i64..20, c in 0i64..20) {
        check_semiring_laws(
            &WhyProvenance::of_token(token(a)),
            &WhyProvenance::of_token(token(b)),
            &WhyProvenance::of_token(token(c)),
        );
    }
}

// -----------------------------------------------------------------------
// Provenance expressions: a random expression evaluated in the counting
// semiring counts exactly its derivations, and trust evaluation is monotone
// (trusting more can never reject a previously accepted tuple).
// -----------------------------------------------------------------------

fn arb_expr() -> impl Strategy<Value = ProvenanceExpr> {
    let leaf = prop_oneof![
        (0i64..6).prop_map(|i| ProvenanceExpr::Token(token(i))),
        Just(ProvenanceExpr::One),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProvenanceExpr::sum),
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProvenanceExpr::product),
            (inner, 0u32..3).prop_map(|(e, m)| ProvenanceExpr::mapping(format!("m{m}"), e)),
        ]
    })
}

proptest! {
    #[test]
    fn trust_is_monotone_in_the_trusted_set(expr in arb_expr(), cutoff in 0i64..6) {
        // "Trust tokens < cutoff" vs "trust tokens < cutoff + 1": enlarging
        // the trusted set can only turn distrust into trust.
        let narrow = expr.evaluate_trust(
            &|t| t.tuple[0].as_int().unwrap_or(0) < cutoff,
            &|_| true,
        );
        let wide = expr.evaluate_trust(
            &|t| t.tuple[0].as_int().unwrap_or(0) < cutoff + 1,
            &|_| true,
        );
        prop_assert!(!narrow || wide);
    }

    #[test]
    fn counting_evaluation_is_at_least_number_of_top_level_derivations(expr in arb_expr()) {
        let count: CountingSemiring = expr.eval(&|_| CountingSemiring(1), &|_, x| x);
        prop_assert!(count.0 as usize >= usize::from(expr.num_derivations() > 0));
    }
}

// -----------------------------------------------------------------------
// Datalog engine: on random edge sets, semi-naive and naive evaluation agree,
// and incremental insertion equals recomputation.
// -----------------------------------------------------------------------

fn tc_program() -> Program {
    Program::from_rules(vec![
        Rule::positive(
            Atom::with_vars("path", &["x", "y"]),
            vec![Atom::with_vars("edge", &["x", "y"])],
        ),
        Rule::positive(
            Atom::with_vars("path", &["x", "z"]),
            vec![
                Atom::with_vars("path", &["x", "y"]),
                Atom::with_vars("edge", &["y", "z"]),
            ],
        ),
    ])
}

fn edge_db(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("edge", &["s", "d"]))
        .unwrap();
    for (s, d) in edges {
        db.insert("edge", int_tuple(&[*s, *d])).unwrap();
    }
    db
}

fn path_tuples(db: &Database) -> Vec<Tuple> {
    db.relation("path").unwrap().sorted_tuples()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn strategies_agree_on_transitive_closure(
        edges in prop::collection::vec((0i64..8, 0i64..8), 0..30)
    ) {
        let mut naive_db = edge_db(&edges);
        Evaluator::new().run_naive(&tc_program(), &mut naive_db).unwrap();
        let expected = path_tuples(&naive_db);

        let mut db = edge_db(&edges);
        Evaluator::new().fixpoint(&mut PlanCache::new(), &tc_program(), &mut db, Seed::All, None).unwrap();
        prop_assert_eq!(path_tuples(&db), expected);
    }

    #[test]
    fn incremental_insertion_matches_recomputation(
        base in prop::collection::vec((0i64..6, 0i64..6), 0..15),
        extra in prop::collection::vec((0i64..6, 0i64..6), 0..10)
    ) {
        // Incremental: compute over base, then propagate extra edges.
        let mut incr = edge_db(&base);
        let mut eval = Evaluator::new();
        eval.fixpoint(&mut PlanCache::new(), &tc_program(), &mut incr, Seed::All, None).unwrap();
        let mut deltas = HashMap::new();
        deltas.insert(
            "edge".to_string(),
            extra.iter().map(|(s, d)| int_tuple(&[*s, *d])).collect::<Vec<_>>(),
        );
        eval.fixpoint(&mut PlanCache::new(), &tc_program(), &mut incr, Seed::Insert(&deltas), None).unwrap();

        // Recomputation over base ∪ extra.
        let mut all: Vec<(i64, i64)> = base.clone();
        all.extend(extra.iter().copied());
        let mut full = edge_db(&all);
        Evaluator::new().fixpoint(&mut PlanCache::new(), &tc_program(), &mut full, Seed::All, None).unwrap();

        prop_assert_eq!(path_tuples(&incr), path_tuples(&full));
    }
}

// -----------------------------------------------------------------------
// Edit-log normalisation invariants.
// -----------------------------------------------------------------------

proptest! {
    #[test]
    fn edit_log_normalisation_partitions_tuples(
        ops in prop::collection::vec((any::<bool>(), 0i64..10), 0..40),
        prior in prop::collection::vec(0i64..10, 0..10)
    ) {
        let mut log = EditLog::new("R");
        for (is_insert, v) in &ops {
            if *is_insert {
                log.push_insert(int_tuple(&[*v]));
            } else {
                log.push_delete(int_tuple(&[*v]));
            }
        }
        let prior_set: HashSet<Tuple> = prior.iter().map(|v| int_tuple(&[*v])).collect();
        let n = log.normalize(&prior_set);

        let contributions: HashSet<&Tuple> = n.contributions.iter().collect();
        let rejections: HashSet<&Tuple> = n.rejections.iter().collect();
        let retracted: HashSet<&Tuple> = n.retracted_contributions.iter().collect();

        // The three outcomes are disjoint.
        prop_assert!(contributions.is_disjoint(&rejections));
        prop_assert!(contributions.is_disjoint(&retracted));
        prop_assert!(rejections.is_disjoint(&retracted));
        // No duplicates within each list.
        prop_assert_eq!(contributions.len(), n.contributions.len());
        prop_assert_eq!(rejections.len(), n.rejections.len());
        // Retractions only affect previously contributed tuples.
        for t in &retracted {
            prop_assert!(prior_set.contains(*t));
        }
        // The final operation's tuple has the matching outcome.
        if let Some((is_insert, v)) = ops.last() {
            let t = int_tuple(&[*v]);
            if *is_insert {
                prop_assert!(!rejections.contains(&t) && !retracted.contains(&t));
            } else {
                prop_assert!(!contributions.contains(&t));
            }
        }
    }
}

// -----------------------------------------------------------------------
// CDSS-level property: random small edit batches applied incrementally give
// the same instances as a final recomputation, on the running example.
// -----------------------------------------------------------------------

fn running_example() -> Cdss {
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

fn instances(cdss: &Cdss) -> BTreeMap<(String, String), Vec<Tuple>> {
    let mut out = BTreeMap::new();
    for peer in cdss.peer_ids() {
        for rel in cdss.peer(&peer).unwrap().relation_names() {
            out.insert(
                (peer.clone(), rel.clone()),
                cdss.local_instance(&peer, &rel).unwrap(),
            );
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_edit_batches_incremental_equals_recompute(
        g_rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 1..8),
        b_rows in prop::collection::vec((0i64..5, 0i64..5), 0..6),
        deletions in prop::collection::vec((0i64..5, 0i64..5), 0..4)
    ) {
        let mut incremental = running_example();
        let mut insert_batch: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        insert_batch.insert(
            "G".to_string(),
            g_rows.iter().map(|(a, b, c)| int_tuple(&[*a, *b, *c])).collect(),
        );
        if !b_rows.is_empty() {
            insert_batch.insert(
                "B".to_string(),
                b_rows.iter().map(|(a, b)| int_tuple(&[*a, *b])).collect(),
            );
        }
        incremental.apply_insertions_incremental(&insert_batch).unwrap();

        let mut delete_batch: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        if !deletions.is_empty() {
            delete_batch.insert(
                "B".to_string(),
                deletions.iter().map(|(a, b)| int_tuple(&[*a, *b])).collect(),
            );
            incremental.apply_deletions_incremental(&delete_batch).unwrap();
        }

        // Mirror the same operations, then recompute from scratch.
        let mut recomputed = running_example();
        recomputed.apply_insertions_incremental(&insert_batch).unwrap();
        if !delete_batch.is_empty() {
            recomputed.apply_deletions_incremental(&delete_batch).unwrap();
        }
        recomputed.recompute_all().unwrap();

        prop_assert_eq!(instances(&incremental), instances(&recomputed));
    }
}

// -----------------------------------------------------------------------
// Snapshot immutability under copy-on-write storage
// -----------------------------------------------------------------------

/// A clone of the relation under test together with everything the model
/// knew about it when the clone was taken.
struct Frozen {
    relation: Relation,
    tuples: BTreeSet<(i64, i64)>,
    /// Every live `(id, tuple, interned row)` at clone time.
    stored: Vec<(TupleId, Tuple, Vec<ValueId>)>,
}

impl Frozen {
    fn take(relation: &Relation, tuples: &BTreeSet<(i64, i64)>) -> Self {
        Frozen {
            relation: relation.clone(),
            tuples: tuples.clone(),
            stored: relation
                .iter_ids()
                .map(|(id, t)| (id, t.clone(), relation.row(id).to_vec()))
                .collect(),
        }
    }

    /// The clone still reads exactly what it read when it was taken.
    fn check(&self) {
        let expected: Vec<Tuple> = self
            .tuples
            .iter()
            .map(|&(a, b)| int_tuple(&[a, b]))
            .collect();
        assert_eq!(self.relation.len(), expected.len());
        assert_eq!(self.relation.sorted_tuples(), expected);
        assert_eq!(self.stored.len(), expected.len());
        for (id, tuple, row) in &self.stored {
            assert_eq!(self.relation.tuple(*id), Some(tuple));
            assert_eq!(self.relation.id_of(tuple), Some(*id));
            assert_eq!(self.relation.row(*id), row.as_slice());
        }
        // Membership and selections, present and absent keys alike; the
        // selection goes through an index when the clone carries one.
        for probe in 0..STORAGE_DOMAIN {
            let t = int_tuple(&[probe, probe % STORAGE_KEYS]);
            assert_eq!(
                self.relation.contains(&t),
                self.tuples.contains(&(probe, probe % STORAGE_KEYS))
            );
        }
        for key in 0..STORAGE_KEYS {
            let hits = self
                .relation
                .select_eq_ref(&[1], &[Value::int(key)])
                .count();
            assert_eq!(hits, self.tuples.iter().filter(|t| t.1 == key).count());
        }
    }
}

/// First-column domain of the storage property test: wide enough that the
/// preloaded relation spans several storage chunks, narrow enough that
/// random removes hit and random inserts collide.
const STORAGE_DOMAIN: i64 = 900;
/// Second-column domain (the indexed column).
const STORAGE_KEYS: i64 = 7;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random insert / insert_row / remove / clear / ensure_index / pool
    /// compaction with clones taken at random points: every clone keeps
    /// reading the model state of its clone time, whatever the writer does
    /// afterwards — including reusing, through the free list, slots inside
    /// chunks a clone still holds.
    #[test]
    fn relation_clones_are_immutable_snapshots(
        ops in prop::collection::vec((0u8..32, 0i64..STORAGE_DOMAIN), 1..250)
    ) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("r", &["a", "b"])).unwrap();
        let mut model: BTreeSet<(i64, i64)> = BTreeSet::new();
        for a in 0..700 {
            db.insert("r", int_tuple(&[a, a % STORAGE_KEYS])).unwrap();
            model.insert((a, a % STORAGE_KEYS));
        }
        let mut frozen = vec![Frozen::take(db.relation("r").unwrap(), &model)];

        for (kind, a) in ops {
            let b = a % STORAGE_KEYS;
            match kind {
                0..=8 => {
                    let fresh = db.insert("r", int_tuple(&[a, b])).unwrap();
                    prop_assert_eq!(fresh, model.insert((a, b)));
                }
                9..=13 => {
                    let row = [
                        db.pool_mut().intern(&Value::int(a)),
                        db.pool_mut().intern(&Value::int(b)),
                    ];
                    let (rel, pool) = db.relation_and_pool_mut("r").unwrap();
                    let (_, fresh) = rel.insert_row(pool, &row, pool.row_hash(&row)).unwrap();
                    prop_assert_eq!(fresh, model.insert((a, b)));
                }
                14..=24 => {
                    let removed = db.remove("r", &int_tuple(&[a, b])).unwrap();
                    prop_assert_eq!(removed, model.remove(&(a, b)));
                }
                25 => {
                    db.relation_mut("r").unwrap().clear();
                    model.clear();
                }
                26 => {
                    db.relation_mut("r").unwrap().ensure_index(&[1]).unwrap();
                }
                27 => {
                    db.compact_pool();
                }
                _ => frozen.push(Frozen::take(db.relation("r").unwrap(), &model)),
            }
        }

        frozen.push(Frozen::take(db.relation("r").unwrap(), &model));
        for snapshot in &frozen {
            snapshot.check();
        }
    }
}

// -----------------------------------------------------------------------
// Bound point reads against a brute-force filter
// -----------------------------------------------------------------------

/// The relations of [`running_example`] point reads go to, as
/// `(peer, relation, arity)`; `U` is filled with labeled nulls by `m3`, so
/// local and certain answers differ there.
const POINT_TARGETS: [(&str, &str, usize); 3] =
    [("PGUS", "G", 3), ("PBioSQL", "B", 2), ("PuBio", "U", 2)];
/// Value domain of the point-read property test: small, so bindings hit.
const POINT_DOMAIN: i64 = 4;

/// One random read: target, binding shape (bit `i` set binds column `i`)
/// and the values bound.
type PointRead = (usize, u8, i64, i64, i64);
type Instances = BTreeMap<(String, String), Vec<Tuple>>;

fn point_binding(arity: usize, mask: u8, values: [i64; 3]) -> Vec<Option<Value>> {
    (0..arity)
        .map(|i| (mask >> i & 1 == 1).then(|| Value::int(values[i])))
        .collect()
}

/// `instance` filtered to `binding` by brute force, labeled-null tuples
/// dropped when `certain`.
fn brute_force(instance: &[Tuple], binding: &[Option<Value>], certain: bool) -> Vec<Tuple> {
    instance
        .iter()
        .filter(|t| {
            binding
                .iter()
                .enumerate()
                .all(|(i, b)| b.as_ref().is_none_or(|v| &t[i] == v))
                && !(certain && t.has_labeled_null())
        })
        .cloned()
        .collect()
}

/// Every read of `reads`, on the live system, its latest snapshot and each
/// kept view, equals the brute-force filter of the instance that reader
/// sees (a kept view: the instance at the time it was kept).
fn check_point_reads(
    cdss: &Cdss,
    kept: &[(std::sync::Arc<orchestra_core::SnapshotView>, Instances)],
    reads: &[PointRead],
) {
    let latest = cdss.snapshot();
    let now = instances(cdss);
    for &(target, mask, a, b, c) in reads {
        let (peer, relation, arity) = POINT_TARGETS[target];
        let binding = point_binding(arity, mask, [a, b, c]);
        let key = (peer.to_string(), relation.to_string());
        for certain in [false, true] {
            let expected = brute_force(&now[&key], &binding, certain);
            // Twice each: the first read of a shape may scan, the second
            // finds the shape demanded.
            for _ in 0..2 {
                let (live, snap) = if certain {
                    (
                        cdss.query_certain_bound(peer, relation, &binding),
                        latest.query_certain_bound(peer, relation, &binding),
                    )
                } else {
                    (
                        cdss.query_local_bound(peer, relation, &binding),
                        latest.query_local_bound(peer, relation, &binding),
                    )
                };
                assert_eq!(live.unwrap(), expected, "live {relation} {binding:?}");
                assert_eq!(snap.unwrap(), expected, "snapshot {relation} {binding:?}");
            }
            for (view, then) in kept {
                let expected = brute_force(&then[&key], &binding, certain);
                let old = if certain {
                    view.query_certain_bound(peer, relation, &binding)
                } else {
                    view.query_local_bound(peer, relation, &binding)
                };
                assert_eq!(old.unwrap(), expected, "kept view {relation} {binding:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bound reads over any subset of columns equal a brute-force filter of
    /// the instance — before their shape is demanded, once it is, after the
    /// writer built the index for it, across later inserts, deletes (and
    /// the delete exchanges that propagate them) and pool compactions, and
    /// on views kept from before any index existed.
    #[test]
    fn bound_reads_equal_a_brute_force_filter(
        seed in prop::collection::vec((0i64..POINT_DOMAIN, 0i64..POINT_DOMAIN, 0i64..POINT_DOMAIN), 1..10),
        reads in prop::collection::vec(
            (0usize..3, 0u8..8, 0i64..POINT_DOMAIN, 0i64..POINT_DOMAIN, 0i64..POINT_DOMAIN),
            1..10
        ),
        ops in prop::collection::vec(
            (0u8..10, 0usize..3, 0i64..POINT_DOMAIN, 0i64..POINT_DOMAIN, 0i64..POINT_DOMAIN),
            1..30
        )
    ) {
        let mut cdss = running_example();
        for &(a, b, c) in &seed {
            cdss.insert_local("PGUS", "G", int_tuple(&[a, b, c])).unwrap();
        }
        cdss.update_exchange("PGUS").unwrap();
        // Kept before any read demanded an index.
        let mut kept = vec![(cdss.snapshot(), instances(&cdss))];
        check_point_reads(&cdss, &kept, &reads);

        for (kind, target, a, b, c) in ops {
            let (peer, relation, arity) = POINT_TARGETS[target];
            let tuple = int_tuple(&[a, b, c][..arity]);
            match kind {
                0..=3 => cdss.insert_local(peer, relation, tuple).unwrap(),
                4..=5 => cdss.delete_local(peer, relation, tuple).unwrap(),
                6..=7 => {
                    cdss.update_exchange(peer).unwrap();
                    check_point_reads(&cdss, &kept, &reads);
                }
                8 => {
                    cdss.compact();
                    check_point_reads(&cdss, &kept, &reads);
                }
                _ => kept.push((cdss.snapshot(), instances(&cdss))),
            }
        }
        cdss.update_exchange_all().unwrap();
        check_point_reads(&cdss, &kept, &reads);
    }
}

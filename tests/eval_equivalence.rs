//! Differential tests proving the optimized zero-copy evaluation pipeline
//! (ID-addressed storage, borrowed joins, cost-ordered bodies, delta-first
//! semi-naive plans, cached content hashes) is **semantics-preserving**:
//!
//! * random datalog programs + random insertion streams must produce
//!   byte-identical fixpoints between the optimized evaluator and the
//!   naive substitution-based reference interpreter in
//!   [`orchestra_datalog::reference`], which shares no machinery with the
//!   optimized path — including when a value-pool compaction re-stamps
//!   every interned row mid-stream;
//! * every other caller of the one join pipeline — the naive oracle
//!   (`run_naive`), ad-hoc rule evaluation (`evaluate_rule`) and the
//!   deletion delta rules (`deletion_candidates`, over frontiers that may
//!   be stored, already removed, or never interned) — agrees with the same
//!   reference interpreter;
//! * random edit streams against the paper's running-example CDSS must
//!   match a from-scratch recomputation, and random churn must leave
//!   byte-identical stores and canonical provenance under incremental
//!   deletion, DRed, and recomputation.
//!
//! "Byte-identical" is checked literally: final databases are serialized
//! with the canonical persist codec and the encodings compared.

use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_datalog::atom::{Atom, Literal};
use orchestra_datalog::delta::deletion_candidates;
use orchestra_datalog::program::Program;
use orchestra_datalog::reference::{propagate_insertions_reference, rule_answers, run_reference};
use orchestra_datalog::rule::Rule;
use orchestra_datalog::term::Term;
use orchestra_datalog::Evaluator;
use orchestra_persist::codec::{Encode, Writer};
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{Database, RelationSchema, SkolemFnId, Tuple};

// ---------------------------------------------------------------------
// Random-program generation
//
// Programs are generated over a fixed vocabulary so safety and
// stratification hold by construction:
//   EDB: e0/2, e1/2      (receive the edit stream)
//   IDB: d0/2, d1/2      (derived)
// Rule bodies are 1–3 positive literals over any relations; each column is
// a variable from a small pool — so `R(x, x)` arises — or one of two
// constants. Heads use body variables (safety) or a constant. Optionally a
// rule gets a negated EDB literal over body variables (stratified, since
// EDB relations have no rules) or a Skolem head term when the body is
// EDB-only (weak acyclicity: no fresh nulls inside recursion).
// ---------------------------------------------------------------------

const VARS: [&str; 4] = ["x", "y", "z", "w"];
const EDB: [&str; 2] = ["e0", "e1"];
const IDB: [&str; 2] = ["d0", "d1"];

/// Compact generated form of one rule, expanded by [`build_rule`].
#[derive(Debug, Clone)]
struct RuleSpec {
    head_rel: usize,
    /// Body literals: (relation index into EDB++IDB, term pick per column).
    /// A pick below `VARS.len()` is that variable; above, a constant.
    body: Vec<(usize, [usize; 2])>,
    /// Head term picks: below `VARS.len()` an index into the body's
    /// variable set, above a constant.
    head_vars: [usize; 2],
    /// Optional negated EDB literal (relation, var picks).
    negated: Option<(usize, [usize; 2])>,
    /// Replace the second head term by a Skolem of the first (only applied
    /// when the body is EDB-only).
    skolem_head: bool,
}

fn rel_name(i: usize) -> &'static str {
    if i < EDB.len() {
        EDB[i]
    } else {
        IDB[i - EDB.len()]
    }
}

/// Number of distinct term picks: the variables plus the constants 0 and 1
/// (inside the generated fact domain, so constant columns do select rows).
const TERM_PICKS: usize = VARS.len() + 2;

/// Expand a spec; `None` when every body column drew a constant (no
/// variable to build a safe head from).
fn build_rule(spec: &RuleSpec, skolem_id: u32) -> Option<Rule> {
    let mut body_vars: Vec<&str> = Vec::new();
    let mut body: Vec<Literal> = Vec::new();
    for (rel, picks) in &spec.body {
        let terms = picks
            .iter()
            .map(|&p| match VARS.get(p) {
                Some(v) => {
                    if !body_vars.contains(v) {
                        body_vars.push(v);
                    }
                    Term::var(*v)
                }
                None => Term::constant((p - VARS.len()) as i64),
            })
            .collect();
        body.push(Literal::positive(Atom::new(rel_name(*rel), terms)));
    }
    if body_vars.is_empty() {
        return None;
    }
    let pick = |i: usize| body_vars[i % body_vars.len()];
    if let Some((rel, vars)) = &spec.negated {
        body.push(Literal::negative(Atom::with_vars(
            EDB[*rel],
            &[pick(vars[0]), pick(vars[1])],
        )));
    }
    let head_term = |p: usize| match p.checked_sub(VARS.len()) {
        None => Term::var(pick(p)),
        Some(c) => Term::constant(c as i64),
    };
    let h0 = head_term(spec.head_vars[0]);
    let edb_only = spec.body.iter().all(|(r, _)| *r < EDB.len());
    let h1 = if spec.skolem_head && edb_only {
        Term::skolem(SkolemFnId(skolem_id), vec![h0.clone()])
    } else {
        head_term(spec.head_vars[1])
    };
    Some(Rule::new(Atom::new(IDB[spec.head_rel], vec![h0, h1]), body))
}

/// The program a scenario's specs expand to, if it is a valid one.
/// Degenerate generations (all-constant bodies, unsafe negation picks) are
/// rare and simply skipped; the interesting space is valid programs.
fn build_program(specs: &[RuleSpec]) -> Option<Program> {
    let rules: Option<Vec<Rule>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| build_rule(s, i as u32))
        .collect();
    let program = Program::from_rules(rules?);
    (program.validate().is_ok() && program.stratify().is_ok()).then_some(program)
}

fn rule_spec_strategy() -> impl Strategy<Value = RuleSpec> {
    (
        0usize..IDB.len(),
        prop::collection::vec(
            ((0usize..4), (0usize..TERM_PICKS, 0usize..TERM_PICKS)),
            1..4,
        ),
        (0usize..TERM_PICKS, 0usize..TERM_PICKS),
        prop_oneof![
            Just(None).boxed(),
            ((0usize..EDB.len()), (0usize..4, 0usize..4))
                .prop_map(|(r, (a, b))| Some((r, [a, b])))
                .boxed(),
        ],
        any::<bool>(),
    )
        .prop_map(
            |(head_rel, body, (h0, h1), negated, skolem_head)| RuleSpec {
                head_rel,
                body: body.into_iter().map(|(r, (a, b))| (r, [a, b])).collect(),
                head_vars: [h0, h1],
                negated,
                skolem_head,
            },
        )
}

/// A generated EDB fact: (relation selector, column values).
type Fact = (usize, i64, i64);

/// A random program of 1–4 rules plus the edit stream: initial base facts
/// and two incremental insertion batches over the EDB relations.
fn scenario_strategy() -> impl Strategy<Value = (Vec<RuleSpec>, Vec<Fact>, Vec<Fact>, Vec<Fact>)> {
    let fact = (0usize..EDB.len(), 0i64..6, 0i64..6);
    (
        prop::collection::vec(rule_spec_strategy(), 1..5),
        prop::collection::vec(fact.clone(), 0..12),
        prop::collection::vec(fact.clone(), 1..8),
        prop::collection::vec(fact, 1..8),
    )
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    for r in EDB.iter().chain(IDB.iter()) {
        db.create_relation(RelationSchema::new(*r, &["a", "b"]))
            .unwrap();
    }
    db
}

fn load_facts(db: &mut Database, facts: &[(usize, i64, i64)]) {
    for (rel, a, b) in facts {
        db.insert(EDB[*rel], int_tuple(&[*a, *b])).unwrap();
    }
}

fn batch_map(facts: &[(usize, i64, i64)]) -> HashMap<String, Vec<Tuple>> {
    let mut m: HashMap<String, Vec<Tuple>> = HashMap::new();
    for (rel, a, b) in facts {
        m.entry(EDB[*rel].to_string())
            .or_default()
            .push(int_tuple(&[*a, *b]));
    }
    m
}

/// Canonical byte encoding of a whole database via the persist codec.
fn canonical_bytes(db: &Database) -> Vec<u8> {
    let mut w = Writer::new();
    db.encode(&mut w);
    w.into_bytes()
}

/// The deletion delta rules by the reference interpreter: for every rule
/// and every positive occurrence of a relation with deleted tuples, the
/// interpreter's answers with that occurrence redirected to a scratch
/// relation holding exactly the deleted set.
fn deletion_candidates_reference(
    program: &Program,
    db: &Database,
    deleted: &HashMap<String, HashSet<Tuple>>,
) -> HashMap<String, HashSet<Tuple>> {
    const FRONTIER: &str = "deleted_frontier";
    let mut out: HashMap<String, HashSet<Tuple>> = HashMap::new();
    for rule in program.rules() {
        for (i, lit) in rule.body.iter().enumerate() {
            let Some(del) = deleted.get(lit.relation()).filter(|_| !lit.negated) else {
                continue;
            };
            let mut staged = db.snapshot();
            staged
                .create_relation(RelationSchema::new(FRONTIER, &["a", "b"]))
                .unwrap();
            for t in del {
                staged.insert(FRONTIER, t.clone()).unwrap();
            }
            let mut redirected = rule.clone();
            redirected.body[i].atom.relation = FRONTIER.to_string();
            let answers = rule_answers(&redirected, &staged).unwrap();
            if !answers.is_empty() {
                out.entry(rule.head.relation.clone())
                    .or_default()
                    .extend(answers);
            }
        }
    }
    out
}

/// Shared worker pools for the parallel differential branches, built once
/// per test binary so proptest cases don't churn thread spawns.
fn test_pool(threads: usize) -> orchestra_pool::Pool {
    use std::sync::OnceLock;
    static POOLS: OnceLock<[orchestra_pool::Pool; 2]> = OnceLock::new();
    let [p2, p8] =
        POOLS.get_or_init(|| [orchestra_pool::Pool::new(2), orchestra_pool::Pool::new(8)]);
    match threads {
        2 => p2.clone(),
        8 => p8.clone(),
        _ => panic!("test pools exist at 2 and 8 workers, not {threads}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs + random edit streams: the optimized pipeline and the
    /// naive reference interpreter reach byte-identical fixpoints through
    /// an initial run and two incremental propagations — and the pipeline's
    /// other callers (`run_naive`, `evaluate_rule`, `deletion_candidates`)
    /// agree with the same interpreter on the final state.
    #[test]
    fn optimized_pipeline_matches_reference_oracle(
        (specs, base, batch1, batch2) in scenario_strategy(),
        // Deletion frontier over EDB and IDB relations. Values 6..9 occur in
        // no generated fact or rule constant: the pool has never seen them.
        frontier in prop::collection::vec((0usize..4, 0i64..9, 0i64..9), 1..6),
        remove_frontier_first in any::<bool>(),
    ) {
        let Some(program) = build_program(&specs) else { continue };

        // Inserting into a relation the program negates is (correctly)
        // rejected by insertion propagation — deletion propagation's job —
        // so route those generated facts out of the incremental batches and
        // into the base instead.
        let negated: Vec<&str> = program
            .rules()
            .iter()
            .flat_map(|r| r.body.iter())
            .filter(|l| l.negated)
            .map(|l| l.relation())
            .collect();
        let (batch1, extra1): (Vec<_>, Vec<_>) = batch1
            .into_iter()
            .partition(|(rel, _, _)| !negated.contains(&EDB[*rel]));
        let (batch2, extra2): (Vec<_>, Vec<_>) = batch2
            .into_iter()
            .partition(|(rel, _, _)| !negated.contains(&EDB[*rel]));
        let base: Vec<_> = base.into_iter().chain(extra1).chain(extra2).collect();

        // Reference: naive interpreter, full-stop semantics.
        let mut oracle = fresh_db();
        load_facts(&mut oracle, &base);
        run_reference(&program, &mut oracle).unwrap();
        let ref_new1 = propagate_insertions_reference(&program, &mut oracle, &batch_map(&batch1)).unwrap();
        let ref_new2 = propagate_insertions_reference(&program, &mut oracle, &batch_map(&batch2)).unwrap();
        let oracle_bytes = canonical_bytes(&oracle);

        let mut db = fresh_db();
        load_facts(&mut db, &base);
        let mut eval = Evaluator::new();
        eval.run(&program, &mut db).unwrap();
        let new1 = eval.propagate_insertions(&program, &mut db, &batch_map(&batch1), None).unwrap();
        let new2 = eval.propagate_insertions(&program, &mut db, &batch_map(&batch2), None).unwrap();

        // Identical final instances, literally byte-for-byte.
        prop_assert_eq!(
            &canonical_bytes(&db),
            &oracle_bytes,
            "fixpoint mismatch for program:\n{}",
            program
        );

        // Parallel fixpoint at 2 and 8 workers: byte-identical to the
        // naive oracle (and hence to the sequential run above) —
        // determinism must be thread-count independent.
        for threads in [2usize, 8] {
            let mut par_db = fresh_db();
            load_facts(&mut par_db, &base);
            let mut par_eval = Evaluator::with_pool(test_pool(threads));
            par_eval.run(&program, &mut par_db).unwrap();
            par_eval.propagate_insertions(&program, &mut par_db, &batch_map(&batch1), None).unwrap();
            par_eval.propagate_insertions(&program, &mut par_db, &batch_map(&batch2), None).unwrap();
            prop_assert_eq!(
                &canonical_bytes(&par_db),
                &oracle_bytes,
                "parallel ({} workers) fixpoint mismatch for program:\n{}",
                threads,
                program
            );
        }

        // The interned engine with a *persistent* plan cache (the CDSS
        // exchange pattern: one cache across the initial run and every
        // propagation, with cardinality-band invalidation) must agree too.
        let mut cached_db = fresh_db();
        load_facts(&mut cached_db, &base);
        let mut cache = orchestra_datalog::PlanCache::new();
        let mut cached_eval = Evaluator::new();
        cached_eval.run_filtered_cached(&mut cache, &program, &mut cached_db, None).unwrap();
        cached_eval
            .propagate_insertions_cached(&mut cache, &program, &mut cached_db, &batch_map(&batch1), None)
            .unwrap();
        // Compact the pool mid-stream (the long-running-server regime):
        // rows are re-stamped with new dense ids and the compiled plans
        // — whose interned constants would now alias *different* values
        // — are dropped. The remaining propagation must still agree
        // with the naive oracle.
        cached_db.compact_pool();
        cache.invalidate_plans();
        cached_eval
            .propagate_insertions_cached(&mut cache, &program, &mut cached_db, &batch_map(&batch2), None)
            .unwrap();
        prop_assert_eq!(
            &canonical_bytes(&cached_db),
            &oracle_bytes,
            "cached-plan (post-compaction) fixpoint mismatch for program:\n{}",
            program
        );

        // Identical reported novelty per propagation.
        for (optimized, reference) in [(new1, ref_new1.clone()), (new2, ref_new2.clone())] {
            let mut optimized: BTreeMap<String, Vec<Tuple>> = optimized
                .into_iter()
                .filter(|(_, ts)| !ts.is_empty())
                .collect();
            for ts in optimized.values_mut() {
                ts.sort();
                ts.dedup();
            }
            prop_assert_eq!(&optimized, &reference, "novelty mismatch");
        }

        // The naive oracle runs on the same join pipeline; from the whole
        // edit stream at once it must reach the same fixpoint.
        let mut naive_db = fresh_db();
        load_facts(&mut naive_db, &base);
        load_facts(&mut naive_db, &batch1);
        load_facts(&mut naive_db, &batch2);
        Evaluator::new().run_naive(&program, &mut naive_db).unwrap();
        prop_assert_eq!(
            &canonical_bytes(&naive_db),
            &oracle_bytes,
            "naive fixpoint mismatch for program:\n{}",
            program
        );

        // Ad-hoc rule evaluation returns every head instantiation over the
        // current state — previously derived tuples and duplicates
        // included — exactly like the interpreter's one-rule search.
        for rule in program.rules() {
            let mut got = eval.evaluate_rule(rule, &mut db, None).unwrap();
            let mut want = rule_answers(rule, &oracle).unwrap();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "evaluate_rule mismatch on rule: {}", rule);
        }

        // Deletion delta rules: one occurrence ranges over the frontier,
        // the rest of the body over the store. The frontier may name stored
        // tuples, tuples already removed (DRed retracts base tuples before
        // asking), and tuples whose values were never interned.
        let mut deleted: HashMap<String, HashSet<Tuple>> = HashMap::new();
        for (rel, a, b) in &frontier {
            deleted
                .entry(rel_name(*rel).to_string())
                .or_default()
                .insert(int_tuple(&[*a, *b]));
        }
        if remove_frontier_first {
            for (rel, tuples) in &deleted {
                for t in tuples {
                    db.remove(rel, t).unwrap();
                    oracle.remove(rel, t).unwrap();
                }
            }
        }
        let got = deletion_candidates(&program, &mut db, &deleted).unwrap();
        let want = deletion_candidates_reference(&program, &oracle, &deleted);
        prop_assert_eq!(
            got,
            want,
            "deletion candidates mismatch (frontier removed first: {}) for program:\n{}",
            remove_frontier_first,
            program
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Demand differential: for random programs and random point bindings,
    /// the magic-sets demand path (seeded from the bound constants,
    /// exploring only the relevant derivation cone) answers exactly the
    /// full fixpoint restricted to the binding — byte-identically under the
    /// canonical encode, sequentially and at 8 workers — without ever
    /// materialising the full IDB.
    #[test]
    fn demand_answers_match_filtered_full_fixpoint(
        (specs, base, batch1, batch2) in scenario_strategy(),
        pred_pick in 0usize..IDB.len(),
        bind_mask in 1usize..4,
        bind_vals in (0i64..6, 0i64..6),
    ) {
        let Some(program) = build_program(&specs) else { continue };
        // One static base: the demand path answers point queries, not
        // incremental streams, so fold every generated batch in up front.
        let facts: Vec<Fact> = base.into_iter().chain(batch1).chain(batch2).collect();
        let predicate = IDB[pred_pick];
        let binding: Vec<Option<orchestra_storage::Value>> = (0..2)
            .map(|col| {
                let v = if col == 0 { bind_vals.0 } else { bind_vals.1 };
                (bind_mask & (1 << col) != 0).then_some(orchestra_storage::Value::Int(v))
            })
            .collect();

        // Oracle: full fixpoint, then filter to the binding.
        let mut full_db = fresh_db();
        load_facts(&mut full_db, &facts);
        let mut full_eval = Evaluator::new();
        full_eval.run(&program, &mut full_db).unwrap();
        let expected = orchestra_datalog::bound_scan(&full_db, predicate, &binding).unwrap();

        for threads in [None, Some(8usize)] {
            let mut db = fresh_db();
            load_facts(&mut db, &facts);
            let mut cache = orchestra_datalog::PlanCache::new();
            let mut eval = match threads {
                None => Evaluator::new(),
                Some(n) => Evaluator::with_pool(test_pool(n)),
            };
            let answers = eval
                .run_demand_cached(&mut cache, &program, &mut db, predicate, &binding)
                .unwrap();

            // Byte-identical under the canonical codec, not just equal.
            let mut w_got = Writer::new();
            orchestra_persist::codec::encode_seq(&answers, &mut w_got);
            let mut w_want = Writer::new();
            orchestra_persist::codec::encode_seq(&expected, &mut w_want);
            prop_assert_eq!(
                w_got.into_bytes(),
                w_want.into_bytes(),
                "demand answers diverge from the filtered full fixpoint \
                 ({:?} workers, predicate {}) for program:\n{}",
                threads, predicate, program
            );

            // Demand never materialised the full IDB: the stored IDB
            // relations are exactly as empty as before the query.
            for idb in IDB {
                prop_assert_eq!(
                    db.relation(idb).unwrap().len(),
                    0,
                    "demand query filled stored IDB relation {}",
                    idb
                );
            }

            // Re-asking through the same cache reuses the adorned entry
            // and still agrees.
            let again = eval
                .run_demand_cached(&mut cache, &program, &mut db, predicate, &binding)
                .unwrap();
            prop_assert_eq!(&again, &expected);
        }
    }
}

// ---------------------------------------------------------------------
// CDSS-level: random edit streams on the paper's running example.
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

/// Group generated (relation selector, values) entries into a batch keyed
/// by logical relation.
fn logical_batch(entries: &[(usize, i64, i64, i64)]) -> BTreeMap<String, Vec<Tuple>> {
    let mut m: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for (sel, a, b, c) in entries {
        let (rel, tuple) = match sel % 3 {
            0 => ("G", int_tuple(&[*a, *b, *c])),
            1 => ("B", int_tuple(&[*a, *b])),
            _ => ("U", int_tuple(&[*a, *b])),
        };
        m.entry(rel.to_string()).or_default().push(tuple);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleaved insert/delete edit streams through full update
    /// exchanges: the incrementally maintained instance agrees with a
    /// from-scratch recomputation, and the published snapshot views answer
    /// exactly like the live store.
    #[test]
    fn cdss_exchange_agrees_with_recomputation_and_snapshots(
        edits in prop::collection::vec(
            ((0usize..3), 0i64..4, 0i64..4, 0i64..4, any::<bool>()),
            1..10,
        )
    ) {
        let mut live = example_cdss();
        apply_edits(&mut live, &edits);

        // A second copy replays the stream, then recomputes from scratch.
        let mut recomputed = example_cdss();
        apply_edits(&mut recomputed, &edits);
        recomputed.recompute_all().unwrap();

        // The published snapshot view must answer exactly like the live
        // (locked) store it was taken from: every exchange above ended by
        // publishing, so the latest view covers the final epoch.
        let view = live.snapshot();
        prop_assert_eq!(view.total_output_tuples(), live.total_output_tuples());

        for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
            let a = live.local_instance(peer, rel).unwrap();
            let r = recomputed.local_instance(peer, rel).unwrap();
            prop_assert_eq!(&a, &r, "incremental vs recomputation differ on {}", rel);

            // Snapshot-vs-locked differential: instances, certain answers
            // and canonical provenance agree between the lock-free view and
            // the live store.
            prop_assert_eq!(
                &view.local_instance(peer, rel).unwrap(),
                &a,
                "snapshot local instance of {} diverges from the locked read",
                rel
            );
            prop_assert_eq!(
                &view.certain_answers(peer, rel).unwrap(),
                &live.certain_answers(peer, rel).unwrap(),
                "snapshot certain answers of {} diverge from the locked read",
                rel
            );
            for t in &a {
                let mut from_view = view.provenance_of(rel, t);
                let mut from_live = live.provenance_of(rel, t);
                from_view.canonicalize();
                from_live.canonicalize();
                prop_assert_eq!(
                    from_view.to_string(),
                    from_live.to_string(),
                    "snapshot provenance of {}{} diverges from the locked read",
                    rel,
                    t
                );
                prop_assert_eq!(view.is_derivable(rel, t), live.is_derivable(rel, t));
            }
        }
    }

    /// Random churn through the three deletion strategies of Figure 4 —
    /// provenance-guided incremental deletion, DRed (whose over-deletion
    /// frontier runs the deletion delta rules on the one join pipeline),
    /// and recomputation — leaves byte-identical stores (persist encode)
    /// and identical canonical provenance after every round. A round is a
    /// batch to insert, then a batch to delete (retractions and rejections
    /// alike).
    #[test]
    fn deletion_strategies_agree_byte_for_byte_on_random_churn(
        rounds in prop::collection::vec(
            (
                prop::collection::vec(((0usize..3), 0i64..4, 0i64..4, 0i64..4), 0..6),
                prop::collection::vec(((0usize..3), 0i64..4, 0i64..4, 0i64..4), 1..4),
            ),
            1..4,
        )
    ) {
        let mut incremental = example_cdss();
        let mut dred = example_cdss();
        let mut recomputed = example_cdss();
        for (round, (inserts, deletes)) in rounds.iter().enumerate() {
            let inserts = logical_batch(inserts);
            let deletes = logical_batch(deletes);
            for cdss in [&mut incremental, &mut dred, &mut recomputed] {
                cdss.apply_insertions_incremental(&inserts).unwrap();
            }
            incremental.apply_deletions_incremental(&deletes).unwrap();
            dred.apply_deletions_dred(&deletes).unwrap();
            recomputed.apply_deletions_incremental(&deletes).unwrap();
            recomputed.recompute_all().unwrap();

            let want = canonical_bytes(incremental.database());
            prop_assert_eq!(
                &canonical_bytes(dred.database()),
                &want,
                "DRed store diverges from incremental deletion in round {}",
                round
            );
            prop_assert_eq!(
                &canonical_bytes(recomputed.database()),
                &want,
                "recomputed store diverges from incremental deletion in round {}",
                round
            );
            let provenance = canonical_provenance(&incremental);
            prop_assert_eq!(&canonical_provenance(&dred), &provenance);
            prop_assert_eq!(&canonical_provenance(&recomputed), &provenance);
        }
    }
}

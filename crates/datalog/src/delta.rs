//! Delta rules for incremental maintenance (paper §4.2).
//!
//! Following Gupta–Mumick–Subrahmanian (the paper's reference [18]) the CDSS
//! converts every mapping rule into *delta rules*. This module provides:
//!
//! * [`insertion_delta_program`] — an explicit datalog rendering of the
//!   insertion delta rules (`R⁺` relations). The [`crate::Evaluator`] also
//!   implements insertion propagation natively
//!   ([`crate::Evaluator::propagate_insertions`]); the explicit program is
//!   used in tests to check the two formulations agree, and is exposed so
//!   downstream users can inspect the rules the engine effectively runs.
//! * [`deletion_candidates`] — evaluation of the *deletion* delta rules: the
//!   immediate consequents of deleted tuples, i.e. every derived tuple one of
//!   whose rule instantiations used a deleted tuple. This is step 4 of the
//!   `PropagateDelete` algorithm (paper Figure 3); the surrounding loop and
//!   the derivability re-check live in `orchestra-core`.

use std::collections::{HashMap, HashSet};

use orchestra_storage::{Database, Relation, RelationSchema, Tuple, TupleId};

use crate::atom::{Atom, Literal};
use crate::error::DatalogError;
use crate::eval::{eval_rule_once, DeltaRows};
use crate::program::Program;
use crate::rule::Rule;
use crate::stats::EvalStats;
use crate::Result;

/// Suffix used for insertion-delta relations (`R⁺` in the paper's notation).
pub const INSERTION_SUFFIX: &str = "__ins";

/// The insertion-delta relation name for `relation`.
pub fn insertion_relation(relation: &str) -> String {
    format!("{relation}{INSERTION_SUFFIX}")
}

/// Build the explicit insertion delta program for `program`.
///
/// For every rule `H :- B₁, …, Bₙ` (negated literals untouched) and every
/// positive body position `i`, the delta program contains
/// `H⁺ :- B₁, …, Bᵢ⁺, …, Bₙ`, plus a folding rule `R :- R⁺` for every idb
/// relation `R`, so that newly derived tuples participate in further
/// derivations. Seeding the `R⁺` relations of base (edb) relations with the
/// newly inserted tuples and running the combined program to fixpoint yields
/// the same database as re-running the original program from scratch.
pub fn insertion_delta_program(program: &Program) -> Program {
    let mut rules: Vec<Rule> = Vec::new();
    let idb = program.idb_relations();

    // Folding rules: R(x̄) :- R⁺(x̄).
    let arities = program
        .relation_arities()
        .expect("programs are validated before delta generation");
    for rel in &idb {
        let arity = arities[rel];
        let vars: Vec<String> = (0..arity).map(|i| format!("x{i}")).collect();
        let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        rules.push(Rule::positive(
            Atom::with_vars(rel.clone(), &var_refs),
            vec![Atom::with_vars(insertion_relation(rel), &var_refs)],
        ));
    }

    // Delta rules: one per rule per positive body position.
    for rule in program.rules() {
        let positive_positions: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated)
            .map(|(i, _)| i)
            .collect();
        for &pos in &positive_positions {
            let head = Atom::new(
                insertion_relation(&rule.head.relation),
                rule.head.terms.clone(),
            );
            let body: Vec<Literal> = rule
                .body
                .iter()
                .enumerate()
                .map(|(i, lit)| {
                    if i == pos {
                        Literal::positive(Atom::new(
                            insertion_relation(lit.relation()),
                            lit.atom.terms.clone(),
                        ))
                    } else {
                        lit.clone()
                    }
                })
                .collect();
            rules.push(Rule::new(head, body));
        }
    }

    Program::from_rules(rules)
}

/// Evaluate the deletion delta rules: for every rule of `program` and every
/// positive body occurrence whose relation has entries in `deleted`, find the
/// head tuples of instantiations that used a deleted tuple.
///
/// The rest of each rule body is evaluated against the *pre-deletion* state
/// (paper Figure 3 line 4), so derived relations must not have been pruned
/// yet. The deleted tuples themselves need not be stored any more (DRed
/// retracts base tuples before asking): each deleted set is interned and
/// staged in a scratch relation outside `db`, and the delta occurrence
/// ranges over that. The result maps head relations to the set of candidate
/// tuples whose derivations are affected; whether they must actually be
/// deleted is decided by the caller (they may have other derivations).
pub fn deletion_candidates(
    program: &Program,
    db: &mut Database,
    deleted: &HashMap<String, HashSet<Tuple>>,
) -> Result<HashMap<String, HashSet<Tuple>>> {
    let mut stats = EvalStats::new();
    let mut out: HashMap<String, HashSet<Tuple>> = HashMap::new();
    let mut staged: HashMap<&str, (Relation, Vec<TupleId>)> = HashMap::new();

    for rule in program.rules() {
        for (body_index, lit) in rule.body.iter().enumerate() {
            if lit.negated {
                continue;
            }
            let Some((name, del)) = deleted.get_key_value(lit.relation()) else {
                continue;
            };
            if del.is_empty() {
                continue;
            }
            if !staged.contains_key(name.as_str()) {
                let arity = db
                    .relation(name)
                    .map_err(|_| DatalogError::MissingRelation(name.clone()))?
                    .schema()
                    .arity();
                let mut rel = Relation::new(RelationSchema::anonymous(name.clone(), arity));
                let mut ids = Vec::with_capacity(del.len());
                for t in del {
                    ids.push(rel.insert_full(db.pool_mut(), t.clone())?.0);
                }
                staged.insert(name, (rel, ids));
            }
            let (rel, ids) = &staged[name.as_str()];
            // The deleted tuples lead the join. Candidates *are*
            // currently-present tuples, so nothing is deduplicated against
            // the head relation.
            let delta = DeltaRows {
                body_index,
                rel,
                ids,
            };
            let produced = eval_rule_once(rule, db, Some(delta), None, &mut stats)?;
            if !produced.is_empty() {
                out.entry(rule.head.relation.clone())
                    .or_default()
                    .extend(produced);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use orchestra_storage::{tuple::int_tuple, RelationSchema};

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::with_vars(rel, vars)
    }

    fn tc_program() -> Program {
        Program::from_rules(vec![
            Rule::positive(atom("path", &["x", "y"]), vec![atom("edge", &["x", "y"])]),
            Rule::positive(
                atom("path", &["x", "z"]),
                vec![atom("path", &["x", "y"]), atom("edge", &["y", "z"])],
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

    #[test]
    fn delta_program_structure() {
        let dp = insertion_delta_program(&tc_program());
        // 1 folding rule (path) + 1 delta rule for rule 1 + 2 for rule 2.
        assert_eq!(dp.len(), 4);
        let text = dp.to_string();
        assert!(text.contains("path(x0, x1) :- path__ins(x0, x1)."));
        assert!(text.contains("path__ins(x, y) :- edge__ins(x, y)."));
        assert!(text.contains("path__ins(x, z) :- path__ins(x, y), edge(y, z)."));
        assert!(text.contains("path__ins(x, z) :- path(x, y), edge__ins(y, z)."));
        dp.validate().unwrap();
    }

    #[test]
    fn explicit_delta_program_agrees_with_native_propagation() {
        // Base: edges 1->2->3; then insert 3->4 incrementally.
        let base_edges = [(1, 2), (2, 3)];
        let new_edge = int_tuple(&[3, 4]);

        // Native propagation.
        let mut native = edge_db(&base_edges);
        let mut eval = Evaluator::new();
        eval.run(&tc_program(), &mut native).unwrap();
        let mut deltas = HashMap::new();
        deltas.insert("edge".to_string(), vec![new_edge.clone()]);
        eval.propagate_insertions(&tc_program(), &mut native, &deltas, None)
            .unwrap();

        // Explicit delta program: seed edge__ins and run the combined program.
        let mut explicit = edge_db(&base_edges);
        let mut eval2 = Evaluator::new();
        eval2.run(&tc_program(), &mut explicit).unwrap();
        explicit.insert("edge", new_edge.clone()).unwrap();
        explicit
            .create_relation(RelationSchema::new("edge__ins", &["s", "d"]))
            .unwrap();
        explicit.insert("edge__ins", new_edge).unwrap();
        let mut combined = tc_program();
        combined.extend(insertion_delta_program(&tc_program()));
        eval2.run(&combined, &mut explicit).unwrap();

        assert_eq!(
            native.relation("path").unwrap().sorted_tuples(),
            explicit.relation("path").unwrap().sorted_tuples()
        );
    }

    #[test]
    fn deletion_candidates_find_immediate_consequents() {
        let mut db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        Evaluator::new().run(&tc_program(), &mut db).unwrap();

        // Delete edge (2,3): candidates are every path tuple derived using it.
        let mut deleted = HashMap::new();
        deleted.insert(
            "edge".to_string(),
            vec![int_tuple(&[2, 3])].into_iter().collect::<HashSet<_>>(),
        );
        let cands = deletion_candidates(&tc_program(), &mut db, &deleted).unwrap();
        let paths = &cands["path"];
        assert!(paths.contains(&int_tuple(&[2, 3])));
        assert!(paths.contains(&int_tuple(&[1, 3])));
        // path(3,4) does not depend on edge(2,3).
        assert!(!paths.contains(&int_tuple(&[3, 4])));
    }

    #[test]
    fn deletion_candidates_empty_when_nothing_deleted() {
        let mut db = edge_db(&[(1, 2)]);
        Evaluator::new().run(&tc_program(), &mut db).unwrap();
        let cands = deletion_candidates(&tc_program(), &mut db, &HashMap::new()).unwrap();
        assert!(cands.is_empty());
    }
}

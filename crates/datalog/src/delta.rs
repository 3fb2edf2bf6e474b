//! Delta rules for incremental maintenance (paper §4.2).
//!
//! Following Gupta–Mumick–Subrahmanian (the paper's reference [18]) the CDSS
//! converts every mapping rule into *delta rules*. Insertion delta rules
//! need no explicit program: [`crate::Evaluator::fixpoint`] seeded with
//! [`crate::eval::Seed::Insert`] feeds each round's new tuples into every
//! positive body occurrence that can consume them. This module provides:
//!
//! * [`deletion_candidates`] — evaluation of the *deletion* delta rules: the
//!   immediate consequents of deleted tuples, i.e. every derived tuple one of
//!   whose rule instantiations used a deleted tuple. This is step 4 of the
//!   `PropagateDelete` algorithm (paper Figure 3); the surrounding loop and
//!   the derivability re-check live in `orchestra-core`.

use std::collections::{HashMap, HashSet};

use orchestra_storage::{Database, Relation, RelationSchema, Tuple, TupleId};

use crate::error::DatalogError;
use crate::eval::{eval_rule_once, DeltaRows};
use crate::program::Program;
use crate::stats::EvalStats;
use crate::Result;

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
    use crate::atom::Atom;
    use crate::eval::{Evaluator, Seed};
    use crate::plan::PlanCache;
    use crate::rule::Rule;
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
    fn deletion_candidates_find_immediate_consequents() {
        let mut db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        Evaluator::new()
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut db,
                Seed::All,
                None,
            )
            .unwrap();

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
        Evaluator::new()
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut db,
                Seed::All,
                None,
            )
            .unwrap();
        let cands = deletion_candidates(&tc_program(), &mut db, &HashMap::new()).unwrap();
        assert!(cands.is_empty());
    }
}

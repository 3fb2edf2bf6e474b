//! A deliberately naive reference evaluator, used as a differential-testing
//! oracle for the optimized zero-copy join pipeline.
//!
//! This module shares **no machinery** with [`crate::eval`]: it interprets
//! raw [`Rule`] ASTs with a name-keyed substitution environment, scans every
//! relation linearly in written body order, clones freely, and iterates each
//! stratum naively until nothing changes. It is exponentially slower than
//! the real evaluator and exists purely so `tests/eval_equivalence.rs` can
//! prove the optimized pipeline (ID-addressed indexes, borrowed joins,
//! cost-ordered bodies, delta-first semi-naive plans) is
//! semantics-preserving: both must produce byte-identical fixpoints.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use orchestra_storage::{Database, RelationSchema, Tuple, Value};

use crate::atom::Literal;
use crate::program::Program;
use crate::rule::Rule;
use crate::term::Term;
use crate::Result;

/// Instantiate a term under a substitution (head terms may apply Skolem
/// functions; body terms never do).
fn eval_term(term: &Term, env: &HashMap<String, Value>) -> Value {
    match term {
        Term::Var(name) => env[name.as_str()].clone(),
        Term::Const(v) => v.clone(),
        Term::Skolem(f, args) => {
            Value::labeled_null(*f, args.iter().map(|a| eval_term(a, env)).collect())
        }
    }
}

/// Extend `env` by matching a body atom against one tuple. Returns the
/// variable names newly bound here, or `None` (with `env` unchanged) on a
/// mismatch.
fn match_atom(
    lit: &Literal,
    tuple: &Tuple,
    env: &mut HashMap<String, Value>,
) -> Option<Vec<String>> {
    let mut bound_here: Vec<String> = Vec::new();
    for (col, term) in lit.atom.terms.iter().enumerate() {
        let ok = match term {
            Term::Const(v) => &tuple[col] == v,
            Term::Var(name) => match env.get(name.as_str()) {
                Some(v) => v == &tuple[col],
                None => {
                    env.insert(name.clone(), tuple[col].clone());
                    bound_here.push(name.clone());
                    true
                }
            },
            Term::Skolem(_, _) => unreachable!("validated: no skolems in body"),
        };
        if !ok {
            for name in bound_here {
                env.remove(&name);
            }
            return None;
        }
    }
    Some(bound_here)
}

fn search(
    rule: &Rule,
    positives: &[&Literal],
    negatives: &[&Literal],
    i: usize,
    env: &mut HashMap<String, Value>,
    db: &Database,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    if i == positives.len() {
        for neg in negatives {
            let vals: Vec<Value> = neg.atom.terms.iter().map(|t| eval_term(t, env)).collect();
            if db.relation(neg.relation())?.contains(&Tuple::new(vals)) {
                return Ok(());
            }
        }
        let vals: Vec<Value> = rule.head.terms.iter().map(|t| eval_term(t, env)).collect();
        out.push(Tuple::new(vals));
        return Ok(());
    }
    let lit = positives[i];
    // Deterministic candidate order, to keep the oracle reproducible.
    for tuple in db.relation(lit.relation())?.sorted_tuples() {
        if let Some(bound_here) = match_atom(lit, &tuple, env) {
            search(rule, positives, negatives, i + 1, env, db, out)?;
            for name in bound_here {
                env.remove(&name);
            }
        }
    }
    Ok(())
}

/// All head tuples one rule derives from the current database state.
pub fn rule_answers(rule: &Rule, db: &Database) -> Result<Vec<Tuple>> {
    let positives: Vec<&Literal> = rule.body.iter().filter(|l| !l.negated).collect();
    let negatives: Vec<&Literal> = rule.body.iter().filter(|l| l.negated).collect();
    let mut env = HashMap::new();
    let mut out = Vec::new();
    search(rule, &positives, &negatives, 0, &mut env, db, &mut out)?;
    Ok(out)
}

/// Ensure every relation the program mentions exists (mirroring
/// [`crate::Evaluator::prepare_relations`], minus the arity conflict check,
/// which the optimized path reports first anyway).
fn prepare(program: &Program, db: &mut Database) -> Result<()> {
    for (name, arity) in program.relation_arities()? {
        if !db.has_relation(&name) {
            db.create_relation(RelationSchema::anonymous(&name, arity))?;
        }
    }
    Ok(())
}

/// Run the program to fixpoint, stratum by stratum, with the naive
/// substitution interpreter. Semantically equivalent to
/// [`crate::Evaluator::run`] (without a derivation filter).
pub fn run_reference(program: &Program, db: &mut Database) -> Result<()> {
    program.validate()?;
    let strat = program.stratify()?;
    prepare(program, db)?;
    for stratum_rules in &strat.rule_strata {
        loop {
            let mut changed = false;
            for &ri in stratum_rules {
                let rule = &program.rules()[ri];
                for t in rule_answers(rule, db)? {
                    changed |= db.insert(&rule.head.relation, t)?;
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(())
}

/// Reference incremental-insertion semantics: apply the base deltas, run the
/// program to fixpoint naively, and report everything that is new relative
/// to the pre-call state — the definition
/// [`crate::Evaluator::propagate_insertions`] must be equivalent to.
pub fn propagate_insertions_reference(
    program: &Program,
    db: &mut Database,
    base_deltas: &HashMap<String, Vec<Tuple>>,
) -> Result<BTreeMap<String, Vec<Tuple>>> {
    program.validate()?;
    prepare(program, db)?;

    let before: BTreeMap<String, BTreeSet<Tuple>> = db
        .relations()
        .map(|r| (r.name().to_string(), r.iter().cloned().collect()))
        .collect();

    for (rel, tuples) in base_deltas {
        for t in tuples {
            db.insert(rel, t.clone())?;
        }
    }
    run_reference(program, db)?;

    let mut new: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for r in db.relations() {
        let prior = before.get(r.name());
        let mut fresh: Vec<Tuple> = r
            .iter()
            .filter(|t| prior.is_none_or(|s| !s.contains(*t)))
            .cloned()
            .collect();
        if !fresh.is_empty() {
            fresh.sort();
            new.insert(r.name().to_string(), fresh);
        }
    }
    Ok(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::eval::{Evaluator, Seed};
    use crate::plan::PlanCache;
    use orchestra_storage::tuple::int_tuple;

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
    fn reference_matches_optimized_on_transitive_closure() {
        let mut opt = edge_db(&[(1, 2), (2, 3), (3, 1), (3, 4)]);
        let mut oracle = opt.snapshot();
        Evaluator::new()
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut opt,
                Seed::All,
                None,
            )
            .unwrap();
        run_reference(&tc_program(), &mut oracle).unwrap();
        assert_eq!(
            opt.relation("path").unwrap().sorted_tuples(),
            oracle.relation("path").unwrap().sorted_tuples()
        );
    }

    #[test]
    fn reference_handles_negation_and_constants() {
        // visible(x) :- node(x, 1), not hidden(x).
        let program = Program::from_rules(vec![Rule::new(
            atom("visible", &["x"]),
            vec![
                Literal::positive(Atom::new(
                    "node",
                    vec![Term::var("x"), Term::constant(1i64)],
                )),
                Literal::negative(atom("hidden", &["x"])),
            ],
        )]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("node", &["x", "f"]))
            .unwrap();
        db.create_relation(RelationSchema::new("hidden", &["x"]))
            .unwrap();
        for i in 0..4 {
            db.insert("node", int_tuple(&[i, i % 2])).unwrap();
        }
        db.insert("hidden", int_tuple(&[3])).unwrap();
        run_reference(&program, &mut db).unwrap();
        assert_eq!(
            db.relation("visible").unwrap().sorted_tuples(),
            vec![int_tuple(&[1])]
        );
    }

    #[test]
    fn reference_propagation_matches_optimized() {
        let mut opt = edge_db(&[(1, 2), (2, 3)]);
        let mut oracle = opt.snapshot();
        let mut eval = Evaluator::new();
        eval.fixpoint(
            &mut PlanCache::new(),
            &tc_program(),
            &mut opt,
            Seed::All,
            None,
        )
        .unwrap();
        run_reference(&tc_program(), &mut oracle).unwrap();

        let mut deltas = HashMap::new();
        deltas.insert("edge".to_string(), vec![int_tuple(&[3, 4])]);
        let new_opt = eval
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut opt,
                Seed::Insert(&deltas),
                None,
            )
            .unwrap();
        let new_ref = propagate_insertions_reference(&tc_program(), &mut oracle, &deltas).unwrap();

        // Same final instances.
        assert_eq!(
            opt.relation("path").unwrap().sorted_tuples(),
            oracle.relation("path").unwrap().sorted_tuples()
        );
        // Same reported novelty.
        let mut opt_sorted: BTreeMap<String, Vec<Tuple>> = new_opt
            .fresh
            .into_iter()
            .map(|(rel, ids)| {
                let stored = opt.relation(&rel).unwrap();
                let tuples = ids.iter().map(|&id| stored.tuple_by_id(id).clone());
                (rel, tuples.collect::<Vec<_>>())
            })
            .filter(|(_, ts)| !ts.is_empty())
            .collect();
        for ts in opt_sorted.values_mut() {
            ts.sort();
            ts.dedup();
        }
        assert_eq!(opt_sorted, new_ref);
    }
}

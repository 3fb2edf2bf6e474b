//! Inverse rules for goal-directed derivation testing (paper §4.1.3).
//!
//! Given a set of tuples whose derivations we want to check (loaded into
//! `R__chk` relations), the *support program* traverses the stored
//! provenance relations **backwards**: it marks every provenance row that
//! could participate in a derivation of a checked tuple (`P_m__reach`), and
//! transitively every source tuple such a row consumed (`S__chk` for the
//! source relations). Running the support program to fixpoint therefore
//! computes "the set of tuples from which the original `R__chk` relations
//! could have been derived" — the backward phase of the paper's derivation
//! test. The forward validation phase (re-running the mappings over the
//! reachable edb tuples) is performed by `orchestra-core` using the ordinary
//! update-exchange program restricted to the reachable set, or — equivalently
//! and more cheaply at our scale — using the provenance graph.

use orchestra_datalog::atom::Atom;
use orchestra_datalog::program::Program;
use orchestra_datalog::rule::Rule;
use orchestra_datalog::term::Term;
use orchestra_storage::schema::{internal_name, InternalRole};

use crate::compile::TemplateTerm;
use crate::internal::MappingSystem;

/// Suffix of the relations holding the tuples whose derivation is being
/// checked.
pub const CHECK_SUFFIX: &str = "__chk";
/// Suffix of the relations holding provenance rows reachable backwards from
/// the checked tuples.
pub const REACH_SUFFIX: &str = "__reach";

/// The `R__chk` relation name for `relation`.
pub fn check_relation(relation: &str) -> String {
    format!("{relation}{CHECK_SUFFIX}")
}

/// The `P__reach` relation name for a provenance relation.
pub fn reach_relation(relation: &str) -> String {
    format!("{relation}{REACH_SUFFIX}")
}

/// Build the support (inverse-rule) program for a mapping system.
///
/// For every provenance table `P_m` of every compiled mapping, with columns
/// `x̄ȳ`, target atoms `T(…)` and source atoms `S(…)`:
///
/// ```text
/// P_m__reach(x̄, ȳ) :- P_m(x̄, ȳ), T__chk(frontier columns, _fresh…).
/// S__chk(source columns)  :- P_m__reach(x̄, ȳ).          (one per source atom)
/// ```
///
/// and for every logical relation `R` (whose output table is derived from
/// its input table and its local contributions):
///
/// ```text
/// R_i__chk(x̄) :- R_o__chk(x̄).
/// R_l__chk(x̄) :- R_o__chk(x̄).
/// ```
pub fn support_program(system: &MappingSystem) -> Program {
    let mut rules: Vec<Rule> = Vec::new();

    for compiled in &system.compiled {
        let column_vars: Vec<Term> = compiled
            .columns
            .iter()
            .map(|c| Term::var(c.clone()))
            .collect();

        for table in &compiled.provenance {
            let reach = reach_relation(&table.relation);
            // One backward rule per target atom of this provenance table.
            for &ti in &table.target_indexes {
                let template = &compiled.targets[ti];
                let mut fresh = 0usize;
                let chk_terms: Vec<Term> = template
                    .terms
                    .iter()
                    .map(|t| match t {
                        TemplateTerm::Col(c) => Term::var(compiled.columns[*c].clone()),
                        TemplateTerm::Const(v) => Term::Const(v.clone()),
                        TemplateTerm::Skolem(_, _) => {
                            // The labeled-null position cannot be matched
                            // syntactically; the provenance row determines it,
                            // so we join only on the frontier columns and use
                            // a fresh variable here (paper §4.1.3: "fill in
                            // the possible values for f̄(x̄)").
                            fresh += 1;
                            Term::var(format!("__any{fresh}"))
                        }
                    })
                    .collect();
                rules.push(Rule::positive(
                    Atom::new(reach.clone(), column_vars.clone()),
                    vec![
                        Atom::new(table.relation.clone(), column_vars.clone()),
                        Atom::new(check_relation(&template.relation), chk_terms),
                    ],
                ));
            }
            // Backward propagation to every source atom.
            for source in &compiled.sources {
                let src_terms: Vec<Term> = source
                    .terms
                    .iter()
                    .map(|t| match t {
                        TemplateTerm::Col(c) => Term::var(compiled.columns[*c].clone()),
                        TemplateTerm::Const(v) => Term::Const(v.clone()),
                        TemplateTerm::Skolem(_, _) => {
                            unreachable!("source templates never contain Skolems")
                        }
                    })
                    .collect();
                rules.push(Rule::positive(
                    Atom::new(check_relation(&source.relation), src_terms),
                    vec![Atom::new(reach.clone(), column_vars.clone())],
                ));
            }
        }
    }

    // Internal rules: a checked output tuple may come from the input table or
    // from the local contributions table.
    for schema in system.logical_schemas.values() {
        let vars: Vec<String> = (0..schema.arity()).map(|i| format!("x{i}")).collect();
        let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        let out_chk = Atom::with_vars(
            check_relation(&internal_name(schema.name(), InternalRole::Output)),
            &var_refs,
        );
        for role in [InternalRole::Input, InternalRole::LocalContributions] {
            rules.push(Rule::positive(
                Atom::with_vars(
                    check_relation(&internal_name(schema.name(), role)),
                    &var_refs,
                ),
                vec![out_chk.clone()],
            ));
        }
    }

    Program::from_rules(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::ProvenanceEncoding;
    use crate::tgd::example2_mappings;
    use orchestra_datalog::Evaluator;
    use orchestra_storage::{tuple::int_tuple, Database, RelationSchema};

    fn example_system() -> MappingSystem {
        MappingSystem::build(
            vec![
                RelationSchema::new("G", &["id", "can", "nam"]),
                RelationSchema::new("B", &["id", "nam"]),
                RelationSchema::new("U", &["nam", "can"]),
            ],
            example2_mappings(),
            ProvenanceEncoding::CompositePerTgd,
        )
        .unwrap()
    }

    #[test]
    fn support_program_is_valid_datalog() {
        let system = example_system();
        let p = support_program(&system);
        p.validate().unwrap();
        p.stratify().unwrap();
        let text = p.to_string();
        assert!(text.contains("P_m1__reach"));
        assert!(text.contains("B_i__chk"));
        assert!(text.contains("B_l__chk(x0, x1) :- B_o__chk(x0, x1)."));
    }

    #[test]
    fn backward_reachability_marks_exactly_the_ancestors() {
        let system = example_system();
        let mut db = Database::new();
        system.register_relations(&mut db).unwrap();

        // Base data of Example 3 in the local contribution tables.
        db.insert("G_l", int_tuple(&[1, 2, 3])).unwrap();
        db.insert("G_l", int_tuple(&[3, 5, 2])).unwrap();
        db.insert("B_l", int_tuple(&[3, 5])).unwrap();
        db.insert("U_l", int_tuple(&[2, 5])).unwrap();

        // Run the forward update-exchange program.
        let mut eval = Evaluator::new();
        eval.run(&system.program, &mut db).unwrap();
        assert!(db.relation("B_o").unwrap().contains(&int_tuple(&[3, 2])));

        // Check the derivation of B_o(3, 2).
        let chk_schema = RelationSchema::new("B_o__chk", &["id", "nam"]);
        db.create_relation(chk_schema).unwrap();
        db.insert("B_o__chk", int_tuple(&[3, 2])).unwrap();

        let support = support_program(&system);
        eval.run(&support, &mut db).unwrap();

        // G_l's tuple (3,5,2) supports it via m1; (1,2,3) does not.
        let g_chk = db.relation("G_l__chk").unwrap();
        assert!(g_chk.contains(&int_tuple(&[3, 5, 2])));
        assert!(!g_chk.contains(&int_tuple(&[1, 2, 3])));
        // The m4 path marks B(3,5) and U(2,5) as well.
        assert!(db
            .relation("B_l__chk")
            .unwrap()
            .contains(&int_tuple(&[3, 5])));
        assert!(db
            .relation("U_l__chk")
            .unwrap()
            .contains(&int_tuple(&[2, 5])));
        // Provenance rows on the path are marked reachable.
        assert!(!db.relation("P_m1__reach").unwrap().is_empty());
        assert!(!db.relation("P_m4__reach").unwrap().is_empty());
    }
}

//! Hygiene pass: warnings for legal-but-suspect constructs.
//!
//! * **W001** — a derived relation no rule ever reads (and the caller did not
//!   list as an output root): dead derivation work.
//! * **W002** — a body requiring the same atom positively and negatively can
//!   never be satisfied: the rule is unreachable.
//! * **W003** — every head column is a Skolem term, so every tuple the rule
//!   derives holds only labeled nulls: none is ever a certain answer, and a
//!   point read cannot bind a known value to any of its columns.
//! * **W004** — (with declared edbs) a body references a relation that is
//!   neither derived nor extensional, so the rule can never fire.

use std::collections::BTreeSet;

use orchestra_datalog::{Program, Term};

use crate::diagnostics::{Code, Diagnostic};

/// Emit W001–W004 findings.
pub(crate) fn check(
    program: &Program,
    declared_edbs: Option<&BTreeSet<String>>,
    roots: &BTreeSet<String>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let idb = program.idb_relations();

    // W001: derived but never read.
    let mut read: BTreeSet<&str> = BTreeSet::new();
    for rule in program.rules() {
        for lit in &rule.body {
            read.insert(lit.relation());
        }
    }
    for relation in &idb {
        if read.contains(relation.as_str()) || roots.contains(relation) {
            continue;
        }
        let (ri, rule) = program
            .rules()
            .iter()
            .enumerate()
            .find(|(_, r)| &r.head.relation == relation)
            .expect("idb relations have a defining rule");
        diagnostics.push(
            Diagnostic::new(
                Code::W001,
                format!(
                    "relation `{relation}` is derived but never used by any rule \
                     (and is not an output root)"
                ),
            )
            .with_rule(ri, rule),
        );
    }

    for (ri, rule) in program.rules().iter().enumerate() {
        // W002: the same atom both required and forbidden.
        let positive: Vec<_> = rule
            .body
            .iter()
            .filter(|l| !l.negated)
            .map(|l| &l.atom)
            .collect();
        if rule
            .body
            .iter()
            .any(|l| l.negated && positive.iter().any(|a| **a == l.atom))
        {
            diagnostics.push(
                Diagnostic::new(
                    Code::W002,
                    "rule body requires the same atom both positively and negatively \
                     and can never be satisfied",
                )
                .with_rule(ri, rule),
            );
        }

        // W003: a head of labeled nulls only.
        if !rule.head.terms.is_empty()
            && rule
                .head
                .terms
                .iter()
                .all(|t| matches!(t, Term::Skolem(..)))
        {
            diagnostics.push(
                Diagnostic::new(
                    Code::W003,
                    format!(
                        "every head column of `{}` is a Skolem term; every tuple this \
                         rule derives holds only labeled nulls",
                        rule.head.relation
                    ),
                )
                .with_rule(ri, rule)
                .with_note(
                    "no tuple of this rule is ever a certain answer, and a point read \
                     cannot bind a known value to any of its columns",
                ),
            );
        }

        // W004: body relation that nothing can ever populate.
        if let Some(edbs) = declared_edbs {
            for lit in &rule.body {
                let rel = lit.relation();
                if !idb.contains(rel) && !edbs.contains(rel) {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::W004,
                            format!(
                                "body atom `{}` references `{rel}`, which is neither \
                                 derived by any rule nor a declared edb; this rule can \
                                 never fire",
                                lit.atom
                            ),
                        )
                        .with_rule(ri, rule),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_datalog::parse_program;

    fn run(src: &str, edbs: Option<&[&str]>, roots: &[&str]) -> Vec<Diagnostic> {
        let program = parse_program(src).unwrap();
        let edbs = edbs.map(|e| e.iter().map(|s| s.to_string()).collect());
        let roots = roots.iter().map(|s| s.to_string()).collect();
        let mut diags = Vec::new();
        check(&program, edbs.as_ref(), &roots, &mut diags);
        diags
    }

    #[test]
    fn unused_relation_warns_unless_rooted() {
        let src = "B(i, n) :- G(i, c, n).";
        let diags = run(src, None, &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::W001);
        assert!(run(src, None, &["B"]).is_empty());
        // Used relations never warn.
        assert!(run("B(i) :- G(i).\nS(i) :- B(i).", None, &["S"]).is_empty());
    }

    #[test]
    fn contradictory_body_warns() {
        let diags = run("B(x) :- G(x), not G(x).", None, &["B"]);
        assert_eq!(diags.iter().filter(|d| d.code == Code::W002).count(), 1);
        // Different columns are a different atom — no warning.
        assert!(run("B(x) :- G(x, y), not G(y, x).", None, &["B"]).is_empty());
    }

    #[test]
    fn all_skolem_head_warns() {
        let diags = run("N(#f0(x)) :- G(x).", None, &["N"]);
        let w003: Vec<_> = diags.iter().filter(|d| d.code == Code::W003).collect();
        assert_eq!(w003.len(), 1);
        // The reason given is the one that holds: labeled nulls, never
        // certain answers. No demand-evaluation machinery is named.
        let text = format!("{}\n{}", w003[0], Code::W003.title());
        assert!(text.contains("labeled nulls"), "{text}");
        assert!(text.contains("certain answer"), "{text}");
        for stale in ["adornment", "magic", "demand"] {
            assert!(!text.to_lowercase().contains(stale), "{text}");
        }
        // A mixed head (the compiled m″ shape) stays quiet.
        assert!(run("U(n, #f0(n)) :- B(i, n).", None, &["U"]).is_empty());
    }

    #[test]
    fn unknown_body_relation_warns_with_declared_edbs() {
        let diags = run("B(x) :- Ghost(x).", Some(&["G"]), &["B"]);
        assert_eq!(diags.iter().filter(|d| d.code == Code::W004).count(), 1);
        // Without a declared edb set every body relation might be an edb.
        assert!(run("B(x) :- Ghost(x).", None, &["B"]).is_empty());
    }
}

//! Datalog rules and their safety validation.

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::{Atom, Literal};
use crate::error::DatalogError;
use crate::Result;

/// A datalog rule `head :- body`.
///
/// The head is a single atom (datalog convention; the mapping compiler splits
/// multi-atom tgd heads into several rules, paper §4.1.1). The body is a
/// conjunction of positive and negated literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The rule head.
    pub head: Atom,
    /// The body literals, evaluated left to right.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Create a rule from a head and body.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// Create a rule with an all-positive body.
    pub fn positive(head: Atom, body: Vec<Atom>) -> Self {
        Rule {
            head,
            body: body.into_iter().map(Literal::positive).collect(),
        }
    }

    /// A fact: a rule with an empty body (its head must be ground).
    pub fn fact(head: Atom) -> Self {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// Variables occurring in positive body literals.
    pub fn positive_body_variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for lit in &self.body {
            if !lit.negated {
                for t in &lit.atom.terms {
                    t.collect_vars(&mut out);
                }
            }
        }
        out
    }

    /// All relations mentioned in the body.
    pub fn body_relations(&self) -> BTreeSet<&str> {
        self.body.iter().map(|l| l.relation()).collect()
    }

    /// Validate rule safety:
    ///
    /// * every head variable occurs in a positive body atom;
    /// * every variable of a negated body atom occurs in a positive body atom
    ///   ("safe negation", paper §3.1);
    /// * Skolem applications only occur in the head.
    pub fn validate(&self) -> Result<()> {
        let positive_vars = self.positive_body_variables();

        for lit in &self.body {
            if lit.atom.contains_skolem() {
                return Err(DatalogError::SkolemInBody {
                    rule: self.to_string(),
                });
            }
        }

        for v in self.head.variables() {
            if !positive_vars.contains(v) {
                return Err(DatalogError::UnsafeRule {
                    rule: self.to_string(),
                    variable: v.to_string(),
                });
            }
        }

        for lit in &self.body {
            if lit.negated {
                for v in lit.atom.variables() {
                    if !positive_vars.contains(v) {
                        return Err(DatalogError::UnsafeRule {
                            rule: self.to_string(),
                            variable: v.to_string(),
                        });
                    }
                }
            }
        }

        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, lit) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use orchestra_storage::SkolemFnId;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::with_vars(rel, vars)
    }

    #[test]
    fn safe_rule_validates() {
        // B(i, n) :- G(i, c, n)  — mapping (m1) of the paper.
        let r = Rule::positive(atom("B", &["i", "n"]), vec![atom("G", &["i", "c", "n"])]);
        assert!(r.validate().is_ok());
        assert_eq!(r.to_string(), "B(i, n) :- G(i, c, n).");
    }

    #[test]
    fn head_variable_not_in_body_is_unsafe() {
        let r = Rule::positive(atom("B", &["i", "z"]), vec![atom("G", &["i", "c", "n"])]);
        let err = r.validate().unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeRule { variable, .. } if variable == "z"));
    }

    #[test]
    fn negated_variable_must_be_bound_positively() {
        // R_o(x) :- R_i(x), not R_r(x)  — the (iR)/(tR) rule shape of §3.1.
        let ok = Rule::new(
            atom("Ro", &["x"]),
            vec![
                Literal::positive(atom("Ri", &["x"])),
                Literal::negative(atom("Rr", &["x"])),
            ],
        );
        assert!(ok.validate().is_ok());

        let bad = Rule::new(
            atom("Ro", &["x"]),
            vec![
                Literal::positive(atom("Ri", &["x"])),
                Literal::negative(atom("Rr", &["y"])),
            ],
        );
        assert!(matches!(
            bad.validate().unwrap_err(),
            DatalogError::UnsafeRule { variable, .. } if variable == "y"
        ));
    }

    #[test]
    fn skolems_allowed_in_head_only() {
        // U_i(n, f(n)) :- B_o(i, n)  — mapping (m3) compiled per §4.1.1.
        let ok = Rule::positive(
            Atom::new(
                "U_i",
                vec![
                    Term::var("n"),
                    Term::skolem(SkolemFnId(0), vec![Term::var("n")]),
                ],
            ),
            vec![atom("B_o", &["i", "n"])],
        );
        assert!(ok.validate().is_ok());

        let bad = Rule::positive(
            atom("X", &["n"]),
            vec![Atom::new(
                "Y",
                vec![Term::skolem(SkolemFnId(0), vec![Term::var("n")])],
            )],
        );
        assert!(matches!(
            bad.validate().unwrap_err(),
            DatalogError::SkolemInBody { .. }
        ));
    }

    #[test]
    fn skolem_argument_variables_must_be_safe() {
        // Head skolem over a variable that is not bound in the body.
        let bad = Rule::positive(
            Atom::new("U", vec![Term::skolem(SkolemFnId(0), vec![Term::var("q")])]),
            vec![atom("B", &["i", "n"])],
        );
        assert!(matches!(
            bad.validate().unwrap_err(),
            DatalogError::UnsafeRule { variable, .. } if variable == "q"
        ));
    }

    #[test]
    fn ground_fact_is_safe() {
        let f = Rule::fact(Atom::new("R", vec![Term::constant(1i64)]));
        assert!(f.validate().is_ok());
        assert_eq!(f.to_string(), "R(1).");
    }

    #[test]
    fn body_relations_are_collected() {
        let r = Rule::new(
            atom("B", &["i", "n"]),
            vec![
                Literal::positive(atom("B", &["i", "c"])),
                Literal::positive(atom("U", &["n", "c"])),
            ],
        );
        let rels = r.body_relations();
        assert!(rels.contains("B") && rels.contains("U"));
        assert_eq!(rels.len(), 2);
    }
}

//! Atoms and body literals.

use std::collections::BTreeSet;
use std::fmt;

use crate::term::Term;

/// A datalog atom: a relation name applied to a list of terms, e.g.
/// `B(i, n)` or `U(n, #f0(n))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The relation this atom refers to.
    pub relation: String,
    /// The argument terms, one per attribute of the relation.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Create an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Shorthand: an atom whose arguments are all plain variables.
    pub fn with_vars(relation: impl Into<String>, vars: &[&str]) -> Self {
        Atom::new(relation, vars.iter().map(|v| Term::var(*v)).collect())
    }

    /// Number of argument terms.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// All variable names occurring in the atom (including inside Skolems).
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for t in &self.terms {
            t.collect_vars(&mut out);
        }
        out
    }

    /// Does any term of this atom contain a Skolem application?
    pub fn contains_skolem(&self) -> bool {
        self.terms.iter().any(Term::contains_skolem)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom, possibly negated.
///
/// Negation is only allowed when *safe*: every variable of a negated atom
/// must also occur in a positive atom of the same rule body (the "tgds with
/// safe negation" of paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The underlying atom.
    pub atom: Atom,
    /// True if the literal is negated (`not R(..)` / `¬R(..)`).
    pub negated: bool,
}

impl Literal {
    /// A positive literal.
    pub fn positive(atom: Atom) -> Self {
        Literal {
            atom,
            negated: false,
        }
    }

    /// A negated literal.
    pub fn negative(atom: Atom) -> Self {
        Literal {
            atom,
            negated: true,
        }
    }

    /// The relation the literal refers to.
    pub fn relation(&self) -> &str {
        &self.atom.relation
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "not {}", self.atom)
        } else {
            write!(f, "{}", self.atom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_storage::SkolemFnId;

    #[test]
    fn atom_basics() {
        let a = Atom::with_vars("B", &["i", "n"]);
        assert_eq!(a.arity(), 2);
        assert_eq!(a.relation, "B");
        assert_eq!(a.to_string(), "B(i, n)");
        let vars = a.variables();
        assert!(vars.contains("i") && vars.contains("n"));
    }

    #[test]
    fn atom_with_skolem_and_constants() {
        let a = Atom::new(
            "U",
            vec![
                Term::var("n"),
                Term::skolem(SkolemFnId(0), vec![Term::var("n")]),
            ],
        );
        assert!(a.contains_skolem());
        assert_eq!(a.to_string(), "U(n, #f0(n))");
        assert_eq!(a.variables().len(), 1);
    }

    #[test]
    fn literal_polarity() {
        let a = Atom::with_vars("R", &["x"]);
        let p = Literal::positive(a.clone());
        let n = Literal::negative(a);
        assert!(!p.negated);
        assert!(n.negated);
        assert_eq!(p.relation(), "R");
        assert_eq!(p.to_string(), "R(x)");
        assert_eq!(n.to_string(), "not R(x)");
    }
}

//! Terms: the building blocks of datalog atoms.

use std::collections::BTreeSet;
use std::fmt;

use orchestra_storage::{SkolemFnId, Value};

/// A term occurring in a datalog atom.
///
/// * [`Term::Var`] — a variable, identified by name;
/// * [`Term::Const`] — a constant [`Value`];
/// * [`Term::Skolem`] — the application of a Skolem function to argument
///   terms. Skolem terms are only legal in rule *heads*; they are how the
///   mapping compiler encodes existentially quantified variables of tgds
///   (paper §4.1.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// A constant value.
    Const(Value),
    /// A Skolem function applied to argument terms (head positions only).
    Skolem(SkolemFnId, Vec<Term>),
}

impl Term {
    /// Construct a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Construct a constant term.
    pub fn constant(value: impl Into<Value>) -> Self {
        Term::Const(value.into())
    }

    /// Construct a Skolem application term.
    pub fn skolem(f: SkolemFnId, args: Vec<Term>) -> Self {
        Term::Skolem(f, args)
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Is this term (or any nested argument) a Skolem application?
    pub fn contains_skolem(&self) -> bool {
        match self {
            Term::Skolem(_, _) => true,
            Term::Var(_) | Term::Const(_) => false,
        }
    }

    /// The variable name if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Collect the names of all variables occurring in this term (including
    /// inside Skolem arguments) into `out`.
    pub fn collect_vars<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Term::Var(v) => {
                out.insert(v);
            }
            Term::Const(_) => {}
            Term::Skolem(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// All variable names occurring in this term.
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Text(s)) => write!(f, "\"{s}\""),
            Term::Const(c) => write!(f, "{c}"),
            Term::Skolem(id, args) => {
                write!(f, "#{id}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let v = Term::var("x");
        assert!(v.is_var());
        assert_eq!(v.as_var(), Some("x"));
        let c = Term::constant(5i64);
        assert!(!c.is_var());
        assert_eq!(c.as_var(), None);
        assert!(!c.contains_skolem());
        let s = Term::skolem(SkolemFnId(0), vec![Term::var("x")]);
        assert!(s.contains_skolem());
    }

    #[test]
    fn variable_collection_recurses_into_skolems() {
        let t = Term::skolem(
            SkolemFnId(1),
            vec![Term::var("a"), Term::constant(1i64), Term::var("b")],
        );
        let vars = t.variables();
        assert!(vars.contains("a"));
        assert!(vars.contains("b"));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::var("x").to_string(), "x");
        assert_eq!(Term::constant(3i64).to_string(), "3");
        assert_eq!(Term::constant("s").to_string(), "\"s\"");
        let s = Term::skolem(SkolemFnId(2), vec![Term::var("n")]);
        assert_eq!(s.to_string(), "#f2(n)");
    }
}

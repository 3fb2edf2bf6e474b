//! Tuple-generating dependencies (tgds): the paper's mapping formalism.
//!
//! A tgd `∀x̄,ȳ (φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))` is written here as
//! `φ -> ψ` with the quantifiers implicit: every RHS variable that does not
//! occur on the LHS is existentially quantified. Example 2 of the paper:
//!
//! ```text
//! m1:  G(i, c, n) -> B(i, n)
//! m3:  B(i, n)    -> U(n, c)          % c is existential
//! m4:  B(i, c), U(n, c) -> B(i, n)
//! ```

use std::collections::BTreeSet;
use std::fmt;

use orchestra_datalog::atom::Atom;
use orchestra_datalog::parser::parse_atom;
use orchestra_datalog::term::Term;

use crate::error::MappingError;
use crate::Result;

/// A tuple-generating dependency (GLAV mapping) with a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tgd {
    /// The mapping's name, e.g. `"m1"`. Used as the provenance mapping
    /// function symbol and in trust conditions.
    pub name: String,
    /// The conjunction of LHS (body / source) atoms, `φ(x̄, ȳ)`.
    pub lhs: Vec<Atom>,
    /// The conjunction of RHS (head / target) atoms, `ψ(x̄, z̄)`.
    pub rhs: Vec<Atom>,
}

impl Tgd {
    /// Create a tgd and validate its shape.
    pub fn new(name: impl Into<String>, lhs: Vec<Atom>, rhs: Vec<Atom>) -> Result<Self> {
        let tgd = Tgd {
            name: name.into(),
            lhs,
            rhs,
        };
        tgd.validate()?;
        Ok(tgd)
    }

    /// Parse a tgd from text of the form `A(x,y), B(y,z) -> C(x,z)`.
    /// Atoms are separated by `,` or `&`; the arrow may be `->` or `→`.
    pub fn parse(name: impl Into<String>, input: &str) -> Result<Self> {
        let name = name.into();
        let normalized = input.replace('→', "->");
        let mut sides = normalized.splitn(2, "->");
        let lhs_text = sides.next().unwrap_or("");
        let rhs_text = sides.next().ok_or_else(|| MappingError::Parse {
            message: "missing `->`".into(),
            input: input.to_string(),
        })?;

        let parse_side = |text: &str| -> Result<Vec<Atom>> {
            split_atoms(text)
                .into_iter()
                .map(|a| {
                    parse_atom(&a).map_err(|e| MappingError::Parse {
                        message: e.to_string(),
                        input: input.to_string(),
                    })
                })
                .collect()
        };

        Tgd::new(name, parse_side(lhs_text)?, parse_side(rhs_text)?)
    }

    fn validate(&self) -> Result<()> {
        if self.lhs.is_empty() {
            return Err(MappingError::InvalidTgd {
                mapping: self.name.clone(),
                message: "the LHS must contain at least one atom".into(),
            });
        }
        if self.rhs.is_empty() {
            return Err(MappingError::InvalidTgd {
                mapping: self.name.clone(),
                message: "the RHS must contain at least one atom".into(),
            });
        }
        for atom in self.lhs.iter().chain(self.rhs.iter()) {
            for term in &atom.terms {
                if matches!(term, Term::Skolem(_, _)) {
                    return Err(MappingError::InvalidTgd {
                        mapping: self.name.clone(),
                        message: "tgds may not contain Skolem terms; existential variables are \
                                  Skolemised during compilation"
                            .into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Variables occurring on the LHS (`x̄ ∪ ȳ`).
    pub fn lhs_variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for a in &self.lhs {
            for t in &a.terms {
                t.collect_vars(&mut out);
            }
        }
        out
    }

    /// Variables occurring on the RHS.
    pub fn rhs_variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for a in &self.rhs {
            for t in &a.terms {
                t.collect_vars(&mut out);
            }
        }
        out
    }

    /// Frontier variables: shared between LHS and RHS (`x̄`). These are the
    /// arguments of the Skolem functions created for this tgd (§4.1.1).
    pub fn frontier_variables(&self) -> BTreeSet<&str> {
        self.lhs_variables()
            .intersection(&self.rhs_variables())
            .copied()
            .collect()
    }

    /// Existential variables: RHS variables not bound by the LHS (`z̄`).
    pub fn existential_variables(&self) -> BTreeSet<&str> {
        self.rhs_variables()
            .difference(&self.lhs_variables())
            .copied()
            .collect()
    }

    /// Is this tgd *full*, i.e. without existential variables? Full tgds are
    /// the case for which the computed instance is guaranteed to be a
    /// universal solution even in the presence of rejections (the paper's
    /// erratum in §3.1).
    pub fn is_full(&self) -> bool {
        self.existential_variables().is_empty()
    }

    /// Relations mentioned on the LHS.
    pub fn source_relations(&self) -> BTreeSet<&str> {
        self.lhs.iter().map(|a| a.relation.as_str()).collect()
    }

    /// Relations mentioned on the RHS.
    pub fn target_relations(&self) -> BTreeSet<&str> {
        self.rhs.iter().map(|a| a.relation.as_str()).collect()
    }
}

/// Split a conjunction of atoms at top-level `,` or `&` separators
/// (commas inside parentheses belong to an atom's argument list).
fn split_atoms(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for ch in text.chars() {
        match ch {
            '(' => {
                depth += 1;
                current.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(ch);
            }
            ',' | '&' if depth == 0 => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(ch),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_string());
    }
    out
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) ", self.name)?;
        for (i, a) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " → ")?;
        let existentials = self.existential_variables();
        if !existentials.is_empty() {
            write!(f, "∃")?;
            for (i, v) in existentials.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, " ")?;
        }
        for (i, a) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Construct the four mappings of the paper's Example 2, used throughout the
/// test suites and examples of this workspace.
pub fn example2_mappings() -> Vec<Tgd> {
    vec![
        Tgd::parse("m1", "G(i, c, n) -> B(i, n)").expect("m1 is well-formed"),
        Tgd::parse("m2", "G(i, c, n) -> U(n, c)").expect("m2 is well-formed"),
        Tgd::parse("m3", "B(i, n) -> U(n, c)").expect("m3 is well-formed"),
        Tgd::parse("m4", "B(i, c), U(n, c) -> B(i, n)").expect("m4 is well-formed"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_example_2() {
        let ms = example2_mappings();
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0].lhs.len(), 1);
        assert_eq!(ms[3].lhs.len(), 2);
        assert_eq!(ms[3].rhs.len(), 1);
        assert_eq!(ms[0].name, "m1");
    }

    #[test]
    fn variable_classification() {
        let m3 = Tgd::parse("m3", "B(i, n) -> U(n, c)").unwrap();
        assert_eq!(
            m3.frontier_variables().into_iter().collect::<Vec<_>>(),
            vec!["n"]
        );
        assert_eq!(
            m3.existential_variables().into_iter().collect::<Vec<_>>(),
            vec!["c"]
        );
        assert!(!m3.is_full());

        let m1 = Tgd::parse("m1", "G(i, c, n) -> B(i, n)").unwrap();
        assert!(m1.is_full());
        assert!(m1.existential_variables().is_empty());
        let front = m1.frontier_variables();
        assert!(front.contains("i") && front.contains("n") && !front.contains("c"));
    }

    #[test]
    fn source_and_target_relations() {
        let m4 = Tgd::parse("m4", "B(i, c) & U(n, c) -> B(i, n)").unwrap();
        let src = m4.source_relations();
        assert!(src.contains("B") && src.contains("U"));
        assert_eq!(
            m4.target_relations().into_iter().collect::<Vec<_>>(),
            vec!["B"]
        );
    }

    #[test]
    fn display_uses_logical_notation() {
        let m3 = Tgd::parse("m3", "B(i, n) -> U(n, c)").unwrap();
        let s = m3.to_string();
        assert!(s.contains("(m3)"));
        assert!(s.contains("∃c"));
        assert!(s.contains("→"));
        let m1 = Tgd::parse("m1", "G(i, c, n) -> B(i, n)").unwrap();
        assert!(!m1.to_string().contains('∃'));
    }

    #[test]
    fn unicode_arrow_and_multi_atom_rhs() {
        let m = Tgd::parse("mx", "G(i, c, n) → B(i, n), U(n, c)").unwrap();
        assert_eq!(m.rhs.len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            Tgd::parse("bad", "G(i, c, n)").unwrap_err(),
            MappingError::Parse { .. }
        ));
        assert!(matches!(
            Tgd::parse("bad", "-> B(i, n)").unwrap_err(),
            MappingError::InvalidTgd { .. }
        ));
        assert!(matches!(
            Tgd::parse("bad", "G(i, c, n) ->").unwrap_err(),
            MappingError::InvalidTgd { .. }
        ));
        assert!(matches!(
            Tgd::parse("bad", "G(i, c n) -> B(i, n)").unwrap_err(),
            MappingError::Parse { .. }
        ));
    }

    #[test]
    fn constants_are_allowed_in_tgds() {
        let m = Tgd::parse("mc", "G(i, 5, n) -> B(i, \"fixed\")").unwrap();
        assert_eq!(m.lhs[0].terms.len(), 3);
        assert!(m.is_full());
    }
}

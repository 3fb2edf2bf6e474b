//! Provenance tokens and mapping identifiers.

use std::fmt;

use orchestra_storage::Tuple;

/// The name of a schema mapping, e.g. `"m1"`.
///
/// Provenance expressions apply one unary function per mapping; the function
/// is identified by this name (paper §3.2).
pub type MappingId = String;

/// A provenance token: the identity of a *base* tuple, i.e. a tuple inserted
/// directly by a peer's users into a local-contributions table.
///
/// The paper observes (§4.1.2) that under set semantics a tuple is uniquely
/// identified by its relation and values, so the token simply *is* the pair
/// (relation, tuple) — no separate surrogate id is needed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvenanceToken {
    /// The relation (normally a local-contributions table `R_l`) the base
    /// tuple lives in.
    pub relation: String,
    /// The base tuple itself.
    pub tuple: Tuple,
}

impl ProvenanceToken {
    /// Create a token for a base tuple of `relation`.
    pub fn new(relation: impl Into<String>, tuple: Tuple) -> Self {
        ProvenanceToken {
            relation: relation.into(),
            tuple,
        }
    }
}

impl fmt::Display for ProvenanceToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.relation, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_storage::tuple::int_tuple;

    #[test]
    fn tokens_are_identified_by_relation_and_values() {
        let a = ProvenanceToken::new("G_l", int_tuple(&[3, 5, 2]));
        let b = ProvenanceToken::new("G_l", int_tuple(&[3, 5, 2]));
        let c = ProvenanceToken::new("B_l", int_tuple(&[3, 5, 2]));
        let d = ProvenanceToken::new("G_l", int_tuple(&[1, 2, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn display_shows_relation_and_tuple() {
        let t = ProvenanceToken::new("G_l", int_tuple(&[3, 5, 2]));
        assert_eq!(t.to_string(), "G_l(3, 5, 2)");
    }
}

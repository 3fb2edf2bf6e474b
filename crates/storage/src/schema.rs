//! Relation schemas and the naming conventions of the CDSS internal schema.
//!
//! Each user-level relation `R` of a peer is internally expanded into several
//! relations with the same attributes (paper §3.1 and Figure 2):
//!
//! * `R_l` — local contributions,
//! * `R_r` — local rejections,
//! * `R_i` — input table (data produced by update translation),
//! * `R_t` — trusted subset of the input table (§3.3),
//! * `R_o` — curated/output table (what the peer's users query and what is
//!   exported through outgoing mappings).
//!
//! This module owns those naming conventions so that every other crate talks
//! about internal relations consistently.

use std::fmt;
use std::sync::Arc;

/// The name of a relation, e.g. `"B"` or `"B_i"`.
pub type RelationName = String;

/// The name of an attribute (column).
pub type AttributeName = String;

/// Primitive data types tracked by the catalog.
///
/// The CDSS semantics is untyped (values carry their own type); the declared
/// type is used by the workload generator and for documentation, and `Any`
/// accepts every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integers.
    Int,
    /// Strings.
    Text,
    /// Any value, including labeled nulls.
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Text => write!(f, "text"),
            DataType::Any => write!(f, "any"),
        }
    }
}

/// The role a relation plays in the internal schema of a peer (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InternalRole {
    /// A user-visible, logical relation of the peer schema.
    Logical,
    /// `R_l`: tuples inserted locally (minus later local deletions).
    LocalContributions,
    /// `R_r`: imported tuples rejected by local curation deletions.
    Rejections,
    /// `R_i`: tuples produced by update translation from other peers.
    Input,
    /// `R_t`: the trusted subset of the input table.
    Trusted,
    /// `R_o`: the curated output table (local instance).
    Output,
    /// A provenance relation `P_mi` for some mapping rule.
    Provenance,
}

impl InternalRole {
    /// Suffix appended to the logical relation name for this role.
    pub fn suffix(self) -> &'static str {
        match self {
            InternalRole::Logical => "",
            InternalRole::LocalContributions => "_l",
            InternalRole::Rejections => "_r",
            InternalRole::Input => "_i",
            InternalRole::Trusted => "_t",
            InternalRole::Output => "_o",
            InternalRole::Provenance => "_p",
        }
    }
}

/// Build the internal relation name for `base` in the given role,
/// e.g. `internal_name("B", InternalRole::Output) == "B_o"`.
pub fn internal_name(base: &str, role: InternalRole) -> RelationName {
    format!("{base}{}", role.suffix())
}

/// The schema of a relation: its name and attribute list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: RelationName,
    attributes: Arc<[AttributeName]>,
    types: Arc<[DataType]>,
}

impl RelationSchema {
    /// Create a schema with the given attribute names, all typed `Any`.
    pub fn new(name: impl Into<String>, attributes: &[&str]) -> Self {
        let attrs: Vec<AttributeName> = attributes.iter().map(|s| s.to_string()).collect();
        let types = vec![DataType::Any; attrs.len()];
        RelationSchema {
            name: name.into(),
            attributes: attrs.into(),
            types: types.into(),
        }
    }

    /// Create a schema with explicit attribute types.
    pub fn with_types(name: impl Into<String>, attributes: &[(&str, DataType)]) -> Self {
        RelationSchema {
            name: name.into(),
            attributes: attributes
                .iter()
                .map(|(a, _)| a.to_string())
                .collect::<Vec<_>>()
                .into(),
            types: attributes
                .iter()
                .map(|(_, t)| *t)
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Create an anonymous-attribute schema of the given arity (`c0..c{n-1}`).
    pub fn anonymous(name: impl Into<String>, arity: usize) -> Self {
        let attrs: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        RelationSchema::new(name, &refs)
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attribute names.
    pub fn attributes(&self) -> &[AttributeName] {
        &self.attributes
    }

    /// The declared attribute types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// The position of an attribute by name, if present.
    pub fn position_of(&self, attribute: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == attribute)
    }

    /// A copy of this schema under a different name (same attributes).
    ///
    /// Used when expanding `R` into `R_l`, `R_r`, `R_i`, `R_t`, `R_o`, which
    /// all share the attributes of `R` (paper Figure 2).
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        RelationSchema {
            name: name.into(),
            attributes: Arc::clone(&self.attributes),
            types: Arc::clone(&self.types),
        }
    }

    /// The internal-schema variant of this relation for the given role.
    pub fn internal(&self, role: InternalRole) -> Self {
        self.renamed(internal_name(&self.name, role))
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, (a, t)) in self.attributes.iter().zip(self.types.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}: {t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_basics() {
        let s = RelationSchema::new("B", &["id", "nam"]);
        assert_eq!(s.name(), "B");
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attributes(), &["id".to_string(), "nam".to_string()]);
        assert_eq!(s.position_of("nam"), Some(1));
        assert_eq!(s.position_of("missing"), None);
    }

    #[test]
    fn typed_schema() {
        let s = RelationSchema::with_types("G", &[("id", DataType::Int), ("nam", DataType::Text)]);
        assert_eq!(s.types(), &[DataType::Int, DataType::Text]);
        assert_eq!(s.to_string(), "G(id: int, nam: text)");
    }

    #[test]
    fn anonymous_schema_names_columns() {
        let s = RelationSchema::anonymous("P", 3);
        assert_eq!(
            s.attributes(),
            &["c0".to_string(), "c1".to_string(), "c2".to_string()]
        );
    }

    #[test]
    fn internal_role_names_follow_paper_conventions() {
        assert_eq!(internal_name("B", InternalRole::LocalContributions), "B_l");
        assert_eq!(internal_name("B", InternalRole::Rejections), "B_r");
        assert_eq!(internal_name("B", InternalRole::Input), "B_i");
        assert_eq!(internal_name("B", InternalRole::Trusted), "B_t");
        assert_eq!(internal_name("B", InternalRole::Output), "B_o");
        assert_eq!(internal_name("B", InternalRole::Logical), "B");
    }

    #[test]
    fn renaming_preserves_attributes() {
        let s = RelationSchema::new("B", &["id", "nam"]);
        let o = s.internal(InternalRole::Output);
        assert_eq!(o.name(), "B_o");
        assert_eq!(o.attributes(), s.attributes());
        let r = s.renamed("B_copy");
        assert_eq!(r.name(), "B_copy");
        assert_eq!(r.arity(), 2);
    }
}

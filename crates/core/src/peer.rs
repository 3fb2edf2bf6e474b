//! Peers: the autonomous participants of a CDSS.

use std::fmt;

use orchestra_storage::RelationSchema;

/// Identifier of a peer, e.g. `"PBioSQL"`.
pub type PeerId = String;

/// A peer: an autonomous administrative domain owning a relational schema
/// and a locally controlled instance (paper §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peer {
    /// The peer's identifier.
    pub id: PeerId,
    /// The logical relations owned by this peer. Peer schemas are assumed
    /// disjoint (paper §2), which the [`crate::CdssBuilder`] enforces.
    pub relations: Vec<RelationSchema>,
}

impl Peer {
    /// Create a peer with the given schema.
    pub fn new(id: impl Into<PeerId>, relations: Vec<RelationSchema>) -> Self {
        Peer {
            id: id.into(),
            relations,
        }
    }

    /// Does this peer own the named logical relation?
    pub fn owns(&self, relation: &str) -> bool {
        self.relations.iter().any(|r| r.name() == relation)
    }

    /// The schema of one of this peer's relations, if owned.
    pub fn relation(&self, relation: &str) -> Option<&RelationSchema> {
        self.relations.iter().find(|r| r.name() == relation)
    }

    /// Names of the peer's relations.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations
            .iter()
            .map(|r| r.name().to_string())
            .collect()
    }
}

impl fmt::Display for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer {} {{", self.id)?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_checks() {
        let p = Peer::new("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])]);
        assert!(p.owns("B"));
        assert!(!p.owns("G"));
        assert!(p.relation("B").is_some());
        assert!(p.relation("G").is_none());
        assert_eq!(p.relation_names(), vec!["B"]);
        assert!(p.to_string().contains("PBioSQL"));
    }
}

//! Builder for assembling a [`Cdss`] from peers, mappings and trust policies.

use std::collections::BTreeMap;

use orchestra_mappings::{MappingSystem, ProvenanceEncoding, Tgd};
use orchestra_storage::{Database, RelationSchema};

use crate::cdss::{Cdss, CompactionPolicy};
use crate::error::CdssError;
use crate::peer::{Peer, PeerId};
use crate::trust::TrustPolicy;
use crate::Result;

/// Builder for a [`Cdss`].
///
/// ```
/// use orchestra_core::CdssBuilder;
/// use orchestra_storage::RelationSchema;
///
/// let cdss = CdssBuilder::new()
///     .add_peer("PGUS", vec![RelationSchema::new("G", &["id", "can", "nam"])])
///     .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
///     .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
///     .build()
///     .unwrap();
/// assert_eq!(cdss.peer_ids().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct CdssBuilder {
    peers: Vec<Peer>,
    tgds: Vec<Tgd>,
    policies: BTreeMap<PeerId, TrustPolicy>,
    encoding: ProvenanceEncoding,
    persist_dir: Option<std::path::PathBuf>,
    compaction: Option<CompactionPolicy>,
    eval_threads: Option<usize>,
    errors: Vec<CdssError>,
}

impl CdssBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        CdssBuilder::default()
    }

    /// Add a peer with its logical relations.
    pub fn add_peer(mut self, id: impl Into<PeerId>, relations: Vec<RelationSchema>) -> Self {
        self.peers.push(Peer::new(id, relations));
        self
    }

    /// Add a schema mapping (tgd).
    pub fn add_mapping(mut self, tgd: Tgd) -> Self {
        self.tgds.push(tgd);
        self
    }

    /// Add a schema mapping from its textual form, e.g.
    /// `"G(i, c, n) -> B(i, n)"`. Parse errors are deferred to
    /// [`CdssBuilder::build`].
    pub fn add_mapping_str(mut self, name: impl Into<String>, text: &str) -> Self {
        match Tgd::parse(name, text) {
            Ok(tgd) => self.tgds.push(tgd),
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Set the trust policy of a peer (defaults to trust-everything).
    pub fn trust_policy(mut self, peer: impl Into<PeerId>, policy: TrustPolicy) -> Self {
        self.policies.insert(peer.into(), policy);
        self
    }

    /// Select the provenance encoding (defaults to the composite mapping
    /// table of paper §5).
    pub fn provenance_encoding(mut self, encoding: ProvenanceEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Make the CDSS durable in `dir`: every update exchange appends the
    /// published epoch to a write-ahead log there, and
    /// [`Cdss::checkpoint`] installs full snapshots. The directory must
    /// not already hold persisted state (reopen that with
    /// [`Cdss::open_or_recover`] instead).
    pub fn with_persistence(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Set the value-pool compaction policy (defaults to
    /// [`CompactionPolicy::default`]; see [`Cdss::maybe_compact`]).
    pub fn compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = Some(policy);
        self
    }

    /// Pin fixpoint evaluation to `threads` workers instead of the
    /// process-global pool (see [`Cdss::set_eval_threads`]). `1` forces
    /// fully sequential evaluation.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = Some(threads);
        self
    }

    /// Validate everything and construct the CDSS.
    pub fn build(self) -> Result<Cdss> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }

        // Peers must be unique and their schemas disjoint (paper §2).
        let mut peers: BTreeMap<PeerId, Peer> = BTreeMap::new();
        let mut relation_owner: BTreeMap<String, PeerId> = BTreeMap::new();
        let mut schemas: Vec<RelationSchema> = Vec::new();
        for peer in self.peers {
            if peers.contains_key(&peer.id) {
                return Err(CdssError::DuplicatePeer(peer.id));
            }
            for schema in &peer.relations {
                if let Some(owner) = relation_owner.get(schema.name()) {
                    return Err(CdssError::DuplicateRelation {
                        relation: schema.name().to_string(),
                        owner: owner.clone(),
                    });
                }
                relation_owner.insert(schema.name().to_string(), peer.id.clone());
                schemas.push(schema.clone());
            }
            peers.insert(peer.id.clone(), peer);
        }

        // Trust policies must refer to known peers and mappings.
        let mapping_names: Vec<String> = self.tgds.iter().map(|t| t.name.clone()).collect();
        for (peer, policy) in &self.policies {
            if !peers.contains_key(peer) {
                return Err(CdssError::UnknownPeer(peer.clone()));
            }
            for m in policy
                .distrusted_mappings
                .iter()
                .chain(policy.conditions.keys())
            {
                if !mapping_names.contains(m) {
                    return Err(CdssError::UnknownMapping(m.clone()));
                }
            }
        }

        // `build_unchecked` defers the weak-acyclicity verdict to the static
        // analyzer inside `from_parts`, which rejects value-inventing cycles
        // with a full `E001` diagnostic chain instead of the tgd-level bail.
        let system = MappingSystem::build_unchecked(schemas, self.tgds, self.encoding)?;
        let mut db = Database::new();
        system.register_relations(&mut db)?;

        let mut cdss = Cdss::from_parts(peers, relation_owner, system, self.policies, db)?;
        if let Some(policy) = self.compaction {
            cdss.set_compaction_policy(policy);
        }
        if let Some(n) = self.eval_threads {
            cdss.set_eval_threads(n);
        }
        if let Some(dir) = self.persist_dir {
            cdss.attach_persistence(dir)?;
        }
        Ok(cdss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gus() -> Vec<RelationSchema> {
        vec![RelationSchema::new("G", &["id", "can", "nam"])]
    }
    fn biosql() -> Vec<RelationSchema> {
        vec![RelationSchema::new("B", &["id", "nam"])]
    }

    #[test]
    fn duplicate_peer_is_rejected() {
        let err = CdssBuilder::new()
            .add_peer("P", gus())
            .add_peer("P", biosql())
            .build()
            .unwrap_err();
        assert!(matches!(err, CdssError::DuplicatePeer(_)));
    }

    #[test]
    fn overlapping_schemas_are_rejected() {
        let err = CdssBuilder::new()
            .add_peer("P1", gus())
            .add_peer("P2", gus())
            .build()
            .unwrap_err();
        assert!(matches!(err, CdssError::DuplicateRelation { .. }));
    }

    #[test]
    fn bad_mapping_text_is_reported_at_build() {
        let err = CdssBuilder::new()
            .add_peer("P1", gus())
            .add_mapping_str("m1", "G(i, c, n) ->")
            .build()
            .unwrap_err();
        assert!(matches!(err, CdssError::Mapping(_)));
    }

    #[test]
    fn policies_must_reference_known_peers_and_mappings() {
        let err = CdssBuilder::new()
            .add_peer("P1", gus())
            .trust_policy("nobody", TrustPolicy::trust_all())
            .build()
            .unwrap_err();
        assert!(matches!(err, CdssError::UnknownPeer(_)));

        let err = CdssBuilder::new()
            .add_peer("P1", gus())
            .add_peer("P2", biosql())
            .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
            .trust_policy("P2", TrustPolicy::trust_all().distrusting("m99"))
            .build()
            .unwrap_err();
        assert!(matches!(err, CdssError::UnknownMapping(_)));
    }

    #[test]
    fn eval_threads_knob_pins_the_pool_size() {
        let cdss = CdssBuilder::new()
            .add_peer("PGUS", gus())
            .eval_threads(3)
            .build()
            .unwrap();
        assert_eq!(cdss.eval_threads(), 3);
    }

    #[test]
    fn successful_build_creates_internal_relations() {
        let cdss = CdssBuilder::new()
            .add_peer("PGUS", gus())
            .add_peer("PBioSQL", biosql())
            .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
            .build()
            .unwrap();
        assert_eq!(cdss.peer_ids(), vec!["PBioSQL", "PGUS"]);
        assert!(cdss.database().has_relation("B_i"));
        assert!(cdss.database().has_relation("G_l"));
        assert!(cdss.database().has_relation("P_m1"));
        assert_eq!(cdss.owner_of("B"), Some("PBioSQL"));
        assert_eq!(cdss.owner_of("Z"), None);
    }
}

//! Ready-made CDSS scenarios served by `orchestrad` out of the box.

use orchestra_core::{Cdss, CdssBuilder};
use orchestra_storage::RelationSchema;

/// A [`CdssBuilder`] pre-loaded with the paper's running three-peer
/// bioinformatics scenario (Figure 1 / Example 2): PGUS, PBioSQL and PuBio
/// related by mappings m1–m4. Callers can still attach persistence or
/// change the engine before building.
pub fn example_scenario_builder() -> CdssBuilder {
    CdssBuilder::new()
        .add_peer(
            "PGUS",
            vec![RelationSchema::new("G", &["id", "can", "nam"])],
        )
        .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
        .add_peer("PuBio", vec![RelationSchema::new("U", &["nam", "can"])])
        .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
        .add_mapping_str("m2", "G(i, c, n) -> U(n, c)")
        .add_mapping_str("m3", "B(i, n) -> U(n, c)")
        .add_mapping_str("m4", "B(i, c), U(n, c) -> B(i, n)")
}

/// The built [`example_scenario_builder`] scenario. Used by `orchestrad`'s
/// default configuration, the examples, and the tests.
pub fn example_scenario() -> Cdss {
    example_scenario_builder()
        .build()
        .expect("the example scenario is well-formed")
}

/// The relations a client can edit in the [`example_scenario`], as
/// `(peer, relation, arity)` triples — the targets the concurrent-publish
/// tests (`tests/net_concurrent.rs`) publish against.
pub fn example_targets() -> Vec<(String, String, usize)> {
    vec![
        ("PGUS".into(), "G".into(), 3),
        ("PBioSQL".into(), "B".into(), 2),
        ("PuBio".into(), "U".into(), 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_targets_match() {
        let cdss = example_scenario();
        for (peer, relation, arity) in example_targets() {
            let p = cdss.peer(&peer).unwrap();
            assert_eq!(p.relation(&relation).unwrap().arity(), arity);
        }
    }
}

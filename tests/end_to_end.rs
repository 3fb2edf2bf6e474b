//! Workspace-level integration tests: exercise the full stack (storage →
//! datalog → mappings → provenance → CDSS → workload generator) the way the
//! paper's evaluation does, and check cross-strategy
//! equivalences on realistic generated configurations.

use std::collections::BTreeMap;

use orchestra_core::{Cdss, CdssBuilder, CmpOp, Predicate, TrustPolicy};
use orchestra_datalog::parser::parse_rule;
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::RelationSchema;
use orchestra_workload::{generate, DatasetKind, GeneratedCdss, WorkloadConfig};

/// The paper's running example CDSS.
fn running_example() -> Cdss {
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
        .build()
        .expect("the running example is well-formed")
}

fn load_running_example(cdss: &mut Cdss) {
    cdss.insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
        .unwrap();
    cdss.insert_local("PGUS", "G", int_tuple(&[3, 5, 2]))
        .unwrap();
    cdss.insert_local("PBioSQL", "B", int_tuple(&[3, 5]))
        .unwrap();
    cdss.insert_local("PuBio", "U", int_tuple(&[2, 5])).unwrap();
    cdss.update_exchange_all().unwrap();
}

fn small_workload(dataset: DatasetKind, cycles: usize) -> GeneratedCdss {
    let config = WorkloadConfig {
        peers: 4,
        base_size: 25,
        dataset,
        cycles,
        seed: 99,
        ..Default::default()
    };
    generate(&config).expect("workload generation succeeds")
}

/// Collect every peer's every local instance for comparison.
fn all_instances(cdss: &Cdss) -> BTreeMap<(String, String), Vec<orchestra_storage::Tuple>> {
    let mut out = BTreeMap::new();
    for peer in cdss.peer_ids() {
        for rel in cdss.peer(&peer).unwrap().relation_names() {
            out.insert(
                (peer.clone(), rel.clone()),
                cdss.local_instance(&peer, &rel).unwrap(),
            );
        }
    }
    out
}

#[test]
fn paper_example_certain_answers_and_queries() {
    let mut cdss = running_example();
    load_running_example(&mut cdss);

    assert_eq!(
        cdss.certain_answers("PBioSQL", "B").unwrap(),
        vec![
            int_tuple(&[1, 3]),
            int_tuple(&[3, 2]),
            int_tuple(&[3, 3]),
            int_tuple(&[3, 5]),
        ]
    );
    let q = parse_rule("ans(x, y) :- U(x, z), U(y, z).").unwrap();
    assert_eq!(
        cdss.query_certain(&q).unwrap(),
        vec![int_tuple(&[2, 2]), int_tuple(&[3, 3]), int_tuple(&[5, 5])]
    );
}

#[test]
fn incremental_exchange_equals_recomputation_on_generated_workload() {
    let mut incremental = small_workload(DatasetKind::Integers, 1);
    incremental.load_base().unwrap();
    let insertions = incremental.fresh_insertions(5);
    incremental
        .cdss
        .apply_insertions_incremental(&insertions)
        .unwrap();
    let deletions = incremental.deletion_batch(5);
    incremental
        .cdss
        .apply_deletions_incremental(&deletions)
        .unwrap();

    // Same base data and updates, but recomputed from scratch at the end.
    let mut recomputed = small_workload(DatasetKind::Integers, 1);
    recomputed.load_base().unwrap();
    recomputed
        .cdss
        .apply_insertions_incremental(&insertions)
        .unwrap();
    recomputed
        .cdss
        .apply_deletions_incremental(&deletions)
        .unwrap();
    recomputed.cdss.recompute_all().unwrap();

    assert_eq!(
        all_instances(&incremental.cdss),
        all_instances(&recomputed.cdss)
    );
}

#[test]
fn dred_and_incremental_deletion_agree_on_generated_workload() {
    let deletions;
    let incremental_state;
    {
        let mut g = small_workload(DatasetKind::Integers, 1);
        g.load_base().unwrap();
        deletions = g.deletion_batch(8);
        g.cdss.apply_deletions_incremental(&deletions).unwrap();
        incremental_state = all_instances(&g.cdss);
    }
    let dred_state = {
        let mut g = small_workload(DatasetKind::Integers, 1);
        g.load_base().unwrap();
        g.cdss.apply_deletions_dred(&deletions).unwrap();
        all_instances(&g.cdss)
    };
    assert_eq!(incremental_state, dred_state);
}

#[test]
fn trust_conditions_compose_along_mapping_paths() {
    // PuBio distrusts everything arriving via m3 (from BioSQL); it still
    // receives GUS data via m2, and BioSQL's instance is unaffected.
    let mut cdss = CdssBuilder::new()
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
        .trust_policy("PuBio", TrustPolicy::trust_all().distrusting("m3"))
        .build()
        .unwrap();
    load_running_example(&mut cdss);

    let u = cdss.local_instance("PuBio", "U").unwrap();
    // Without m3 no labeled nulls reach uBio.
    assert!(u.iter().all(|t| !t.has_labeled_null()), "{u:?}");
    assert!(u.contains(&int_tuple(&[3, 2])));
    // BioSQL still has all four tuples.
    assert_eq!(cdss.certain_answers("PBioSQL", "B").unwrap().len(), 4);
}

#[test]
fn trust_predicates_filter_generated_workload_data() {
    // Reject every imported tuple whose key column is odd at the second peer,
    // then verify the surviving imports satisfy the predicate.
    let mut g = small_workload(DatasetKind::Integers, 0);
    let peer1 = g.peers[1].id.clone();
    let mapping = "m0"; // the chain mapping peer0 -> peer1
    let policy = TrustPolicy::trust_all().with_condition(
        mapping,
        Predicate::And(vec![
            Predicate::cmp(0, CmpOp::Ge, 0i64),
            Predicate::Not(Box::new(
                // keys are positive and consecutive; "odd" ≅ key % 2 = 1 is not
                // directly expressible, so reject keys above a threshold instead.
                Predicate::cmp(0, CmpOp::Gt, 1_000i64),
            )),
        ]),
    );
    g.cdss.set_trust_policy(peer1.clone(), policy).unwrap();
    g.load_base().unwrap();

    for rel in g.cdss.peer(&peer1).unwrap().relation_names() {
        for t in g.cdss.certain_answers(&peer1, &rel).unwrap() {
            let key = t[0].as_int().unwrap();
            assert!(key <= 1_000, "untrusted tuple leaked: {t}");
        }
    }
}

#[test]
fn provenance_graph_tracks_generated_workload_derivations() {
    let mut g = small_workload(DatasetKind::Integers, 0);
    g.load_base().unwrap();
    let (tuple_nodes, mapping_nodes) = g
        .cdss
        .with_provenance_graph(|graph| (graph.num_tuple_nodes(), graph.num_mapping_nodes()));
    assert!(tuple_nodes > 0);
    assert!(mapping_nodes > 0);

    // Every imported tuple at the last peer has non-zero provenance and is
    // derivable from current base data.
    let last = g.peers.last().unwrap().id.clone();
    for rel in g.cdss.peer(&last).unwrap().relation_names() {
        for t in g
            .cdss
            .certain_answers(&last, &rel)
            .unwrap()
            .into_iter()
            .take(5)
        {
            assert!(g.cdss.is_derivable(&rel, &t), "{rel}{t} not derivable");
        }
    }
}

#[test]
fn cycles_reach_a_fixpoint_and_grow_instances() {
    let mut without = small_workload(DatasetKind::Integers, 0);
    without.load_base().unwrap();
    let mut with = small_workload(DatasetKind::Integers, 2);
    with.load_base().unwrap();
    assert!(with.cdss.mapping_system().acyclicity.is_weakly_acyclic());
    assert!(
        with.cdss.total_output_tuples() >= without.cdss.total_output_tuples(),
        "cycles should only add derived data"
    );
}

#[test]
fn string_and_integer_datasets_differ_in_size_not_shape() {
    let mut ints = small_workload(DatasetKind::Integers, 0);
    ints.load_base().unwrap();
    let mut strs = small_workload(DatasetKind::Strings, 0);
    strs.load_base().unwrap();

    // Same number of tuples (the schemas and keys are identical)...
    assert_eq!(
        ints.cdss.instance_stats().total_tuples,
        strs.cdss.instance_stats().total_tuples
    );
    // ...but the string dataset is much bigger on disk (Figure 6's point).
    assert!(strs.cdss.instance_stats().total_bytes > 3 * ints.cdss.instance_stats().total_bytes);
}

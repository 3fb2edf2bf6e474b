//! Integration tests for the static mapping/program analyzer: rejection at
//! CDSS registration and over the wire, atomic live mapping installs,
//! property tests tying analyzer acceptance to bounded fixpoints, and
//! golden renderings of the diagnostic format.

use std::time::Duration;

use proptest::prelude::*;

use orchestra_analyze::{Analyzer, Code};
use orchestra_core::{Cdss, CdssBuilder, CdssError, Tgd};
use orchestra_datalog::{parse_program, parse_program_spanned, Evaluator, PlanCache, Seed};
use orchestra_net::scenario::example_scenario;
use orchestra_net::{serve, NetClient, NetError};
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::{Database, RelationSchema};

fn two_peer_builder() -> CdssBuilder {
    CdssBuilder::new()
        .add_peer("P1", vec![RelationSchema::new("R", &["a", "b"])])
        .add_peer("P2", vec![RelationSchema::new("S", &["a", "b"])])
}

// -----------------------------------------------------------------------
// Registration-time rejection.
// -----------------------------------------------------------------------

#[test]
fn builder_rejects_skolem_cycle_with_e001() {
    // m1 invents S's second column from R, m2 invents R's second column
    // from S: every exchange round would chase fresh labeled nulls through
    // the other mapping forever.
    let err = two_peer_builder()
        .add_mapping_str("m1", "R(x, y) -> S(y, z)")
        .add_mapping_str("m2", "S(x, y) -> R(y, z)")
        .build()
        .unwrap_err();
    let CdssError::Analysis(analysis) = &err else {
        panic!("expected an analysis rejection, got {err}");
    };
    assert_eq!(analysis.error_codes(), vec![Code::E001]);
    let msg = err.to_string();
    assert!(msg.contains("error[E001]"), "{msg}");
    assert!(msg.contains("invents values"), "{msg}");
}

#[test]
fn existing_programs_still_pass_and_record_a_clean_report() {
    let cdss = example_scenario();
    assert!(
        !cdss.analysis().has_errors(),
        "{}",
        cdss.analysis().render()
    );
    // Value-inventing but acyclic mappings (m3's shape) also pass.
    let cdss = two_peer_builder()
        .add_mapping_str("m1", "R(x, y) -> S(x, z)")
        .build()
        .unwrap();
    assert!(!cdss.analysis().has_errors());
}

// -----------------------------------------------------------------------
// Live installs via `Cdss::add_mapping`.
// -----------------------------------------------------------------------

fn loaded_two_peer_cdss() -> Cdss {
    let mut cdss = two_peer_builder()
        .add_mapping_str("m1", "R(x, y) -> S(x, y)")
        .build()
        .unwrap();
    cdss.insert_local("P1", "R", int_tuple(&[1, 2])).unwrap();
    cdss.update_exchange_all().unwrap();
    cdss
}

#[test]
fn add_mapping_installs_and_takes_effect_on_the_next_exchange() {
    let mut cdss = loaded_two_peer_cdss();
    cdss.add_mapping(Tgd::parse("m2", "S(x, y) -> R(x, y)").unwrap())
        .unwrap();
    cdss.insert_local("P2", "S", int_tuple(&[7, 8])).unwrap();
    cdss.update_exchange_all().unwrap();
    let r = cdss.local_instance("P1", "R").unwrap();
    assert!(
        r.contains(&int_tuple(&[7, 8])),
        "m2 did not propagate: {r:?}"
    );
}

#[test]
fn add_mapping_rejection_leaves_the_running_system_untouched() {
    let mut cdss = loaded_two_peer_cdss();
    let before = cdss.local_instance("P2", "S").unwrap();

    // Closing the loop with value invention makes the *set* non-terminating.
    let err = cdss
        .add_mapping(Tgd::parse("m2", "S(x, y) -> R(y, z)").unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("error[E001]"), "{err}");

    // The rejected mapping is gone: the report is still clean, exchanges
    // still run, and the instance is unchanged.
    assert!(!cdss.analysis().has_errors());
    cdss.insert_local("P1", "R", int_tuple(&[3, 4])).unwrap();
    cdss.update_exchange_all().unwrap();
    let after = cdss.local_instance("P2", "S").unwrap();
    assert!(after.contains(&int_tuple(&[3, 4])));
    for t in &before {
        assert!(after.contains(t), "tuple lost after rejected install");
    }

    // Duplicate names are refused before any analysis runs.
    let err = cdss
        .add_mapping(Tgd::parse("m1", "S(x, y) -> R(x, y)").unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

// -----------------------------------------------------------------------
// Over the wire.
// -----------------------------------------------------------------------

#[test]
fn wire_add_mapping_rejects_bad_programs_and_installs_good_ones() {
    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let mut client =
        NetClient::connect_with_retry(handle.addr(), 20, Duration::from_millis(50)).unwrap();

    // A self-feeding invention: U(n) -> U(m) invents a fresh U row from
    // every U row. BadRequest, with the rendered diagnostics in the
    // message; the server keeps serving.
    let err = client
        .add_mapping("m_bad", "U(n, c) -> U(m, c)")
        .unwrap_err();
    let NetError::Remote { message, .. } = &err else {
        panic!("expected a remote rejection, got {err}");
    };
    assert!(message.contains("error[E001]"), "{message}");

    // Unparseable text is also a BadRequest, not a dead server.
    assert!(client.add_mapping("m_syntax", "U(n, c) ->").is_err());

    // The rejection counter is on the metrics surface. Other tests in this
    // binary also bump the process-global counter, so assert presence and
    // a nonzero count rather than an exact value.
    let metrics = client.metrics().unwrap();
    let count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("analyze_rejected_total{code=\"E001\"} "))
        .expect("analyze_rejected_total{code=\"E001\"} series missing")
        .trim()
        .parse()
        .unwrap();
    assert!(count >= 1, "rejection was not counted:\n{metrics}");

    // A clean mapping installs and serves on the very next exchange.
    client.add_mapping("m5", "U(n, c) -> B(i, n)").unwrap();
    client
        .publish_edits(
            orchestra_net::EditBatch::for_peer("PuBio").insert("U", vec![int_tuple(&[42, 7])]),
        )
        .unwrap();
    client.update_exchange(None).unwrap();
    let b = client.query_local("PBioSQL", "B").unwrap();
    assert!(
        b.iter()
            .any(|t| t.values().last() == int_tuple(&[42]).values().first()),
        "m5 did not propagate over the wire: {b:?}"
    );

    client.shutdown().unwrap();
    handle.join();
}

// -----------------------------------------------------------------------
// Property tests: analyzer verdicts against actual evaluation.
// -----------------------------------------------------------------------

/// A random copy/join/closure chain over `depth + 1` binary relations,
/// optionally capped by an (acyclic) value-inventing rule. Constructed to
/// always pass the analyzer.
fn chain_program_text(depth: usize, joins: &[bool], closure: bool, skolem: bool) -> String {
    let mut text = String::new();
    for i in 0..depth {
        text.push_str(&format!("R{}(x, y) :- R{i}(x, y).\n", i + 1));
        if joins.get(i).copied().unwrap_or(false) {
            text.push_str(&format!("R{}(x, z) :- R{i}(x, y), R{i}(y, z).\n", i + 1));
        }
    }
    if closure {
        text.push_str(&format!("R{depth}(x, z) :- R{depth}(x, y), R0(y, z).\n"));
    }
    if skolem {
        text.push_str(&format!("Inv(x, #f0(x)) :- R{depth}(x, y).\n"));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analyzer_accepted_programs_reach_fixpoint_in_bounded_rounds(
        depth in 1usize..5,
        joins in prop::collection::vec(any::<bool>(), 4..5),
        closure in any::<bool>(),
        skolem in any::<bool>(),
        facts in prop::collection::vec((0i64..6, 0i64..6), 1..20)
    ) {
        let text = chain_program_text(depth, &joins, closure, skolem);
        let program = parse_program(&text).unwrap();

        let report = Analyzer::new()
            .with_declared_edbs(["R0".to_string()])
            .analyze(&program);
        prop_assert!(!report.has_errors(), "{}", report.render());

        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R0", &["a", "b"])).unwrap();
        for (a, b) in &facts {
            db.insert("R0", int_tuple(&[*a, *b])).unwrap();
        }
        let stats = Evaluator::new()
            .fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None).unwrap().stats;
        // 6 distinct values bound the closure's path length; everything
        // else is non-recursive. A runaway chase would blow far past this.
        prop_assert!(
            stats.iterations <= 32,
            "fixpoint took {} iterations for:\n{text}",
            stats.iterations
        );
    }

    #[test]
    fn seeded_skolem_cycles_are_always_rejected_before_evaluation(
        len in 1usize..5,
        fanout in 0usize..3
    ) {
        // A copy cycle A0 -> A1 -> ... -> A(len-1) whose closing rule
        // invents A0's second column from the column that feeds it, plus
        // `fanout` harmless side derivations.
        let mut text = String::new();
        for i in 1..len {
            text.push_str(&format!("A{i}(x, y) :- A{}(x, y).\n", i - 1));
        }
        text.push_str(&format!("A0(y, #f0(y)) :- A{}(x, y).\n", len - 1));
        for i in 0..fanout {
            text.push_str(&format!("Side{i}(x) :- A0(x, y).\n"));
        }
        let program = parse_program(&text).unwrap();

        let report = Analyzer::new().analyze(&program);
        prop_assert!(report.has_errors());
        prop_assert!(
            report.errors().any(|d| d.code == Code::E001),
            "missing E001:\n{}",
            report.render()
        );
    }
}

// -----------------------------------------------------------------------
// Golden renderings.
// -----------------------------------------------------------------------

fn check_golden(program_path: &str, golden_path: &str) {
    let root = env!("CARGO_MANIFEST_DIR");
    let source = std::fs::read_to_string(format!("{root}/{program_path}")).unwrap();
    let (program, spans) = parse_program_spanned(&source).unwrap();
    let mut report = Analyzer::new()
        .with_roots(
            program
                .rules()
                .iter()
                .map(|r| r.head.relation.clone())
                .filter(|n| n.ends_with("_o") || n.starts_with("P_")),
        )
        .analyze(&program);
    report.attach_spans(&spans);
    let rendered = report.render_for_file(program_path, &source);
    let expected = std::fs::read_to_string(format!("{root}/{golden_path}")).unwrap();
    assert_eq!(
        rendered, expected,
        "rendered diagnostics for {program_path} drifted from {golden_path}"
    );
}

#[test]
fn skolem_cycle_fixture_renders_exactly_as_recorded() {
    check_golden(
        "examples/programs/bad/skolem_cycle.dl",
        "tests/golden/skolem_cycle.expected",
    );
}

#[test]
fn mixed_diagnostics_render_exactly_as_recorded() {
    check_golden("tests/golden/mixed.dl", "tests/golden/mixed.expected");
}

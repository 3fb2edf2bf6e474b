//! Update-exchange strategies (paper §4 and §6):
//!
//! * [`Cdss::recompute_all`] — full, non-incremental recomputation of every
//!   derived relation from the base data (the "complete recomputation"
//!   baseline of Figure 4);
//! * [`Cdss::apply_insertions_incremental`] — incremental insertion
//!   propagation via delta rules (§4.2);
//! * [`Cdss::apply_deletions_incremental`] — the provenance-guided deletion
//!   propagation algorithm of Figure 3: apply the deletion delta, find the
//!   affected tuples, and keep only those still derivable from base data
//!   (the derivability test is answered goal-directedly on the provenance
//!   graph, the in-memory form of the inverse-rules test of §4.1.3);
//! * [`Cdss::apply_deletions_dred`] — the DRed baseline: over-delete
//!   everything transitively reachable from the deleted tuples, then
//!   re-derive survivors from the remaining data;
//! * [`Cdss::update_exchange`] / [`Cdss::update_exchange_all`] — the
//!   user-facing operation: publish a peer's edit log and propagate it
//!   incrementally.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use orchestra_datalog::delta::deletion_candidates;
use orchestra_datalog::DerivationFilter;
use orchestra_provenance::ProvenanceToken;
use orchestra_storage::schema::{internal_name, InternalRole};
use orchestra_storage::Tuple;

use crate::cdss::{
    all_trust_all, logical_of_input, make_evaluator, trust_filter, Cdss, PublishedChanges,
};
use crate::error::CdssError;
use crate::peer::PeerId;
use crate::report::{ExchangeReport, ExchangeStrategy, PublishReport};
use crate::Result;

/// A batch of tuples per logical relation, as accepted by the incremental
/// propagation APIs.
type TupleBatch = BTreeMap<String, Vec<Tuple>>;

/// The `exchange_phase_seconds{phase=...}` histogram for one exchange
/// phase (the per-phase cost breakdown the paper's §6 reasons about).
fn phase_histogram(phase: &'static str) -> orchestra_obs::Histogram {
    orchestra_obs::histogram_with("exchange_phase_seconds", &[("phase", phase)])
}

impl Cdss {
    /// Validate that `relation` is a known logical relation and every tuple
    /// matches its arity.
    fn check_logical_batch(&self, relation: &str, tuples: &[Tuple]) -> Result<()> {
        let Some(schema) = self.mapping_system().logical_schemas.get(relation).cloned() else {
            return Err(CdssError::UnknownMapping(format!(
                "relation `{relation}` is not a logical relation of any peer"
            )));
        };
        for t in tuples {
            if t.arity() != schema.arity() {
                return Err(CdssError::ArityMismatch {
                    relation: relation.to_string(),
                    expected: schema.arity(),
                    actual: t.arity(),
                });
            }
        }
        Ok(())
    }

    /// Fully recompute every derived relation (input tables, output tables,
    /// provenance relations) from the local-contribution and rejection
    /// tables, then rebuild the provenance graph.
    pub fn recompute_all(&mut self) -> Result<ExchangeReport> {
        let _span = orchestra_obs::span("recompute-all", "core");
        let start = Instant::now();
        let mut report = ExchangeReport::new(ExchangeStrategy::FullRecomputation);

        {
            let (system, policies, owner, db, graph, plans, pool) = self.split_for_eval();

            for logical in system.logical_relations() {
                db.relation_mut(&internal_name(&logical, InternalRole::Input))?
                    .clear();
                db.relation_mut(&internal_name(&logical, InternalRole::Output))?
                    .clear();
            }
            for p in system.provenance_relations() {
                db.relation_mut(&p)?.clear();
            }

            // When every policy is unconditional trust-all (the common case)
            // the evaluator runs with no per-tuple filter at all.
            let filter = trust_filter(system, policies, owner);
            let active: Option<&DerivationFilter<'_>> = if all_trust_all(policies) {
                None
            } else {
                Some(&filter)
            };
            let mut eval = make_evaluator(pool);
            report.eval_stats = eval.run_filtered_cached(plans, &system.program, db, active)?;

            for logical in system.logical_relations() {
                for role in [InternalRole::Input, InternalRole::Output] {
                    let name = internal_name(&logical, role);
                    report.add_inserted(&name, db.relation(&name)?.len());
                }
            }
            for p in system.provenance_relations() {
                report.add_inserted(&p, db.relation(&p)?.len());
            }

            // The graph is stale relative to the recomputed store; rebuild
            // it lazily on the next provenance read instead of inline here.
            graph.invalidate();
        }
        report.duration = start.elapsed();
        phase_histogram("recompute").observe(report.duration);
        // Publication is deferred like the incremental paths': recompute is
        // not reachable over the wire, and `Cdss::snapshot` refreshes on
        // demand for in-process readers.
        Ok(report)
    }

    /// Incrementally propagate a batch of fresh local contributions:
    /// `insertions` maps **logical** relation names to new tuples, which are
    /// added to the owning peers' local-contribution tables and pushed
    /// through the delta rules (paper §4.2), with trust conditions applied
    /// during derivation.
    ///
    /// No eager snapshot publication happens here: the next
    /// [`Cdss::snapshot`] call (or exchange/checkpoint commit) picks the
    /// change up, so the hot incremental path pays nothing for idle
    /// snapshot readers — and `update_exchange` composes this with
    /// deletion propagation before publishing one whole-epoch snapshot.
    pub fn apply_insertions_incremental(
        &mut self,
        insertions: &BTreeMap<String, Vec<Tuple>>,
    ) -> Result<ExchangeReport> {
        for (rel, tuples) in insertions {
            self.check_logical_batch(rel, tuples)?;
        }
        let _span = orchestra_obs::span("insertion-round", "core");
        let start = Instant::now();
        let mut report = ExchangeReport::new(ExchangeStrategy::IncrementalInsertion);

        let (system, policies, owner, db, graph, plans, pool) = self.split_for_eval();

        let base: HashMap<String, Vec<Tuple>> = insertions
            .iter()
            .map(|(rel, ts)| {
                (
                    internal_name(rel, InternalRole::LocalContributions),
                    ts.clone(),
                )
            })
            .collect();

        let filter = trust_filter(system, policies, owner);
        let active: Option<&DerivationFilter<'_>> = if all_trust_all(policies) {
            None
        } else {
            Some(&filter)
        };
        let mut eval = make_evaluator(pool);
        let new = eval.propagate_insertions_cached(plans, &system.program, db, &base, active)?;
        report.eval_stats = eval.take_stats();

        for (rel, ts) in &new {
            report.add_inserted(rel, ts.len());
        }
        {
            let _graph_span = orchestra_obs::span("provenance-rebuild", "core");
            let t_graph = Instant::now();
            graph.extend_with_insertions(new);
            phase_histogram("provenance-rebuild").observe(t_graph.elapsed());
        }
        report.duration = start.elapsed();
        phase_histogram("insertion-round").observe(report.duration);
        Ok(report)
    }

    /// Incrementally propagate a batch of deletions: `deletions` maps
    /// **logical** relation names to tuples to delete at the owning peer.
    /// A deleted tuple that is one of the peer's own local contributions is
    /// *retracted* from `R_l`; a deleted tuple the peer never inserted is a
    /// curation *rejection* recorded in `R_r` (paper §2, §3.1). Both kinds
    /// cascade through the mappings using the provenance-guided algorithm of
    /// Figure 3.
    pub fn apply_deletions_incremental(
        &mut self,
        deletions: &BTreeMap<String, Vec<Tuple>>,
    ) -> Result<ExchangeReport> {
        let (retractions, rejections) = self.classify_deletions(deletions)?;
        // Like insertions, deletions defer snapshot publication to the next
        // `snapshot()` call or exchange/checkpoint commit.
        self.propagate_deletions_incremental(&retractions, &rejections)
    }

    /// Like [`Cdss::apply_deletions_incremental`] but using the DRed
    /// algorithm (over-delete, then re-derive) as the comparison baseline of
    /// the paper's Figure 4.
    pub fn apply_deletions_dred(
        &mut self,
        deletions: &BTreeMap<String, Vec<Tuple>>,
    ) -> Result<ExchangeReport> {
        let (retractions, rejections) = self.classify_deletions(deletions)?;
        self.propagate_deletions_dred(&retractions, &rejections)
    }

    /// Split a batch of logical-level deletions into retractions of local
    /// contributions and rejections of imported data.
    fn classify_deletions(&self, deletions: &TupleBatch) -> Result<(TupleBatch, TupleBatch)> {
        let mut retractions: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        let mut rejections: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for (rel, tuples) in deletions {
            self.check_logical_batch(rel, tuples)?;
            let rl = internal_name(rel, InternalRole::LocalContributions);
            for t in tuples {
                if self.database().contains(&rl, t)? {
                    retractions.entry(rel.clone()).or_default().push(t.clone());
                } else {
                    rejections.entry(rel.clone()).or_default().push(t.clone());
                }
            }
        }
        Ok((retractions, rejections))
    }

    /// The provenance-guided deletion propagation algorithm (Figure 3).
    pub(crate) fn propagate_deletions_incremental(
        &mut self,
        retractions: &BTreeMap<String, Vec<Tuple>>,
        rejections: &BTreeMap<String, Vec<Tuple>>,
    ) -> Result<ExchangeReport> {
        let _span = orchestra_obs::span("deletion-round", "core");
        let start = Instant::now();
        let mut report = ExchangeReport::new(ExchangeStrategy::IncrementalDeletion);

        let (system, policies, owner, db, graph, _plans, _pool) = self.split_for_eval();
        // The derivability test below needs the graph in sync with the
        // pre-deletion store.
        graph.ensure(system, db);

        // 1. Apply the base changes.
        for (logical, tuples) in retractions {
            let rl = internal_name(logical, InternalRole::LocalContributions);
            for t in tuples {
                if db.remove(&rl, t)? {
                    report.add_deleted(&rl, 1);
                }
            }
        }
        for (logical, tuples) in rejections {
            let rr = internal_name(logical, InternalRole::Rejections);
            for t in tuples {
                db.insert(&rr, t.clone())?;
            }
        }

        // 2. Goal-directed derivability: a derived tuple survives iff it is
        //    still derivable from surviving base data, through import edges
        //    not blocked by rejections, and through mapping instantiations
        //    still accepted by the target peer's trust policy (Fig. 3 l.16).
        let db_ref: &orchestra_storage::Database = db;
        let gview = graph.view();
        let valid = gview.trusted_set(
            |tok: &ProvenanceToken| {
                db_ref
                    .relation(&tok.relation)
                    .map(|r| r.contains(&tok.tuple))
                    .unwrap_or(false)
            },
            |mapping, rel, tuple| {
                if let Some(logical) = mapping.strip_prefix("import:") {
                    let rr = internal_name(logical, InternalRole::Rejections);
                    return !db_ref.contains(&rr, tuple).unwrap_or(false);
                }
                if mapping.starts_with("local:") {
                    return true;
                }
                if let Some(logical) = logical_of_input(rel) {
                    if let Some(peer) = owner.get(logical) {
                        if let Some(policy) = policies.get(peer) {
                            return policy.accepts(mapping, tuple);
                        }
                    }
                }
                true
            },
        );

        // 3. Remove derived tuples that lost all their derivations. The
        //    iterator carries node ids, so no by-value re-lookup happens.
        let mut to_remove: Vec<(String, Tuple)> = Vec::new();
        for (id, rel, tuple) in gview.tuple_nodes_with_ids() {
            if !(rel.ends_with("_i") || rel.ends_with("_o")) {
                continue;
            }
            if !valid.contains(&id) {
                to_remove.push((rel.to_string(), tuple.clone()));
            }
        }
        for (rel, tuple) in &to_remove {
            if db.remove(rel, tuple)? {
                report.add_deleted(rel, 1);
            }
        }

        // 4. Drop provenance rows whose rule instantiation lost a source
        //    tuple (the deletions to the provenance relations of Fig. 3 l.7).
        //    The read pass borrows rows in place and clones only the doomed
        //    ones (typically a small fraction), which are then removed.
        for compiled in &system.compiled {
            for table in &compiled.provenance {
                let doomed: Vec<Tuple> = db
                    .relation(&table.relation)?
                    .iter()
                    .filter(|row| {
                        compiled
                            .sources_iter(row)
                            .any(|(r, t)| !db.contains(r, &t).unwrap_or(false))
                    })
                    .cloned()
                    .collect();
                for row in doomed {
                    if db.remove(&table.relation, &row)? {
                        report.add_deleted(&table.relation, 1);
                    }
                }
            }
        }

        // 5. The graph now contains stale nodes; it is rebuilt lazily on
        //    the next provenance read.
        graph.invalidate();
        report.duration = start.elapsed();
        phase_histogram("deletion-round").observe(report.duration);
        Ok(report)
    }

    /// The DRed baseline: over-delete everything transitively derivable from
    /// the deleted base tuples, then re-derive whatever still has a
    /// derivation from the remaining data.
    pub(crate) fn propagate_deletions_dred(
        &mut self,
        retractions: &BTreeMap<String, Vec<Tuple>>,
        rejections: &BTreeMap<String, Vec<Tuple>>,
    ) -> Result<ExchangeReport> {
        let start = Instant::now();
        let mut report = ExchangeReport::new(ExchangeStrategy::DRed);

        let (system, policies, owner, db, graph, plans, pool) = self.split_for_eval();

        // 1. Apply the base changes and seed the over-deletion frontier.
        let mut frontier: HashMap<String, HashSet<Tuple>> = HashMap::new();
        for (logical, tuples) in retractions {
            let rl = internal_name(logical, InternalRole::LocalContributions);
            for t in tuples {
                if db.remove(&rl, t)? {
                    report.add_deleted(&rl, 1);
                    frontier.entry(rl.clone()).or_default().insert(t.clone());
                }
            }
        }
        for (logical, tuples) in rejections {
            let rr = internal_name(logical, InternalRole::Rejections);
            let rl = internal_name(logical, InternalRole::LocalContributions);
            let ro = internal_name(logical, InternalRole::Output);
            for t in tuples {
                db.insert(&rr, t.clone())?;
                if !db.contains(&rl, t)? && db.contains(&ro, t)? {
                    frontier.entry(ro.clone()).or_default().insert(t.clone());
                }
            }
        }

        // 2. Over-deletion: pessimistically delete every tuple transitively
        //    derivable from a deleted tuple.
        let mut overdeleted: HashMap<String, HashSet<Tuple>> = HashMap::new();
        while !frontier.is_empty() {
            let candidates = deletion_candidates(&system.program, db, &frontier)?;
            for (rel, tuples) in &frontier {
                for t in tuples {
                    if db.remove(rel, t)? {
                        report.add_deleted(rel, 1);
                    }
                    overdeleted
                        .entry(rel.clone())
                        .or_default()
                        .insert(t.clone());
                }
            }
            let mut next: HashMap<String, HashSet<Tuple>> = HashMap::new();
            for (rel, tuples) in candidates {
                for t in tuples {
                    let seen = overdeleted.get(&rel).is_some_and(|s| s.contains(&t));
                    if !seen && db.contains(&rel, &t).unwrap_or(false) {
                        next.entry(rel.clone()).or_default().insert(t);
                    }
                }
            }
            frontier = next;
        }

        // 3. Re-derivation: for every over-deleted tuple, check whether some
        //    rule instantiation over the *remaining* data still produces it;
        //    re-insert those and propagate the re-insertions to fixpoint.
        //    (This full re-evaluation of the rules is exactly why DRed is
        //    more expensive than the provenance-guided algorithm, §4.2.)
        let filter = trust_filter(system, policies, owner);
        let active: Option<&DerivationFilter<'_>> = if all_trust_all(policies) {
            None
        } else {
            Some(&filter)
        };
        let mut eval = make_evaluator(pool);
        let mut rederive: HashMap<String, Vec<Tuple>> = HashMap::new();
        for rule in system.program.rules() {
            let Some(dead) = overdeleted.get(&rule.head.relation) else {
                continue;
            };
            if dead.is_empty() {
                continue;
            }
            let produced = eval.evaluate_rule(rule, db, active)?;
            for t in produced {
                if dead.contains(&t) {
                    rederive
                        .entry(rule.head.relation.clone())
                        .or_default()
                        .push(t);
                }
            }
        }
        for ts in rederive.values_mut() {
            ts.sort();
            ts.dedup();
        }
        let reinserted =
            eval.propagate_insertions_cached(plans, &system.program, db, &rederive, active)?;
        for (rel, ts) in &reinserted {
            report.add_inserted(rel, ts.len());
        }
        report.eval_stats = eval.take_stats();

        graph.invalidate();
        report.duration = start.elapsed();
        Ok(report)
    }

    /// Perform an update exchange for one peer: publish its pending edit
    /// logs, apply the resulting deletions (retractions and rejections) and
    /// insertions, and propagate everything incrementally.
    pub fn update_exchange(&mut self, peer: &str) -> Result<(PublishReport, Vec<ExchangeReport>)> {
        let _span = orchestra_obs::span("exchange", "core");
        // Registration already rejects programs with analysis errors, so the
        // memoized report is clean here; the check is a belt-and-braces gate
        // against a divergent fixpoint ever starting.
        if let Some(err) = orchestra_analyze::AnalysisError::from_report(self.analysis().clone()) {
            return Err(err.into());
        }
        // Write-ahead: a persistent CDSS appends the pending edit logs as a
        // durable epoch before publishing them (no-op otherwise).
        self.log_pending_epoch(peer)?;
        // Publishing consumes the pending logs; if propagation then fails,
        // put them back so the edits are neither lost from memory nor (on a
        // persistent CDSS) stranded in the WAL while absent everywhere else
        // — a later exchange simply re-publishes them.
        let saved_pending = self.pending_logs_of(peer);
        let result = self.publish(peer).and_then(|(publish_report, changes)| {
            Ok((publish_report, self.apply_published_changes(&changes)?))
        });
        match result {
            Ok(ok) => {
                // The exchange committed: this is the one publication point
                // for the whole deletion+insertion round, so snapshot
                // readers see pre- or post-exchange epochs, never a
                // mid-propagation mix.
                let t_publish = Instant::now();
                self.publish_snapshot();
                phase_histogram("snapshot-publish").observe(t_publish.elapsed());
                Ok(ok)
            }
            Err(err) => {
                if let Some(logs) = saved_pending {
                    self.restore_pending_logs(peer, logs);
                }
                Err(err)
            }
        }
    }

    /// Perform an update exchange for every peer, in peer-id order.
    pub fn update_exchange_all(
        &mut self,
    ) -> Result<Vec<(PeerId, PublishReport, Vec<ExchangeReport>)>> {
        let mut out = Vec::new();
        for peer in self.peer_ids() {
            let (publish_report, reports) = self.update_exchange(&peer)?;
            out.push((peer, publish_report, reports));
        }
        Ok(out)
    }

    /// A copy of one peer's pending edit logs, if any.
    fn pending_logs_of(&self, peer: &str) -> Option<BTreeMap<String, orchestra_storage::EditLog>> {
        self.pending.get(peer).cloned()
    }

    /// Put a peer's pending edit logs back (failed-exchange rollback).
    fn restore_pending_logs(
        &mut self,
        peer: &str,
        logs: BTreeMap<String, orchestra_storage::EditLog>,
    ) {
        self.pending.insert(peer.to_string(), logs);
    }

    fn apply_published_changes(
        &mut self,
        changes: &PublishedChanges,
    ) -> Result<Vec<ExchangeReport>> {
        let mut reports = Vec::new();
        if changes.is_empty() {
            return Ok(reports);
        }
        if !changes.retractions.is_empty() || !changes.rejections.is_empty() {
            reports.push(
                self.propagate_deletions_incremental(&changes.retractions, &changes.rejections)?,
            );
        }
        if !changes.contributions.is_empty() {
            reports.push(self.apply_insertions_incremental(&changes.contributions)?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdssBuilder;
    use crate::trust::{CmpOp, Predicate, TrustPolicy};
    use orchestra_datalog::parser::parse_rule;
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::RelationSchema;

    /// The CDSS of the paper's running example (Figure 1 / Example 2).
    fn example_cdss() -> Cdss {
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
            .unwrap()
    }

    /// Load the edit logs of Example 3 and run an exchange for every peer.
    fn load_example3(cdss: &mut Cdss) {
        cdss.insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
            .unwrap();
        cdss.insert_local("PGUS", "G", int_tuple(&[3, 5, 2]))
            .unwrap();
        cdss.insert_local("PBioSQL", "B", int_tuple(&[3, 5]))
            .unwrap();
        cdss.insert_local("PuBio", "U", int_tuple(&[2, 5])).unwrap();
        cdss.update_exchange_all().unwrap();
    }

    #[test]
    fn example_3_instances_are_computed() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);

        // G = {(1,2,3), (3,5,2)}
        let g = cdss.local_instance("PGUS", "G").unwrap();
        assert_eq!(g, vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])]);

        // B = {(3,5), (3,2), (1,3), (3,3)}
        let b = cdss.certain_answers("PBioSQL", "B").unwrap();
        assert_eq!(
            b,
            vec![
                int_tuple(&[1, 3]),
                int_tuple(&[3, 2]),
                int_tuple(&[3, 3]),
                int_tuple(&[3, 5]),
            ]
        );

        // U's certain part = {(2,5), (3,2)}; the full instance also has
        // three labeled-null tuples from mapping m3.
        let u_certain = cdss.certain_answers("PuBio", "U").unwrap();
        assert_eq!(u_certain, vec![int_tuple(&[2, 5]), int_tuple(&[3, 2])]);
        let u_all = cdss.local_instance("PuBio", "U").unwrap();
        assert_eq!(u_all.len(), 5);
        assert_eq!(u_all.iter().filter(|t| t.has_labeled_null()).count(), 3);
    }

    #[test]
    fn example_3_certain_answer_queries() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);

        // ans(x, y) :- U(x, z), U(y, z) returns {(2,2), (3,3), (5,5)}:
        // the labeled nulls join on equality but never produce new certain
        // pairs beyond the diagonal.
        let q = parse_rule("ans(x, y) :- U(x, z), U(y, z).").unwrap();
        let answers = cdss.query_certain(&q).unwrap();
        assert_eq!(
            answers,
            vec![int_tuple(&[2, 2]), int_tuple(&[3, 3]), int_tuple(&[5, 5])]
        );

        // ans(x, y) :- U(x, y) returns {(2,5), (3,2)}.
        let q = parse_rule("ans(x, y) :- U(x, y).").unwrap();
        let answers = cdss.query_certain(&q).unwrap();
        assert_eq!(answers, vec![int_tuple(&[2, 5]), int_tuple(&[3, 2])]);
        // The non-certain variant additionally returns the labeled-null rows.
        assert_eq!(cdss.query_rule(&q).unwrap().len(), 5);
    }

    #[test]
    fn example_6_provenance_expressions() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);
        let expr = cdss.provenance_of("B", &int_tuple(&[3, 2]));
        // Two alternative derivations: via m1 from G(3,5,2) and via m4 from
        // B(3,5) and U(2,5).
        assert_eq!(expr.num_derivations(), 2);
        let s = expr.to_string();
        assert!(s.contains("m1("), "{s}");
        assert!(s.contains("m4("), "{s}");
        assert!(s.contains("G_l(3, 5, 2)"), "{s}");

        // A base-only tuple has provenance rooted at its own token.
        let expr = cdss.provenance_of("G", &int_tuple(&[1, 2, 3]));
        assert!(expr.to_string().contains("G_l(1, 2, 3)"));
        // An unknown tuple has zero provenance.
        assert!(cdss.provenance_of("B", &int_tuple(&[9, 9])).is_zero());
    }

    #[test]
    fn incremental_insertion_equals_full_recomputation() {
        // Incremental path.
        let mut incr = example_cdss();
        load_example3(&mut incr);
        let mut batch = BTreeMap::new();
        batch.insert("G".to_string(), vec![int_tuple(&[7, 8, 9])]);
        batch.insert("B".to_string(), vec![int_tuple(&[4, 8])]);
        incr.apply_insertions_incremental(&batch).unwrap();

        // Recomputation path over the same base data.
        let mut full = example_cdss();
        load_example3(&mut full);
        let mut batch2 = BTreeMap::new();
        batch2.insert("G".to_string(), vec![int_tuple(&[7, 8, 9])]);
        batch2.insert("B".to_string(), vec![int_tuple(&[4, 8])]);
        full.apply_insertions_incremental(&batch2).unwrap();
        full.recompute_all().unwrap();

        for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
            assert_eq!(
                incr.local_instance(peer, rel).unwrap(),
                full.local_instance(peer, rel).unwrap(),
                "{rel} differs under"
            );
        }
    }

    #[test]
    fn example_4_trust_conditions_filter_updates() {
        // PBioSQL distrusts B(i, n) from m1 when n >= 3 and B(i, n) from m4
        // when n != 2.
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
            .trust_policy(
                "PBioSQL",
                TrustPolicy::trust_all()
                    .with_condition(
                        "m1",
                        Predicate::Not(Box::new(Predicate::cmp(1, CmpOp::Ge, 3i64))),
                    )
                    .with_condition("m4", Predicate::cmp(1, CmpOp::Eq, 2i64)),
            )
            .build()
            .unwrap();
        load_example3(&mut cdss);

        let b = cdss.certain_answers("PBioSQL", "B").unwrap();
        // B(1,3) rejected by the first condition; B(3,3) rejected by the
        // second; B(3,2) (n=2) and the local B(3,5) survive.
        assert_eq!(b, vec![int_tuple(&[3, 2]), int_tuple(&[3, 5])]);

        // As a consequence PuBio does not get U(3, c3) (the paper's
        // observation in Example 4).
        let u = cdss.local_instance("PuBio", "U").unwrap();
        let nulls_with_3: Vec<_> = u
            .iter()
            .filter(|t| t.has_labeled_null() && t[0] == orchestra_storage::Value::int(3))
            .collect();
        assert!(nulls_with_3.is_empty(), "{u:?}");
    }

    #[test]
    fn curation_deletion_of_imported_data_cascades() {
        // Example 3's closing remark: deleting (3,2) from B removes B(3,3)
        // and U(2,c2) as well, and the rejection persists.
        let mut cdss = example_cdss();
        load_example3(&mut cdss);

        cdss.delete_local("PBioSQL", "B", int_tuple(&[3, 2]))
            .unwrap();
        let (publish, reports) = cdss.update_exchange("PBioSQL").unwrap();
        assert_eq!(publish.rejections_added["B"], 1);
        assert_eq!(reports.len(), 1);

        let b = cdss.certain_answers("PBioSQL", "B").unwrap();
        assert_eq!(b, vec![int_tuple(&[1, 3]), int_tuple(&[3, 5])]);
        // U loses the labeled-null tuple derived from B(3,2) via m3 (it
        // had 5 tuples before, see example_3_instances_are_computed).
        let u = cdss.local_instance("PuBio", "U").unwrap();
        assert_eq!(u.len(), 4, "{u:?}");
        // The rejection persists across later exchanges: re-running a
        // full recomputation does not resurrect the tuple.
        cdss.recompute_all().unwrap();
        let b = cdss.certain_answers("PBioSQL", "B").unwrap();
        assert_eq!(b, vec![int_tuple(&[1, 3]), int_tuple(&[3, 5])]);
    }

    #[test]
    fn incremental_deletion_dred_and_recomputation_agree() {
        let deletions = {
            let mut d = BTreeMap::new();
            d.insert("G".to_string(), vec![int_tuple(&[3, 5, 2])]);
            d.insert("B".to_string(), vec![int_tuple(&[3, 5])]);
            d
        };

        let mut incremental = example_cdss();
        load_example3(&mut incremental);
        incremental.apply_deletions_incremental(&deletions).unwrap();

        let mut dred = example_cdss();
        load_example3(&mut dred);
        dred.apply_deletions_dred(&deletions).unwrap();

        let mut recomputed = example_cdss();
        load_example3(&mut recomputed);
        // Apply the base deletions, then recompute everything.
        recomputed.apply_deletions_incremental(&deletions).unwrap();
        recomputed.recompute_all().unwrap();

        for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
            let a = incremental.local_instance(peer, rel).unwrap();
            let b = dred.local_instance(peer, rel).unwrap();
            let c = recomputed.local_instance(peer, rel).unwrap();
            assert_eq!(a, b, "incremental vs DRed on {rel}");
            assert_eq!(a, c, "incremental vs recomputation on {rel}");
        }
    }

    #[test]
    fn retraction_of_local_contribution_propagates() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);
        // Retract PGUS's G(1,2,3): B(1,3) and U(3,2) lose their only
        // derivations and disappear; everything derived from G(3,5,2) stays.
        cdss.delete_local("PGUS", "G", int_tuple(&[1, 2, 3]))
            .unwrap();
        cdss.update_exchange("PGUS").unwrap();

        assert_eq!(
            cdss.local_instance("PGUS", "G").unwrap(),
            vec![int_tuple(&[3, 5, 2])]
        );
        let b = cdss.certain_answers("PBioSQL", "B").unwrap();
        assert!(!b.contains(&int_tuple(&[1, 3])));
        assert!(b.contains(&int_tuple(&[3, 2])));
        let u = cdss.certain_answers("PuBio", "U").unwrap();
        assert!(!u.contains(&int_tuple(&[3, 2])));
        assert!(u.contains(&int_tuple(&[2, 5])));
    }

    #[test]
    fn insert_then_delete_in_same_log_is_a_noop() {
        let mut cdss = example_cdss();
        cdss.insert_local("PGUS", "G", int_tuple(&[1, 1, 1]))
            .unwrap();
        cdss.delete_local("PGUS", "G", int_tuple(&[1, 1, 1]))
            .unwrap();
        assert_eq!(cdss.pending_edit_count("PGUS"), 2);
        let (publish, reports) = cdss.update_exchange("PGUS").unwrap();
        assert!(publish.is_empty());
        assert!(reports.is_empty());
        assert!(cdss.local_instance("PGUS", "G").unwrap().is_empty());
        assert_eq!(cdss.pending_edit_count("PGUS"), 0);
    }

    #[test]
    fn edits_validate_ownership_and_arity() {
        let mut cdss = example_cdss();
        assert!(matches!(
            cdss.insert_local("PGUS", "B", int_tuple(&[1, 2]))
                .unwrap_err(),
            CdssError::NotPeerRelation { .. }
        ));
        assert!(matches!(
            cdss.insert_local("PGUS", "G", int_tuple(&[1])).unwrap_err(),
            CdssError::ArityMismatch { .. }
        ));
        assert!(matches!(
            cdss.insert_local("nobody", "G", int_tuple(&[1, 2, 3]))
                .unwrap_err(),
            CdssError::UnknownPeer(_)
        ));
        let mut bad_batch = BTreeMap::new();
        bad_batch.insert("Z".to_string(), vec![int_tuple(&[1])]);
        assert!(cdss.apply_insertions_incremental(&bad_batch).is_err());
    }

    #[test]
    fn derivability_api_reflects_current_base_data() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);
        assert!(cdss.is_derivable("B", &int_tuple(&[3, 2])));
        assert!(!cdss.is_derivable("B", &int_tuple(&[9, 9])));

        // After deleting both supports, the tuple is no longer derivable (and
        // has been removed from the instance).
        let mut deletions = BTreeMap::new();
        deletions.insert("G".to_string(), vec![int_tuple(&[3, 5, 2])]);
        deletions.insert("B".to_string(), vec![int_tuple(&[3, 5])]);
        cdss.apply_deletions_incremental(&deletions).unwrap();
        assert!(!cdss.is_derivable("B", &int_tuple(&[3, 2])));
        assert!(!cdss
            .certain_answers("PBioSQL", "B")
            .unwrap()
            .contains(&int_tuple(&[3, 2])));
    }

    #[test]
    fn reports_capture_counts_and_strategies() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);
        let report = cdss.recompute_all().unwrap();
        assert_eq!(report.strategy, ExchangeStrategy::FullRecomputation);
        assert!(report.total_inserted() > 0);
        assert!(report.eval_stats.rule_applications > 0);

        let mut batch = BTreeMap::new();
        batch.insert("G".to_string(), vec![int_tuple(&[10, 11, 12])]);
        let report = cdss.apply_insertions_incremental(&batch).unwrap();
        assert_eq!(report.strategy, ExchangeStrategy::IncrementalInsertion);
        assert!(report.total_inserted() >= 3);

        let mut dels = BTreeMap::new();
        dels.insert("G".to_string(), vec![int_tuple(&[10, 11, 12])]);
        let report = cdss.apply_deletions_incremental(&dels).unwrap();
        assert_eq!(report.strategy, ExchangeStrategy::IncrementalDeletion);
        assert!(report.total_deleted() >= 3);
    }

    #[test]
    fn changing_trust_policy_then_recomputing_applies_it() {
        let mut cdss = example_cdss();
        load_example3(&mut cdss);
        assert!(cdss
            .certain_answers("PBioSQL", "B")
            .unwrap()
            .contains(&int_tuple(&[1, 3])));

        cdss.set_trust_policy("PBioSQL", TrustPolicy::trust_all().distrusting("m1"))
            .unwrap();
        cdss.recompute_all().unwrap();
        let b = cdss.certain_answers("PBioSQL", "B").unwrap();
        // Everything that only arrived via m1 is gone; B(3,2) survives via m4.
        assert!(!b.contains(&int_tuple(&[1, 3])));
        assert!(b.contains(&int_tuple(&[3, 2])));

        assert!(cdss
            .set_trust_policy("PBioSQL", TrustPolicy::trust_all().distrusting("m99"))
            .is_err());
        assert!(cdss
            .set_trust_policy("nobody", TrustPolicy::trust_all())
            .is_err());
    }
}

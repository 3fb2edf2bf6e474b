//! The [`Cdss`] type: state, local editing, publishing, provenance and
//! query APIs. The update-exchange strategies themselves (full
//! recomputation, incremental insertion/deletion, DRed) live in
//! [`crate::exchange`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use orchestra_datalog::rule::Rule;
use orchestra_datalog::{Evaluator, PlanCache};
use orchestra_mappings::MappingSystem;
use orchestra_pool::Pool;
use orchestra_provenance::{
    PageDirection, ProvenanceExpr, ProvenanceGraph, ProvenanceNeighbor, ProvenanceToken,
};
use orchestra_storage::schema::{internal_name, InternalRole};
use orchestra_storage::{
    Database, DatabaseStats, EditLog, PoolCompaction, PoolStats, RelationSource, Tuple, Value,
};

use crate::error::CdssError;
use crate::peer::{Peer, PeerId};
use crate::report::PublishReport;
use crate::trust::TrustPolicy;
use crate::view::{SnapshotMeta, SnapshotReader, SnapshotState, SnapshotView};
use crate::Result;

/// Run the static analyzer over a compiled mapping system's update-exchange
/// program. Returns the (error-free) report, or a [`CdssError::Analysis`]
/// after bumping `analyze_rejected_total{code}` for each distinct error code.
pub(crate) fn analyze_system(system: &MappingSystem) -> Result<orchestra_analyze::AnalysisReport> {
    // Acquire the headline series eagerly so the metrics exposition shows
    // `analyze_rejected_total{code="E001"}` at zero from the first
    // registration on (same pattern as `snapshot_publishes_total`).
    let _ = orchestra_obs::counter_with("analyze_rejected_total", &[("code", "E001")]);
    match analyzer_for(system).check(&system.program) {
        Ok(report) => {
            for warning in report.warnings() {
                orchestra_obs::log::warn(
                    "analyze",
                    "program-warning",
                    &[
                        ("code", warning.code.as_str().to_string()),
                        ("message", warning.message.clone()),
                    ],
                );
            }
            Ok(report)
        }
        Err(err) => {
            for code in err.error_codes() {
                orchestra_obs::counter_with("analyze_rejected_total", &[("code", code.as_str())])
                    .inc();
            }
            Err(CdssError::Analysis(err))
        }
    }
}

/// Configure the analyzer with the CDSS's schema knowledge: local-contribution
/// and rejection tables are pure base data (edbs), output and provenance
/// tables are queried by users (roots, exempt from unused-relation hygiene).
fn analyzer_for(system: &MappingSystem) -> orchestra_analyze::Analyzer {
    let idb = system.program.idb_relations();
    let mut edbs: Vec<String> = Vec::new();
    let mut roots: Vec<String> = Vec::new();
    for rel in system.logical_relations() {
        edbs.push(internal_name(&rel, InternalRole::LocalContributions));
        edbs.push(internal_name(&rel, InternalRole::Rejections));
        let input = internal_name(&rel, InternalRole::Input);
        if !idb.contains(&input) {
            // No mapping targets this relation, so its input table is base
            // data too (only ever filled by incoming update translation).
            edbs.push(input);
        }
        roots.push(internal_name(&rel, InternalRole::Output));
    }
    roots.extend(system.provenance_relations());
    orchestra_analyze::Analyzer::new()
        .with_declared_edbs(edbs)
        .with_roots(roots)
}

/// The net, normalised changes produced by publishing a peer's edit logs.
#[derive(Debug, Clone, Default)]
pub(crate) struct PublishedChanges {
    /// New local contributions per *logical* relation.
    pub contributions: BTreeMap<String, Vec<Tuple>>,
    /// Retracted local contributions per logical relation.
    pub retractions: BTreeMap<String, Vec<Tuple>>,
    /// New rejections (curation deletions of imported data) per logical
    /// relation.
    pub rejections: BTreeMap<String, Vec<Tuple>>,
}

impl PublishedChanges {
    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.contributions.values().all(Vec::is_empty)
            && self.retractions.values().all(Vec::is_empty)
            && self.rejections.values().all(Vec::is_empty)
    }
}

/// When a [`Cdss`] compacts its value pool.
///
/// The intern pool is append-only between compactions, so a long-running
/// server whose workload churns *distinct* values (fresh accession numbers
/// every epoch, say) grows intern memory without bound even while every
/// relation stays small. The policy bounds it: [`Cdss::checkpoint`] (and
/// any explicit [`Cdss::maybe_compact`]) runs a compaction pass when the
/// pool is large enough to matter *and* mostly dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Pools smaller than this are never compacted — the scan would cost
    /// more than the reclaimable memory.
    pub min_pool_len: usize,
    /// Compact only when at least this fraction of pool ids is dead
    /// (unreferenced by any live row), in `[0, 1]`.
    pub min_dead_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_pool_len: 4096,
            min_dead_ratio: 0.5,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts automatically (explicit
    /// [`Cdss::compact`] still works).
    pub fn never() -> Self {
        CompactionPolicy {
            min_pool_len: usize::MAX,
            min_dead_ratio: 1.1,
        }
    }
}

/// A collaborative data sharing system: peers, mappings, trust policies, the
/// shared auxiliary store with all internal and provenance relations, and the
/// provenance graph.
#[derive(Debug)]
pub struct Cdss {
    peers: BTreeMap<PeerId, Peer>,
    relation_owner: BTreeMap<String, PeerId>,
    system: Arc<MappingSystem>,
    policies: BTreeMap<PeerId, TrustPolicy>,
    pub(crate) db: Database,
    /// The provenance graph, maintained **lazily**: bulk recomputation and
    /// deletion propagation merely invalidate it, and the rebuild is paid on
    /// the next read (provenance query, derivability test, or deletion
    /// propagation). Insertion propagation extends a clean graph in place.
    /// Behind a mutex so read-side APIs (`&self`, shared across server
    /// threads) can rebuild on demand.
    graph: Mutex<GraphCache>,
    /// The cross-exchange join-plan cache: the mapping program is fixed per
    /// CDSS, so validated stratification and compiled (cost-ordered,
    /// id-resolved) plans persist here across exchanges, invalidated only
    /// when relation cardinality bands shift (see
    /// [`orchestra_datalog::PlanCache`]). Bound to `db`'s value pool.
    plans: PlanCache,
    /// Pending (unpublished) edit logs: peer → logical relation → log.
    pub(crate) pending: BTreeMap<PeerId, BTreeMap<String, EditLog>>,
    /// Durable backing store, when built with
    /// [`crate::CdssBuilder::with_persistence`] or reopened via
    /// [`Cdss::open_or_recover`].
    pub(crate) persistence: Option<crate::durability::PersistHandle>,
    /// Number of epochs durably published (0 when not persistent).
    pub(crate) epoch: u64,
    /// When to compact the value pool (checked at checkpoint time and by
    /// [`Cdss::maybe_compact`]).
    compaction: CompactionPolicy,
    /// Compaction passes run over this CDSS's lifetime (in-memory; resets
    /// on recovery, like the intern counters).
    compactions_run: u64,
    /// Memoized live-value scan: `(content stamp, live count)`. The stamp
    /// is the (monotone) sum of relation content versions plus the
    /// relation count, so repeated [`Cdss::pool_live_values`] reads on an
    /// unchanged store (a monitoring client polling `Stats`) skip the
    /// O(rows) scan. Behind a mutex so the read-side server path can
    /// update it.
    live_scan: Mutex<Option<((u64, usize), usize)>>,
    /// Snapshot-isolated read state: the copy-on-write snapshot store plus
    /// the lock-free cell readers fetch the latest [`SnapshotView`] from.
    /// Re-published at every commit point (see [`Cdss::publish_snapshot`]).
    snapshots: SnapshotState,
    /// Explicit thread pool for fixpoint evaluation, set via
    /// [`crate::CdssBuilder::eval_threads`] or [`Cdss::set_eval_threads`].
    /// `None` defers to the evaluator's default (the process-global pool,
    /// sized by `ORCHESTRA_THREADS` or the hardware).
    eval_pool: Option<orchestra_pool::Pool>,
    /// The static-analysis report of the installed mapping program. Always
    /// error-free (construction and [`Cdss::add_mapping`] reject programs
    /// with errors before installing them); kept for introspection and as a
    /// belt-and-braces gate at [`Cdss::update_exchange`] entry.
    analysis: orchestra_analyze::AnalysisReport,
}

impl Cdss {
    pub(crate) fn from_parts(
        peers: BTreeMap<PeerId, Peer>,
        relation_owner: BTreeMap<String, PeerId>,
        system: MappingSystem,
        policies: BTreeMap<PeerId, TrustPolicy>,
        db: Database,
    ) -> Result<Self> {
        // Static analysis gates registration: a program that could diverge
        // (E001), is unsafe, or cannot be stratified never becomes a `Cdss`.
        let analysis = analyze_system(&system)?;
        let system = Arc::new(system);
        let snapshots = SnapshotState::new(SnapshotMeta {
            system: Arc::clone(&system),
            peers: peers.clone(),
            relation_owner: relation_owner.clone(),
        });
        let cdss = Cdss {
            peers,
            relation_owner,
            system,
            policies,
            db,
            graph: Mutex::new(GraphCache::default()),
            plans: PlanCache::new(),
            pending: BTreeMap::new(),
            persistence: None,
            epoch: 0,
            compaction: CompactionPolicy::default(),
            compactions_run: 0,
            live_scan: Mutex::new(None),
            snapshots,
            eval_pool: None,
            analysis,
        };
        // Initial epoch: the freshly registered (empty) relations, so
        // snapshot readers are valid before the first exchange.
        cdss.publish_snapshot();
        Ok(cdss)
    }

    // ------------------------------------------------------------------
    // Snapshot-isolated reads
    // ------------------------------------------------------------------

    /// Publish the current database state as an immutable snapshot view.
    /// Called at every commit point — after an update exchange commits, a
    /// bulk apply/recomputation finishes, a pool compaction remaps ids, or
    /// a checkpoint lands — and never mid-exchange, so views are always
    /// whole-epoch instances. Copies no relation: unchanged relations are
    /// shared whole with the previous snapshot, changed ones share every
    /// full storage chunk the exchange did not write (the written ones were
    /// copied on first write, counted in `storage_cow_chunk_copies_total`).
    pub(crate) fn publish_snapshot(&self) {
        let _span = orchestra_obs::span("snapshot-publish", "core");
        let (minted, chunk_copies) = self.snapshots.publish(
            &self.db,
            self.epoch,
            self.plans.hit_count(),
            self.compactions_run,
        );
        // Count content-changing publishes only, mirroring
        // `snapshots_published()` (a no-change publish mints no epoch).
        // The handles are acquired unconditionally so the series are
        // registered (at zero) from the first publication attempt on.
        orchestra_obs::counter("snapshot_publishes_total").add(minted);
        orchestra_obs::counter("storage_cow_chunk_copies_total").add(chunk_copies);
    }

    /// The latest snapshot view: an immutable, whole-epoch read view
    /// offering the same query/provenance APIs as the live CDSS. Refreshes
    /// first, so in-process callers always see their own completed edits
    /// (a no-op when nothing changed since the last publication).
    pub fn snapshot(&self) -> Arc<SnapshotView> {
        self.publish_snapshot();
        self.snapshots.latest()
    }

    /// A cloneable, lock-free handle that reader threads use to fetch the
    /// latest snapshot view without holding any reference to the CDSS.
    /// Handles track the eager publication points (exchange commits,
    /// checkpoints, compactions, recovery) — the regime a server lives in.
    pub fn snapshot_reader(&self) -> SnapshotReader {
        self.publish_snapshot();
        self.snapshots.reader()
    }

    /// The epoch of the latest published snapshot.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshots.latest().epoch()
    }

    /// Number of content-changing snapshot publishes over this CDSS's
    /// lifetime.
    pub fn snapshots_published(&self) -> u64 {
        self.snapshots.published()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The identifiers of all peers, sorted.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().cloned().collect()
    }

    /// Look up a peer.
    pub fn peer(&self, id: &str) -> Result<&Peer> {
        self.peers
            .get(id)
            .ok_or_else(|| CdssError::UnknownPeer(id.to_string()))
    }

    /// The peer owning a logical relation, if any.
    pub fn owner_of(&self, relation: &str) -> Option<&str> {
        self.relation_owner.get(relation).map(String::as_str)
    }

    /// Pin fixpoint evaluation to a dedicated pool of `threads` workers
    /// (1 = strictly sequential). The parallel engine is deterministic, so
    /// this only trades latency for cores — results are identical at any
    /// setting. Without this, evaluation uses the process-global pool.
    pub fn set_eval_threads(&mut self, threads: usize) {
        self.eval_pool = Some(orchestra_pool::Pool::new(threads));
    }

    /// The worker count fixpoint evaluation will run with (the dedicated
    /// pool's size, or the process-global pool's when none is pinned).
    pub fn eval_threads(&self) -> usize {
        self.eval_pool
            .as_ref()
            .map_or_else(|| orchestra_pool::global().threads(), Pool::threads)
    }

    /// The compiled mapping system (tgds, internal program, provenance
    /// relation layout).
    pub fn mapping_system(&self) -> &MappingSystem {
        &self.system
    }

    /// The static-analysis report of the installed mapping program. Never
    /// contains errors (programs with errors are rejected before
    /// installation); warnings persist here for introspection.
    pub fn analysis(&self) -> &orchestra_analyze::AnalysisReport {
        &self.analysis
    }

    /// Add a schema mapping to a running CDSS.
    ///
    /// The extended mapping set is recompiled and statically analyzed as a
    /// whole; if the analyzer finds errors (a value-inventing cycle the new
    /// tgd closes, say) the call fails with [`CdssError::Analysis`] and the
    /// CDSS is left exactly as it was. On success the new system is
    /// installed atomically: new internal/provenance relations are created,
    /// join plans and the provenance graph are invalidated (the program
    /// changed), a fresh snapshot is published, and — when persistent — a
    /// checkpoint folds the new mapping into the manifest so recovery sees
    /// it.
    ///
    /// Existing derived state is *not* recomputed here; the new mapping
    /// takes effect at the next [`Cdss::update_exchange`].
    pub fn add_mapping(&mut self, tgd: orchestra_mappings::Tgd) -> Result<()> {
        let _span = orchestra_obs::span("add-mapping", "core");
        if self.system.tgds.iter().any(|t| t.name == tgd.name) {
            return Err(CdssError::Mapping(
                orchestra_mappings::MappingError::InvalidTgd {
                    mapping: tgd.name.clone(),
                    message: "a mapping with this name already exists".to_string(),
                },
            ));
        }
        let schemas: Vec<_> = self.system.logical_schemas.values().cloned().collect();
        let mut tgds = self.system.tgds.clone();
        tgds.push(tgd);
        // `build_unchecked` so a weak-acyclicity violation reaches the
        // analyzer and comes back as a full E001 diagnostic chain.
        let system = MappingSystem::build_unchecked(schemas, tgds, self.system.encoding)?;
        let analysis = analyze_system(&system)?;

        // Past the gate: install. Relation registration is idempotent for
        // everything that already exists.
        system.register_relations(&mut self.db)?;
        let system = Arc::new(system);
        self.system = Arc::clone(&system);
        self.analysis = analysis;
        self.plans.invalidate_plans();
        self.graph
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .invalidate();
        self.snapshots.replace_meta(SnapshotMeta {
            system,
            peers: self.peers.clone(),
            relation_owner: self.relation_owner.clone(),
        });
        self.publish_snapshot();
        if self.persistence.is_some() {
            // The manifest is derived from the live tgd set; checkpointing
            // rewrites it (and folds the WAL) so recovery rebuilds the
            // extended system.
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The shared auxiliary database holding every internal and provenance
    /// relation.
    pub fn database(&self) -> &Database {
        &self.db
    }

    pub(crate) fn split_for_eval(&mut self) -> EvalParts<'_> {
        (
            &self.system,
            &self.policies,
            &self.relation_owner,
            &mut self.db,
            self.graph.get_mut().unwrap_or_else(|e| e.into_inner()),
            &mut self.plans,
            self.eval_pool.as_ref(),
        )
    }

    /// Intern-pool hit/miss counters of the shared store.
    pub fn intern_stats(&self) -> PoolStats {
        self.db.pool_stats()
    }

    /// Compiled join plans reused from the cross-exchange plan cache.
    pub fn plan_cache_hits(&self) -> u64 {
        self.plans.hit_count()
    }

    /// Number of pool ids still referenced by live rows (the store's live
    /// vocabulary). The scan over every relation's interned rows is
    /// memoized against a cheap content stamp, so repeated reads on an
    /// unchanged store (a monitoring client polling `Stats`) cost
    /// O(relations), not O(rows).
    pub fn pool_live_values(&self) -> usize {
        let stamp = (
            self.db
                .relations()
                .map(orchestra_storage::Relation::version)
                .sum::<u64>(),
            self.db.relation_count(),
        );
        let mut memo = self.live_scan.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((cached_stamp, count)) = *memo {
            if cached_stamp == stamp {
                return count;
            }
        }
        let count = self.db.live_value_count();
        *memo = Some((stamp, count));
        count
    }

    /// The active value-pool compaction policy.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Replace the value-pool compaction policy.
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.compaction = policy;
    }

    /// Compaction passes run so far.
    pub fn compactions_run(&self) -> u64 {
        self.compactions_run
    }

    // ------------------------------------------------------------------
    // Value-pool compaction
    // ------------------------------------------------------------------

    /// Compact the value pool now, unconditionally: rebuild it from the
    /// values live rows still reference, re-stamp every relation's interned
    /// rows with the new dense ids, and drop the compiled join plans (their
    /// constant-interned ids would otherwise alias re-assigned ids — a
    /// silent wrong answer, not a crash). Every observable API — instances,
    /// certain answers, provenance, derivability, edit-log normalization —
    /// is unaffected: tuple ids, content hashes and secondary indexes key
    /// on content, which compaction does not change.
    ///
    /// After the pass, pool memory equals the live vocabulary (plus the
    /// rule constants the next evaluation re-interns). On a persistent
    /// CDSS, call [`Cdss::checkpoint`] — which runs this automatically
    /// under the [`CompactionPolicy`] — rather than compacting manually.
    pub fn compact(&mut self) -> PoolCompaction {
        let _span = orchestra_obs::span("compact", "core");
        let report = self.db.compact_pool();
        self.plans.invalidate_plans();
        self.compactions_run += 1;
        // Compaction restamps every rewritten relation (copying the row
        // chunks a view shares and bumping its content version), so this
        // republish re-clones them: snapshot readers never observe
        // post-compaction ids through pre-compaction relations or vice
        // versa. Old views keep their pre-compaction chunks and stay
        // self-consistent.
        self.publish_snapshot();
        report
    }

    /// Compact the value pool if the [`CompactionPolicy`] calls for it
    /// (pool big enough, dead ratio high enough). Returns what the pass
    /// did, or `None` when the policy declined. Small pools skip the live
    /// scan entirely, and a firing policy shares one scan between the
    /// ratio check and the pass itself.
    pub fn maybe_compact(&mut self) -> Option<PoolCompaction> {
        let report = self
            .db
            .compact_pool_if(self.compaction.min_pool_len, self.compaction.min_dead_ratio)?;
        self.plans.invalidate_plans();
        self.compactions_run += 1;
        self.publish_snapshot();
        Some(report)
    }

    /// Run a closure against the current provenance graph (tuple and mapping
    /// instantiation nodes), rebuilding it first if a bulk operation
    /// invalidated it.
    ///
    /// The graph lives behind a non-reentrant mutex: **do not call other
    /// provenance APIs of the same `Cdss` (`provenance_of`, `is_derivable`,
    /// or a nested `with_provenance_graph`) from inside the closure** — that
    /// would re-lock the mutex and deadlock. Extract what you need from the
    /// graph and return it instead.
    pub fn with_provenance_graph<R>(&self, f: impl FnOnce(&ProvenanceGraph) -> R) -> R {
        let mut cache = self.graph.lock().unwrap_or_else(|e| e.into_inner());
        f(cache.ensure(&self.system, &self.db))
    }

    /// The trust policy of a peer (trust-everything if unset).
    pub fn trust_policy(&self, peer: &str) -> TrustPolicy {
        self.policies.get(peer).cloned().unwrap_or_default()
    }

    /// Replace a peer's trust policy. Takes effect at the next update
    /// exchange or recomputation.
    pub fn set_trust_policy(&mut self, peer: impl Into<PeerId>, policy: TrustPolicy) -> Result<()> {
        let peer = peer.into();
        if !self.peers.contains_key(&peer) {
            return Err(CdssError::UnknownPeer(peer));
        }
        for m in policy
            .distrusted_mappings
            .iter()
            .chain(policy.conditions.keys())
        {
            if self.system.mapping(m).is_none() {
                return Err(CdssError::UnknownMapping(m.clone()));
            }
        }
        self.policies.insert(peer, policy);
        Ok(())
    }

    /// Size statistics of the whole auxiliary store (Figure 6).
    pub fn instance_stats(&self) -> DatabaseStats {
        self.db.stats()
    }

    /// Validate that a relation belongs to a peer and a tuple matches its
    /// arity.
    fn check_edit(&self, peer: &str, relation: &str, tuple: &Tuple) -> Result<()> {
        let p = self.peer(peer)?;
        let Some(schema) = p.relation(relation) else {
            return Err(CdssError::NotPeerRelation {
                peer: peer.to_string(),
                relation: relation.to_string(),
            });
        };
        if schema.arity() != tuple.arity() {
            return Err(CdssError::ArityMismatch {
                relation: relation.to_string(),
                expected: schema.arity(),
                actual: tuple.arity(),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Local editing and publishing (paper §2, §3.1)
    // ------------------------------------------------------------------

    /// Record a local insertion in the peer's edit log. Nothing propagates
    /// until the peer performs an update exchange.
    pub fn insert_local(&mut self, peer: &str, relation: &str, tuple: Tuple) -> Result<()> {
        self.check_edit(peer, relation, &tuple)?;
        self.pending
            .entry(peer.to_string())
            .or_default()
            .entry(relation.to_string())
            .or_insert_with(|| EditLog::new(relation))
            .push_insert(tuple);
        Ok(())
    }

    /// Record a local deletion in the peer's edit log. Deleting data the peer
    /// never inserted is a *curation rejection* of imported data (paper §2).
    pub fn delete_local(&mut self, peer: &str, relation: &str, tuple: Tuple) -> Result<()> {
        self.check_edit(peer, relation, &tuple)?;
        self.pending
            .entry(peer.to_string())
            .or_default()
            .entry(relation.to_string())
            .or_insert_with(|| EditLog::new(relation))
            .push_delete(tuple);
        Ok(())
    }

    /// Number of unpublished edit-log entries for a peer.
    pub fn pending_edit_count(&self, peer: &str) -> usize {
        self.pending
            .get(peer)
            .map(|logs| logs.values().map(EditLog::len).sum())
            .unwrap_or(0)
    }

    /// Normalise and clear the peer's pending edit logs, returning the net
    /// effect on its local-contributions and rejections tables. The changes
    /// are *not* yet applied to the store; `update_exchange` does that and
    /// propagates them.
    pub(crate) fn publish(&mut self, peer: &str) -> Result<(PublishReport, PublishedChanges)> {
        self.peer(peer)?;
        let mut report = PublishReport::default();
        let mut changes = PublishedChanges::default();

        let Some(logs) = self.pending.remove(peer) else {
            return Ok((report, changes));
        };

        for (relation, log) in logs {
            let rl_name = internal_name(&relation, InternalRole::LocalContributions);
            let prior = self.db.relation(&rl_name)?;
            let normalized = log.normalize_with(|t| prior.contains(t));

            if !normalized.contributions.is_empty() {
                report
                    .contributions_added
                    .insert(relation.clone(), normalized.contributions.len());
                changes
                    .contributions
                    .insert(relation.clone(), normalized.contributions);
            }
            if !normalized.retracted_contributions.is_empty() {
                report
                    .contributions_retracted
                    .insert(relation.clone(), normalized.retracted_contributions.len());
                changes
                    .retractions
                    .insert(relation.clone(), normalized.retracted_contributions);
            }
            if !normalized.rejections.is_empty() {
                report
                    .rejections_added
                    .insert(relation.clone(), normalized.rejections.len());
                changes
                    .rejections
                    .insert(relation.clone(), normalized.rejections);
            }
        }
        Ok((report, changes))
    }

    // ------------------------------------------------------------------
    // Queries and provenance (paper §2.1, §3.2)
    // ------------------------------------------------------------------

    /// Validate that `peer` owns `relation` and return the relation's
    /// curated output table `R_o`. The shared preamble of every read API.
    fn output_relation(&self, peer: &str, relation: &str) -> Result<&orchestra_storage::Relation> {
        let p = self.peer(peer)?;
        if !p.owns(relation) {
            return Err(CdssError::NotPeerRelation {
                peer: peer.to_string(),
                relation: relation.to_string(),
            });
        }
        let out = internal_name(relation, InternalRole::Output);
        Ok(self.db.relation(&out)?)
    }

    /// The full local instance of one of a peer's relations (the contents of
    /// its curated output table `R_o`), including tuples with labeled nulls.
    pub fn local_instance(&self, peer: &str, relation: &str) -> Result<Vec<Tuple>> {
        Ok(self.output_relation(peer, relation)?.sorted_tuples())
    }

    /// The certain answers over one of a peer's relations: the local instance
    /// with tuples containing labeled nulls discarded (paper §2.1).
    pub fn certain_answers(&self, peer: &str, relation: &str) -> Result<Vec<Tuple>> {
        Ok(self.output_relation(peer, relation)?.certain_tuples())
    }

    /// Borrowed iterator over the local instance of one of a peer's
    /// relations, in arbitrary order. Unlike [`Cdss::local_instance`] this
    /// copies nothing, so read-heavy callers (the network query handlers,
    /// statistics, containment checks) can scan a relation without cloning
    /// it; collect and sort if a deterministic listing is needed.
    pub fn local_instance_iter(
        &self,
        peer: &str,
        relation: &str,
    ) -> Result<impl Iterator<Item = &Tuple>> {
        Ok(self.output_relation(peer, relation)?.iter())
    }

    /// Borrowed iterator over the certain answers of one of a peer's
    /// relations (tuples without labeled nulls), in arbitrary order. The
    /// zero-copy counterpart of [`Cdss::certain_answers`].
    pub fn certain_answers_iter(
        &self,
        peer: &str,
        relation: &str,
    ) -> Result<impl Iterator<Item = &Tuple>> {
        Ok(self
            .local_instance_iter(peer, relation)?
            .filter(|t| !t.has_labeled_null()))
    }

    /// Number of tuples in the local instance of one of a peer's relations,
    /// without materialising it.
    pub fn local_instance_len(&self, peer: &str, relation: &str) -> Result<usize> {
        Ok(self.output_relation(peer, relation)?.len())
    }

    /// Point query over the local instance: tuples of `relation` whose
    /// columns equal the `Some` entries of `binding`, sorted. The instance
    /// is maintained incrementally by update exchange, so this is a
    /// filtered scan of the curated output table — only matching tuples
    /// are cloned, never the whole instance.
    pub fn query_local_bound(
        &self,
        peer: &str,
        relation: &str,
        binding: &[Option<Value>],
    ) -> Result<Vec<Tuple>> {
        bound_filtered(
            relation,
            self.output_relation(peer, relation)?,
            binding,
            false,
        )
    }

    /// Point query over the certain answers: [`Cdss::query_local_bound`]
    /// with tuples containing labeled nulls discarded (paper §2.1).
    pub fn query_certain_bound(
        &self,
        peer: &str,
        relation: &str,
        binding: &[Option<Value>],
    ) -> Result<Vec<Tuple>> {
        bound_filtered(
            relation,
            self.output_relation(peer, relation)?,
            binding,
            true,
        )
    }

    /// Evaluate an ad-hoc conjunctive query whose body refers to *logical*
    /// relation names (they are translated to the peers' output tables).
    /// Returns all answers, including those containing labeled nulls.
    pub fn query_rule(&mut self, rule: &Rule) -> Result<Vec<Tuple>> {
        let translated = Rule::new(
            rule.head.clone(),
            rule.body
                .iter()
                .map(|lit| {
                    let mut lit = lit.clone();
                    if self.relation_owner.contains_key(lit.relation()) {
                        lit.atom.relation = internal_name(&lit.atom.relation, InternalRole::Output);
                    }
                    lit
                })
                .collect(),
        );
        let mut eval = make_evaluator(self.eval_pool.as_ref());
        let mut out = eval.evaluate_rule(&translated, &mut self.db, None)?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Evaluate an ad-hoc query and return only certain answers (tuples
    /// without labeled nulls), as in Example 3.
    pub fn query_certain(&mut self, rule: &Rule) -> Result<Vec<Tuple>> {
        Ok(self
            .query_rule(rule)?
            .into_iter()
            .filter(|t| !t.has_labeled_null())
            .collect())
    }

    /// The provenance expression of a tuple of a logical relation
    /// (Example 6). The tuple is looked up in the relation's input table
    /// (data arriving via mappings) and falls back to the output table.
    pub fn provenance_of(&self, relation: &str, tuple: &Tuple) -> ProvenanceExpr {
        self.with_provenance_graph(|graph| {
            let input = internal_name(relation, InternalRole::Input);
            let expr = graph.expression_for(&input, tuple);
            if !expr.is_zero() {
                return expr;
            }
            let output = internal_name(relation, InternalRole::Output);
            graph.expression_for(&output, tuple)
        })
    }

    /// The one-hop derivation neighbors of a tuple of a logical relation,
    /// sorted and deduplicated — the enumeration behind the paginated
    /// provenance cursor. The tuple is looked up in the relation's input
    /// table first, falling back to the output table, mirroring
    /// [`Cdss::provenance_of`].
    pub fn provenance_neighbors(
        &self,
        relation: &str,
        tuple: &Tuple,
        direction: PageDirection,
    ) -> Vec<ProvenanceNeighbor> {
        self.with_provenance_graph(|graph| {
            let input = internal_name(relation, InternalRole::Input);
            let out = graph.neighbors(&input, tuple, direction);
            if !out.is_empty() {
                return out;
            }
            let output = internal_name(relation, InternalRole::Output);
            graph.neighbors(&output, tuple, direction)
        })
    }

    /// Is a tuple of a logical relation's output table still derivable from
    /// the base data currently present in the local-contribution tables?
    pub fn is_derivable(&self, relation: &str, tuple: &Tuple) -> bool {
        let output = internal_name(relation, InternalRole::Output);
        let db = &self.db;
        self.with_provenance_graph(|graph| {
            graph.derivable(&output, tuple, |tok: &ProvenanceToken| {
                db.relation(&tok.relation)
                    .map(|r| r.contains(&tok.tuple))
                    .unwrap_or(false)
            })
        })
    }

    /// Total number of tuples in all peers' curated output tables.
    pub fn total_output_tuples(&self) -> usize {
        self.relation_owner
            .keys()
            .filter_map(|r| {
                self.db
                    .relation(&internal_name(r, InternalRole::Output))
                    .ok()
                    .map(|rel| rel.len())
            })
            .sum()
    }
}

// The service layer (`orchestra-net`) shares one `Cdss` across server
// threads behind an `RwLock`; keep that property checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cdss>()
};

// ----------------------------------------------------------------------
// Trust filtering and provenance graph maintenance helpers. These are free
// functions over individual `Cdss` fields so that callers can split borrows
// (mutable database access alongside immutable mapping/policy access).
// ----------------------------------------------------------------------

/// The split borrows handed to the evaluation strategies: immutable mapping
/// system, trust policies and relation ownership alongside mutable database,
/// provenance-graph cache and plan cache, plus the pinned evaluation pool.
pub(crate) type EvalParts<'a> = (
    &'a MappingSystem,
    &'a BTreeMap<PeerId, TrustPolicy>,
    &'a BTreeMap<String, PeerId>,
    &'a mut Database,
    &'a mut GraphCache,
    &'a mut PlanCache,
    Option<&'a orchestra_pool::Pool>,
);

/// An [`Evaluator`] on the explicitly configured pool when one is set and
/// the evaluator default otherwise.
pub(crate) fn make_evaluator(pool: Option<&orchestra_pool::Pool>) -> Evaluator {
    match pool {
        Some(p) => Evaluator::with_pool(p.clone()),
        None => Evaluator::new(),
    }
}

/// The provenance graph plus deferred-maintenance state.
///
/// Bulk operations (full recomputation, deletion propagation) used to pay an
/// O(instance) graph rebuild inline on every call, and every insertion
/// propagation paid its graph extension inline. Both are now deferred out
/// of the exchange path: bulk operations [`GraphCache::invalidate`] (one
/// rebuild on the next read), and insertion batches queue up and are folded
/// in incrementally when the graph is next read. Update-exchange heavy
/// workloads that rarely ask for provenance barely pay for the graph at
/// all; provenance-heavy workloads pay exactly what they did before, once.
#[derive(Debug, Default)]
pub(crate) struct GraphCache {
    graph: ProvenanceGraph,
    dirty: bool,
    /// Insertion batches propagated since the graph was last read, in
    /// order. Drained by [`GraphCache::ensure`]; cleared by a rebuild.
    pending: Vec<std::collections::HashMap<String, Vec<Tuple>>>,
    /// Total tuples across `pending`, for the queue bound.
    pending_tuples: usize,
}

impl GraphCache {
    /// Above this many queued tuples the cache stops accumulating batches
    /// and falls back to full invalidation (see
    /// [`GraphCache::extend_with_insertions`]).
    const MAX_PENDING_TUPLES: usize = 250_000;
    /// Bring the graph up to date (full rebuild if stale, otherwise fold in
    /// any queued insertion batches), then hand it out.
    pub fn ensure(&mut self, system: &MappingSystem, db: &Database) -> &ProvenanceGraph {
        if self.dirty {
            rebuild_graph(system, db, &mut self.graph);
            self.dirty = false;
            self.pending.clear();
            self.pending_tuples = 0;
        } else {
            for batch in self.pending.drain(..) {
                extend_graph_with_insertions(system, db, &mut self.graph, &batch);
            }
            self.pending_tuples = 0;
        }
        &self.graph
    }

    /// Mark the graph stale; the next [`GraphCache::ensure`] rebuilds it.
    pub fn invalidate(&mut self) {
        self.dirty = true;
        self.pending.clear();
        self.pending_tuples = 0;
    }

    /// The graph as last ensured. Callers must have called
    /// [`GraphCache::ensure`] on this store state first.
    pub fn view(&self) -> &ProvenanceGraph {
        debug_assert!(
            !self.dirty && self.pending.is_empty(),
            "view() on a stale graph cache"
        );
        &self.graph
    }

    /// Queue freshly propagated insertions for incremental folding on the
    /// next read. A stale graph stays stale — it will be rebuilt from the
    /// store (which already contains the insertions) on next use.
    ///
    /// The queue is bounded: once more than [`GraphCache::MAX_PENDING_TUPLES`]
    /// tuples are queued, the cache collapses to a full invalidation. The
    /// store already holds every queued tuple, so dropping the queue loses
    /// nothing — it just trades the incremental fold for one rebuild — and
    /// an insert-only workload that never reads provenance cannot grow the
    /// queue without limit.
    pub fn extend_with_insertions(
        &mut self,
        new_tuples: std::collections::HashMap<String, Vec<Tuple>>,
    ) {
        if self.dirty {
            return;
        }
        self.pending_tuples += new_tuples.values().map(Vec::len).sum::<usize>();
        self.pending.push(new_tuples);
        if self.pending_tuples > Self::MAX_PENDING_TUPLES {
            self.invalidate();
        }
    }
}

/// Map an internal input-table name (`B_i`) back to its logical relation
/// (`B`), if it has the input suffix.
pub(crate) fn logical_of_input(relation: &str) -> Option<&str> {
    relation.strip_suffix("_i")
}

/// True when every peer's policy trusts everything unconditionally — the
/// common case, in which the evaluator can skip per-tuple filtering
/// entirely.
pub(crate) fn all_trust_all(policies: &BTreeMap<PeerId, TrustPolicy>) -> bool {
    policies.values().all(TrustPolicy::is_trust_all)
}

/// Build the derivation filter enforcing trust conditions during evaluation
/// (paper §3.3 and §4.2): a provenance row is accepted only if every target
/// tuple it derives is accepted by the owning peer's policy for that mapping.
pub(crate) fn trust_filter<'a>(
    system: &'a MappingSystem,
    policies: &'a BTreeMap<PeerId, TrustPolicy>,
    relation_owner: &'a BTreeMap<String, PeerId>,
) -> impl Fn(&str, &Tuple) -> bool + Send + Sync + 'a {
    move |relation: &str, row: &Tuple| {
        let Some((mapping, table_idx)) = system.mapping_for_provenance_relation(relation) else {
            // Not a provenance relation: no trust condition applies here.
            return true;
        };
        for (target_rel, target_tuple) in mapping.targets_iter(table_idx, row) {
            let Some(logical) = logical_of_input(target_rel) else {
                continue;
            };
            let Some(owner) = relation_owner.get(logical) else {
                continue;
            };
            if let Some(policy) = policies.get(owner) {
                if !policy.accepts(&mapping.name, &target_tuple) {
                    return false;
                }
            }
        }
        true
    }
}

/// The name of the provenance-graph mapping node family recording the
/// internal rule `R_o :- R_i, ¬R_r` for logical relation `R`.
pub(crate) fn import_edge(relation: &str) -> String {
    format!("import:{relation}")
}

/// The name of the provenance-graph mapping node family recording the
/// internal rule `R_o :- R_l` for logical relation `R`.
pub(crate) fn local_edge(relation: &str) -> String {
    format!("local:{relation}")
}

/// Resolve a reconstructed `(relation, tuple)` pair to a graph node through
/// the stored-tuple fast index when the tuple is present in its relation
/// (the common case: provenance rows only mention stored tuples), falling
/// back to the value-keyed path otherwise.
fn ensure_node(
    graph: &mut ProvenanceGraph,
    rel: Option<&orchestra_storage::Relation>,
    name: &str,
    tuple: &Tuple,
) -> orchestra_provenance::TupleNodeId {
    match rel.and_then(|r| r.id_of(tuple)) {
        Some(tid) => graph.ensure_stored_tuple(name, tid, tuple),
        None => graph.ensure_tuple(name, tuple),
    }
}

/// Rebuild the provenance graph from scratch from the current contents of
/// the local-contribution tables, the provenance relations, and the internal
/// input/output tables. Nodes are registered through the graph's
/// `(RelId, TupleId)` stored-tuple index — tuple ids come for free from the
/// relations' id iterators, so maintenance probes integers, not payloads.
/// Selection shared by the live and snapshot bound-query paths: tuples of
/// `rel` whose columns equal the `Some` entries of `binding` (with
/// labeled-null tuples dropped when `certain`), sorted. Goes through
/// [`orchestra_storage::Relation::select_eq_ref`]: an index probe when an
/// index covers the bound columns (snapshots carry their relations'
/// indexes), a filtered scan otherwise. Only matching tuples are cloned — a
/// point query never materialises the instance.
pub(crate) fn bound_filtered(
    relation: &str,
    rel: &orchestra_storage::Relation,
    binding: &[Option<Value>],
    certain: bool,
) -> Result<Vec<Tuple>> {
    if binding.len() != rel.schema().arity() {
        return Err(CdssError::ArityMismatch {
            relation: relation.to_string(),
            expected: rel.schema().arity(),
            actual: binding.len(),
        });
    }
    let (columns, key): (Vec<usize>, Vec<Value>) = binding
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.clone().map(|v| (i, v)))
        .unzip();
    let mut out: Vec<Tuple> = rel
        .select_eq_ref(&columns, &key)
        .filter(|t| !(certain && t.has_labeled_null()))
        .cloned()
        .collect();
    out.sort();
    Ok(out)
}

pub(crate) fn rebuild_graph(
    system: &MappingSystem,
    db: &impl RelationSource,
    graph: &mut ProvenanceGraph,
) {
    *graph = ProvenanceGraph::new();

    // Base data: local contributions carry their own provenance tokens.
    for logical in system.logical_relations() {
        let rl = internal_name(&logical, InternalRole::LocalContributions);
        if let Some(rel) = db.lookup(&rl) {
            for (tid, t) in rel.iter_ids() {
                graph.mark_base_stored(&rl, tid, t);
            }
        }
    }

    // Mapping instantiations from the stored provenance rows. Source and
    // target relations are fixed per mapping, so they are resolved once per
    // table; the node scratch vectors are reused across rows.
    for compiled in &system.compiled {
        let src_rels: Vec<_> = compiled
            .sources
            .iter()
            .map(|t| db.lookup(&t.relation))
            .collect();
        for (table_idx, table) in compiled.provenance.iter().enumerate() {
            let Some(rel) = db.lookup(&table.relation) else {
                continue;
            };
            let tgt_rels: Vec<_> = table
                .target_indexes
                .iter()
                .map(|&ti| db.lookup(&compiled.targets[ti].relation))
                .collect();
            for row in rel.iter() {
                let src_nodes: Vec<_> = compiled
                    .sources_iter(row)
                    .zip(&src_rels)
                    .map(|((name, t), rel)| ensure_node(graph, *rel, name, &t))
                    .collect();
                let tgt_nodes: Vec<_> = compiled
                    .targets_iter(table_idx, row)
                    .zip(&tgt_rels)
                    .map(|((name, t), rel)| ensure_node(graph, *rel, name, &t))
                    .collect();
                graph.add_derivation_nodes(compiled.name.clone(), src_nodes, tgt_nodes);
            }
        }
    }

    // Internal edges: R_o tuples derive from R_l (local) and R_i (import).
    for logical in system.logical_relations() {
        let ro = internal_name(&logical, InternalRole::Output);
        let rl = internal_name(&logical, InternalRole::LocalContributions);
        let ri = internal_name(&logical, InternalRole::Input);
        let Some(out_rel) = db.lookup(&ro) else {
            continue;
        };
        let local = local_edge(&logical);
        let import = import_edge(&logical);
        let rl_rel = db.lookup(&rl);
        let ri_rel = db.lookup(&ri);
        for (tid, t) in out_rel.iter_ids() {
            if let Some(src_tid) = rl_rel.and_then(|r| r.id_of(t)) {
                let src = graph.ensure_stored_tuple(&rl, src_tid, t);
                let tgt = graph.ensure_stored_tuple(&ro, tid, t);
                graph.add_derivation_nodes(local.clone(), vec![src], vec![tgt]);
            }
            if let Some(src_tid) = ri_rel.and_then(|r| r.id_of(t)) {
                let src = graph.ensure_stored_tuple(&ri, src_tid, t);
                let tgt = graph.ensure_stored_tuple(&ro, tid, t);
                graph.add_derivation_nodes(import.clone(), vec![src], vec![tgt]);
            }
        }
    }
}

/// Incrementally extend the provenance graph after insertion propagation:
/// `new_tuples` maps (internal) relation names to the tuples newly inserted
/// by the propagation.
pub(crate) fn extend_graph_with_insertions(
    system: &MappingSystem,
    db: &Database,
    graph: &mut ProvenanceGraph,
    new_tuples: &std::collections::HashMap<String, Vec<Tuple>>,
) {
    for (relation, tuples) in new_tuples {
        let own_rel = db.relation(relation).ok();
        // New base data. If the corresponding output tuple already exists
        // (it was previously derivable only via imports), the local edge
        // must be added now.
        if let Some(logical) = relation.strip_suffix("_l") {
            let ro = internal_name(logical, InternalRole::Output);
            let ro_rel = db.relation(&ro).ok();
            for t in tuples {
                match own_rel.and_then(|r| r.id_of(t)) {
                    Some(tid) => graph.mark_base_stored(relation, tid, t),
                    None => graph.mark_base(relation, t),
                };
                if let Some(out_tid) = ro_rel.and_then(|r| r.id_of(t)) {
                    let src = ensure_node(graph, own_rel, relation, t);
                    let tgt = graph.ensure_stored_tuple(&ro, out_tid, t);
                    graph.add_derivation_nodes(local_edge(logical), vec![src], vec![tgt]);
                }
            }
            continue;
        }
        // New provenance rows become mapping nodes.
        if let Some((compiled, table_idx)) = system.mapping_for_provenance_relation(relation) {
            let src_rels: Vec<_> = compiled
                .sources
                .iter()
                .map(|t| db.relation(&t.relation).ok())
                .collect();
            let tgt_rels: Vec<_> = compiled.provenance[table_idx]
                .target_indexes
                .iter()
                .map(|&ti| db.relation(&compiled.targets[ti].relation).ok())
                .collect();
            for row in tuples {
                let src_nodes: Vec<_> = compiled
                    .sources_iter(row)
                    .zip(&src_rels)
                    .map(|((name, t), rel)| ensure_node(graph, *rel, name, &t))
                    .collect();
                let tgt_nodes: Vec<_> = compiled
                    .targets_iter(table_idx, row)
                    .zip(&tgt_rels)
                    .map(|((name, t), rel)| ensure_node(graph, *rel, name, &t))
                    .collect();
                graph.add_derivation_nodes(compiled.name.clone(), src_nodes, tgt_nodes);
            }
            continue;
        }
        // New output tuples gain their internal edges.
        if let Some(logical) = relation.strip_suffix("_o") {
            let rl = internal_name(logical, InternalRole::LocalContributions);
            let ri = internal_name(logical, InternalRole::Input);
            let rl_rel = db.relation(&rl).ok();
            let ri_rel = db.relation(&ri).ok();
            for t in tuples {
                if let Some(src_tid) = rl_rel.and_then(|r| r.id_of(t)) {
                    let src = graph.ensure_stored_tuple(&rl, src_tid, t);
                    let tgt = ensure_node(graph, own_rel, relation, t);
                    graph.add_derivation_nodes(local_edge(logical), vec![src], vec![tgt]);
                }
                if let Some(src_tid) = ri_rel.and_then(|r| r.id_of(t)) {
                    let src = graph.ensure_stored_tuple(&ri, src_tid, t);
                    let tgt = ensure_node(graph, own_rel, relation, t);
                    graph.add_derivation_nodes(import_edge(logical), vec![src], vec![tgt]);
                }
            }
            continue;
        }
        // New input tuples: if the matching output tuple already exists (it
        // was previously derivable only locally), add the import edge.
        if let Some(logical) = logical_of_input(relation) {
            let ro = internal_name(logical, InternalRole::Output);
            let ro_rel = db.relation(&ro).ok();
            for t in tuples {
                if let Some(out_tid) = ro_rel.and_then(|r| r.id_of(t)) {
                    let src = ensure_node(graph, own_rel, relation, t);
                    let tgt = graph.ensure_stored_tuple(&ro, out_tid, t);
                    graph.add_derivation_nodes(import_edge(logical), vec![src], vec![tgt]);
                }
            }
        }
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use crate::builder::CdssBuilder;
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::RelationSchema;

    fn example() -> Cdss {
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

    /// Insert a distinct G row and delete the previous round's, exchanging
    /// each time — the churn regime that grows the pool without bound.
    fn churn(cdss: &mut Cdss, rounds: i64) {
        for r in 0..rounds {
            cdss.insert_local("PGUS", "G", int_tuple(&[r, 100_000 + r, 200_000 + r]))
                .unwrap();
            if r > 0 {
                cdss.delete_local(
                    "PGUS",
                    "G",
                    int_tuple(&[r - 1, 100_000 + r - 1, 200_000 + r - 1]),
                )
                .unwrap();
            }
            cdss.update_exchange("PGUS").unwrap();
        }
    }

    #[test]
    fn compact_bounds_churned_pool_and_preserves_observables() {
        let mut cdss = example();
        let mut twin = example();
        churn(&mut cdss, 40);
        churn(&mut twin, 40);

        let pool_before = cdss.intern_stats().distinct as usize;
        let live = cdss.pool_live_values();
        assert!(
            pool_before > 4 * live,
            "churn must leave mostly-dead pool ({pool_before} pooled, {live} live)"
        );

        let report = cdss.compact();
        assert_eq!(report.before, pool_before);
        assert_eq!(report.after, live);
        assert_eq!(cdss.compactions_run(), 1);
        assert_eq!(cdss.intern_stats().compactions, 1);

        // Every observable agrees with the never-compacted twin.
        assert_eq!(cdss.database(), twin.database());
        for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
            assert_eq!(
                cdss.local_instance(peer, rel).unwrap(),
                twin.local_instance(peer, rel).unwrap()
            );
            for t in cdss.local_instance(peer, rel).unwrap() {
                assert_eq!(
                    cdss.provenance_of(rel, &t).canonical().to_string(),
                    twin.provenance_of(rel, &t).canonical().to_string()
                );
                assert_eq!(cdss.is_derivable(rel, &t), twin.is_derivable(rel, &t));
            }
        }

        // Exchanges after compaction (stale plans would mis-evaluate if the
        // cache survived) still track the twin exactly.
        for c in [&mut cdss, &mut twin] {
            c.insert_local("PBioSQL", "B", int_tuple(&[39, 200_039]))
                .unwrap();
            c.insert_local("PGUS", "G", int_tuple(&[7, 7, 7])).unwrap();
            c.update_exchange_all().unwrap();
        }
        assert_eq!(cdss.database(), twin.database());
    }

    #[test]
    fn maybe_compact_respects_the_policy() {
        let mut cdss = example();
        churn(&mut cdss, 20);
        // Defaults: pool far below min_pool_len → declined without a scan.
        assert_eq!(cdss.maybe_compact(), None);
        assert_eq!(cdss.compactions_run(), 0);

        // A dead-heavy pool above the (lowered) floor compacts.
        cdss.set_compaction_policy(CompactionPolicy {
            min_pool_len: 8,
            min_dead_ratio: 0.5,
        });
        let report = cdss.maybe_compact().expect("policy fires");
        assert!(report.reclaimed() > 0);
        assert_eq!(cdss.compactions_run(), 1);

        // Right after compacting nothing is dead → declined again.
        assert_eq!(cdss.maybe_compact(), None);

        // `never()` refuses even a fully dead pool.
        churn(&mut cdss, 10);
        cdss.set_compaction_policy(CompactionPolicy::never());
        assert_eq!(cdss.maybe_compact(), None);
    }

    #[test]
    fn checkpoint_compacts_under_policy_and_recovers_identically() {
        let dir = orchestra_persist::testutil::TempDir::new("core-compact-ckpt");
        let mut cdss = CdssBuilder::new()
            .add_peer(
                "PGUS",
                vec![RelationSchema::new("G", &["id", "can", "nam"])],
            )
            .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
            .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
            .compaction_policy(CompactionPolicy {
                min_pool_len: 8,
                min_dead_ratio: 0.3,
            })
            .with_persistence(dir.path())
            .build()
            .unwrap();
        churn(&mut cdss, 25);
        let live = cdss.pool_live_values();
        cdss.checkpoint().unwrap();
        assert_eq!(cdss.compactions_run(), 1, "checkpoint triggered the pass");
        assert_eq!(cdss.intern_stats().distinct as usize, live);
        let before_db = cdss.database().clone();
        drop(cdss);

        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert_eq!(report.replayed_epochs, 0);
        assert_eq!(recovered.database(), &before_db);
    }
}

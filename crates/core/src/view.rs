//! Snapshot-isolated read views of a [`crate::Cdss`].
//!
//! A [`SnapshotView`] pairs one immutable
//! [`DbSnapshot`](orchestra_snapshot::DbSnapshot) — published at a commit
//! point (exchange, bulk apply, recomputation, compaction, checkpoint) —
//! with the static metadata needed to answer the read APIs with the same
//! semantics and error vocabulary as the live `Cdss`: peer schemas for
//! request validation, and the mapping system for lazily rebuilding a
//! provenance graph over the snapshot.
//!
//! Readers obtain views through a [`SnapshotReader`], a cloneable handle
//! over a lock-free swap cell: fetching the latest view never touches a
//! lock, so queries proceed at full speed while an update exchange holds
//! the writer exclusively. Every view is a *whole-epoch* instance —
//! publishes happen only after an exchange commits, never mid-propagation
//! — so a reader sees the pre-exchange or post-exchange database, never a
//! mix.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use orchestra_mappings::MappingSystem;
use orchestra_provenance::{
    PageDirection, ProvenanceExpr, ProvenanceGraph, ProvenanceNeighbor, ProvenanceToken,
};
use orchestra_snapshot::{ArcCell, DbSnapshot, SnapshotStore};
use orchestra_storage::schema::{internal_name, InternalRole};
use orchestra_storage::{Database, PoolStats, Relation, StorageError, Tuple, Value};

use crate::cdss::rebuild_graph;
use crate::error::CdssError;
use crate::peer::{Peer, PeerId};
use crate::Result;

/// The static (post-build immutable) CDSS metadata every snapshot view
/// shares: peer schemas, relation ownership, and the compiled mapping
/// system. Built once; views hold it by `Arc`.
#[derive(Debug)]
pub(crate) struct SnapshotMeta {
    pub(crate) system: Arc<MappingSystem>,
    pub(crate) peers: BTreeMap<PeerId, Peer>,
    pub(crate) relation_owner: BTreeMap<String, PeerId>,
}

/// An immutable, whole-epoch read view of a CDSS.
///
/// Offers the same read APIs as [`crate::Cdss`] — instances, certain
/// answers, provenance, derivability, statistics — evaluated entirely
/// against one published snapshot. Obtained from [`crate::Cdss::snapshot`]
/// or a [`SnapshotReader`]; cheap to hold (relations are structurally
/// shared with neighbouring epochs) and valid indefinitely, even across
/// later pool compactions.
#[derive(Debug)]
pub struct SnapshotView {
    snap: Arc<DbSnapshot>,
    meta: Arc<SnapshotMeta>,
    published: u64,
    durable_epoch: u64,
    plan_cache_hits: u64,
    compactions_run: u64,
    /// Provenance graph over the snapshot, rebuilt lazily on first
    /// provenance read (mirrors the live `Cdss`'s lazy graph cache). The
    /// cell is shared by every view over the same snapshot and mapping
    /// system: a publish that changed nothing installs a view with fresh
    /// counters, not a fresh graph.
    graph: Arc<OnceLock<ProvenanceGraph>>,
    /// Where this view's bound reads report a shape they had to scan for.
    demand: Arc<IndexDemand>,
}

impl SnapshotView {
    /// The snapshot epoch this view was published at: 0 only for the
    /// transient pre-initialisation view, then incremented per
    /// content-changing publish.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// Total content-changing snapshot publishes by the owning CDSS as of
    /// this view (no-op publishes reuse the previous snapshot and do not
    /// count).
    pub fn snapshots_published(&self) -> u64 {
        self.published
    }

    /// Number of epochs durably published by the underlying CDSS as of
    /// this view (0 when not persistent) — [`crate::Cdss::current_epoch`].
    pub fn durable_epoch(&self) -> u64 {
        self.durable_epoch
    }

    /// Compiled join plans reused from the plan cache, as of this view.
    pub fn plan_cache_hits(&self) -> u64 {
        self.plan_cache_hits
    }

    /// Pool compaction passes run, as of this view.
    pub fn compactions_run(&self) -> u64 {
        self.compactions_run
    }

    /// The identifiers of all peers, sorted.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.meta.peers.keys().cloned().collect()
    }

    /// Look up a peer.
    pub fn peer(&self, id: &str) -> Result<&Peer> {
        self.meta
            .peers
            .get(id)
            .ok_or_else(|| CdssError::UnknownPeer(id.to_string()))
    }

    /// Total number of tuples across every captured internal relation
    /// (the snapshot-side analogue of `instance_stats().total_tuples`).
    pub fn total_tuples(&self) -> usize {
        self.snap.total_tuples()
    }

    /// Total number of tuples in all peers' curated output tables.
    pub fn total_output_tuples(&self) -> usize {
        self.meta
            .relation_owner
            .keys()
            .filter_map(|r| {
                self.snap
                    .lookup(&internal_name(r, InternalRole::Output))
                    .map(Relation::len)
            })
            .sum()
    }

    /// Intern-pool counters as of this view's publish.
    pub fn intern_stats(&self) -> PoolStats {
        self.snap.pool_stats()
    }

    /// Pool ids referenced by live rows of this snapshot. Computed at most
    /// once per snapshot, on first use.
    pub fn pool_live_values(&self) -> usize {
        self.snap.live_value_count()
    }

    /// Validate that `peer` owns `relation` and return the relation's
    /// curated output table `R_o` in this snapshot — the same preamble
    /// (and error vocabulary) as the live read APIs.
    fn output_relation(&self, peer: &str, relation: &str) -> Result<&Relation> {
        let p = self.peer(peer)?;
        if !p.owns(relation) {
            return Err(CdssError::NotPeerRelation {
                peer: peer.to_string(),
                relation: relation.to_string(),
            });
        }
        let out = internal_name(relation, InternalRole::Output);
        self.snap
            .lookup(&out)
            .ok_or_else(|| CdssError::from(StorageError::UnknownRelation(out)))
    }

    /// The full local instance of one of a peer's relations at this epoch,
    /// sorted — [`crate::Cdss::local_instance`] against the snapshot.
    pub fn local_instance(&self, peer: &str, relation: &str) -> Result<Vec<Tuple>> {
        Ok(self.output_relation(peer, relation)?.sorted_tuples())
    }

    /// The certain answers (tuples without labeled nulls) at this epoch,
    /// sorted — [`crate::Cdss::certain_answers`] against the snapshot.
    pub fn certain_answers(&self, peer: &str, relation: &str) -> Result<Vec<Tuple>> {
        Ok(self.output_relation(peer, relation)?.certain_tuples())
    }

    /// Borrowed iterator over the local instance at this epoch, in
    /// arbitrary order.
    pub fn local_instance_iter(
        &self,
        peer: &str,
        relation: &str,
    ) -> Result<impl Iterator<Item = &Tuple>> {
        Ok(self.output_relation(peer, relation)?.iter())
    }

    /// Borrowed iterator over the certain answers at this epoch, in
    /// arbitrary order.
    pub fn certain_answers_iter(
        &self,
        peer: &str,
        relation: &str,
    ) -> Result<impl Iterator<Item = &Tuple>> {
        Ok(self
            .local_instance_iter(peer, relation)?
            .filter(|t| !t.has_labeled_null()))
    }

    /// Number of tuples in the local instance at this epoch.
    pub fn local_instance_len(&self, peer: &str, relation: &str) -> Result<usize> {
        Ok(self.output_relation(peer, relation)?.len())
    }

    /// Point query over the local instance at this epoch —
    /// [`crate::Cdss::query_local_bound`] against the snapshot, with the
    /// same cost: an index probe once the writer has indexed the shape,
    /// a scan (which asks the writer for that index) before.
    pub fn query_local_bound(
        &self,
        peer: &str,
        relation: &str,
        binding: &[Option<Value>],
    ) -> Result<Vec<Tuple>> {
        crate::cdss::bound_filtered(
            relation,
            self.output_relation(peer, relation)?,
            binding,
            false,
            &self.demand,
        )
    }

    /// Point query over the certain answers at this epoch —
    /// [`crate::Cdss::query_certain_bound`] against the snapshot.
    pub fn query_certain_bound(
        &self,
        peer: &str,
        relation: &str,
        binding: &[Option<Value>],
    ) -> Result<Vec<Tuple>> {
        crate::cdss::bound_filtered(
            relation,
            self.output_relation(peer, relation)?,
            binding,
            true,
            &self.demand,
        )
    }

    fn graph(&self) -> &ProvenanceGraph {
        self.graph.get_or_init(|| {
            let mut g = ProvenanceGraph::new();
            rebuild_graph(&self.meta.system, self.snap.as_ref(), &mut g);
            g
        })
    }

    /// The provenance expression of a tuple of a logical relation at this
    /// epoch — [`crate::Cdss::provenance_of`] against the snapshot.
    pub fn provenance_of(&self, relation: &str, tuple: &Tuple) -> ProvenanceExpr {
        let graph = self.graph();
        let input = internal_name(relation, InternalRole::Input);
        let expr = graph.expression_for(&input, tuple);
        if !expr.is_zero() {
            return expr;
        }
        let output = internal_name(relation, InternalRole::Output);
        graph.expression_for(&output, tuple)
    }

    /// The one-hop derivation neighbors of a tuple at this epoch —
    /// [`crate::Cdss::provenance_neighbors`] against the snapshot.
    pub fn provenance_neighbors(
        &self,
        relation: &str,
        tuple: &Tuple,
        direction: PageDirection,
    ) -> Vec<ProvenanceNeighbor> {
        let graph = self.graph();
        let input = internal_name(relation, InternalRole::Input);
        let out = graph.neighbors(&input, tuple, direction);
        if !out.is_empty() {
            return out;
        }
        let output = internal_name(relation, InternalRole::Output);
        graph.neighbors(&output, tuple, direction)
    }

    /// Is a tuple of a logical relation's output table derivable from the
    /// base data of this epoch — [`crate::Cdss::is_derivable`] against the
    /// snapshot.
    pub fn is_derivable(&self, relation: &str, tuple: &Tuple) -> bool {
        let output = internal_name(relation, InternalRole::Output);
        let snap = &self.snap;
        self.graph()
            .derivable(&output, tuple, |tok: &ProvenanceToken| {
                snap.lookup(&tok.relation)
                    .map(|r| r.contains(&tok.tuple))
                    .unwrap_or(false)
            })
    }
}

/// A cloneable, lock-free handle onto the latest [`SnapshotView`] of one
/// CDSS. Obtained from [`crate::Cdss::snapshot_reader`]; safe to hand to
/// any number of reader threads — [`SnapshotReader::latest`] never blocks
/// on the writer.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<ArcCell<SnapshotView>>,
}

impl SnapshotReader {
    /// The most recently published view.
    pub fn latest(&self) -> Arc<SnapshotView> {
        self.cell.load()
    }
}

/// The binding shapes bound reads had to answer by scanning, as
/// `(output table, lowest bound column)` pairs, for the writer to index
/// at its next commit ([`crate::Cdss`]'s `index_demanded_shapes`). One
/// column per shape bounds the set by the peers' relation arities, however
/// many distinct bindings readers send; an index on the lowest bound
/// column serves every shape that binds it, because
/// [`orchestra_storage::Relation::select_eq_ref`] probes any index on a
/// subset of the bound columns.
#[derive(Debug, Default)]
pub(crate) struct IndexDemand(Mutex<BTreeSet<(String, usize)>>);

impl IndexDemand {
    /// Ask for an index on `column` of the output table `relation`.
    pub(crate) fn record(&self, relation: &str, column: usize) {
        let mut shapes = self.0.lock().unwrap_or_else(|e| e.into_inner());
        shapes.insert((relation.to_string(), column));
    }

    /// Every shape asked for since the last call.
    pub(crate) fn take(&self) -> BTreeSet<(String, usize)> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The publisher state a [`crate::Cdss`] owns: the copy-on-write snapshot
/// store plus the swap cell its readers load views from. The store sits
/// behind a `Mutex` so publication needs only `&self` — letting
/// [`crate::Cdss::snapshot`] refresh on demand from a shared borrow —
/// while reader loads stay lock-free through the cell.
#[derive(Debug)]
pub(crate) struct SnapshotState {
    store: Mutex<SnapshotStore>,
    cell: Arc<ArcCell<SnapshotView>>,
    /// The metadata stamped onto newly published views. Behind a mutex so
    /// [`crate::Cdss::add_mapping`] can swap in the extended mapping system;
    /// already-published views keep the meta they were published with (they
    /// describe the pre-change epochs).
    meta: Mutex<Arc<SnapshotMeta>>,
    /// Shapes the live `Cdss` and every view it published scanned for.
    demand: Arc<IndexDemand>,
}

impl SnapshotState {
    /// Fresh state whose initial view is the empty epoch-0 snapshot; the
    /// owning `Cdss` publishes a real view immediately after construction.
    pub(crate) fn new(meta: SnapshotMeta) -> Self {
        let store = SnapshotStore::new();
        let meta = Arc::new(meta);
        let demand = Arc::<IndexDemand>::default();
        let initial = SnapshotView {
            snap: store.latest(),
            meta: Arc::clone(&meta),
            published: 0,
            durable_epoch: 0,
            plan_cache_hits: 0,
            compactions_run: 0,
            graph: Arc::default(),
            demand: Arc::clone(&demand),
        };
        SnapshotState {
            store: Mutex::new(store),
            cell: Arc::new(ArcCell::new(Arc::new(initial))),
            meta: Mutex::new(meta),
            demand,
        }
    }

    /// The demand set shared by the live `Cdss` and its views.
    pub(crate) fn demand(&self) -> &IndexDemand {
        &self.demand
    }

    /// Replace the metadata used for future publishes (the mapping system
    /// changed). Takes effect at the next [`SnapshotState::publish`].
    pub(crate) fn replace_meta(&self, meta: SnapshotMeta) {
        *self.meta.lock().expect("snapshot meta lock") = Arc::new(meta);
    }

    /// Publish the database's current state with the given live counters
    /// and install the resulting view for readers. Returns how many epochs
    /// the publish minted (0 when nothing changed, else 1) and how many
    /// storage chunks it found copied on write since the previous one.
    pub(crate) fn publish(
        &self,
        db: &Database,
        durable_epoch: u64,
        plan_cache_hits: u64,
        compactions_run: u64,
    ) -> (u64, u64) {
        let mut store = self.store.lock().expect("snapshot store lock");
        let (published_before, copies_before) = (store.published(), store.cow_chunk_copies());
        let snap = store.publish(db);
        let meta = Arc::clone(&self.meta.lock().expect("snapshot meta lock"));
        let previous = self.cell.load();
        // Same epoch, same content: an index-only publish keeps the graph.
        let graph = if previous.snap.epoch() == snap.epoch() && Arc::ptr_eq(&previous.meta, &meta) {
            Arc::clone(&previous.graph)
        } else {
            Arc::default()
        };
        let view = SnapshotView {
            snap,
            meta,
            published: store.published(),
            durable_epoch,
            plan_cache_hits,
            compactions_run,
            graph,
            demand: Arc::clone(&self.demand),
        };
        self.cell.store(Arc::new(view));
        (
            store.published() - published_before,
            store.cow_chunk_copies() - copies_before,
        )
    }

    /// Number of content-changing publishes so far.
    pub(crate) fn published(&self) -> u64 {
        self.store.lock().expect("snapshot store lock").published()
    }

    /// The latest installed view.
    pub(crate) fn latest(&self) -> Arc<SnapshotView> {
        self.cell.load()
    }

    /// A cloneable reader handle.
    pub(crate) fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
    }
}

// Views and readers cross server threads by design; keep that checked at
// compile time alongside the `Cdss` assertion.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SnapshotView>();
    assert_send_sync::<SnapshotReader>()
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use orchestra_storage::schema::{internal_name, InternalRole};
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::{RelationSchema, Value};

    use crate::builder::CdssBuilder;

    #[test]
    fn noop_publishes_keep_the_provenance_graph() {
        let mut cdss = CdssBuilder::new()
            .add_peer(
                "PGUS",
                vec![RelationSchema::new("G", &["id", "can", "nam"])],
            )
            .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
            .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
            .build()
            .unwrap();
        cdss.insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
            .unwrap();
        cdss.update_exchange("PGUS").unwrap();

        let first = cdss.snapshot();
        assert!(first.graph.get().is_none(), "the graph is built lazily");
        assert!(!first.provenance_of("B", &int_tuple(&[1, 3])).is_zero());

        // Nothing changed: `snapshot()` installs a new view over the same
        // `DbSnapshot`, and that view must come with the graph already
        // built rather than rebuild it on its first provenance read.
        let second = cdss.snapshot();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(first.epoch(), second.epoch());
        assert!(
            second.graph.get().is_some(),
            "no-op publish dropped the graph"
        );
        assert!(std::ptr::eq(first.graph(), second.graph()));
        // The reader handle and checkpoint-style republishes go the same way.
        let via_reader = cdss.snapshot_reader().latest();
        assert!(std::ptr::eq(first.graph(), via_reader.graph()));

        // A content change gets a fresh (unbuilt) graph; old views keep theirs.
        cdss.insert_local("PGUS", "G", int_tuple(&[4, 5, 6]))
            .unwrap();
        cdss.update_exchange("PGUS").unwrap();
        let third = cdss.snapshot();
        assert!(third.graph.get().is_none());
        assert!(first.provenance_of("B", &int_tuple(&[4, 6])).is_zero());
        assert!(!third.provenance_of("B", &int_tuple(&[4, 6])).is_zero());
    }

    /// The only test in this crate that makes bound reads, so nothing else
    /// moves the process-global scan counter while it runs.
    #[test]
    fn a_scanned_shape_is_probed_after_the_next_commit() {
        let scans = || {
            orchestra_obs::global()
                .counter_value("query_bound_scans_total", &[])
                .expect("registered when the CDSS is built")
        };
        let mut cdss = CdssBuilder::new()
            .add_peer(
                "PGUS",
                vec![RelationSchema::new("G", &["id", "can", "nam"])],
            )
            .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
            .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
            .build()
            .unwrap();
        for i in 0..20 {
            cdss.insert_local("PGUS", "G", int_tuple(&[i, 0, i % 4]))
                .unwrap();
        }
        cdss.update_exchange("PGUS").unwrap();
        let b_o = internal_name("B", InternalRole::Output);
        let indexes = cdss.database().relation(&b_o).unwrap().index_count();
        let epochs = cdss.snapshots_published();
        let old = cdss.snapshot();
        let binding = [None, Some(Value::int(3))];
        let answer = old.query_certain_bound("PBioSQL", "B", &binding).unwrap();
        assert_eq!(answer.len(), 5);
        let after_first = scans();

        // Rejected reads ask for nothing.
        assert!(old.query_certain_bound("PBioSQL", "B", &[None]).is_err());
        assert!(cdss.query_local_bound("PGUS", "B", &binding).is_err());
        let demanded = old.demand.0.lock().unwrap().clone();
        assert_eq!(demanded.into_iter().collect::<Vec<_>>(), [(b_o.clone(), 1)]);
        old.query_certain_bound("PBioSQL", "B", &binding).unwrap();
        assert_eq!(scans(), after_first + 1);

        // A commit that changes no content builds the index and publishes
        // it without minting an epoch; the graph cell carries over.
        cdss.update_exchange("PGUS").unwrap();
        assert_eq!(cdss.snapshots_published(), epochs);
        let rel = cdss.database().relation(&b_o).unwrap();
        assert_eq!(rel.index_count(), indexes + 1);
        let latest = cdss.snapshot_reader().latest();
        assert!(!Arc::ptr_eq(&latest.snap, &old.snap));
        assert_eq!(latest.epoch(), old.epoch());
        assert!(Arc::ptr_eq(&latest.graph, &old.graph));

        // From now on the shape, and every shape binding column 1, probes —
        // on the new view and on the live system alike.
        let before = scans();
        assert_eq!(
            latest
                .query_certain_bound("PBioSQL", "B", &binding)
                .unwrap(),
            answer
        );
        assert_eq!(
            cdss.query_certain_bound("PBioSQL", "B", &binding).unwrap(),
            answer
        );
        let both = [Some(Value::int(7)), Some(Value::int(3))];
        assert_eq!(
            latest.query_local_bound("PBioSQL", "B", &both).unwrap(),
            vec![int_tuple(&[7, 3])]
        );
        assert_eq!(scans(), before);
        // The view kept from before the index still answers, by scanning.
        assert_eq!(
            old.query_certain_bound("PBioSQL", "B", &binding).unwrap(),
            answer
        );
        assert_eq!(scans(), before + 1);
    }
}

//! # orchestra-snapshot
//!
//! Snapshot-isolated read views for the ORCHESTRA CDSS: immutable,
//! epoch-stamped, copy-on-write snapshots of a
//! [`Database`](orchestra_storage::Database), published through a
//! lock-free atomic-swap cell so readers never contend with writers.
//!
//! The paper's CDSS serves queries over *locally consistent* instances
//! while update exchange recomputes them; readers must observe either the
//! pre-exchange or the post-exchange instance, never a mid-exchange mix.
//! A [`SnapshotStore`] realises that guarantee: the owner publishes an
//! [`Arc<DbSnapshot>`] at each commit point, and any number of reader
//! threads fetch the latest snapshot through a [`SnapshotHandle`] without
//! taking a lock.
//!
//! Publishing is **O(storage written since the last publish)**, not
//! O(database) and not O(size of the changed relations): a
//! [`Relation`] is a persistent structure — its tuple slab, interned-row
//! arena, lookup table and secondary indexes are split into fixed-size
//! chunks shared copy-on-write between clones — so a new snapshot takes
//! `Relation::clone` (a handful of pointers, plus the partly filled last
//! chunk of the slab and the arena) of each relation whose
//! [`Relation::version`] moved, and shares the previous snapshot's
//! `Arc<Relation>` for the rest. The copying itself happened earlier and
//! only where the writer wrote: the first write to a chunk a snapshot still
//! holds copies that chunk. Dropping an old snapshot frees only the chunks
//! it alone held.
//!
//! A cloned [`Relation`] carries its interned rows, `TupleId` slab and
//! indexes with it, so a snapshot answers every value-keyed read
//! (`contains`, `iter`, `sorted_tuples`, `certain_tuples`,
//! `select_eq_ref`, …) without consulting the owner's `ValuePool` — which
//! is what keeps old snapshots valid across pool compactions: a compaction
//! rewrites the live relations' row chunks (copying those a snapshot
//! shares) and bumps their versions, so the *next* publish re-clones them,
//! while already-published snapshots keep their pre-compaction rows and ids
//! self-consistently.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unsafe_op_in_unsafe_fn)]
#![deny(unreachable_pub)]

pub mod cell;

use std::sync::{Arc, OnceLock};

use orchestra_storage::{Database, PoolStats, Relation, RelationSource};

pub use cell::ArcCell;

/// An immutable snapshot of a database at one publish epoch.
///
/// Relations are held by `Arc` and shared with the snapshots before and
/// after wherever their content did not change; where it did, the two
/// epochs' relations still share every storage chunk the writer left
/// alone. The snapshot carries no
/// `ValuePool`: every read API of [`Relation`] is value-keyed and
/// self-contained, so the snapshot stays valid even after the live pool
/// is compacted and its `ValueId`s remapped.
#[derive(Debug)]
pub struct DbSnapshot {
    epoch: u64,
    /// Sorted by relation name (the order [`Database::relations`] yields),
    /// so lookups binary-search on the name each relation already carries
    /// and a publish allocates no key per relation.
    relations: Vec<Arc<Relation>>,
    pool_stats: PoolStats,
    pool_len: usize,
    live_values: OnceLock<usize>,
}

impl DbSnapshot {
    fn empty() -> Self {
        DbSnapshot {
            epoch: 0,
            relations: Vec::new(),
            pool_stats: PoolStats::default(),
            pool_len: 0,
            live_values: OnceLock::new(),
        }
    }

    /// The snapshot's epoch: 0 for the empty pre-publish snapshot, then
    /// incremented once per *content-changing* publish.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Look up a relation by its internal name.
    pub fn lookup(&self, name: &str) -> Option<&Relation> {
        self.shared(name).map(Arc::as_ref)
    }

    fn shared(&self, name: &str) -> Option<&Arc<Relation>> {
        self.relations
            .binary_search_by(|rel| rel.name().cmp(name))
            .ok()
            .map(|i| &self.relations[i])
    }

    /// Number of relations captured.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Iterate over the captured relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter().map(Arc::as_ref)
    }

    /// Total number of tuples across all captured relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Intern-pool counters of the owning database, as of this snapshot's
    /// publish.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool_stats
    }

    /// Number of pool ids referenced by live rows of this snapshot (the
    /// snapshot's live vocabulary). The O(rows) scan runs at most once per
    /// snapshot, on first use — **not** at publish time.
    pub fn live_value_count(&self) -> usize {
        *self.live_values.get_or_init(|| {
            let mut live = vec![false; self.pool_len];
            for rel in &self.relations {
                rel.mark_live_values(&mut live);
            }
            live.iter().filter(|&&l| l).count()
        })
    }
}

impl RelationSource for DbSnapshot {
    fn lookup(&self, name: &str) -> Option<&Relation> {
        DbSnapshot::lookup(self, name)
    }
}

/// A cloneable, lock-free handle to the latest published [`DbSnapshot`].
///
/// Handles are cheap to clone and safe to hold on any thread; `latest`
/// never blocks on the publisher.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    cell: Arc<ArcCell<DbSnapshot>>,
}

impl SnapshotHandle {
    /// The most recently published snapshot.
    pub fn latest(&self) -> Arc<DbSnapshot> {
        self.cell.load()
    }
}

/// The publisher side: owns the swap cell readers load from. The latest
/// published snapshot doubles as the publish cache — a relation whose
/// [`Relation::version`] still equals its published clone's is shared
/// again, not re-cloned.
///
/// One `SnapshotStore` belongs to one database owner (the CDSS); it is
/// `&mut` at publish time, which the owner's commit points naturally are.
#[derive(Debug)]
pub struct SnapshotStore {
    cell: Arc<ArcCell<DbSnapshot>>,
    published: u64,
    cow_chunk_copies: u64,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore::new()
    }
}

impl SnapshotStore {
    /// A store whose latest snapshot is the empty epoch-0 snapshot.
    pub fn new() -> Self {
        SnapshotStore {
            cell: Arc::new(ArcCell::new(Arc::new(DbSnapshot::empty()))),
            published: 0,
            cow_chunk_copies: 0,
        }
    }

    /// A reader handle onto this store's swap cell.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            cell: Arc::clone(&self.cell),
        }
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<DbSnapshot> {
        self.cell.load()
    }

    /// Number of content-changing publishes so far (equals the latest
    /// snapshot's epoch).
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Storage chunks the writer copied on write
    /// ([`Relation::cow_chunk_copies`]) between consecutive publishes,
    /// summed over every publish so far: the copy work structural sharing
    /// did *not* avoid. Folded from the relations' plain counters at
    /// publish time.
    pub fn cow_chunk_copies(&self) -> u64 {
        self.cow_chunk_copies
    }

    /// Publish the database's current state. Relations whose
    /// [`Relation::version`] is unchanged since the previous publish are
    /// shared with it; changed (or new) relations are cloned, which shares
    /// every full storage chunk. When *nothing* changed the previous
    /// snapshot is returned as-is and no new epoch is minted.
    pub fn publish(&mut self, db: &Database) -> Arc<DbSnapshot> {
        let previous = self.cell.load();
        let mut changed = previous.relations.len() != db.relation_count();
        let mut relations = Vec::with_capacity(db.relation_count());
        // Both sides are in name order, so one forward walk pairs them up.
        let mut old = previous.relations.iter().peekable();
        for rel in db.relations() {
            while old.next_if(|o| o.name() < rel.name()).is_some() {}
            let published = old.next_if(|o| o.name() == rel.name());
            relations.push(match published {
                Some(arc) if arc.version() == rel.version() => Arc::clone(arc),
                _ => {
                    changed = true;
                    let copied_before = published.map_or(0, |arc| arc.cow_chunk_copies());
                    self.cow_chunk_copies += rel.cow_chunk_copies().saturating_sub(copied_before);
                    Arc::new(rel.clone())
                }
            });
        }
        if !changed {
            return previous;
        }
        self.published += 1;
        let snapshot = Arc::new(DbSnapshot {
            epoch: self.published,
            relations,
            pool_stats: db.pool_stats(),
            pool_len: db.pool().len(),
            live_values: OnceLock::new(),
        });
        self.cell.store(Arc::clone(&snapshot));
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::RelationSchema;

    fn two_relation_db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("a", &["x", "y"]))
            .unwrap();
        db.create_relation(RelationSchema::new("b", &["x"]))
            .unwrap();
        db.insert("a", int_tuple(&[1, 2])).unwrap();
        db.insert("b", int_tuple(&[7])).unwrap();
        db
    }

    #[test]
    fn publish_captures_state_and_epoch() {
        let mut store = SnapshotStore::new();
        assert_eq!(store.latest().epoch(), 0);
        let db = two_relation_db();
        let snap = store.publish(&db);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.relation_count(), 2);
        assert_eq!(snap.total_tuples(), 2);
        assert!(snap.lookup("a").unwrap().contains(&int_tuple(&[1, 2])));
        assert!(snap.lookup("missing").is_none());
        assert_eq!(store.published(), 1);
    }

    #[test]
    fn unchanged_relations_are_shared_not_cloned() {
        let mut store = SnapshotStore::new();
        let mut db = two_relation_db();
        let first = store.publish(&db);
        db.insert("a", int_tuple(&[3, 4])).unwrap();
        let second = store.publish(&db);
        assert_eq!(second.epoch(), 2);
        // `b` did not change: both snapshots hold the same allocation.
        let b1 = first.shared("b").unwrap();
        let b2 = second.shared("b").unwrap();
        assert!(Arc::ptr_eq(b1, b2), "unchanged relation was re-cloned");
        // `a` changed: distinct allocations, old snapshot unaffected.
        let a1 = first.shared("a").unwrap();
        let a2 = second.shared("a").unwrap();
        assert!(!Arc::ptr_eq(a1, a2));
        assert_eq!(a1.len(), 1);
        assert_eq!(a2.len(), 2);
    }

    #[test]
    fn a_small_delta_shares_all_but_a_few_chunks_of_a_large_relation() {
        let mut store = SnapshotStore::new();
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("r", &["x", "y"]))
            .unwrap();
        for i in 0..10_000 {
            db.insert("r", int_tuple(&[i, i % 97])).unwrap();
        }
        db.relation_mut("r").unwrap().ensure_index(&[1]).unwrap();
        let first = store.publish(&db);
        assert_eq!(store.cow_chunk_copies(), 0, "nothing was shared yet");

        for i in 10_000..10_010 {
            db.insert("r", int_tuple(&[i, i % 97])).unwrap();
        }
        let second = store.publish(&db);
        let (old, new) = (first.lookup("r").unwrap(), second.lookup("r").unwrap());
        let (shared, total) = new.chunks_shared_with(old);
        // Each insert writes one lookup-table segment and one index
        // segment; appends land in the partly filled last slab and row
        // chunks, which every clone owns outright.
        let unshared = total - shared;
        assert!(
            total > 100,
            "a 10k-tuple relation spans many chunks ({total})"
        );
        assert!(
            (1..=10 + 10).contains(&unshared),
            "{unshared} of {total} chunks unshared after a 10-tuple delta"
        );
        // The publish's fold counts exactly those copies.
        assert_eq!(store.cow_chunk_copies(), unshared as u64);
        // The old epoch still reads its old contents, index included.
        assert_eq!(old.len(), 10_000);
        assert!(!old.contains(&int_tuple(&[10_003, 10_003 % 97])));
        assert!(new.contains(&int_tuple(&[10_003, 10_003 % 97])));
        let key = [orchestra_storage::Value::int(10_003 % 97)];
        let old_hits = old.select_eq_ref(&[1], &key).count();
        assert_eq!(new.select_eq_ref(&[1], &key).count(), old_hits + 1);
        assert!(old.index(&[1]).is_some(), "snapshots carry their indexes");
    }

    #[test]
    fn noop_publish_mints_no_epoch() {
        let mut store = SnapshotStore::new();
        let db = two_relation_db();
        let first = store.publish(&db);
        let second = store.publish(&db);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.published(), 1);
    }

    #[test]
    fn dropped_relations_leave_the_next_snapshot() {
        let mut store = SnapshotStore::new();
        let mut db = two_relation_db();
        let first = store.publish(&db);
        assert!(db.drop_relation("b"));
        let second = store.publish(&db);
        assert_eq!(second.epoch(), 2);
        assert!(second.lookup("b").is_none());
        assert!(first.lookup("b").is_some(), "old snapshot keeps the table");
    }

    #[test]
    fn snapshots_survive_pool_compaction() {
        let mut store = SnapshotStore::new();
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("r", &["x", "y"]))
            .unwrap();
        for i in 0..20 {
            db.insert("r", int_tuple(&[i, i + 100])).unwrap();
        }
        for i in 0..15 {
            db.remove("r", &int_tuple(&[i, i + 100])).unwrap();
        }
        let before = store.publish(&db);
        let rows_before = before.lookup("r").unwrap().sorted_tuples();
        let live_before = before.live_value_count();
        assert!(live_before > 0);

        // Compact the live pool: ids remap, dead values vanish.
        let compaction = db.compact_pool();
        assert!(compaction.reclaimed() > 0);

        // The old snapshot still answers value-keyed reads identically.
        assert_eq!(before.lookup("r").unwrap().sorted_tuples(), rows_before);
        assert!(before.lookup("r").unwrap().contains(&int_tuple(&[19, 119])));

        // The next publish re-clones (compaction bumps versions).
        let after = store.publish(&db);
        assert_eq!(after.epoch(), before.epoch() + 1);
        assert_eq!(after.lookup("r").unwrap().sorted_tuples(), rows_before);
        assert!(after.live_value_count() <= live_before);
    }

    #[test]
    fn handle_reads_latest_across_threads() {
        let mut store = SnapshotStore::new();
        let mut db = two_relation_db();
        store.publish(&db);
        let handle = store.handle();
        db.insert("a", int_tuple(&[9, 9])).unwrap();
        store.publish(&db);
        let seen = std::thread::spawn(move || handle.latest().epoch())
            .join()
            .unwrap();
        assert_eq!(seen, 2);
    }
}

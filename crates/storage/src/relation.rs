//! In-memory relation instances with set semantics, a stable tuple slab, an
//! interned-row arena, and ID-addressed secondary indexes.
//!
//! Tuples are stored once, in a slab addressed by [`TupleId`]; alongside the
//! slab every tuple's **interned row** — its values as dense [`ValueId`]s
//! into the owning database's [`ValuePool`] — lives in an arity-strided
//! arena (`rows`), so a row never costs a per-row allocation. Everything
//! else (the set-semantics lookup table and every secondary [`HashIndex`])
//! refers to tuples by id.
//!
//! The two representations serve two kinds of reader:
//!
//! * value-keyed APIs ([`Relation::contains`], [`Relation::remove`],
//!   [`Relation::iter`], [`Relation::select_eq_ref`]) read the slab and need
//!   no pool — they serve borrowed `&Tuple` consumers (edits, queries,
//!   provenance);
//! * the join pipeline reads `&[ValueId]` rows
//!   ([`Relation::row`], [`Relation::iter_rows`]) and tests duplicate head
//!   derivations with [`Relation::contains_row_hashed`] — integer compares
//!   against cached hashes, no value is touched and nothing allocates.
//!
//! Only insertion interns, so only the insert APIs take the pool.
//!
//! ## Structural sharing
//!
//! The slab, the row arena, the lookup table and every index are
//! copy-on-write containers split into fixed-size pieces (chunks of slots,
//! segments of the hash tables — see the `cow` module). [`Relation::clone`]
//! therefore copies one pointer per container, the first write to a piece
//! a clone still holds copies that piece alone, and a clone keeps reading
//! exactly the contents it was taken at. This is what makes publishing a
//! snapshot cost O(pieces written since the last one) rather than O(size).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::cow::{ChunkVec, IdTable, CHUNK_SLOTS};
use crate::error::StorageError;
use crate::index::{HashIndex, TupleId};
use crate::pool::{ValueId, ValuePool};
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// One slab slot: a stored tuple, or a link of the free list threaded
/// through the dead slots. Keeping the list inside the slots means freeing
/// and reusing a slot writes only the chunk that write touches anyway, and
/// cloning a relation copies no free list.
#[derive(Debug, Clone)]
enum Slot {
    Live(Tuple),
    Free {
        /// The slot freed before this one, reused after it.
        next: Option<TupleId>,
    },
}

impl Slot {
    #[inline]
    fn tuple(&self) -> Option<&Tuple> {
        match self {
            Slot::Live(t) => Some(t),
            Slot::Free { .. } => None,
        }
    }
}

/// An in-memory relation instance: a set of tuples conforming to a schema,
/// plus any number of secondary hash indexes over column subsets.
///
/// Relations use **set semantics**, matching the paper's data model: within a
/// relation a tuple is uniquely identified by its values, which is exactly
/// the property §4.1.2 exploits to use tuple values as provenance tokens for
/// base data.
///
/// `Clone` is cheap and structurally shared (see the module docs).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<RelationSchema>,
    /// Stable tuple slab: slot `id` holds the tuple with that [`TupleId`],
    /// or a free-list link for a freed slot awaiting reuse.
    slab: ChunkVec<Slot>,
    /// Interned rows, one `arity`-wide slot per slab slot. Dead slots keep
    /// stale ids (they are rewritten on slot reuse and never read while
    /// dead).
    rows: ChunkVec<ValueId>,
    /// Most recently freed slab slot; slots are reused most-recent-first
    /// before the slab grows.
    free_head: Option<TupleId>,
    /// Set-semantics lookup: content hash → candidate ids, verified against
    /// the slab. The hash is the shared scheme of [`crate::pool`], so it is
    /// reachable from a `Tuple` (cached), a raw value slice
    /// ([`crate::tuple::values_hash`]), and an interned row
    /// ([`ValuePool::row_hash`]) alike.
    ids: IdTable,
    /// Number of live tuples.
    live: usize,
    /// Monotone content version: incremented by every successful insert,
    /// remove, and clear. External caches can use it as a staleness stamp —
    /// unlike `len`, it cannot return to a previous value after a
    /// delete/insert pair.
    version: u64,
    indexes: HashMap<Vec<usize>, HashIndex>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity();
        Relation {
            schema: Arc::new(schema),
            slab: ChunkVec::new(1),
            rows: ChunkVec::new(arity),
            free_head: None,
            ids: IdTable::default(),
            live: 0,
            version: 0,
            indexes: HashMap::new(),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples currently stored.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The relation's monotone content version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Find the live id whose slab tuple has these values, among the
    /// candidates bucketed under `hash`.
    #[inline]
    fn find_id(&self, hash: u64, values: &[Value]) -> Option<TupleId> {
        self.ids
            .get(hash)
            .iter()
            .copied()
            .find(|&id| self.tuple_by_id(id).values() == values)
    }

    /// Find the live id whose interned row equals `row` — integer compares
    /// only, valid because the pool hash-conses values (equal value rows
    /// always intern to equal id rows).
    #[inline]
    fn find_row_id(&self, row_hash: u64, row: &[ValueId]) -> Option<TupleId> {
        self.ids
            .get(row_hash)
            .iter()
            .copied()
            .find(|&id| self.row(id) == row)
    }

    /// Does the relation contain this exact tuple? Uses the tuple's cached
    /// content hash — no re-hashing.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.find_id(tuple.content_hash(), tuple.values()).is_some()
    }

    /// Does the relation contain a tuple with exactly these values? Unlike
    /// [`Relation::contains`] this needs no `Tuple` allocation, so callers
    /// can test duplicate derivations from a scratch buffer. The caller
    /// supplies the precomputed [`crate::tuple::values_hash`], so a
    /// subsequent
    /// [`Tuple::from_prehashed`](crate::tuple::Tuple::from_prehashed)
    /// construction reuses the same hash — one content hash per derived
    /// row, total.
    pub fn contains_values_hashed(&self, hash: u64, values: &[Value]) -> bool {
        debug_assert_eq!(hash, crate::tuple::values_hash(values));
        self.find_id(hash, values).is_some()
    }

    /// Does the relation contain a tuple with exactly this interned row?
    /// `row_hash` is the combined pool hash ([`ValuePool::row_hash`]) the
    /// caller already folded while instantiating the row. The whole check
    /// is integer compares — the duplicate-derivation fast path of the
    /// interned join pipeline.
    #[inline]
    pub fn contains_row_hashed(&self, row_hash: u64, row: &[ValueId]) -> bool {
        self.find_row_id(row_hash, row).is_some()
    }

    /// The id of this exact tuple, if present.
    pub fn id_of(&self, tuple: &Tuple) -> Option<TupleId> {
        self.find_id(tuple.content_hash(), tuple.values())
    }

    /// The id of the tuple with this interned row, if present.
    pub fn id_of_row(&self, pool: &ValuePool, row: &[ValueId]) -> Option<TupleId> {
        self.find_row_id(pool.row_hash(row), row)
    }

    /// The tuple addressed by `id`, if the slot is live.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        if id.index() >= self.slab.len() {
            return None;
        }
        self.slab.slot(id.index())[0].tuple()
    }

    /// The tuple addressed by `id`; panics on a dead slot (which indicates
    /// an id-bookkeeping bug, wanted loudly in the join pipeline).
    #[inline]
    pub fn tuple_by_id(&self, id: TupleId) -> &Tuple {
        self.slab.slot(id.index())[0]
            .tuple()
            .expect("TupleId addresses a live slab slot")
    }

    /// The interned row of the tuple addressed by `id`. Callers must only
    /// pass live ids (as with [`Relation::tuple_by_id`]); dead slots hold
    /// stale ids.
    #[inline]
    pub fn row(&self, id: TupleId) -> &[ValueId] {
        self.rows.slot(id.index())
    }

    fn check_arity(&self, arity: usize) -> Result<()> {
        if arity != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: arity,
            });
        }
        Ok(())
    }

    /// Insert a tuple, interning its values. Returns `Ok(true)` if the
    /// tuple was new, `Ok(false)` if it was already present (set semantics
    /// — duplicates touch neither the pool nor any allocation).
    pub fn insert(&mut self, pool: &mut ValuePool, tuple: Tuple) -> Result<bool> {
        Ok(self.insert_full(pool, tuple)?.1)
    }

    /// Store a fresh tuple in a slab slot — the most recently freed one, or
    /// a new one at the end — with the interned row `row_value(&tuple, i)`
    /// for `i` in `0..arity`, and return its id.
    fn store(
        &mut self,
        tuple: Tuple,
        mut row_value: impl FnMut(&Tuple, usize) -> ValueId,
    ) -> TupleId {
        let row = (0..self.schema.arity()).map(|i| row_value(&tuple, i));
        match self.free_head {
            Some(id) => {
                for (slot, value) in self.rows.slot_mut(id.index()).iter_mut().zip(row) {
                    *slot = value;
                }
                let slot = &mut self.slab.slot_mut(id.index())[0];
                let Slot::Free { next } = *slot else {
                    unreachable!("free list addresses a live slot");
                };
                self.free_head = next;
                *slot = Slot::Live(tuple);
                id
            }
            None => {
                let id = TupleId::from_index(self.slab.len());
                self.rows.push_slot(row);
                self.slab.push_slot([Slot::Live(tuple)]);
                id
            }
        }
    }

    /// Enter the freshly stored tuple `id` into the lookup table and every
    /// index.
    fn register(&mut self, hash: u64, id: TupleId, pool: &ValuePool) {
        self.ids.push(hash, id);
        self.version += 1;
        self.live += 1;
        let row = self.rows.slot(id.index());
        for idx in self.indexes.values_mut() {
            idx.insert_row(id, row, pool);
        }
    }

    /// Insert a tuple, returning its id and whether it was new. A duplicate
    /// is detected read-only, so it writes (and copies) nothing.
    pub fn insert_full(&mut self, pool: &mut ValuePool, tuple: Tuple) -> Result<(TupleId, bool)> {
        self.check_arity(tuple.arity())?;
        let hash = tuple.content_hash();
        if let Some(id) = self.find_id(hash, tuple.values()) {
            return Ok((id, false));
        }
        let id = self.store(tuple, |t, i| pool.intern(&t.values()[i]));
        self.register(hash, id, pool);
        Ok((id, true))
    }

    /// Insert an already-interned row with its combined pool hash
    /// (`row_hash == pool.row_hash(row)`). The duplicate path is integer
    /// compares only and allocates nothing; only a genuinely new row
    /// materialises a `Tuple` from the pool.
    pub fn insert_row(
        &mut self,
        pool: &ValuePool,
        row: &[ValueId],
        row_hash: u64,
    ) -> Result<(TupleId, bool)> {
        self.check_arity(row.len())?;
        debug_assert_eq!(row_hash, pool.row_hash(row));
        if let Some(id) = self.find_row_id(row_hash, row) {
            return Ok((id, false));
        }
        // Exact-size iterator → Arc<[Value]> collects in one allocation.
        let values: std::sync::Arc<[Value]> =
            row.iter().map(|&vid| pool.value(vid).clone()).collect();
        let tuple = Tuple::from_arc_prehashed(values, row_hash);
        let id = self.store(tuple, |_, i| row[i]);
        self.register(row_hash, id, pool);
        Ok((id, true))
    }

    /// Remove a tuple. Returns `Ok(true)` if it was present. Removal is
    /// value-keyed and needs no pool (the pool is append-only; the dead
    /// slot's row simply goes stale until the slot is reused).
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.check_arity(tuple.arity())?;
        let hash = tuple.content_hash();
        let Some(id) = self.find_id(hash, tuple.values()) else {
            return Ok(false);
        };
        self.ids.remove(hash, id);
        self.version += 1;
        self.live -= 1;
        let freed = Slot::Free {
            next: self.free_head,
        };
        let slot = &mut self.slab.slot_mut(id.index())[0];
        let Slot::Live(stored) = std::mem::replace(slot, freed) else {
            unreachable!("ids table and slab agree");
        };
        self.free_head = Some(id);
        for idx in self.indexes.values_mut() {
            idx.remove(id, &stored);
        }
        Ok(true)
    }

    /// Remove every tuple, keeping schema and index definitions.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.rows.clear();
        self.free_head = None;
        self.ids.clear();
        self.version += 1;
        self.live = 0;
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
    }

    /// Iterate over all tuples, in slab (insertion) order.
    pub fn iter(&self) -> TupleIter<'_> {
        TupleIter {
            inner: self.iter_ids(),
        }
    }

    /// Iterate over `(id, tuple)` pairs, in slab order.
    pub fn iter_ids(&self) -> TupleIdIter<'_> {
        TupleIdIter {
            slab: &self.slab,
            chunk: [].iter(),
            next_chunk: 0,
            next_id: 0,
        }
    }

    /// Iterate over `(id, interned row)` pairs, in slab order — the
    /// interned join pipeline's scan path.
    pub fn iter_rows(&self) -> RowIter<'_> {
        RowIter {
            inner: self.iter_ids(),
            rows: &self.rows,
        }
    }

    /// All tuples, sorted, for deterministic listings in tests and examples.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// Storage pieces (slab and row chunks, lookup-table and index
    /// segments) copied on write over this relation's lifetime because a
    /// clone still shared them. Clones carry the count they were taken at,
    /// so the difference between a relation and an earlier clone of it is
    /// the copy work done in between. A plain counter: nothing atomic
    /// happens on the write path.
    pub fn cow_chunk_copies(&self) -> u64 {
        self.slab.copies()
            + self.rows.copies()
            + self.ids.copies()
            + self
                .indexes
                .values()
                .map(HashIndex::cow_copies)
                .sum::<u64>()
    }

    /// `(shared, total)`: how many of this relation's storage pieces are
    /// the very allocation `other` holds at the same position, out of how
    /// many this relation has. Two clones of one relation share everything;
    /// each piece written since then is counted once as unshared.
    pub fn chunks_shared_with(&self, other: &Relation) -> (usize, usize) {
        let indexes = self
            .indexes
            .iter()
            .map(|(columns, idx)| idx.segments_shared_with(other.indexes.get(columns)));
        [
            self.slab.chunks_shared_with(&other.slab),
            self.rows.chunks_shared_with(&other.rows),
            self.ids.segments_shared_with(&other.ids),
        ]
        .into_iter()
        .chain(indexes)
        .fold((0, 0), |(s, t), (shared, total)| (s + shared, t + total))
    }

    /// Ensure a hash index exists over the given column positions and return
    /// a reference to it.
    pub fn ensure_index(&mut self, columns: &[usize]) -> Result<&HashIndex> {
        for &c in columns {
            if c >= self.schema.arity() {
                return Err(StorageError::InvalidColumns {
                    relation: self.schema.name().to_string(),
                    columns: columns.to_vec(),
                });
            }
        }
        if !self.indexes.contains_key(columns) {
            let idx = HashIndex::build_from(columns.to_vec(), self.iter_ids());
            self.indexes.insert(columns.to_vec(), idx);
        }
        Ok(&self.indexes[columns])
    }

    /// A previously built index over the given columns, if any.
    pub fn index(&self, columns: &[usize]) -> Option<&HashIndex> {
        self.indexes.get(columns)
    }

    /// Candidate ids whose projection onto `columns` hashes like `key`, if
    /// an index over those columns exists. Candidates must be re-verified
    /// against the key (hash buckets can merge distinct keys).
    pub fn probe_ids(&self, columns: &[usize], key: &[Value]) -> Option<&[TupleId]> {
        self.indexes.get(columns).map(|idx| idx.probe_ids(key))
    }

    /// Number of secondary indexes built on this relation. Indexes are
    /// only ever added ([`Relation::ensure_index`]), so a change in this
    /// count is how a snapshot publisher notices an index-only change.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// The index an equality selection on `columns` probes: the one over
    /// exactly those columns, else the widest over a non-empty subset of
    /// them (ties go to the smallest column list, so the choice does not
    /// depend on hash-map order).
    fn covering_index(&self, columns: &[usize]) -> Option<&HashIndex> {
        self.indexes.get(columns).or_else(|| {
            self.indexes
                .iter()
                .filter(|(cols, _)| !cols.is_empty() && cols.iter().all(|c| columns.contains(c)))
                .max_by(|(a, _), (b, _)| a.len().cmp(&b.len()).then_with(|| b.cmp(a)))
                .map(|(_, idx)| idx)
        })
    }

    /// Borrowed selection: all tuples whose values at `columns` equal `key`.
    /// Probes an index over the bound columns, or failing that over the
    /// widest subset of them, and scans only when no index covers any
    /// bound column ([`SelectEqRef::is_scan`]). Every candidate is checked
    /// against every bound column, so the result is exact either way.
    pub fn select_eq_ref<'a>(&'a self, columns: &'a [usize], key: &'a [Value]) -> SelectEqRef<'a> {
        let inner = match self.covering_index(columns) {
            Some(idx) => SelectInner::Probe {
                rel: self,
                ids: idx.probe_bound(columns, key).iter(),
            },
            None => SelectInner::Scan(self.iter()),
        };
        SelectEqRef {
            inner,
            columns,
            key,
        }
    }

    /// Tuples whose values at `columns` equal `key`, as owned clones. Prefer
    /// [`Relation::select_eq_ref`] where a borrow suffices.
    pub fn select_eq(&self, columns: &[usize], key: &[Value]) -> Vec<Tuple> {
        self.select_eq_ref(columns, key).cloned().collect()
    }

    /// Bulk-insert tuples, returning how many were new.
    pub fn insert_all(
        &mut self,
        pool: &mut ValuePool,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize> {
        let mut added = 0;
        for t in tuples {
            if self.insert(pool, t)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Bulk-remove tuples, returning how many were present.
    pub fn remove_all<'a>(&mut self, tuples: impl IntoIterator<Item = &'a Tuple>) -> Result<usize> {
        let mut removed = 0;
        for t in tuples {
            if self.remove(t)? {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Mark every [`ValueId`] referenced by a live row of this relation in
    /// `live` (indexed by id). Part of the pool-compaction protocol: the
    /// owning [`crate::Database`] folds the marks of all its relations
    /// before rebuilding the pool. Also used by snapshot views to compute
    /// their live vocabulary without access to the owning pool.
    pub fn mark_live_values(&self, live: &mut [bool]) {
        for (_, row) in self.iter_rows() {
            for id in row {
                live[id.index()] = true;
            }
        }
    }

    /// Rewrite every live row through a pool-compaction remap table (old id
    /// → new id; see [`ValuePool::compact`]). Dead slots are reset to
    /// [`ValueId::NONE`] so a stale pre-compaction id can never alias a
    /// post-compaction value, and the content version is bumped so external
    /// caches stamped against this relation cannot observe pre-compaction
    /// ids.
    ///
    /// The set-semantics lookup table and every secondary [`HashIndex`] key
    /// on **content hashes**, which compaction does not change, and bucket
    /// [`TupleId`]s, which stay put — so neither needs rebuilding.
    pub(crate) fn restamp_rows(&mut self, remap: &[ValueId]) {
        // `chunks_mut` rejects a zero width; an arity-0 arena has no
        // elements to walk anyway.
        let arity = self.schema.arity().max(1);
        for ci in 0..self.rows.chunk_count() {
            let rows = self.rows.chunk_mut(ci);
            for (slot, row) in self.slab.chunk(ci).iter().zip(rows.chunks_mut(arity)) {
                if slot.tuple().is_some() {
                    for id in row {
                        let new = remap[id.index()];
                        debug_assert!(!new.is_none(), "live row references a dead pool id");
                        *id = new;
                    }
                } else {
                    row.fill(ValueId::NONE);
                }
            }
        }
        self.version += 1;
    }

    /// The tuples of this relation that do not contain labeled nulls,
    /// i.e. the certain-answer projection of the instance (paper §2.1).
    pub fn certain_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self
            .iter()
            .filter(|t| !t.has_labeled_null())
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Total payload size of all tuples in bytes (Figure 6's "DB size").
    pub fn size_bytes(&self) -> usize {
        self.iter().map(Tuple::size_bytes).sum()
    }
}

/// Borrowed iterator over a relation's tuples (live slab slots).
#[derive(Debug, Clone)]
pub struct TupleIter<'a> {
    inner: TupleIdIter<'a>,
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        self.inner.next().map(|(_, t)| t)
    }
}

/// Borrowed iterator over a relation's `(id, tuple)` pairs: walks the slab
/// chunk by chunk, skipping dead slots.
#[derive(Debug, Clone)]
pub struct TupleIdIter<'a> {
    slab: &'a ChunkVec<Slot>,
    /// Unvisited slots of the current chunk.
    chunk: std::slice::Iter<'a, Slot>,
    next_chunk: usize,
    /// Slab index of the slot `chunk` yields next.
    next_id: usize,
}

impl<'a> Iterator for TupleIdIter<'a> {
    type Item = (TupleId, &'a Tuple);

    #[inline]
    fn next(&mut self) -> Option<(TupleId, &'a Tuple)> {
        loop {
            for slot in self.chunk.by_ref() {
                let id = self.next_id;
                self.next_id += 1;
                if let Some(t) = slot.tuple() {
                    return Some((TupleId::from_index(id), t));
                }
            }
            if self.next_chunk == self.slab.chunk_count() {
                return None;
            }
            self.chunk = self.slab.chunk(self.next_chunk).iter();
            self.next_id = self.next_chunk * CHUNK_SLOTS;
            self.next_chunk += 1;
        }
    }
}

/// Borrowed iterator over a relation's `(id, interned row)` pairs.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    inner: TupleIdIter<'a>,
    rows: &'a ChunkVec<ValueId>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (TupleId, &'a [ValueId]);

    #[inline]
    fn next(&mut self) -> Option<(TupleId, &'a [ValueId])> {
        self.inner
            .next()
            .map(|(id, _)| (id, self.rows.slot(id.index())))
    }
}

/// Iterator returned by [`Relation::select_eq_ref`].
#[derive(Debug)]
pub struct SelectEqRef<'a> {
    inner: SelectInner<'a>,
    columns: &'a [usize],
    key: &'a [Value],
}

impl SelectEqRef<'_> {
    /// True when no index covered the selection, so it walks the whole
    /// relation.
    pub fn is_scan(&self) -> bool {
        matches!(self.inner, SelectInner::Scan(_))
    }
}

#[derive(Debug)]
enum SelectInner<'a> {
    Probe {
        rel: &'a Relation,
        ids: std::slice::Iter<'a, TupleId>,
    },
    Scan(TupleIter<'a>),
}

impl<'a> Iterator for SelectEqRef<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            let t = match &mut self.inner {
                SelectInner::Probe { rel, ids } => rel.tuple_by_id(*ids.next()?),
                SelectInner::Scan(it) => it.next()?,
            };
            if self
                .columns
                .iter()
                .zip(self.key.iter())
                .all(|(&c, v)| &t[c] == v)
            {
                return Some(t);
            }
        }
    }
}

/// Two relations are equal when they have the same schema and the same set
/// of tuples; ids, interned rows and secondary indexes are derived data and
/// do not participate (the relations may even belong to databases with
/// different pools).
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.sorted_tuples() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::int_tuple;
    use crate::value::SkolemFnId;

    fn rel() -> (Relation, ValuePool) {
        (
            Relation::new(RelationSchema::new("B", &["id", "nam"])),
            ValuePool::new(),
        )
    }

    #[test]
    fn insert_is_set_semantics() {
        let (mut r, mut p) = rel();
        assert!(r.insert(&mut p, int_tuple(&[3, 5])).unwrap());
        assert!(!r.insert(&mut p, int_tuple(&[3, 5])).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&int_tuple(&[3, 5])));
        // The duplicate insert interned nothing.
        assert_eq!(p.stats().misses, 2);
        assert_eq!(p.stats().hits, 0);
    }

    #[test]
    fn arity_is_enforced() {
        let (mut r, mut p) = rel();
        let err = r.insert(&mut p, int_tuple(&[1, 2, 3])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        let err = r.remove(&int_tuple(&[1])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        let row = [ValueId(0)];
        let err = r.insert_row(&p, &row, 0).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn remove_and_clear() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[1, 2])).unwrap();
        r.insert(&mut p, int_tuple(&[3, 4])).unwrap();
        assert!(r.remove(&int_tuple(&[1, 2])).unwrap());
        assert!(!r.remove(&int_tuple(&[1, 2])).unwrap());
        assert_eq!(r.len(), 1);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn ids_are_stable_and_reused_after_removal() {
        let (mut r, mut p) = rel();
        let (id1, fresh) = r.insert_full(&mut p, int_tuple(&[1, 10])).unwrap();
        assert!(fresh);
        let (id2, _) = r.insert_full(&mut p, int_tuple(&[2, 20])).unwrap();
        assert_ne!(id1, id2);
        // Duplicate insertion returns the existing id.
        let (again, fresh) = r.insert_full(&mut p, int_tuple(&[1, 10])).unwrap();
        assert_eq!(again, id1);
        assert!(!fresh);
        // id lookup and resolution agree.
        assert_eq!(r.id_of(&int_tuple(&[2, 20])), Some(id2));
        assert_eq!(r.tuple(id2), Some(&int_tuple(&[2, 20])));
        assert_eq!(r.tuple_by_id(id1), &int_tuple(&[1, 10]));
        // Removal frees the slot; the next insert reuses it.
        r.remove(&int_tuple(&[1, 10])).unwrap();
        assert_eq!(r.tuple(id1), None);
        let (id3, _) = r.insert_full(&mut p, int_tuple(&[3, 30])).unwrap();
        assert_eq!(id3, id1, "freed slot is reused");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn interned_rows_track_the_slab() {
        let (mut r, mut p) = rel();
        let (id1, _) = r.insert_full(&mut p, int_tuple(&[1, 10])).unwrap();
        let (id2, _) = r.insert_full(&mut p, int_tuple(&[2, 10])).unwrap();
        // Shared value 10 interns to the same id in both rows.
        assert_eq!(r.row(id1)[1], r.row(id2)[1]);
        assert_ne!(r.row(id1)[0], r.row(id2)[0]);
        // Rows resolve back to the stored values.
        for (tid, row) in r.iter_rows() {
            let t = r.tuple_by_id(tid);
            for (vid, v) in row.iter().zip(t.values()) {
                assert_eq!(p.value(*vid), v);
            }
        }
        // Slot reuse rewrites the row in place.
        r.remove(&int_tuple(&[1, 10])).unwrap();
        let (id3, _) = r.insert_full(&mut p, int_tuple(&[7, 70])).unwrap();
        assert_eq!(id3, id1);
        assert_eq!(p.value(r.row(id3)[0]), &Value::int(7));
    }

    #[test]
    fn insert_row_matches_insert() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[1, 10])).unwrap();
        // Build a row by interning and insert it as ids.
        let row = [p.intern(&Value::int(2)), p.intern(&Value::int(10))];
        let hash = p.row_hash(&row);
        let (id, fresh) = r.insert_row(&p, &row, hash).unwrap();
        assert!(fresh);
        assert_eq!(r.tuple_by_id(id), &int_tuple(&[2, 10]));
        assert!(r.contains(&int_tuple(&[2, 10])));
        // A duplicate id-row is detected without allocating.
        let (again, fresh) = r.insert_row(&p, &row, hash).unwrap();
        assert_eq!(again, id);
        assert!(!fresh);
        assert!(r.contains_row_hashed(hash, &row));
        assert_eq!(r.id_of_row(&p, &row), Some(id));
        // The value-keyed map sees id-inserted tuples and vice versa.
        let row1 = [p.intern(&Value::int(1)), p.intern(&Value::int(10))];
        assert!(r.contains_row_hashed(p.row_hash(&row1), &row1));
    }

    #[test]
    fn iter_ids_matches_iter() {
        let (mut r, mut p) = rel();
        for i in 0..5 {
            r.insert(&mut p, int_tuple(&[i, i * 10])).unwrap();
        }
        r.remove(&int_tuple(&[2, 20])).unwrap();
        let via_ids: Vec<&Tuple> = r.iter_ids().map(|(_, t)| t).collect();
        let direct: Vec<&Tuple> = r.iter().collect();
        assert_eq!(via_ids, direct);
        for (id, t) in r.iter_ids() {
            assert_eq!(r.tuple_by_id(id), t);
        }
        // iter_rows covers the same live set.
        assert_eq!(r.iter_rows().count(), r.len());
    }

    #[test]
    fn indexes_stay_consistent_under_mutation() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[1, 10])).unwrap();
        r.ensure_index(&[0]).unwrap();
        r.insert(&mut p, int_tuple(&[1, 20])).unwrap();
        r.insert(&mut p, int_tuple(&[2, 30])).unwrap();
        r.remove(&int_tuple(&[1, 10])).unwrap();
        let cols = [0usize];
        let one = [Value::int(1)];
        let two = [Value::int(2)];
        assert_eq!(r.select_eq_ref(&cols, &one).count(), 1);
        assert_eq!(r.select_eq_ref(&cols, &two).count(), 1);
        // The freed slot's id must have left the index: re-inserting a tuple
        // with a *different* key into the reused slot must not resurrect it.
        r.insert(&mut p, int_tuple(&[9, 90])).unwrap();
        assert_eq!(r.select_eq_ref(&cols, &one).count(), 1);
        assert_eq!(r.select_eq_ref(&cols, &[Value::int(9)]).count(), 1);
        assert_eq!(r.index(&cols).unwrap().len(), r.len());
    }

    #[test]
    fn ensure_index_rejects_bad_columns() {
        let (mut r, _) = rel();
        let err = r.ensure_index(&[5]).unwrap_err();
        assert!(matches!(err, StorageError::InvalidColumns { .. }));
    }

    #[test]
    fn select_eq_with_and_without_index() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[1, 10])).unwrap();
        r.insert(&mut p, int_tuple(&[1, 20])).unwrap();
        r.insert(&mut p, int_tuple(&[2, 30])).unwrap();
        // no index: scan
        assert_eq!(r.select_eq(&[0], &[Value::int(1)]).len(), 2);
        assert!(r.probe_ids(&[0], &[Value::int(1)]).is_none());
        // with index: probe
        r.ensure_index(&[0]).unwrap();
        assert_eq!(r.select_eq(&[0], &[Value::int(1)]).len(), 2);
        assert_eq!(r.select_eq(&[0], &[Value::int(9)]).len(), 0);
        assert!(r.probe_ids(&[0], &[Value::int(1)]).is_some());
    }

    #[test]
    fn select_eq_probes_any_index_on_a_subset_of_the_bound_columns() {
        let mut p = ValuePool::new();
        let mut r = Relation::new(RelationSchema::new("T", &["a", "b", "c"]));
        for i in 0..60 {
            r.insert(&mut p, int_tuple(&[i % 5, i % 3, i % 4])).unwrap();
        }
        let brute = |r: &Relation, cols: &[usize], key: &[Value]| {
            let mut v: Vec<Tuple> = r
                .iter()
                .filter(|t| cols.iter().zip(key).all(|(&c, v)| &t[c] == v))
                .cloned()
                .collect();
            v.sort();
            v
        };
        let cases: [(&[usize], [Value; 2]); 3] = [
            (&[0, 2], [Value::int(1), Value::int(3)]),
            (&[1, 2], [Value::int(2), Value::int(0)]),
            (&[0, 1], [Value::int(4), Value::int(9)]),
        ];
        let check = |r: &Relation, scans: [bool; 3]| {
            for ((cols, key), scan) in cases.iter().zip(scans) {
                let sel = r.select_eq_ref(cols, &key[..]);
                assert_eq!(sel.is_scan(), scan, "{cols:?}");
                let mut got: Vec<Tuple> = sel.cloned().collect();
                got.sort();
                assert_eq!(got, brute(r, cols, &key[..]), "{cols:?}");
            }
        };
        check(&r, [true, true, true]);
        // An index on column 0 serves every selection that binds column 0.
        r.ensure_index(&[0]).unwrap();
        check(&r, [false, true, false]);
        // A wider covering index and an exact one change nothing observable.
        r.ensure_index(&[0, 2]).unwrap();
        r.ensure_index(&[1, 2]).unwrap();
        check(&r, [false, false, false]);
        assert_eq!(r.index_count(), 3);
    }

    #[test]
    fn contains_values_hashed_matches_contains() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[3, 5])).unwrap();
        let has = |vals: &[Value]| r.contains_values_hashed(crate::tuple::values_hash(vals), vals);
        assert!(has(&[Value::int(3), Value::int(5)]));
        assert!(!has(&[Value::int(5), Value::int(3)]));
        assert!(!has(&[Value::int(3)]));
    }

    #[test]
    fn certain_tuples_drop_labeled_nulls() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[2, 5])).unwrap();
        r.insert(
            &mut p,
            Tuple::new(vec![
                Value::int(5),
                Value::labeled_null(SkolemFnId(0), vec![Value::int(5)]),
            ]),
        )
        .unwrap();
        let certain = r.certain_tuples();
        assert_eq!(certain, vec![int_tuple(&[2, 5])]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn bulk_operations_report_counts() {
        let (mut r, mut p) = rel();
        let n = r
            .insert_all(
                &mut p,
                vec![int_tuple(&[1, 1]), int_tuple(&[1, 1]), int_tuple(&[2, 2])],
            )
            .unwrap();
        assert_eq!(n, 2);
        let ts = [int_tuple(&[1, 1]), int_tuple(&[9, 9])];
        let n = r.remove_all(ts.iter()).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn sorted_tuples_are_deterministic() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[3, 0])).unwrap();
        r.insert(&mut p, int_tuple(&[1, 0])).unwrap();
        r.insert(&mut p, int_tuple(&[2, 0])).unwrap();
        let v = r.sorted_tuples();
        assert_eq!(v[0], int_tuple(&[1, 0]));
        assert_eq!(v[2], int_tuple(&[3, 0]));
    }

    #[test]
    fn equality_ignores_ids_indexes_and_pools() {
        let (mut a, mut pa) = rel();
        let (mut b, mut pb) = rel();
        a.insert(&mut pa, int_tuple(&[1, 1])).unwrap();
        a.insert(&mut pa, int_tuple(&[2, 2])).unwrap();
        // b gets the same tuples in a different slab layout, a different
        // pool history, plus an index.
        b.insert(&mut pb, int_tuple(&[9, 9])).unwrap();
        b.insert(&mut pb, int_tuple(&[2, 2])).unwrap();
        b.remove(&int_tuple(&[9, 9])).unwrap();
        b.insert(&mut pb, int_tuple(&[1, 1])).unwrap();
        b.ensure_index(&[0]).unwrap();
        assert_eq!(a, b);
        b.insert(&mut pb, int_tuple(&[3, 3])).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn restamp_preserves_rows_and_probes() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[1, 10])).unwrap();
        r.insert(&mut p, int_tuple(&[2, 10])).unwrap();
        r.insert(&mut p, int_tuple(&[3, 30])).unwrap();
        r.ensure_index(&[1]).unwrap();
        // Delete one tuple, leaving its values (3, 30) dead in the pool,
        // and leave a dead slab slot behind.
        r.remove(&int_tuple(&[3, 30])).unwrap();
        let version_before = r.version();

        let mut live = vec![false; p.len()];
        r.mark_live_values(&mut live);
        assert_eq!(live.iter().filter(|&&l| l).count(), 3, "1, 2, 10 live");
        let remap = p.compact(&live);
        r.restamp_rows(&remap);

        assert!(r.version() > version_before);
        // Rows resolve to the same values through the compacted pool.
        for (tid, row) in r.iter_rows() {
            let t = r.tuple_by_id(tid);
            for (vid, v) in row.iter().zip(t.values()) {
                assert_eq!(p.value(*vid), v);
            }
        }
        // Value- and id-keyed membership still agree.
        assert!(r.contains(&int_tuple(&[1, 10])));
        let row = [p.intern(&Value::int(2)), p.intern(&Value::int(10))];
        assert!(r.contains_row_hashed(p.row_hash(&row), &row));
        // Index probes (content-hashed) still answer.
        assert_eq!(r.select_eq_ref(&[1], &[Value::int(10)]).count(), 2);
        // New inserts intern into the compacted pool and dedup correctly.
        assert!(!r.insert(&mut p, int_tuple(&[1, 10])).unwrap());
        assert!(r.insert(&mut p, int_tuple(&[3, 30])).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn clones_survive_slot_reuse_inside_shared_chunks() {
        let (mut r, mut p) = rel();
        let n = 3 * CHUNK_SLOTS as i64 + 10;
        for i in 0..n {
            r.insert(&mut p, int_tuple(&[i, i % 5])).unwrap();
        }
        r.ensure_index(&[1]).unwrap();
        // A long free list: every fourth tuple of the first two chunks.
        let freed: Vec<i64> = (0..2 * CHUNK_SLOTS as i64).step_by(4).collect();
        for &i in &freed {
            r.remove(&int_tuple(&[i, i % 5])).unwrap();
        }

        // The clone copies no chunk, whatever the free list's length …
        let before = r.cow_chunk_copies();
        let snap = r.clone();
        let (shared, total) = r.chunks_shared_with(&snap);
        assert_eq!(shared, total);
        assert_eq!(r.cow_chunk_copies(), before);

        // … and reusing a freed slot inside a chunk the clone holds copies
        // that slab chunk, its row chunk and one segment per table only.
        let victim = int_tuple(&[1, 1]);
        let victim_id = r.id_of(&victim).unwrap();
        let reused_id = TupleId::from_index(*freed.last().unwrap() as usize);
        let (id, fresh) = r.insert_full(&mut p, int_tuple(&[-1, 3])).unwrap();
        assert!(fresh);
        assert_eq!(id, reused_id, "the most recently freed slot is reused");
        r.remove(&victim).unwrap();
        assert!(r.cow_chunk_copies() - before <= 2 * (1 + 1 + 1 + 1));

        assert_eq!(
            snap.tuple(reused_id),
            None,
            "the slot was free at clone time"
        );
        assert_eq!(snap.tuple(victim_id), Some(&victim));
        assert!(snap.contains(&victim) && !r.contains(&victim));
        assert!(!snap.contains(&int_tuple(&[-1, 3])));
        assert_eq!(snap.len(), n as usize - freed.len());
        assert_eq!(r.len(), snap.len());
        assert_eq!(
            snap.select_eq_ref(&[1], &[Value::int(1)]).count(),
            r.select_eq_ref(&[1], &[Value::int(1)]).count() + 1
        );
        // The clone's own free list still works, independently.
        let mut snap = snap;
        let (id, _) = snap.insert_full(&mut p, int_tuple(&[-2, 0])).unwrap();
        assert_eq!(id, reused_id);
        assert_eq!(r.tuple(reused_id), Some(&int_tuple(&[-1, 3])));
    }

    #[test]
    fn size_bytes_sums_tuples() {
        let (mut r, mut p) = rel();
        r.insert(&mut p, int_tuple(&[1, 2])).unwrap();
        r.insert(&mut p, int_tuple(&[3, 4])).unwrap();
        assert_eq!(r.size_bytes(), 32);
    }
}

//! ID-addressed hash indexes over column subsets of a relation.
//!
//! The join engine (Tukwila-style, paper §5.2) relies on being able to
//! probe a relation by a bound subset of its columns while joining rule
//! bodies; [`HashIndex`] serves that, both as persistent indexes maintained
//! on the relation and as throwaway indexes over large delta sets.
//!
//! The index is deliberately **zero-copy**: it never stores tuples or even
//! projected key values. Each entry maps the *bucket hash* of a tuple's
//! projection onto the indexed columns to a small inline vector of
//! [`TupleId`]s addressing the owning relation's tuple slab.
//!
//! The bucket hash uses the storage layer's **shared hashing scheme**
//! ([`combine_hashes`](crate::pool::combine_hashes) over per-column
//! [`value_hash`](crate::pool::value_hash)es), so the same bucket is
//! reachable from three kinds of keys without translation:
//!
//! * a `&[Value]` probe key (hash each value) — ad-hoc selections;
//! * a `&[ValueId]` probe key plus the owning [`ValuePool`] (read each
//!   cached hash) — the interned join pipeline's fast path;
//! * a precombined `u64` via [`HashIndex::probe_hash`] when the caller
//!   already folded the key.
//!
//! A probe returns candidate ids whose projection *hash* matches; because
//! distinct keys can collide on the hash, **callers must re-verify the
//! bound columns against each candidate tuple** (the join pipeline does
//! this anyway, so verification is free).

use crate::cow::IdTable;
use crate::pool::{combine_hashes, value_hash, ValueId, ValuePool};
use crate::tuple::Tuple;
use crate::value::Value;

/// A stable identifier of a tuple inside one [`crate::Relation`]'s slab.
///
/// Ids are relation-local: they are assigned on insertion, stay valid until
/// the tuple is removed, and may be reused afterwards. They are `u32` so id
/// buckets pack four ids into the space of a single `Tuple` handle.
///
/// `#[repr(transparent)]`: a `&[u32]` of raw ids and a `&[TupleId]` have
/// identical layout, which [`IdVec`] relies on to share its storage with
/// the untyped [`IdVec32`].
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

impl TupleId {
    /// Build an id from a slab/slice offset.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        TupleId(u32::try_from(i).expect("relation slab exceeds u32 addressing"))
    }

    /// The slab/slice offset this id addresses.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How many ids an [`IdVec`] stores inline before spilling to the heap.
const IDVEC_INLINE: usize = 4;

/// A small-vector of raw `u32` ids: up to [`IDVEC_INLINE`] inline, then a
/// heap `Vec`. Bucket keys are usually close to unique, so the inline form
/// covers almost every bucket without a per-bucket heap allocation. Used
/// for [`TupleId`] buckets (via [`IdVec`]) and [`crate::pool::ValuePool`]
/// hash buckets alike.
#[derive(Debug, Clone)]
pub enum IdVec32 {
    /// Up to `IDVEC_INLINE` ids stored inline.
    Inline {
        /// Number of occupied slots.
        len: u8,
        /// Id storage; slots at `len..` are meaningless.
        ids: [u32; IDVEC_INLINE],
    },
    /// Spilled to the heap.
    Heap(Vec<u32>),
}

impl Default for IdVec32 {
    fn default() -> Self {
        IdVec32::Inline {
            len: 0,
            ids: [0; IDVEC_INLINE],
        }
    }
}

impl IdVec32 {
    /// Number of stored ids.
    pub fn len(&self) -> usize {
        match self {
            IdVec32::Inline { len, .. } => *len as usize,
            IdVec32::Heap(v) => v.len(),
        }
    }

    /// True when no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored ids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            IdVec32::Inline { len, ids } => &ids[..*len as usize],
            IdVec32::Heap(v) => v,
        }
    }

    /// Append an id, spilling to the heap when the inline capacity is full.
    pub fn push(&mut self, id: u32) {
        match self {
            IdVec32::Inline { len, ids } => {
                if (*len as usize) < IDVEC_INLINE {
                    ids[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(IDVEC_INLINE * 2);
                    v.extend_from_slice(&ids[..]);
                    v.push(id);
                    *self = IdVec32::Heap(v);
                }
            }
            IdVec32::Heap(v) => v.push(id),
        }
    }

    /// Remove one occurrence of `id` (order is not preserved). Returns true
    /// if it was present.
    pub fn swap_remove_id(&mut self, id: u32) -> bool {
        match self {
            IdVec32::Inline { len, ids } => {
                let n = *len as usize;
                if let Some(pos) = ids[..n].iter().position(|&x| x == id) {
                    ids[pos] = ids[n - 1];
                    *len -= 1;
                    true
                } else {
                    false
                }
            }
            IdVec32::Heap(v) => {
                if let Some(pos) = v.iter().position(|&x| x == id) {
                    v.swap_remove(pos);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// A small-vector of [`TupleId`]s (see [`IdVec32`]).
#[derive(Debug, Clone, Default)]
pub struct IdVec(IdVec32);

impl IdVec {
    /// Number of stored ids.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The stored ids as a slice.
    pub fn as_slice(&self) -> &[TupleId] {
        let raw = self.0.as_slice();
        // SAFETY: TupleId is #[repr(transparent)] over u32, so the slice
        // layouts are identical.
        unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<TupleId>(), raw.len()) }
    }

    /// Append an id, spilling to the heap when the inline capacity is full.
    pub fn push(&mut self, id: TupleId) {
        self.0.push(id.0);
    }

    /// Remove one occurrence of `id` (order is not preserved). Returns true
    /// if it was present.
    pub fn swap_remove_id(&mut self, id: TupleId) -> bool {
        self.0.swap_remove_id(id.0)
    }
}

/// A hash index mapping the bucket hash of a tuple's projection onto a
/// fixed set of column positions to the ids of tuples with that projection
/// hash. See the module docs for the hashing scheme and collision contract.
///
/// The buckets live in the same segmented copy-on-write table as a
/// relation's set-semantics lookup, so `Clone` is a pointer copy and an
/// index travels with every snapshot of its relation.
#[derive(Debug, Clone)]
pub struct HashIndex {
    columns: Vec<usize>,
    map: IdTable,
    len: usize,
}

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex::new(Vec::new())
    }
}

impl HashIndex {
    /// Create an empty index over the given column positions.
    pub fn new(columns: Vec<usize>) -> Self {
        HashIndex::with_capacity(columns, 0)
    }

    /// Create an empty index with bucket capacity reserved for roughly
    /// `capacity` entries — throwaway indexes over large delta sets know
    /// their size up front and skip the rehash-doubling cascade this way.
    pub fn with_capacity(columns: Vec<usize>, capacity: usize) -> Self {
        HashIndex {
            columns,
            map: IdTable::with_capacity(capacity),
            len: 0,
        }
    }

    /// Build an index over the given columns from `(id, tuple)` pairs.
    pub fn build_from<'a>(
        columns: Vec<usize>,
        entries: impl IntoIterator<Item = (TupleId, &'a Tuple)>,
    ) -> Self {
        let entries = entries.into_iter();
        let mut idx = HashIndex::with_capacity(columns, entries.size_hint().0);
        for (id, t) in entries {
            idx.insert(id, t);
        }
        idx
    }

    /// Build an index over the given columns from `(id, row)` pairs of
    /// interned rows, reading cached hashes from the pool. `capacity` is
    /// the (approximate) number of entries, reserved up front.
    pub fn build_from_rows<'a>(
        columns: Vec<usize>,
        capacity: usize,
        entries: impl IntoIterator<Item = (TupleId, &'a [ValueId])>,
        pool: &ValuePool,
    ) -> Self {
        let mut idx = HashIndex::with_capacity(columns, capacity);
        for (id, row) in entries {
            idx.insert_row(id, row, pool);
        }
        idx
    }

    /// The column positions this index is keyed on.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of indexed ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no ids are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct hash buckets (equals the number of distinct keys
    /// up to hash collisions).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// The bucket hash of a tuple's projection onto the indexed columns,
    /// computed in place (no key is materialised).
    #[inline]
    pub fn hash_of(&self, tuple: &Tuple) -> u64 {
        combine_hashes(self.columns.iter().map(|&c| value_hash(&tuple[c])))
    }

    /// The bucket hash of an interned row's projection, read from the
    /// pool's cached per-value hashes — an array walk, no enum dispatch.
    #[inline]
    pub fn hash_of_row(&self, row: &[ValueId], pool: &ValuePool) -> u64 {
        combine_hashes(self.columns.iter().map(|&c| pool.hash_of(row[c])))
    }

    /// Insert a tuple's id into the index, hashing the projected values.
    pub fn insert(&mut self, id: TupleId, tuple: &Tuple) {
        self.map.push(self.hash_of(tuple), id);
        self.len += 1;
    }

    /// Insert an interned row's id into the index via cached hashes.
    pub fn insert_row(&mut self, id: TupleId, row: &[ValueId], pool: &ValuePool) {
        self.map.push(self.hash_of_row(row, pool), id);
        self.len += 1;
    }

    /// Remove a tuple's id from the index. Returns true if the id was
    /// present; `len` only shrinks when it actually was (so a double-remove
    /// cannot underflow the bookkeeping).
    pub fn remove(&mut self, id: TupleId, tuple: &Tuple) -> bool {
        let removed = self.map.remove(self.hash_of(tuple), id);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Ids bucketed under a precombined key hash. The fast path for callers
    /// that fold probe keys themselves (the interned join pipeline).
    #[inline]
    pub fn probe_hash(&self, hash: u64) -> &[TupleId] {
        self.map.get(hash)
    }

    /// Ids of tuples whose projection onto the indexed columns *hashes* like
    /// `key`. Callers must verify the bound columns against each candidate —
    /// distinct keys can share a bucket.
    pub fn probe_ids(&self, key: &[Value]) -> &[TupleId] {
        self.probe_hash(combine_hashes(key.iter().map(value_hash)))
    }

    /// Like [`HashIndex::probe_ids`] but for an interned key, reading
    /// cached hashes from the pool.
    pub fn probe_row(&self, key: &[ValueId], pool: &ValuePool) -> &[TupleId] {
        self.probe_hash(combine_hashes(key.iter().map(|&id| pool.hash_of(id))))
    }

    /// Drop all entries, keeping the column specification.
    pub fn clear(&mut self) {
        self.map.clear();
        self.len = 0;
    }

    /// Table segments copied on write so far (see
    /// [`crate::Relation::cow_chunk_copies`]).
    pub(crate) fn cow_copies(&self) -> u64 {
        self.map.copies()
    }

    /// `(shared, total)` segments against another index's table, if there
    /// is one (see [`crate::Relation::chunks_shared_with`]).
    pub(crate) fn segments_shared_with(&self, other: Option<&HashIndex>) -> (usize, usize) {
        match other {
            Some(other) => self.map.segments_shared_with(&other.map),
            None => (0, self.map.segment_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::int_tuple;

    fn ids(tuples: &[Tuple]) -> impl Iterator<Item = (TupleId, &Tuple)> {
        tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (TupleId::from_index(i), t))
    }

    /// Probe and verify, as real callers must.
    fn probe_verified<'a>(idx: &HashIndex, tuples: &'a [Tuple], key: &[Value]) -> Vec<&'a Tuple> {
        idx.probe_ids(key)
            .iter()
            .map(|id| &tuples[id.index()])
            .filter(|t| idx.columns().iter().zip(key).all(|(&c, v)| &t[c] == v))
            .collect()
    }

    #[test]
    fn build_and_probe() {
        let tuples = [
            int_tuple(&[1, 10]),
            int_tuple(&[1, 20]),
            int_tuple(&[2, 30]),
        ];
        let idx = HashIndex::build_from(vec![0], ids(&tuples));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(probe_verified(&idx, &tuples, &[Value::int(1)]).len(), 2);
        assert_eq!(probe_verified(&idx, &tuples, &[Value::int(2)]).len(), 1);
        assert_eq!(probe_verified(&idx, &tuples, &[Value::int(3)]).len(), 0);
        assert_eq!(idx.columns(), &[0]);
    }

    #[test]
    fn multi_column_keys() {
        let tuples = [int_tuple(&[1, 10, 5]), int_tuple(&[1, 20, 5])];
        let idx = HashIndex::build_from(vec![0, 2], ids(&tuples));
        let k = [Value::int(1), Value::int(5)];
        assert_eq!(probe_verified(&idx, &tuples, &k).len(), 2);
        let k = [Value::int(1), Value::int(10)];
        assert_eq!(probe_verified(&idx, &tuples, &k).len(), 0);
    }

    #[test]
    fn id_keyed_and_value_keyed_paths_share_buckets() {
        // The same index, maintained from interned rows, must answer value
        // probes — and vice versa.
        let mut pool = ValuePool::new();
        let tuples = [int_tuple(&[7, 1]), int_tuple(&[7, 2]), int_tuple(&[8, 3])];
        let rows: Vec<Vec<ValueId>> = tuples
            .iter()
            .map(|t| t.values().iter().map(|v| pool.intern(v)).collect())
            .collect();
        let idx = HashIndex::build_from_rows(
            vec![0],
            rows.len(),
            rows.iter()
                .enumerate()
                .map(|(i, r)| (TupleId::from_index(i), r.as_slice())),
            &pool,
        );
        // Value probe hits the id-maintained buckets.
        assert_eq!(idx.probe_ids(&[Value::int(7)]).len(), 2);
        // Id probe agrees.
        let key = [pool.intern(&Value::int(7))];
        assert_eq!(idx.probe_row(&key, &pool), idx.probe_ids(&[Value::int(7)]));
        // Hashes agree between the two maintenance paths.
        assert_eq!(idx.hash_of(&tuples[0]), idx.hash_of_row(&rows[0], &pool));
    }

    #[test]
    fn insert_and_remove_keep_len_consistent() {
        let t1 = int_tuple(&[7, 1]);
        let t2 = int_tuple(&[7, 2]);
        let mut idx = HashIndex::new(vec![0]);
        idx.insert(TupleId(0), &t1);
        idx.insert(TupleId(1), &t2);
        assert_eq!(idx.len(), 2);
        assert!(idx.remove(TupleId(0), &t1));
        // Double-remove of the same id must not disturb the bookkeeping.
        assert!(!idx.remove(TupleId(0), &t1));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.probe_ids(&[Value::int(7)]), &[TupleId(1)]);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.distinct_keys(), 0);
    }

    #[test]
    fn remove_with_wrong_tuple_for_id_is_a_noop() {
        // The id is present but under a different key's bucket: the remove
        // must not find it (and must not corrupt `len`).
        let t1 = int_tuple(&[7, 1]);
        let other = int_tuple(&[9, 9]);
        let mut idx = HashIndex::new(vec![0]);
        idx.insert(TupleId(0), &t1);
        assert!(!idx.remove(TupleId(0), &other));
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(TupleId(0), &t1));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn rebuild_matches_incremental_maintenance() {
        let tuples: Vec<Tuple> = (0..50).map(|i| int_tuple(&[i % 7, i])).collect();
        let built = HashIndex::build_from(vec![0], ids(&tuples));
        let mut maintained = HashIndex::new(vec![0]);
        for (id, t) in ids(&tuples) {
            maintained.insert(id, t);
        }
        assert_eq!(built.len(), maintained.len());
        for k in 0..7 {
            let key = [Value::int(k)];
            let va = probe_verified(&built, &tuples, &key).len();
            let vb = probe_verified(&maintained, &tuples, &key).len();
            assert_eq!(va, vb);
            assert!(va > 0);
        }
    }

    #[test]
    fn len_is_sum_of_bucket_lens_under_churn() {
        let tuples: Vec<Tuple> = (0..40).map(|i| int_tuple(&[i % 5, i])).collect();
        let mut idx = HashIndex::new(vec![0]);
        for (id, t) in ids(&tuples) {
            idx.insert(id, t);
        }
        // Remove every third tuple, then re-add half of those.
        for (i, t) in tuples.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
            assert!(idx.remove(TupleId::from_index(i), t));
        }
        for (i, t) in tuples.iter().enumerate().filter(|(i, _)| i % 6 == 0) {
            idx.insert(TupleId::from_index(i), t);
        }
        let bucket_sum: usize = (0..5)
            .map(|k| probe_verified(&idx, &tuples, &[Value::int(k)]).len())
            .sum();
        assert_eq!(idx.len(), bucket_sum);
    }

    #[test]
    fn idvec_inline_to_heap_transition() {
        let mut v = IdVec::default();
        assert!(v.is_empty());
        for i in 0..10u32 {
            v.push(TupleId(i));
            assert_eq!(v.len(), i as usize + 1);
        }
        assert!(matches!(v, IdVec(IdVec32::Heap(_))));
        assert_eq!(v.as_slice().len(), 10);
        assert!(v.swap_remove_id(TupleId(3)));
        assert!(!v.swap_remove_id(TupleId(3)));
        assert_eq!(v.len(), 9);

        // Inline removal shuffles but keeps the set.
        let mut v = IdVec::default();
        for i in 0..4u32 {
            v.push(TupleId(i));
        }
        assert!(v.swap_remove_id(TupleId(0)));
        let mut s: Vec<u32> = v.as_slice().iter().map(|t| t.0).collect();
        s.sort_unstable();
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn empty_key_indexes_everything_together() {
        // A zero-column index is a degenerate "scan bucket"; it must still work
        // because rules with no bound columns fall back to it.
        let tuples = [int_tuple(&[1]), int_tuple(&[2])];
        let idx = HashIndex::build_from(vec![], ids(&tuples));
        assert_eq!(idx.probe_ids(&[]).len(), 2);
    }
}

//! The two copy-on-write containers every [`crate::Relation`] and
//! [`crate::HashIndex`] is built from.
//!
//! Both split their contents into fixed-size pieces held by `Arc`, under a
//! *spine* (one pointer per piece) that is itself behind an `Arc`. `Clone`
//! copies one pointer; the first write after a clone copies the spine and
//! the piece it writes, later writes only the pieces they are first to
//! touch ([`Arc::make_mut`] throughout). Consecutive snapshots of a
//! relation therefore share every piece the writer did not touch in
//! between, and dropping a snapshot frees only the pieces it alone held.
//!
//! * [`ChunkVec`] — an append-mostly vector of fixed-width slots, chunked by
//!   slot index. Backs the tuple slab (width 1) and the interned-row arena
//!   (width = arity).
//! * [`IdTable`] — a `u64 → IdVec` hash table, segmented by a slice of the
//!   key hash, whose segment count doubles as it fills. Backs the
//!   set-semantics lookup table and every secondary index.
//!
//! Piece sizes are constants: a piece is the unit of copying, so larger
//! pieces make the first write after a snapshot dearer, while smaller ones
//! lengthen the spine (copied by the first write after a snapshot, released
//! when the snapshot is dropped). The values below were measured against
//! `cdss_bench`'s `insert_stream` (small deltas: favours small pieces) and
//! the `publish_scaling` rows of `BENCH_joins.json` (favour large ones).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::fxhash::IdBuildHasher;
use crate::index::{IdVec, TupleId};

/// log2 of the slots per [`ChunkVec`] chunk.
const CHUNK_SHIFT: u32 = 7;
/// Slots per [`ChunkVec`] chunk.
pub(crate) const CHUNK_SLOTS: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_SLOTS - 1;

/// Mutable access to an `Arc`'d piece (`&mut Arc<[T]>` or
/// `&mut Arc<Segment>`), copying it first if a clone still shares it and
/// counting the copy in `$copies`. A macro because `Arc::make_mut`'s bound
/// for unsized pieces cannot be named in a generic function.
macro_rules! unshare {
    ($piece:expr, $copies:expr) => {{
        let piece = $piece;
        let before = Arc::as_ptr(piece);
        let unique = Arc::make_mut(piece);
        if !std::ptr::addr_eq(before, unique as *const _) {
            $copies += 1;
        }
        unique
    }};
}

/// A chunked copy-on-write vector of fixed-width slots.
///
/// Slot `i` lives in chunk `i >> CHUNK_SHIFT`; a slot's `width` elements
/// are contiguous inside its chunk, so a slot read is one shift/mask plus a
/// slice. Full chunks are frozen behind an `Arc` and shared between clones;
/// the chunk being filled is a plain `Vec` (`tail`) that each clone copies,
/// so appending — the bulk-load and fixpoint path — neither copies a shared
/// chunk nor checks a reference count.
#[derive(Debug, Clone)]
pub(crate) struct ChunkVec<T> {
    /// Full chunks, `CHUNK_SLOTS * width` elements each. The spine is
    /// shared too: it changes only when a chunk fills up or a full chunk is
    /// written, so a clone of an append-only vector bumps one count.
    chunks: Arc<Vec<Arc<[T]>>>,
    /// The slots after the last full chunk.
    tail: Vec<T>,
    /// Elements per slot.
    width: usize,
    /// Slots in use.
    len: usize,
    /// Chunks copied because a clone shared them (cumulative).
    copies: u64,
}

impl<T: Clone> ChunkVec<T> {
    /// An empty vector of `width`-element slots.
    pub(crate) fn new(width: usize) -> Self {
        ChunkVec {
            chunks: Arc::default(),
            tail: Vec::new(),
            width,
            len: 0,
            copies: 0,
        }
    }

    /// Slots in use.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Chunks copied on write so far.
    pub(crate) fn copies(&self) -> u64 {
        self.copies
    }

    /// The elements of slot `i`.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> &[T] {
        let start = (i & CHUNK_MASK) * self.width;
        &self.chunk(i >> CHUNK_SHIFT)[start..start + self.width]
    }

    /// Mutable elements of slot `i`, unsharing its chunk first.
    #[inline]
    pub(crate) fn slot_mut(&mut self, i: usize) -> &mut [T] {
        let start = (i & CHUNK_MASK) * self.width;
        let width = self.width;
        &mut self.chunk_mut(i >> CHUNK_SHIFT)[start..start + width]
    }

    /// Append a slot holding `elements` (exactly `width` of them).
    pub(crate) fn push_slot(&mut self, elements: impl IntoIterator<Item = T>) {
        self.tail.extend(elements);
        self.len += 1;
        debug_assert_eq!(
            self.tail.len(),
            (self.len - self.chunks.len() * CHUNK_SLOTS) * self.width
        );
        if self.len & CHUNK_MASK == 0 {
            // Freeze the full tail; its buffer stays for the next chunk.
            Arc::make_mut(&mut self.chunks).push(self.tail.drain(..).collect());
        }
    }

    /// Drop every slot.
    pub(crate) fn clear(&mut self) {
        self.chunks = Arc::default();
        self.tail.clear();
        self.len = 0;
    }

    /// Number of chunks, the partly filled last one included.
    pub(crate) fn chunk_count(&self) -> usize {
        self.len.div_ceil(CHUNK_SLOTS)
    }

    /// The elements of chunk `ci`: `CHUNK_SLOTS * width` of them, fewer for
    /// a partly filled last chunk.
    #[inline]
    pub(crate) fn chunk(&self, ci: usize) -> &[T] {
        match self.chunks.get(ci) {
            Some(full) => full,
            None => &self.tail,
        }
    }

    /// Like [`ChunkVec::chunk`], mutably, unsharing the chunk first.
    #[inline]
    pub(crate) fn chunk_mut(&mut self, ci: usize) -> &mut [T] {
        if ci < self.chunks.len() {
            unshare!(&mut Arc::make_mut(&mut self.chunks)[ci], self.copies)
        } else {
            &mut self.tail
        }
    }

    /// `(shared, total)`: how many of this vector's full chunks are the
    /// same allocation as the chunk at the same position in `other`, out of
    /// how many full chunks it has.
    pub(crate) fn chunks_shared_with(&self, other: &Self) -> (usize, usize) {
        let shared = self.chunks.iter().zip(other.chunks.iter());
        (
            shared.filter(|(a, b)| Arc::ptr_eq(a, b)).count(),
            self.chunks.len(),
        )
    }
}

/// One [`IdTable`] segment.
type Segment = HashMap<u64, IdVec, IdBuildHasher>;

/// Average keys per segment above which the segment count doubles. Also
/// what a segment of a multi-segment table is pre-sized for, so that between
/// doublings (average fill `SEGMENT_KEYS / 2` to `SEGMENT_KEYS`) a segment
/// rehashes only if it runs well ahead of the average.
const SEGMENT_KEYS: usize = 100;

/// A segmented copy-on-write map from a precomputed `u64` content hash to
/// the ids bucketed under it.
///
/// The segment is chosen by bits 32.. of the key; inside a segment the
/// hash map places a key by the low bits of the re-mixed key, which those
/// bits do not reach, so a segment's keys spread over its buckets. The
/// segment count is a power of two and only grows.
#[derive(Debug, Clone)]
pub(crate) struct IdTable {
    /// The spine is shared like the segments, and copied by the first write
    /// after a clone.
    segments: Arc<Vec<Arc<Segment>>>,
    /// Distinct keys stored.
    keys: usize,
    /// Segments copied because a clone shared them (cumulative).
    copies: u64,
}

impl Default for IdTable {
    fn default() -> Self {
        IdTable::with_capacity(0)
    }
}

impl IdTable {
    /// A table with enough segments, each pre-sized, to take `keys` keys
    /// without growing.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        let count = keys.div_ceil(SEGMENT_KEYS).max(1).next_power_of_two();
        IdTable {
            segments: Arc::new(
                (0..count)
                    .map(|_| Arc::new(Self::empty_segment(count, keys)))
                    .collect(),
            ),
            keys: 0,
            copies: 0,
        }
    }

    /// An empty segment for a table of `count` segments: pre-sized, except
    /// that a table's only segment starts at `lone_keys` and grows with its
    /// contents (most tables stay small).
    fn empty_segment(count: usize, lone_keys: usize) -> Segment {
        let keys = if count == 1 { lone_keys } else { SEGMENT_KEYS };
        Segment::with_capacity_and_hasher(keys, IdBuildHasher::default())
    }

    #[inline]
    fn segment_of(&self, key: u64) -> usize {
        (key >> 32) as usize & (self.segments.len() - 1)
    }

    /// Distinct keys stored.
    pub(crate) fn len(&self) -> usize {
        self.keys
    }

    /// Segments copied on write so far.
    pub(crate) fn copies(&self) -> u64 {
        self.copies
    }

    /// The ids bucketed under `key`; empty when there are none.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> &[TupleId] {
        self.segments[self.segment_of(key)]
            .get(&key)
            .map_or(&[], IdVec::as_slice)
    }

    /// Add `id` to the bucket of `key`.
    pub(crate) fn push(&mut self, key: u64, id: TupleId) {
        let i = self.segment_of(key);
        match unshare!(&mut Arc::make_mut(&mut self.segments)[i], self.copies).entry(key) {
            Entry::Occupied(bucket) => bucket.into_mut().push(id),
            Entry::Vacant(slot) => {
                slot.insert(IdVec::default()).push(id);
                self.keys += 1;
                if self.keys > self.segments.len() * SEGMENT_KEYS {
                    self.double();
                }
            }
        }
    }

    /// Remove `id` from the bucket of `key`. Returns whether it was there;
    /// a miss writes (and so copies) nothing.
    pub(crate) fn remove(&mut self, key: u64, id: TupleId) -> bool {
        if !self.get(key).contains(&id) {
            return false;
        }
        let i = self.segment_of(key);
        let segment = unshare!(&mut Arc::make_mut(&mut self.segments)[i], self.copies);
        let Entry::Occupied(mut bucket) = segment.entry(key) else {
            unreachable!("bucket found above");
        };
        bucket.get_mut().swap_remove_id(id);
        if bucket.get().is_empty() {
            bucket.remove();
            self.keys -= 1;
        }
        true
    }

    /// Drop every key. The segment count stays, so refilling a cleared
    /// table to its old size (a recomputation) does not double its way up
    /// again; segments a clone still holds are left to it and replaced.
    pub(crate) fn clear(&mut self) {
        let count = self.segments.len();
        for segment in Arc::make_mut(&mut self.segments) {
            match Arc::get_mut(segment) {
                Some(unique) => unique.clear(),
                None => *segment = Arc::new(Self::empty_segment(count, 0)),
            }
        }
        self.keys = 0;
    }

    /// Double the segment count: segment `i` splits into `i` and
    /// `i + old_count` on the next key bit. O(keys), amortised over the
    /// insertions that filled the table.
    fn double(&mut self) {
        let old_count = self.segments.len();
        let mut low = Vec::with_capacity(old_count * 2);
        let mut high = Vec::with_capacity(old_count);
        for segment in Arc::unwrap_or_clone(std::mem::take(&mut self.segments)) {
            let mut stay = Self::empty_segment(old_count * 2, 0);
            let mut moved = Self::empty_segment(old_count * 2, 0);
            let mut place = |key: u64, bucket: IdVec| {
                if (key >> 32) as usize & old_count == 0 {
                    stay.insert(key, bucket);
                } else {
                    moved.insert(key, bucket);
                }
            };
            match Arc::try_unwrap(segment) {
                Ok(unique) => unique.into_iter().for_each(|(key, b)| place(key, b)),
                Err(shared) => {
                    self.copies += 1;
                    shared.iter().for_each(|(&key, b)| place(key, b.clone()));
                }
            }
            low.push(Arc::new(stay));
            high.push(Arc::new(moved));
        }
        low.append(&mut high);
        self.segments = Arc::new(low);
    }

    /// `(shared, total)`: how many of this table's segments are the same
    /// allocation as the segment at the same position in `other`, out of
    /// how many segments it has.
    pub(crate) fn segments_shared_with(&self, other: &Self) -> (usize, usize) {
        let shared = self.segments.iter().zip(other.segments.iter());
        (
            shared.filter(|(a, b)| Arc::ptr_eq(a, b)).count(),
            self.segment_count(),
        )
    }

    /// Number of segments.
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunkvec_push_read_write_across_chunks() {
        let mut v = ChunkVec::new(2);
        for i in 0..(3 * CHUNK_SLOTS as u32 + 5) {
            v.push_slot([i, i + 1]);
        }
        assert_eq!(v.len(), 3 * CHUNK_SLOTS + 5);
        assert_eq!(v.chunk_count(), 4);
        assert_eq!(v.chunk(3).len(), 5 * 2, "the last chunk is partly filled");
        assert_eq!(
            v.slot(CHUNK_SLOTS + 3),
            &[CHUNK_SLOTS as u32 + 3, CHUNK_SLOTS as u32 + 4]
        );
        v.slot_mut(7)[1] = 99;
        v.slot_mut(3 * CHUNK_SLOTS + 1)[0] = 98;
        assert_eq!(v.slot(7), &[7, 99]);
        assert_eq!(v.slot(3 * CHUNK_SLOTS + 1)[0], 98);
        assert_eq!(v.copies(), 0, "nothing was shared");
        v.clear();
        assert_eq!((v.len(), v.chunk_count()), (0, 0));
    }

    #[test]
    fn chunkvec_clone_shares_full_chunks_until_written() {
        let mut v = ChunkVec::new(1);
        for i in 0..(4 * CHUNK_SLOTS as u32 + 3) {
            v.push_slot([i]);
        }
        let snap = v.clone();
        assert_eq!(v.chunks_shared_with(&snap), (4, 4));
        v.slot_mut(CHUNK_SLOTS + 1)[0] = 7;
        v.slot_mut(CHUNK_SLOTS + 2)[0] = 8;
        assert_eq!(v.copies(), 1, "one chunk copied once");
        assert_eq!(v.chunks_shared_with(&snap), (3, 4));
        assert_eq!(snap.slot(CHUNK_SLOTS + 1), &[CHUNK_SLOTS as u32 + 1]);
        assert_eq!(v.slot(CHUNK_SLOTS + 1), &[7]);
        // The partly filled last chunk belongs to each clone: writing and
        // appending there copies nothing and does not show in the other.
        v.slot_mut(4 * CHUNK_SLOTS)[0] = 9;
        v.push_slot([1]);
        assert_eq!(v.copies(), 1);
        assert_eq!(snap.len(), 4 * CHUNK_SLOTS + 3);
        assert_eq!(snap.slot(4 * CHUNK_SLOTS), &[4 * CHUNK_SLOTS as u32]);
        // Dropping the snapshot makes every chunk unique again.
        drop(snap);
        v.slot_mut(0)[0] = 1;
        assert_eq!(v.copies(), 1);
    }

    #[test]
    fn zero_width_slots_are_empty_slices() {
        let mut v = ChunkVec::<u32>::new(0);
        for _ in 0..CHUNK_SLOTS + 2 {
            v.push_slot([]);
        }
        assert_eq!(v.len(), CHUNK_SLOTS + 2);
        assert_eq!(v.chunk_count(), 2);
        assert!(v.slot(CHUNK_SLOTS + 1).is_empty());
    }

    /// Keys that differ in the segment-selecting bits and in the low bits.
    fn key(i: u64) -> u64 {
        i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn idtable_grows_by_doubling_and_keeps_every_bucket() {
        let mut t = IdTable::default();
        let n = SEGMENT_KEYS as u64 * 9;
        for i in 0..n {
            t.push(key(i), TupleId(i as u32));
            t.push(key(i), TupleId(i as u32 + 1_000_000));
        }
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.segment_count(), 16);
        for i in 0..n {
            assert_eq!(
                t.get(key(i)),
                &[TupleId(i as u32), TupleId(i as u32 + 1_000_000)]
            );
        }
        assert!(t.get(key(n + 1)).is_empty());
        assert!(t.remove(key(3), TupleId(3)));
        assert!(!t.remove(key(3), TupleId(3)));
        assert_eq!(t.get(key(3)), &[TupleId(1_000_003)]);
        assert!(t.remove(key(3), TupleId(1_000_003)));
        assert_eq!(t.len(), n as usize - 1);
        t.clear();
        assert_eq!((t.len(), t.segment_count()), (0, 16));
        assert!(t.get(key(1)).is_empty());
    }

    #[test]
    fn idtable_clone_shares_untouched_segments() {
        let mut t = IdTable::with_capacity(SEGMENT_KEYS * 8);
        for i in 0..(SEGMENT_KEYS as u64 * 6) {
            t.push(key(i), TupleId(i as u32));
        }
        assert_eq!(t.segment_count(), 8);
        let snap = t.clone();
        assert_eq!(t.segments_shared_with(&snap), (8, 8));
        // A miss copies nothing; one push copies one segment.
        assert!(!t.remove(key(5), TupleId(77)));
        assert_eq!(t.copies(), 0);
        t.push(key(1 << 40), TupleId(9));
        assert_eq!(t.copies(), 1);
        assert_eq!(t.segments_shared_with(&snap), (7, 8));
        assert!(snap.get(key(1 << 40)).is_empty());
        assert_eq!(t.get(key(1 << 40)), &[TupleId(9)]);
    }
}

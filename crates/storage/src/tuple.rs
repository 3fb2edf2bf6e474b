//! Tuples: immutable, cheaply clonable rows of [`Value`]s.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple (row) of values.
///
/// Tuples are reference-counted so that the same physical row can be shared
/// between a peer's input table, its curated output table, and the
/// provenance relations that mention it, without copying the (potentially
/// large, SWISS-PROT sized) string payloads.
///
/// The **content hash is computed once at construction** (see
/// [`Tuple::content_hash`]): every hash container keyed by tuples — relation
/// sets, dedup sets, provenance-graph node tables — then hashes 8 bytes per
/// operation instead of re-walking the row.
#[derive(Debug, Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    hash: u64,
}

/// The canonical content hash of a row: the combination
/// ([`crate::pool::combine_hashes`]) of the per-value content hashes
/// ([`crate::pool::value_hash`]) of its value slice. [`Tuple::new`] caches
/// exactly this, so a value slice that has not been wrapped in a `Tuple`
/// yet (e.g. a join head scratch buffer) can still be tested against
/// id-addressed relation storage without allocating — and so the same hash
/// is reachable from an interned `&[ValueId]` row by combining the pool's
/// cached per-value hashes ([`crate::pool::ValuePool::row_hash`]).
pub fn values_hash(values: &[Value]) -> u64 {
    crate::pool::combine_hashes(values.iter().map(crate::pool::value_hash))
}

impl Tuple {
    /// Create a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        let hash = values_hash(&values);
        Tuple {
            values: values.into(),
            hash,
        }
    }

    /// The content hash cached at construction (equals
    /// [`values_hash`] of [`Tuple::values`]).
    #[inline]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Create a tuple whose [`values_hash`] the caller already computed
    /// (e.g. for a duplicate check against a relation before allocating).
    pub fn from_prehashed(values: Vec<Value>, hash: u64) -> Self {
        debug_assert_eq!(hash, values_hash(&values));
        Tuple {
            values: values.into(),
            hash,
        }
    }

    /// Create a tuple from an already-shared value slice and its
    /// precomputed [`values_hash`]. The single-allocation materialisation
    /// path: collecting an exact-size iterator straight into `Arc<[Value]>`
    /// skips the intermediate `Vec`.
    pub fn from_arc_prehashed(values: Arc<[Value]>, hash: u64) -> Self {
        debug_assert_eq!(hash, values_hash(&values));
        Tuple { values, hash }
    }

    /// Create the empty (0-ary) tuple.
    pub fn empty() -> Self {
        Tuple::new(Vec::new())
    }

    /// Number of attributes in the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Is this the empty tuple?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Project the tuple onto the given column positions, in order.
    ///
    /// Positions may repeat; out-of-range positions panic (they indicate a
    /// schema/arity bug upstream, which we want loudly).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(positions.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate two tuples (used when joining rule bodies).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut vs = Vec::with_capacity(self.arity() + other.arity());
        vs.extend_from_slice(&self.values);
        vs.extend_from_slice(&other.values);
        Tuple::new(vs)
    }

    /// Does any attribute of this tuple contain a labeled null?
    ///
    /// Tuples with labeled nulls are kept in peer instances (they are needed
    /// to validate mappings with existentials) but dropped when producing
    /// certain answers to queries (paper §2.1).
    pub fn has_labeled_null(&self) -> bool {
        self.values.iter().any(Value::is_labeled_null)
    }

    /// Approximate size of the tuple in bytes (payload only).
    pub fn size_bytes(&self) -> usize {
        self.values.iter().map(Value::size_bytes).sum()
    }

    /// Iterate over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }
}

/// Equality compares the cached hashes first (a constant-time negative fast
/// path), then the value slices; consistent because equal slices always
/// cache equal hashes.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.values, &other.values) || self.values == other.values)
    }
}

impl Eq for Tuple {}

/// Hashing writes the cached content hash. Hash containers must therefore
/// only ever be probed with keys hashed the same way (other `Tuple`s, or
/// raw-hash structures fed from [`values_hash`]) — never with a bare
/// `[Value]` slice.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Ordering is by value content (the cached hash does not participate), so
/// sorted listings stay deterministic and human-meaningful.
impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values.cmp(&other.values)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        &self.values[index]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience macro-free constructor for integer tuples, used pervasively in
/// tests and examples that mirror the paper's running example.
pub fn int_tuple(values: &[i64]) -> Tuple {
    Tuple::new(values.iter().map(|&v| Value::int(v)).collect())
}

/// Convenience constructor for string tuples.
pub fn text_tuple(values: &[&str]) -> Tuple {
    Tuple::new(values.iter().map(|&v| Value::text(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SkolemFnId;

    #[test]
    fn construction_and_access() {
        let t = int_tuple(&[1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t.get(2), Some(&Value::int(3)));
        assert_eq!(t.get(3), None);
        assert!(!t.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn projection_reorders_and_repeats() {
        let t = int_tuple(&[10, 20, 30]);
        let p = t.project(&[2, 0, 0]);
        assert_eq!(p, int_tuple(&[30, 10, 10]));
    }

    #[test]
    fn concat_joins_values() {
        let a = int_tuple(&[1, 2]);
        let b = text_tuple(&["x"]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c[2], Value::text("x"));
    }

    #[test]
    fn labeled_null_detection() {
        let t = Tuple::new(vec![
            Value::int(1),
            Value::labeled_null(SkolemFnId(0), vec![Value::int(1)]),
        ]);
        assert!(t.has_labeled_null());
        assert!(!int_tuple(&[1, 2]).has_labeled_null());
    }

    #[test]
    fn equality_and_hashing_by_value() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(int_tuple(&[1, 2]));
        assert!(s.contains(&int_tuple(&[1, 2])));
        assert!(!s.contains(&int_tuple(&[2, 1])));
    }

    #[test]
    fn display_is_parenthesised() {
        assert_eq!(int_tuple(&[3, 5]).to_string(), "(3, 5)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let t: Tuple = (0..3).map(Value::int).collect();
        assert_eq!(t, int_tuple(&[0, 1, 2]));
        let sum: i64 = (&t).into_iter().filter_map(Value::as_int).sum();
        assert_eq!(sum, 3);
    }

    #[test]
    fn size_accounts_for_all_fields() {
        let t = text_tuple(&["abcd", "ef"]);
        assert!(t.size_bytes() >= 6);
        assert_eq!(int_tuple(&[1, 2]).size_bytes(), 16);
    }
}

//! The value model of the CDSS storage layer.
//!
//! Values are either *constants* (integers, strings) or *labeled nulls*.
//! Labeled nulls are the placeholder values introduced by schema mappings
//! with existentially quantified variables (paper §2.1 and §4.1.1). They are
//! represented as **Skolem terms**: an identifier of a Skolem function plus
//! the list of argument values it was applied to. Two labeled nulls are equal
//! if and only if they were produced by the same Skolem function applied to
//! the same arguments — exactly the semantics the paper relies on to build
//! canonical universal solutions with a datalog engine.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted string whose **content hash is computed
/// once at construction** and cached.
///
/// SWISS-PROT style workloads carry wide string payloads through every hash
/// container in the system — relation sets, join indexes, provenance-graph
/// node tables, dedup sets. Without caching, each of those hashes the full
/// string content again; with it, hashing any [`Value::Text`] costs a single
/// `u64` write regardless of length. Equality also gets a constant-time
/// negative fast path (different hashes ⇒ different strings).
///
/// The cache uses a deterministic hasher, so equal contents always cache
/// equal hashes and `Eq`/`Hash` stay consistent.
#[derive(Debug, Clone)]
pub struct Str {
    hash: u64,
    s: Arc<str>,
}

impl Str {
    /// Wrap a string, hashing its content once.
    pub fn new(s: impl Into<Arc<str>>) -> Self {
        let s = s.into();
        let mut h = crate::fxhash::FxHasher::default();
        s.hash(&mut h);
        Str {
            hash: h.finish(),
            s,
        }
    }

    /// The cached content hash.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        &self.s
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        &self.s
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        &self.s
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        Str::new(s)
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        // Hash inequality proves content inequality without touching the
        // string bytes; pointer equality proves equality the same way.
        self.hash == other.hash && (Arc::ptr_eq(&self.s, &other.s) || self.s == other.s)
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        self.s.cmp(&other.s)
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.s)
    }
}

/// Identifier of a Skolem function.
///
/// The mapping compiler (in `orchestra-mappings`) allocates one Skolem
/// function per existentially quantified variable per tgd, following §4.1.1
/// of the paper ("it is essential to use a separate Skolem function for each
/// existentially quantified variable in each tgd").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SkolemFnId(pub u32);

impl fmt::Display for SkolemFnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A labeled null: a Skolem function applied to argument values.
///
/// Labeled nulls are internal bookkeeping; queries may join on their
/// equality, but tuples containing labeled nulls are discarded when
/// producing *certain answers* (paper §2.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SkolemValue {
    /// The Skolem function that produced this placeholder.
    pub function: SkolemFnId,
    /// The arguments the function was applied to (the tgd's frontier
    /// variables' values for this instantiation).
    pub args: Vec<Value>,
}

impl SkolemValue {
    /// Create a new Skolem value from a function id and its arguments.
    pub fn new(function: SkolemFnId, args: Vec<Value>) -> Self {
        SkolemValue { function, args }
    }

    /// Depth of nesting of Skolem terms inside this value. A labeled null
    /// whose arguments are all constants has depth 1.
    pub fn depth(&self) -> usize {
        1 + self.args.iter().map(Value::skolem_depth).max().unwrap_or(0)
    }
}

impl fmt::Display for SkolemValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A single attribute value stored in a relation.
///
/// The variants cover everything the ORCHESTRA evaluation needs: 64-bit
/// integers (the "integer" dataset, where large SWISS-PROT strings are
/// replaced by hashes), interned strings (the "string" dataset), and labeled
/// nulls ([`SkolemValue`]) for incomplete information.
#[derive(Debug, Clone)]
pub enum Value {
    /// A 64-bit integer constant.
    Int(i64),
    /// A string constant. Stored behind an `Arc` (so that wide SWISS-PROT
    /// style tuples can be copied between peer instances cheaply) with its
    /// content hash cached at construction (so that hash containers never
    /// re-hash string payloads — see [`Str`]).
    Text(Str),
    /// A labeled null (Skolem term) standing for an unknown value.
    Null(Arc<SkolemValue>),
}

impl Value {
    /// Construct an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Construct a string value.
    pub fn text(v: impl Into<String>) -> Self {
        Value::Text(Str::new(v.into().as_str()))
    }

    /// Construct a labeled null from a Skolem function applied to arguments.
    pub fn labeled_null(function: SkolemFnId, args: Vec<Value>) -> Self {
        Value::Null(Arc::new(SkolemValue::new(function, args)))
    }

    /// Is this value a labeled null (or does it contain one nested inside)?
    pub fn is_labeled_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// True if this value is a constant (not a labeled null).
    pub fn is_constant(&self) -> bool {
        !self.is_labeled_null()
    }

    /// Nesting depth of Skolem terms; 0 for constants.
    pub fn skolem_depth(&self) -> usize {
        match self {
            Value::Null(s) => s.depth(),
            _ => 0,
        }
    }

    /// The integer payload if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The Skolem payload if this is a labeled null.
    pub fn as_skolem(&self) -> Option<&SkolemValue> {
        match self {
            Value::Null(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate number of heap + inline bytes occupied by this value.
    /// Used to reproduce the "DB size" series of Figure 6.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Text(s) => 16 + s.len(),
            Value::Null(s) => 16 + s.args.iter().map(Value::size_bytes).sum::<usize>() + 4,
        }
    }

    /// Render the value as it would appear in a paper-style listing: plain
    /// integers and strings, `f<k>(..)` for labeled nulls.
    pub fn display_compact(&self) -> Cow<'_, str> {
        match self {
            Value::Int(v) => Cow::Owned(v.to_string()),
            Value::Text(s) => Cow::Borrowed(&**s),
            Value::Null(s) => Cow::Owned(s.to_string()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(v)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Null(a), Value::Null(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Value::Text(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            Value::Null(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order over values: integers < strings < labeled nulls, with
    /// the natural order inside each class. The order is only used to make
    /// output listings deterministic; the CDSS semantics never depends on it.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Null(a), Null(b)) => a.cmp(b),
            (Int(_), _) => Ordering::Less,
            (_, Int(_)) => Ordering::Greater,
            (Text(_), _) => Ordering::Less,
            (_, Text(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Null(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn int_and_text_equality() {
        assert_eq!(Value::int(3), Value::int(3));
        assert_ne!(Value::int(3), Value::int(4));
        assert_eq!(Value::text("abc"), Value::text("abc"));
        assert_ne!(Value::text("abc"), Value::int(3));
    }

    #[test]
    fn labeled_null_equality_is_structural() {
        // Two placeholders are the same iff same Skolem function applied to
        // the same arguments (paper §4.1.1).
        let a = Value::labeled_null(SkolemFnId(1), vec![Value::int(2)]);
        let b = Value::labeled_null(SkolemFnId(1), vec![Value::int(2)]);
        let c = Value::labeled_null(SkolemFnId(1), vec![Value::int(3)]);
        let d = Value::labeled_null(SkolemFnId(2), vec![Value::int(2)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn labeled_nulls_nest() {
        let inner = Value::labeled_null(SkolemFnId(1), vec![Value::int(1)]);
        let outer = Value::labeled_null(SkolemFnId(2), vec![inner.clone()]);
        assert_eq!(outer.skolem_depth(), 2);
        assert_eq!(inner.skolem_depth(), 1);
        assert_eq!(Value::int(9).skolem_depth(), 0);
    }

    #[test]
    fn hashing_is_consistent_with_equality() {
        let mut set = HashSet::new();
        set.insert(Value::labeled_null(SkolemFnId(7), vec![Value::text("x")]));
        assert!(set.contains(&Value::labeled_null(SkolemFnId(7), vec![Value::text("x")])));
        assert!(!set.contains(&Value::labeled_null(SkolemFnId(7), vec![Value::text("y")])));
    }

    #[test]
    fn ordering_is_total_and_groups_by_kind() {
        let mut vs = [
            Value::labeled_null(SkolemFnId(0), vec![]),
            Value::text("b"),
            Value::int(10),
            Value::text("a"),
            Value::int(-3),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::int(-3));
        assert_eq!(vs[1], Value::int(10));
        assert_eq!(vs[2], Value::text("a"));
        assert_eq!(vs[3], Value::text("b"));
        assert!(vs[4].is_labeled_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::text("taxon").to_string(), "taxon");
        let null = Value::labeled_null(SkolemFnId(3), vec![Value::int(5), Value::text("x")]);
        assert_eq!(null.to_string(), "f3(5,x)");
    }

    #[test]
    fn size_accounting_counts_string_payload() {
        assert_eq!(Value::int(1).size_bytes(), 8);
        assert!(Value::text("0123456789").size_bytes() >= 10);
        let null = Value::labeled_null(SkolemFnId(3), vec![Value::text("0123456789")]);
        assert!(null.size_bytes() > Value::text("0123456789").size_bytes());
    }

    #[test]
    fn conversions_from_primitives() {
        let v: Value = 7i64.into();
        assert_eq!(v, Value::int(7));
        let v: Value = "hello".into();
        assert_eq!(v, Value::text("hello"));
        let v: Value = String::from("hello").into();
        assert_eq!(v, Value::text("hello"));
        let v: Value = 5i32.into();
        assert_eq!(v, Value::int(5));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(3).as_int(), Some(3));
        assert_eq!(Value::int(3).as_text(), None);
        assert_eq!(Value::text("t").as_text(), Some("t"));
        assert!(Value::labeled_null(SkolemFnId(0), vec![])
            .as_skolem()
            .is_some());
        assert!(Value::int(0).as_skolem().is_none());
        assert!(Value::int(0).is_constant());
        assert!(!Value::labeled_null(SkolemFnId(0), vec![]).is_constant());
    }
}

//! Hand-rolled binary codec for the storage layer's data model.
//!
//! No serde: every artifact is length-prefixed little-endian binary with a
//! version byte at the artifact root (snapshot / WAL headers), so the
//! on-disk format is fully specified by this module and stays stable under
//! dependency churn. Encodings are **canonical**: relations serialize their
//! tuples in sorted order, so two equal databases produce byte-identical
//! snapshots.
//!
//! Layout conventions:
//!
//! * integers are little-endian; lengths/counts are `u32`;
//! * byte strings and UTF-8 strings are `u32` length + payload;
//! * enums are a `u8` tag followed by the variant payload.

use orchestra_storage::{
    DataType, Database, EditLog, EditOp, EditOpKind, Relation, RelationSchema, SkolemFnId,
    SkolemValue, Tuple, Value,
};

use crate::error::PersistError;
use crate::Result;

/// Append-only byte sink used by [`Encode::encode`].
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start with an empty buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Make room for at least `additional` more bytes, so a writer whose
    /// size is known up front grows once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Consume the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("byte string fits in u32"));
        self.buf.extend_from_slice(v);
    }

    /// Append raw bytes without a length prefix (for self-delimiting
    /// sections assembled out of band, e.g. the pooled codec's row buffer).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over encoded bytes used by [`Decode::decode`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Current byte offset (for corruption reports).
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Has the cursor consumed every byte?
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::corrupt(
                self.offset(),
                format!(
                    "unexpected end of input reading {what} ({n} bytes needed, {} left)",
                    self.remaining()
                ),
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len, "byte string")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let offset = self.offset();
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|e| PersistError::corrupt(offset, format!("invalid utf-8 string: {e}")))
    }
}

/// Types that can append their canonical binary encoding to a [`Writer`].
///
/// `Encode` is deliberately independent of [`Decode`] so that producers
/// (the wire protocol in `orchestra-net`, the WAL, snapshots) can serialize
/// borrowed data without owning a decodable artifact, and so downstream
/// crates can encode a [`Tuple`] without pulling in any of the store
/// machinery.
///
/// ```
/// use orchestra_persist::{Decode, Encode};
/// use orchestra_storage::tuple::int_tuple;
/// use orchestra_storage::Tuple;
///
/// let bytes = int_tuple(&[3, 5]).to_bytes();
/// assert_eq!(Tuple::from_bytes(&bytes).unwrap(), int_tuple(&[3, 5]));
/// ```
pub trait Encode {
    /// Append the encoding of `self` to the writer.
    fn encode(&self, w: &mut Writer);

    /// Encode into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types that can be reconstructed from the binary encoding produced by
/// their [`Encode`] implementation.
///
/// Decoding is strict: unknown tags, truncation and trailing garbage all
/// surface as [`PersistError::Corrupt`] with the byte offset of the fault.
///
/// ```
/// use orchestra_persist::{Decode, Encode, PersistError};
/// use orchestra_storage::Value;
///
/// let bytes = Value::text("hello").to_bytes();
/// assert_eq!(Value::from_bytes(&bytes).unwrap(), Value::text("hello"));
/// // Truncated input is rejected, not silently accepted.
/// assert!(matches!(
///     Value::from_bytes(&bytes[..bytes.len() - 1]),
///     Err(PersistError::Corrupt { .. })
/// ));
/// ```
pub trait Decode: Sized {
    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Decode from a byte slice, requiring every byte to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_at_end() {
            return Err(PersistError::corrupt(
                r.offset(),
                format!("{} trailing bytes after value", r.remaining()),
            ));
        }
        Ok(v)
    }
}

/// Types with a full round-trippable binary encoding: both [`Encode`] and
/// [`Decode`]. Implemented automatically; bound on this trait when an API
/// needs both directions (e.g. WAL records, snapshot payloads).
pub trait Codec: Encode + Decode {}

impl<T: Encode + Decode> Codec for T {}

/// Encode a sequence as a `u32` count followed by the elements.
pub fn encode_seq<T: Encode>(items: &[T], w: &mut Writer) {
    w.put_u32(u32::try_from(items.len()).expect("sequence fits in u32"));
    for item in items {
        item.encode(w);
    }
}

/// Encode an iterator of borrowed items as a `u32` count followed by the
/// elements, without collecting them first. `len` must equal the number of
/// items the iterator yields.
pub fn encode_seq_iter<'a, T: Encode + 'a>(
    len: usize,
    items: impl Iterator<Item = &'a T>,
    w: &mut Writer,
) {
    w.put_u32(u32::try_from(len).expect("sequence fits in u32"));
    for item in items {
        item.encode(w);
    }
}

/// Decode a sequence written by [`encode_seq`].
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

const VALUE_INT: u8 = 0;
const VALUE_TEXT: u8 = 1;
const VALUE_NULL: u8 = 2;

/// Maximum nesting depth of labeled nulls inside one value. Real Skolem
/// terms nest at most as deep as the mapping composition chain (single
/// digits); the cap exists because decoders run on untrusted bytes (the
/// network layer feeds wire payloads through this codec) and unbounded
/// recursion would let a crafted payload overflow the stack.
const MAX_VALUE_DEPTH: u32 = 128;

fn decode_value(r: &mut Reader<'_>, depth: u32) -> Result<Value> {
    let offset = r.offset();
    if depth > MAX_VALUE_DEPTH {
        return Err(PersistError::corrupt(
            offset,
            format!("labeled-null nesting exceeds {MAX_VALUE_DEPTH} levels"),
        ));
    }
    match r.get_u8()? {
        VALUE_INT => Ok(Value::Int(r.get_i64()?)),
        VALUE_TEXT => Ok(Value::text(r.get_str()?)),
        VALUE_NULL => {
            let s = decode_skolem(r, depth + 1)?;
            Ok(Value::labeled_null(s.function, s.args))
        }
        tag => Err(PersistError::corrupt(
            offset,
            format!("unknown value tag {tag}"),
        )),
    }
}

fn decode_skolem(r: &mut Reader<'_>, depth: u32) -> Result<SkolemValue> {
    let function = SkolemFnId(r.get_u32()?);
    let n = r.get_u32()? as usize;
    let mut args = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        args.push(decode_value(r, depth)?);
    }
    Ok(SkolemValue::new(function, args))
}

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Int(v) => {
                w.put_u8(VALUE_INT);
                w.put_i64(*v);
            }
            Value::Text(s) => {
                w.put_u8(VALUE_TEXT);
                w.put_str(s);
            }
            Value::Null(s) => {
                w.put_u8(VALUE_NULL);
                s.encode(w);
            }
        }
    }
}

/// The number of bytes [`Value::encode`] writes for `v`.
pub(crate) fn encoded_len(v: &Value) -> usize {
    1 + match v {
        Value::Int(_) => 8,
        Value::Text(s) => 4 + s.len(),
        Value::Null(s) => 4 + 4 + s.args.iter().map(encoded_len).sum::<usize>(),
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_value(r, 0)
    }
}

impl Encode for SkolemValue {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.function.0);
        encode_seq(&self.args, w);
    }
}

impl Decode for SkolemValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_skolem(r, 0)
    }
}

impl Encode for Tuple {
    fn encode(&self, w: &mut Writer) {
        encode_seq(self.values(), w);
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Tuple::new(decode_seq(r)?))
    }
}

impl Encode for DataType {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            DataType::Int => 0,
            DataType::Text => 1,
            DataType::Any => 2,
        });
    }
}

impl Decode for DataType {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let offset = r.offset();
        match r.get_u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Text),
            2 => Ok(DataType::Any),
            tag => Err(PersistError::corrupt(
                offset,
                format!("unknown data type tag {tag}"),
            )),
        }
    }
}

impl Encode for RelationSchema {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self.name());
        w.put_u32(u32::try_from(self.arity()).expect("arity fits in u32"));
        for attr in self.attributes() {
            w.put_str(attr);
        }
        for ty in self.types() {
            ty.encode(w);
        }
    }
}

impl Decode for RelationSchema {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let name = r.get_str()?.to_string();
        let arity = r.get_u32()? as usize;
        let mut attrs = Vec::with_capacity(arity.min(1 << 12));
        for _ in 0..arity {
            attrs.push(r.get_str()?.to_string());
        }
        let mut types = Vec::with_capacity(arity.min(1 << 12));
        for _ in 0..arity {
            types.push(DataType::decode(r)?);
        }
        let pairs: Vec<(&str, DataType)> = attrs.iter().map(String::as_str).zip(types).collect();
        Ok(RelationSchema::with_types(name, &pairs))
    }
}

impl Encode for Relation {
    fn encode(&self, w: &mut Writer) {
        self.schema().encode(w);
        // Canonical order: equal relations encode to identical bytes.
        encode_seq(&self.sorted_tuples(), w);
    }
}

/// Decode one relation's schema and tuple list (the layout written by
/// `Relation as Encode`). Relations intern their values through their
/// database's pool, so a standalone `Decode for Relation` no longer exists;
/// [`Database::decode`] adopts the parts instead.
pub fn decode_relation_parts(r: &mut Reader<'_>) -> Result<(RelationSchema, Vec<Tuple>)> {
    let schema = RelationSchema::decode(r)?;
    let tuples: Vec<Tuple> = decode_seq(r)?;
    Ok((schema, tuples))
}

impl Encode for Database {
    fn encode(&self, w: &mut Writer) {
        let relations: Vec<&Relation> = self.relations().collect();
        w.put_u32(u32::try_from(relations.len()).expect("relation count fits in u32"));
        for rel in relations {
            rel.encode(w);
        }
    }
}

impl Decode for Database {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.get_u32()? as usize;
        let mut db = Database::new();
        for _ in 0..n {
            let (schema, tuples) = decode_relation_parts(r)?;
            db.adopt_relation(schema, tuples)?;
        }
        Ok(db)
    }
}

impl Encode for EditOpKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            EditOpKind::Insert => 0,
            EditOpKind::Delete => 1,
        });
    }
}

impl Decode for EditOpKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let offset = r.offset();
        match r.get_u8()? {
            0 => Ok(EditOpKind::Insert),
            1 => Ok(EditOpKind::Delete),
            tag => Err(PersistError::corrupt(
                offset,
                format!("unknown edit op tag {tag}"),
            )),
        }
    }
}

impl Encode for EditOp {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        self.tuple.encode(w);
    }
}

impl Decode for EditOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let kind = EditOpKind::decode(r)?;
        let tuple = Tuple::decode(r)?;
        Ok(EditOp { kind, tuple })
    }
}

impl Encode for EditLog {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self.relation());
        encode_seq(self.ops(), w);
    }
}

impl Decode for EditLog {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let relation = r.get_str()?.to_string();
        let ops = decode_seq(r)?;
        Ok(EditLog::from_ops(relation, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_storage::tuple::{int_tuple, text_tuple};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn values_roundtrip_including_nested_nulls() {
        roundtrip(&Value::int(-42));
        roundtrip(&Value::text("taxon στρ"));
        let inner = Value::labeled_null(SkolemFnId(3), vec![Value::int(5)]);
        roundtrip(&Value::labeled_null(
            SkolemFnId(7),
            vec![inner, Value::text("x")],
        ));
    }

    #[test]
    fn tuples_and_schemas_roundtrip() {
        roundtrip(&int_tuple(&[1, 2, 3]));
        roundtrip(&text_tuple(&["a", "b"]));
        roundtrip(&Tuple::empty());
        roundtrip(&RelationSchema::new("B", &["id", "nam"]));
        roundtrip(&RelationSchema::with_types(
            "G",
            &[
                ("id", DataType::Int),
                ("nam", DataType::Text),
                ("x", DataType::Any),
            ],
        ));
    }

    #[test]
    fn relations_encode_canonically() {
        use orchestra_storage::ValuePool;
        let schema = RelationSchema::new("B", &["id", "nam"]);
        let mut pool = ValuePool::new();
        let mut a = Relation::new(schema.clone());
        a.insert(&mut pool, int_tuple(&[1, 2])).unwrap();
        a.insert(&mut pool, int_tuple(&[3, 4])).unwrap();
        let mut b = Relation::new(schema);
        b.insert(&mut pool, int_tuple(&[3, 4])).unwrap();
        b.insert(&mut pool, int_tuple(&[1, 2])).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes(), "insertion order must not leak");
        let bytes = a.to_bytes();
        let mut r = Reader::new(&bytes);
        let (schema, tuples) = decode_relation_parts(&mut r).unwrap();
        assert_eq!(schema, *a.schema());
        assert_eq!(tuples, a.sorted_tuples());
    }

    #[test]
    fn databases_roundtrip() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("B", &["id", "nam"]))
            .unwrap();
        db.create_relation(RelationSchema::new("G", &["id", "can", "nam"]))
            .unwrap();
        db.insert("B", int_tuple(&[3, 5])).unwrap();
        db.insert("G", int_tuple(&[1, 2, 3])).unwrap();
        let back = Database::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back.relation_names(), db.relation_names());
        assert_eq!(back.total_tuples(), db.total_tuples());
        assert!(back.contains("B", &int_tuple(&[3, 5])).unwrap());
        assert_eq!(back.to_bytes(), db.to_bytes());
    }

    #[test]
    fn edit_logs_roundtrip_in_order() {
        let mut log = EditLog::new("B");
        log.push_insert(int_tuple(&[3, 5]));
        log.push_delete(int_tuple(&[3, 2]));
        log.push_insert(int_tuple(&[3, 2]));
        let back = EditLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn hostile_null_nesting_is_rejected_not_a_stack_overflow() {
        // Each level: VALUE_NULL tag, Skolem function id, one argument.
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(VALUE_NULL);
            bytes.extend_from_slice(&7u32.to_le_bytes()); // function id
            bytes.extend_from_slice(&1u32.to_le_bytes()); // one argument
        }
        bytes.push(VALUE_INT);
        bytes.extend_from_slice(&0i64.to_le_bytes());
        assert!(matches!(
            Value::from_bytes(&bytes),
            Err(PersistError::Corrupt { .. })
        ));
        // Deep but sane nesting still decodes.
        let mut v = Value::int(1);
        for _ in 0..100 {
            v = Value::labeled_null(SkolemFnId(0), vec![v]);
        }
        roundtrip(&v);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = Value::text("hello").to_bytes();
        // Bad tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(matches!(
            Value::from_bytes(&bad),
            Err(PersistError::Corrupt { .. })
        ));
        // Truncation.
        assert!(matches!(
            Value::from_bytes(&bytes[..bytes.len() - 1]),
            Err(PersistError::Corrupt { .. })
        ));
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Value::from_bytes(&long),
            Err(PersistError::Corrupt { .. })
        ));
        // Invalid utf-8 in a string payload.
        let mut nonutf = bytes;
        let last = nonutf.len() - 1;
        nonutf[last] = 0xFF;
        assert!(matches!(
            Value::from_bytes(&nonutf),
            Err(PersistError::Corrupt { .. })
        ));
    }
}

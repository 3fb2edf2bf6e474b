//! Dictionary ("pooled") encoding for tuple-heavy payloads.
//!
//! Snapshots, WAL epochs, and bulk wire frames (`PublishEdits`, `Tuples`)
//! are dominated by the same small vocabulary of values repeated across
//! thousands of rows — exactly the redundancy the in-memory
//! [`orchestra_storage::ValuePool`] eliminates. The pooled codec applies
//! the same idea to bytes: an artifact carries one **intern table section**
//! (every distinct value, encoded once with the plain v1 value codec, in
//! first-occurrence order), followed by rows encoded as dense `u32`
//! dictionary ids.
//!
//! The encoding is **canonical**: the dictionary order is determined by the
//! (canonical) traversal order of the content, so equal payloads encode to
//! identical bytes regardless of how their in-memory pools grew.
//!
//! Layout:
//!
//! ```text
//! pooled(X)   := dict rows(X)
//! dict        := u32 count, count × value        (v1 value encoding)
//! tuple       := u32 arity, arity × u32 dict-id  (self-delimiting)
//! row(arity)  := arity × u32 dict-id             (arity known from schema)
//! ```

use std::borrow::Cow;
use std::collections::HashMap;

use orchestra_storage::{Tuple, Value, ValueId, ValuePool};

use crate::codec::{decode_seq, encoded_len, Encode, Reader, Writer};
use crate::error::PersistError;
use crate::Result;

/// Remap slot of a pool id that no row has used yet.
const UNSEEN: u32 = u32::MAX;

/// Streaming encoder: rows are written (as dict ids) into an internal
/// buffer while the dictionary grows; [`PooledEncoder::finish_into`] then
/// emits the dictionary section followed by the buffered rows.
///
/// An encoder bound to a [`ValuePool`] ([`PooledEncoder::with_pool`])
/// takes interned rows straight from the pool's dense ids
/// ([`PooledEncoder::put_ids`]): a `ValueId → dict id` remap array
/// replaces hashing each value, and a value enters the dictionary as a
/// borrow of the pool's copy. Values given by content resolve through the
/// pool first, so a value has one dict id however it arrives; only values
/// the pool has never held (and everything an unbound encoder sees) take
/// the value-keyed map. Either way the dictionary is in first-use order,
/// so the bytes depend only on the traversal, not on the pool's ids.
#[derive(Debug, Default)]
pub struct PooledEncoder<'p> {
    dict: Vec<Cow<'p, Value>>,
    index: HashMap<Value, u32>,
    pool: Option<&'p ValuePool>,
    /// Pool id → dict id, [`UNSEEN`] until first use.
    remap: Vec<u32>,
    /// The id-encoded payload, exposed so callers can interleave plain
    /// fields (counts, names, tags) with pooled values.
    pub rows: Writer,
}

impl<'p> PooledEncoder<'p> {
    /// An empty encoder for values that no pool backs.
    pub fn new() -> Self {
        PooledEncoder::default()
    }

    /// An empty encoder that also accepts ids of `pool` ([`Self::put_ids`]).
    pub fn with_pool(pool: &'p ValuePool) -> Self {
        PooledEncoder {
            pool: Some(pool),
            remap: vec![UNSEEN; pool.len()],
            ..PooledEncoder::default()
        }
    }

    fn push(&mut self, v: Cow<'p, Value>) -> u32 {
        let id = u32::try_from(self.dict.len()).expect("dictionary fits u32 ids");
        assert_ne!(id, UNSEEN, "dictionary exhausted the id space");
        self.dict.push(v);
        id
    }

    /// The dict id of an id of the bound pool, admitting its value on
    /// first use.
    #[inline]
    fn intern_id(&mut self, pool: &'p ValuePool, id: ValueId) -> u32 {
        let slot = self.remap[id.index()];
        if slot != UNSEEN {
            return slot;
        }
        let slot = self.push(Cow::Borrowed(pool.value(id)));
        self.remap[id.index()] = slot;
        slot
    }

    /// Intern a value into the dictionary, returning its dense id.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Some(pool) = self.pool {
            if let Some(id) = pool.lookup(v) {
                return self.intern_id(pool, id);
            }
        }
        if let Some(&id) = self.index.get(v) {
            return id;
        }
        let id = self.push(Cow::Owned(v.clone()));
        self.index.insert(v.clone(), id);
        id
    }

    /// Append one interned row of the bound pool as dict ids (the arity is
    /// implied by the surrounding schema).
    ///
    /// # Panics
    ///
    /// If the encoder has no pool ([`Self::with_pool`]).
    pub fn put_ids(&mut self, row: &[ValueId]) {
        let pool = self.pool.expect("put_ids needs an encoder bound to a pool");
        for &id in row {
            let slot = self.intern_id(pool, id);
            self.rows.put_u32(slot);
        }
    }

    /// Append one value to the row buffer as a dict id.
    pub fn put_value(&mut self, v: &Value) {
        let id = self.intern(v);
        self.rows.put_u32(id);
    }

    /// Append one tuple as `arity` + dict ids (self-delimiting form).
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.rows
            .put_u32(u32::try_from(t.arity()).expect("arity fits u32"));
        for v in t.values() {
            self.put_value(v);
        }
    }

    /// Append a `u32` count followed by self-delimiting tuples.
    pub fn put_tuple_seq<'a>(&mut self, len: usize, tuples: impl Iterator<Item = &'a Tuple>) {
        self.rows
            .put_u32(u32::try_from(len).expect("sequence fits u32"));
        for t in tuples {
            self.put_tuple(t);
        }
    }

    /// Emit the dictionary section followed by the buffered rows, growing
    /// `w` once for both.
    pub fn finish_into(self, w: &mut Writer) {
        let dict_len: usize = self.dict.iter().map(|v| encoded_len(v)).sum();
        w.reserve(4 + dict_len + self.rows.as_bytes().len());
        w.put_u32(u32::try_from(self.dict.len()).expect("dictionary fits u32 ids"));
        for v in &self.dict {
            v.encode(w);
        }
        w.put_raw(self.rows.as_bytes());
    }
}

/// Decoder counterpart: reads the dictionary section once, then resolves
/// dict ids from the same reader.
#[derive(Debug)]
pub struct PooledDecoder {
    dict: Vec<Value>,
}

impl PooledDecoder {
    /// Read the dictionary section.
    pub fn read(r: &mut Reader<'_>) -> Result<Self> {
        let dict: Vec<Value> = decode_seq(r)?;
        Ok(PooledDecoder { dict })
    }

    /// Number of distinct values in the dictionary.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Read one dict id and resolve it. Out-of-range ids are corruption.
    pub fn get_value(&self, r: &mut Reader<'_>) -> Result<Value> {
        let offset = r.offset();
        let id = r.get_u32()? as usize;
        self.dict.get(id).cloned().ok_or_else(|| {
            PersistError::corrupt(
                offset,
                format!("dict id {id} out of range ({} entries)", self.dict.len()),
            )
        })
    }

    /// Read one self-delimiting tuple (`arity` + ids).
    pub fn get_tuple(&self, r: &mut Reader<'_>) -> Result<Tuple> {
        let arity = r.get_u32()? as usize;
        self.get_row(r, arity)
    }

    /// Read one row of known arity.
    pub fn get_row(&self, r: &mut Reader<'_>, arity: usize) -> Result<Tuple> {
        let mut values = Vec::with_capacity(arity.min(1 << 12));
        for _ in 0..arity {
            values.push(self.get_value(r)?);
        }
        Ok(Tuple::new(values))
    }

    /// Read a `u32` count followed by self-delimiting tuples.
    pub fn get_tuple_seq(&self, r: &mut Reader<'_>) -> Result<Vec<Tuple>> {
        let n = r.get_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.get_tuple(r)?);
        }
        Ok(out)
    }
}

/// Encode a standalone tuple sequence pooled (dict + `u32` count + tuples):
/// the bulk-payload building block shared by the wire frames.
pub fn encode_tuple_seq_pooled<'a>(
    len: usize,
    tuples: impl Iterator<Item = &'a Tuple>,
    w: &mut Writer,
) {
    let mut enc = PooledEncoder::new();
    enc.put_tuple_seq(len, tuples);
    enc.finish_into(w);
}

/// Decode a sequence written by [`encode_tuple_seq_pooled`].
pub fn decode_tuple_seq_pooled(r: &mut Reader<'_>) -> Result<Vec<Tuple>> {
    let dec = PooledDecoder::read(r)?;
    dec.get_tuple_seq(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_seq;
    use orchestra_storage::tuple::{int_tuple, text_tuple};
    use orchestra_storage::SkolemFnId;

    #[test]
    fn tuple_seq_roundtrips_and_dedups_values() {
        let tuples = vec![
            text_tuple(&["swiss", "prot"]),
            text_tuple(&["swiss", "prot"]),
            text_tuple(&["swiss", "rolls"]),
            int_tuple(&[1, 2, 1]),
        ];
        let mut w = Writer::new();
        encode_tuple_seq_pooled(tuples.len(), tuples.iter(), &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_tuple_seq_pooled(&mut r).unwrap();
        assert!(r.is_at_end());
        assert_eq!(back, tuples);
        // The dictionary holds each distinct value once: "swiss" appears a
        // single time in the byte stream.
        let hay = bytes.windows(5).filter(|win| win == b"swiss").count();
        assert_eq!(hay, 1);
    }

    #[test]
    fn pooled_beats_plain_on_repetitive_payloads() {
        let tuples: Vec<Tuple> = (0..200)
            .map(|i| text_tuple(&["a-long-shared-accession-string", ["x", "y"][i % 2]]))
            .collect();
        let mut pooled = Writer::new();
        encode_tuple_seq_pooled(tuples.len(), tuples.iter(), &mut pooled);
        let mut plain = Writer::new();
        encode_seq(&tuples, &mut plain);
        assert!(
            pooled.as_bytes().len() * 2 < plain.as_bytes().len(),
            "pooled {} vs plain {}",
            pooled.as_bytes().len(),
            plain.as_bytes().len()
        );
    }

    #[test]
    fn labeled_nulls_pool_structurally() {
        let null = orchestra_storage::Value::labeled_null(
            SkolemFnId(3),
            vec![orchestra_storage::Value::int(5)],
        );
        let t = Tuple::new(vec![null.clone(), null]);
        let mut w = Writer::new();
        encode_tuple_seq_pooled(1, std::iter::once(&t), &mut w);
        let bytes = w.into_bytes();
        let back = decode_tuple_seq_pooled(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, vec![t]);
    }

    #[test]
    fn hostile_dict_ids_are_rejected() {
        let mut w = Writer::new();
        encode_tuple_seq_pooled(1, std::iter::once(&int_tuple(&[7])), &mut w);
        let mut bytes = w.into_bytes();
        // Overwrite the row's dict id (the trailing u32) with garbage.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            decode_tuple_seq_pooled(&mut Reader::new(&bytes)),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn encoding_is_canonical_in_content() {
        // Two identical sequences produced from differently-shared values
        // encode identically.
        let a = vec![text_tuple(&["k", "v"]), text_tuple(&["k", "w"])];
        let b = vec![text_tuple(&["k", "v"]), text_tuple(&["k", "w"])];
        let enc = |ts: &[Tuple]| {
            let mut w = Writer::new();
            encode_tuple_seq_pooled(ts.len(), ts.iter(), &mut w);
            w.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b));
    }
}

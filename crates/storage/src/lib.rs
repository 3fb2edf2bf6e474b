//! # orchestra-storage
//!
//! In-memory relational storage substrate for the ORCHESTRA collaborative
//! data sharing system (CDSS), reproducing the storage layer required by
//! *Update Exchange with Mappings and Provenance* (Green, Karvounarakis,
//! Ives, Tannen; VLDB 2007 / UPenn TR MS-CIS-07-26).
//!
//! The paper executes its compiled datalog programs on top of a commercial
//! RDBMS (DB2) and on the Tukwila engine over Berkeley DB. This crate
//! provides the equivalent substrate in pure Rust:
//!
//! * a [`Value`] model including **labeled nulls** represented as Skolem
//!   terms ([`SkolemValue`]), the placeholder values required by mappings
//!   with existential variables (paper §4.1.1);
//! * [`Tuple`]s, [`RelationSchema`]s and in-memory [`Relation`] instances
//!   with hash indexes on arbitrary column subsets;
//! * a [`Database`] catalog mapping relation names to instances;
//! * [`EditLog`]s recording local curation (insertions and deletions) at a
//!   peer, the "source data" of the CDSS (paper §3.1);
//! * size accounting used to reproduce Figure 6 of the evaluation.
//!
//! The crate is deliberately free of any datalog, mapping, or provenance
//! logic: those live in the `orchestra-datalog`, `orchestra-mappings`, and
//! `orchestra-provenance` crates, which are all built on top of this one.
//!
//! ## Quick example
//!
//! ```
//! use orchestra_storage::{Database, RelationSchema, Tuple, Value};
//!
//! let mut db = Database::new();
//! let schema = RelationSchema::new("B", &["id", "nam"]);
//! db.create_relation(schema).unwrap();
//! db.insert("B", Tuple::new(vec![Value::int(3), Value::int(5)])).unwrap();
//! assert_eq!(db.relation("B").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cow;
pub mod database;
pub mod editlog;
pub mod error;
pub mod fxhash;
pub mod index;
pub mod pool;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;

pub use database::{Database, RelationSource};
pub use editlog::{EditLog, EditOp, EditOpKind};
pub use error::StorageError;
pub use fxhash::{FxBuildHasher, IdBuildHasher};
pub use index::{HashIndex, IdVec, TupleId};
pub use pool::{PoolCompaction, PoolStats, ValueId, ValuePool};
pub use relation::{Relation, RowIter, SelectEqRef, TupleIdIter, TupleIter};
pub use schema::{AttributeName, DataType, RelationName, RelationSchema};
pub use stats::{DatabaseStats, RelationStats};
pub use tuple::Tuple;
pub use value::{SkolemFnId, SkolemValue, Str, Value};

/// Convenience result alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

//! # orchestra
//!
//! Umbrella crate for the Rust reproduction of *Update Exchange with
//! Mappings and Provenance* (Green, Karvounarakis, Ives, Tannen; VLDB 2007).
//!
//! The implementation lives in the `crates/` workspace members; this crate
//! re-exports them under one roof and hosts the repository-level integration
//! tests (`tests/`) and runnable examples (`examples/`). See the top-level
//! `README.md` for the crate layout and the paper-section mapping.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use orchestra_analyze as analyze;
pub use orchestra_core as core;
pub use orchestra_datalog as datalog;
pub use orchestra_mappings as mappings;
pub use orchestra_net as net;
pub use orchestra_persist as persist;
pub use orchestra_provenance as provenance;
pub use orchestra_storage as storage;
pub use orchestra_workload as workload;

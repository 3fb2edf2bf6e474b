//! # orchestra-workload
//!
//! The synthetic workload generator used by the ORCHESTRA evaluation
//! (paper §6.1–6.2). The real evaluation used the SWISS-PROT protein
//! database — a single universal relation with 25 attributes, many of them
//! large strings — as the source of wide tuples. This crate generates a
//! deterministic synthetic equivalent:
//!
//! * [`swissprot`] produces 25-attribute *universal entries* whose string
//!   lengths mimic SWISS-PROT (accession codes, organism names, long
//!   sequence/annotation fields), plus an "integer" variant where every
//!   string is replaced by a hash — the paper's "string" and "integer"
//!   datasets;
//! * [`generator`] creates CDSS configurations: per-peer schemas obtained by
//!   partitioning a subset of the universal attributes into a Zipf-skewed
//!   number of relations that share a key attribute, chain mappings between
//!   consecutive peers (source = join of the source peer's relations,
//!   target = the target peer's relations), optional extra mappings that
//!   close cycles (Figure 10), and insertion/deletion batches sampled the
//!   way §6.1 describes;
//! * [`config`] holds the knobs (number of peers, base size, dataset kind,
//!   number of cycles, RNG seed) swept by the benchmark harness;
//! * [`netload`] holds the latency summaries the service benchmarks share:
//!   nearest-rank percentiles and a parser for a server's per-request
//!   latency histograms. The service benchmark itself is `cdss_bench`'s
//!   `served_mixed` workload.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod generator;
pub mod netload;
pub mod swissprot;

pub use config::{DatasetKind, WorkloadConfig};
pub use generator::{generate, GeneratedCdss, GeneratedPeer};
pub use swissprot::{UniversalEntry, UniversalSchema, NUM_ATTRIBUTES};

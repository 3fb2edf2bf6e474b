//! # orchestra-provenance
//!
//! The semiring provenance model of *Update Exchange with Mappings and
//! Provenance* (paper §3.2, §3.3 and the companion PODS'07 paper
//! "Provenance Semirings").
//!
//! The provenance of a base tuple is its own **provenance token**; the
//! provenance of a tuple produced by update translation is an expression
//! over a semiring whose domain is the set of tokens, with
//!
//! * `·` combining the provenance of tuples joined in a mapping body,
//! * `+` combining alternative derivations, and
//! * one unary function `m(· )` per schema mapping, recording that the
//!   mapping was used in the derivation.
//!
//! This crate provides:
//!
//! * [`ProvenanceToken`]s and [`MappingId`]s ([`token`]);
//! * symbolic [`ProvenanceExpr`]essions with simplification and homomorphic
//!   evaluation into arbitrary semirings ([`expr`]);
//! * a library of semiring instances — boolean trust, counting/bag,
//!   tropical cost, lineage, why-provenance — demonstrating the generality
//!   argued in §7 of the paper ([`semiring`]);
//! * the [`ProvenanceGraph`] of §3.2/Example 5: tuple nodes and mapping
//!   nodes, from which provenance expressions are generated by backward
//!   traversal, trust is evaluated as a boolean-semiring homomorphism
//!   (§3.3), and goal-directed derivability tests are answered for the
//!   incremental deletion algorithm of §4.2 ([`graph`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expr;
pub mod graph;
pub mod semiring;
pub mod token;

pub use expr::ProvenanceExpr;
pub use graph::{MappingNodeId, PageDirection, ProvenanceGraph, ProvenanceNeighbor, TupleNodeId};
pub use semiring::{CountingSemiring, Lineage, Semiring, TropicalSemiring, WhyProvenance};
pub use token::{MappingId, ProvenanceToken};

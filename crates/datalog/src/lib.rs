//! # orchestra-datalog
//!
//! A recursive datalog engine extended with **Skolem functions**, exactly the
//! query-processing substrate that *Update Exchange with Mappings and
//! Provenance* (VLDB 2007) compiles its schema mappings into (paper §4.1.1):
//!
//! * rules may build labeled nulls in their heads by applying Skolem
//!   functions to frontier variables;
//! * negation is allowed in rule bodies when it is *safe* (every variable of
//!   a negated atom also occurs in a positive atom of the same body) and the
//!   program is *stratified*;
//! * evaluation runs to fixpoint per stratum, either naively (the test
//!   oracle) or semi-naively, feeding each round only the previous round's
//!   new tuples (paper §4.2);
//! * one execution engine: prepared, cost-ordered per-rule join plans over
//!   persistent indexes, joined in interned-id currency (the shape of the
//!   paper's Tukwila implementation, §5.2 — the DB2-style backend of §5.1
//!   converged onto it and was removed);
//! * one semi-naive entry point, [`Evaluator::fixpoint`]: seeded with
//!   [`Seed::All`] it evaluates the program from scratch, seeded with
//!   [`Seed::Insert`] it stores externally supplied base tuples and
//!   propagates only their consequences (incremental *insertion*), with an
//!   optional per-tuple filter hook used by the CDSS layer to enforce trust
//!   conditions during derivation;
//! * incremental *deletion* support computes, for each rule, the derived
//!   tuples whose instantiations involve deleted tuples — the building block
//!   of the paper's `PropagateDelete` algorithm (Figure 3) and of DRed.
//! * one query path: evaluation always materialises the stored relations,
//!   and point queries filter them (the CDSS layer probes an index on the
//!   bound columns, or scans once and has that index built); nothing
//!   re-derives an answer per query.
//!
//! The engine operates directly over [`orchestra_storage::Database`]
//! instances, so the CDSS layer can freely mix datalog-derived relations
//! (input tables, provenance tables) with manually edited ones (local
//! contributions, rejections).
//!
//! ```
//! use orchestra_datalog::{parse_program, Evaluator, PlanCache, Seed};
//! use orchestra_storage::{Database, RelationSchema, Tuple, Value};
//!
//! // Transitive closure.
//! let program = parse_program(
//!     "path(x, y) :- edge(x, y).\n\
//!      path(x, z) :- path(x, y), edge(y, z).",
//! ).unwrap();
//!
//! let mut db = Database::new();
//! db.create_relation(RelationSchema::new("edge", &["src", "dst"])).unwrap();
//! db.create_relation(RelationSchema::new("path", &["src", "dst"])).unwrap();
//! db.insert("edge", Tuple::new(vec![Value::int(1), Value::int(2)])).unwrap();
//! db.insert("edge", Tuple::new(vec![Value::int(2), Value::int(3)])).unwrap();
//!
//! let mut eval = Evaluator::new();
//! let mut cache = PlanCache::new();
//! eval.fixpoint(&mut cache, &program, &mut db, Seed::All, None).unwrap();
//! assert_eq!(db.relation("path").unwrap().len(), 3);
//!
//! // Insert edge (3, 4) and propagate only its consequences.
//! let edge = Tuple::new(vec![Value::int(3), Value::int(4)]);
//! let deltas = [("edge".to_string(), vec![edge])].into();
//! let done = eval
//!     .fixpoint(&mut cache, &program, &mut db, Seed::Insert(&deltas), None)
//!     .unwrap();
//! assert_eq!(done.fresh["path"].len(), 3); // (1,4), (2,4), (3,4)
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod compile;
pub mod delta;
pub mod error;
pub mod eval;
pub mod parser;
pub mod plan;
pub mod program;
pub mod reference;
pub mod rule;
pub mod stats;
pub mod term;

pub use atom::{Atom, Literal};
pub use error::DatalogError;
pub use eval::{DerivationFilter, Evaluator, Fixpoint, Seed};
pub use parser::{
    line_col, parse_atom, parse_program, parse_program_spanned, parse_rule, SourceSpan,
};
pub use plan::{CompiledPlan, PlanCache, PreparedProgram};
pub use program::{Program, Stratification, StratifyFailure};
pub use rule::Rule;
pub use stats::EvalStats;
pub use term::Term;

/// Convenience result alias for datalog operations.
pub type Result<T> = std::result::Result<T, DatalogError>;

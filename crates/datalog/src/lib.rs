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
//! * evaluation runs to fixpoint per stratum, either naively or with
//!   semi-naive delta rules (paper §4.2);
//! * one execution engine: prepared, cost-ordered per-rule join plans over
//!   persistent indexes, joined in interned-id currency (the shape of the
//!   paper's Tukwila implementation, §5.2 — the DB2-style backend of §5.1
//!   converged onto it and was removed);
//! * incremental *insertion* propagation applies externally supplied deltas
//!   through the delta-rule program, with an optional per-tuple filter hook
//!   used by the CDSS layer to enforce trust conditions during derivation;
//! * incremental *deletion* support computes, for each rule, the derived
//!   tuples whose instantiations involve deleted tuples — the building block
//!   of the paper's `PropagateDelete` algorithm (Figure 3) and of DRed.
//!
//! The engine operates directly over [`orchestra_storage::Database`]
//! instances, so the CDSS layer can freely mix datalog-derived relations
//! (input tables, provenance tables) with manually edited ones (local
//! contributions, rejections).
//!
//! ```
//! use orchestra_datalog::{parse_program, Evaluator};
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
//! eval.run(&program, &mut db).unwrap();
//! assert_eq!(db.relation("path").unwrap().len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod compile;
pub mod delta;
pub mod error;
pub mod eval;
pub mod magic;
pub mod parser;
pub mod plan;
pub mod program;
pub mod reference;
pub mod rule;
pub mod stats;
pub mod term;

pub use atom::{Atom, Literal};
pub use error::DatalogError;
pub use eval::{bound_scan, DerivationFilter, Evaluator};
pub use magic::{magic_rewrite, Adornment, MagicRewrite};
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

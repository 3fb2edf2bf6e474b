//! Fixpoint evaluation of datalog programs over a [`Database`].
//!
//! One semi-naive engine serves both the recursive datalog-with-Skolems
//! semantics of paper §4.1.1 and the *insertion* half of incremental update
//! exchange (§4.2), through one entry point, [`Evaluator::fixpoint`]. Only
//! the seed differs: [`Seed::All`] opens each stratum with round 0 (every
//! rule against the whole database), while [`Seed::Insert`] stores
//! externally supplied base tuples and opens one fixpoint over the whole
//! program with the genuinely new ones. Both then run delta rounds over
//! prepared join plans probing persistent indexes on the stored relations
//! until nothing new appears, optionally filtering every derived tuple with
//! a trust predicate.
//!
//! ## The interned join pipeline
//!
//! There is exactly one join implementation ([`join_literal_ids`]), and it
//! runs entirely in **id currency** ([`ValueId`]s from the database's
//! intern pool and [`TupleId`]s from the relations' slabs). The semi-naive
//! fixpoint (from either seed), the naive oracle
//! ([`Evaluator::run_naive`]), ad-hoc single-rule evaluation
//! ([`Evaluator::evaluate_rule`]) and the deletion delta rules
//! ([`crate::delta::deletion_candidates`]) all go through it:
//!
//! * candidate rows are `&[ValueId]` slices borrowed from the relation's
//!   row arena (index probes, scans, and delta sets all resolve through
//!   [`TupleId`]s — delta sets *are* `Vec<TupleId>` between rounds);
//! * variable bindings, probe keys and duplicate-head checks are `u32`
//!   compares against cached hashes; rule constants are interned once at
//!   plan-compile time ([`PlanCache`]);
//! * a duplicate head derivation is dropped after an integer row-hash
//!   probe — no value is cloned and nothing allocates;
//! * only a genuinely fresh head row materialises a `Tuple` (and a head
//!   containing a Skolem term goes through the value path, since it
//!   constructs a labeled null that may not be pooled yet).
//!
//! Join plans are compiled lazily, cost-ordered, and **cached across
//! evaluations** in a [`PlanCache`] (the `Cdss` keeps one per database),
//! invalidated when relation cardinality bands shift.
//!
//! A delta occurrence ranges over tuple ids of *some* relation
//! ([`DeltaRows`]): the stored relation itself between semi-naive rounds, or
//! a scratch relation a caller staged its tuples into (deletion frontiers
//! need not be stored — or even interned — anywhere before the call).

use std::collections::{BTreeMap, HashMap};

use orchestra_storage::{
    Database, HashIndex, Relation, RelationSchema, RowIter, StorageError, Tuple, TupleId, Value,
    ValueId, ValuePool,
};

use crate::compile::{CompiledHeadTerm, CompiledRule};
use crate::error::DatalogError;
use crate::plan::{CompiledPlan, PlanCache, PreparedProgram};
use crate::program::Program;
use crate::stats::EvalStats;
use crate::Result;

/// Smallest delta set worth building an on-the-fly index over; below this a
/// linear scan with bound-column filtering is cheaper than hashing every
/// delta tuple.
pub const DELTA_INDEX_MIN: usize = 16;

/// A predicate consulted before a derived tuple is added to its relation.
///
/// The CDSS layer uses this to enforce trust conditions *during* derivation
/// (paper §4.2: "as we derive tuples via mapping rules from trusted tuples,
/// we simply apply the associated trust conditions"). Returning `false`
/// rejects the tuple: it is neither stored nor used for further derivations.
pub type DerivationFilter<'a> = dyn Fn(&str, &Tuple) -> bool + 'a;

/// Where an [`Evaluator::fixpoint`] call starts the semi-naive fixpoint.
#[derive(Debug, Clone, Copy)]
pub enum Seed<'a> {
    /// Evaluate every stratum from round 0 (full evaluation, paper §4.1.1).
    All,
    /// Store these base tuples (relation name → tuples; already-present
    /// ones are skipped) and push the genuinely new ones through the delta
    /// rounds (insertion propagation, paper §4.2).
    Insert(&'a HashMap<String, Vec<Tuple>>),
}

/// What one [`Evaluator::fixpoint`] call did.
#[derive(Debug, Clone, Default)]
pub struct Fixpoint {
    /// The statistics of this call alone (also added to the evaluator's).
    pub stats: EvalStats,
    /// Per relation, the ids of every tuple the call newly stored — seeded
    /// base tuples included — in insertion order. They resolve through
    /// [`Relation::tuple_by_id`] until a tuple is removed.
    pub fresh: HashMap<String, Vec<TupleId>>,
}

/// The datalog evaluator. Accumulates [`EvalStats`] across calls.
///
/// [`Evaluator::fixpoint`] is the one semi-naive entry point, for full
/// evaluation and insertion propagation alike; [`Evaluator::run_naive`]
/// (the differential-testing oracle) and [`Evaluator::evaluate_rule`]
/// (single-rule evaluation for queries and DRed re-derivation) stand beside
/// it.
///
/// Every fixpoint round runs on the caller's thread: one task per rule in
/// round zero, one per (rule, delta occurrence) in later rounds. All tasks
/// of a round read the same database, and their head derivations merge
/// afterwards in (rule, occurrence) order, so tuple ids — and with them
/// provenance and every canonical encode — follow from the program and the
/// data alone.
#[derive(Debug, Default)]
pub struct Evaluator {
    stats: EvalStats,
}

impl Evaluator {
    /// Create an evaluator with zeroed statistics.
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Return the accumulated statistics and reset them.
    pub fn take_stats(&mut self) -> EvalStats {
        std::mem::take(&mut self.stats)
    }

    /// Ensure every relation mentioned by the program exists in the database
    /// (creating empty relations with anonymous attribute names if needed)
    /// and that existing relations have the arity the program expects.
    pub fn prepare_relations(&self, program: &Program, db: &mut Database) -> Result<()> {
        Self::prepare_relations_from(&program.relation_arities()?, db)
    }

    /// [`Evaluator::prepare_relations`] over precomputed arities (the plan
    /// cache memoises them, so repeated exchanges skip the rule walk).
    fn prepare_relations_from(arities: &BTreeMap<String, usize>, db: &mut Database) -> Result<()> {
        // Check every existing relation before creating any, so a conflict
        // leaves the database untouched.
        let mut missing = Vec::new();
        for (name, &arity) in arities {
            if !db.has_relation(name) {
                missing.push((name, arity));
                continue;
            }
            let actual = db.relation(name)?.schema().arity();
            if actual != arity {
                return Err(DatalogError::ArityConflict {
                    relation: name.clone(),
                    first: actual,
                    second: arity,
                });
            }
        }
        for (name, arity) in missing {
            db.create_relation(RelationSchema::anonymous(name, arity))?;
        }
        Ok(())
    }

    /// Run the program's semi-naive fixpoint from `seed`, adding derived
    /// tuples to the database: [`Seed::All`] evaluates every stratum from
    /// round 0, [`Seed::Insert`] stores base tuples and propagates the
    /// genuinely new ones. Every derived tuple is first offered to
    /// `filter`; rejected tuples are discarded.
    ///
    /// The validated stratification and compiled join plans persist in
    /// `cache` across calls (the CDSS layer keeps one cache per database and
    /// reuses it for every exchange against the same mapping program).
    ///
    /// Relations the program mentions are created empty if missing. An
    /// insertion seed is checked whole before anything is stored — every
    /// seeded relation exists or is declared by the program, every tuple
    /// has its relation's arity, and no seeded relation occurs negated
    /// (inserting into one can only retract earlier derivations, which is
    /// deletion propagation's job) — so a rejected call leaves the database
    /// untouched.
    pub fn fixpoint(
        &mut self,
        cache: &mut PlanCache,
        program: &Program,
        db: &mut Database,
        seed: Seed<'_>,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<Fixpoint> {
        let (call_span, round_span) = match seed {
            Seed::All => ("eval", "recompute-round"),
            Seed::Insert(_) => ("fixpoint-insertions", "insert-round"),
        };
        let _span = orchestra_obs::span(call_span, "datalog");
        let prepared = cache.prepare(program)?;
        let arities = cache.arities(program)?;
        if let Seed::Insert(base) = seed {
            validate_seed(program, &arities, db, base)?;
        }
        Self::prepare_relations_from(&arities, db)?;
        cache.refresh(program, db);
        let pool_before = db.pool_stats();
        let plan_hits_before = cache.hits;

        let mut stats = EvalStats::new();
        let mut sc = EvalScratch::default();
        let mut fresh: HashMap<&str, Vec<TupleId>> = HashMap::new();
        let mut seeded: Delta<'_> = match seed {
            Seed::All => Vec::new(),
            Seed::Insert(base) => insert_seed(db, base, &mut stats)?,
        };
        // The scopes to saturate, in order: each non-empty stratum, opened
        // by its round 0, or the whole program, opened by the fresh base
        // ids. Each round is a span, so a trace timeline shows the fixpoint
        // converging.
        let scopes: Vec<Option<&[usize]>> = match seed {
            Seed::All => prepared
                .strata
                .rule_strata
                .iter()
                .filter(|rules| !rules.is_empty())
                .map(|rules| Some(rules.as_slice()))
                .collect(),
            Seed::Insert(_) => vec![None],
        };
        for scope in scopes {
            let _stratum = scope.map(|_| orchestra_obs::span("stratum", "datalog"));
            let mut delta = match scope {
                // Round 0: every rule of the stratum against the full
                // database (one task per rule); all rules see the same
                // database and their outputs merge afterwards in rule order.
                Some(rules) => {
                    let _round = orchestra_obs::span(round_span, "datalog");
                    let mut tasks = Vec::with_capacity(rules.len());
                    for &ri in rules {
                        let plan = cache.base(program, ri, db.pool_mut())?;
                        prepare_rule_access(plan, db, None)?;
                        tasks.push(RoundTask {
                            ri,
                            head: program.rules()[ri].head.relation.as_str(),
                            delta: None,
                        });
                    }
                    stats.iterations += 1;
                    run_round(cache, db, &tasks, filter, &mut stats, &mut sc)?
                }
                None => std::mem::take(&mut seeded),
            };
            // Delta rounds: only the scope's rule occurrences (stratum rule
            // ids are ascending) that can consume something from the
            // previous round's delta. Deltas are id sets into the stored
            // relations — nothing is re-materialised between rounds.
            while !delta.is_empty() {
                for (head, ids) in &delta {
                    fresh.entry(*head).or_default().extend_from_slice(ids);
                }
                let _round = orchestra_obs::span(round_span, "datalog");
                let in_scope = |ri: usize| scope.is_none_or(|r| r.binary_search(&ri).is_ok());
                let tasks = delta_round_tasks(cache, program, &prepared, db, &delta, in_scope)?;
                delta = run_round(cache, db, &tasks, filter, &mut stats, &mut sc)?;
                stats.iterations += 1;
            }
        }

        let pool_after = db.pool_stats();
        stats.intern_hits += (pool_after.hits - pool_before.hits) as usize;
        stats.intern_misses += (pool_after.misses - pool_before.misses) as usize;
        stats.plan_cache_hits += (cache.hits - plan_hits_before) as usize;
        self.stats += stats;
        stats.record_to_registry();
        let fresh = fresh
            .into_iter()
            .map(|(name, ids)| (name.to_string(), ids))
            .collect();
        Ok(Fixpoint { stats, fresh })
    }

    /// Naive (non-semi-naive) evaluation: repeatedly apply every rule of each
    /// stratum, in written body order, until nothing changes. Exponentially
    /// redundant but trivially correct; used as a differential-testing
    /// oracle for the semi-naive engine.
    pub fn run_naive(&mut self, program: &Program, db: &mut Database) -> Result<EvalStats> {
        program.validate()?;
        let strat = program.stratify()?;
        self.prepare_relations(program, db)?;
        let plans: Vec<CompiledPlan> = program
            .rules()
            .iter()
            .map(|r| Ok(CompiledPlan::new(CompiledRule::compile(r)?, db.pool_mut())))
            .collect::<Result<_>>()?;

        let mut total = EvalStats::new();
        let mut sc = EvalScratch::default();
        for stratum_rules in &strat.rule_strata {
            if stratum_rules.is_empty() {
                continue;
            }
            loop {
                let mut changed = false;
                let mut stats = EvalStats::new();
                for &ri in stratum_rules {
                    let plan = &plans[ri];
                    prepare_rule_access(plan, db, None)?;
                    let produced =
                        eval_rule_ids_prepared(plan, db, None, None, &mut stats, &mut sc, true)?;
                    if produced.is_empty() {
                        continue;
                    }
                    let outs = vec![(plan.rule.head_relation.as_str(), Some(produced))];
                    changed |= !merge_round_outputs(db, outs, &mut stats)?.is_empty();
                }
                stats.iterations = 1;
                total += stats;
                if !changed {
                    break;
                }
            }
        }
        self.stats += total;
        Ok(total)
    }

    /// Evaluate a single rule against the database (without inserting its
    /// results): every head instantiation over the current contents, in
    /// join order, duplicates included. This is the building block the CDSS
    /// layer uses for ad-hoc queries and DRed re-derivation.
    pub fn evaluate_rule(
        &mut self,
        rule: &crate::rule::Rule,
        db: &mut Database,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<Vec<Tuple>> {
        let mut stats = EvalStats::new();
        let out = eval_rule_once(rule, db, None, filter, &mut stats)?;
        self.stats += stats;
        Ok(out)
    }
}

/// Reject an insertion seed before anything is stored: every seeded
/// relation must exist or be declared by the program (`arities`), every
/// tuple must have its relation's arity, and no seeded relation may occur
/// negated in the program.
fn validate_seed(
    program: &Program,
    arities: &BTreeMap<String, usize>,
    db: &Database,
    base: &HashMap<String, Vec<Tuple>>,
) -> Result<()> {
    for (rel, tuples) in base {
        let arity = match db.relation(rel) {
            Ok(stored) => stored.schema().arity(),
            Err(_) => *arities
                .get(rel)
                .ok_or_else(|| DatalogError::MissingRelation(rel.clone()))?,
        };
        if let Some(t) = tuples.iter().find(|t| t.arity() != arity) {
            return Err(StorageError::ArityMismatch {
                relation: rel.clone(),
                expected: arity,
                actual: t.arity(),
            }
            .into());
        }
    }
    for rule in program.rules() {
        for lit in &rule.body {
            if lit.negated && base.contains_key(lit.relation()) {
                return Err(DatalogError::UnsafeRule {
                    rule: rule.to_string(),
                    variable: format!(
                        "insertion delta supplied for negated relation {}",
                        lit.relation()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Store a validated insertion seed and return the genuinely new tuple ids
/// per relation: the delta that opens the fixpoint.
fn insert_seed<'s>(
    db: &mut Database,
    base: &'s HashMap<String, Vec<Tuple>>,
    stats: &mut EvalStats,
) -> Result<Delta<'s>> {
    let mut delta = Vec::new();
    for (rel, tuples) in base {
        let mut fresh_ids = Vec::new();
        for t in tuples {
            let (tid, fresh) = db.insert_full(rel, t.clone())?;
            if fresh {
                stats.tuples_inserted += 1;
                fresh_ids.push(tid);
            }
        }
        if !fresh_ids.is_empty() {
            delta.push((rel.as_str(), fresh_ids));
        }
    }
    Ok(delta)
}

/// Compile `rule` against the database's current cardinalities and evaluate
/// it once, returning every head instantiation (previously derived tuples
/// included — nothing is inserted or deduplicated). `delta` optionally
/// restricts one body occurrence to the given rows; that occurrence leads
/// the join.
pub(crate) fn eval_rule_once(
    rule: &crate::rule::Rule,
    db: &mut Database,
    delta: Option<DeltaRows<'_>>,
    filter: Option<&DerivationFilter<'_>>,
    stats: &mut EvalStats,
) -> Result<Vec<Tuple>> {
    let delta_body = delta.map(|d| d.body_index);
    let compiled = {
        let estimate = |name: &str| db.relation(name).map(Relation::len).unwrap_or(0);
        CompiledRule::compile_ordered(rule, &estimate, delta_body)?
    };
    let plan = CompiledPlan::new(compiled, db.pool_mut());
    prepare_rule_access(&plan, db, delta_body)?;
    let mut sc = EvalScratch::default();
    let produced = eval_rule_ids_prepared(&plan, db, delta, filter, stats, &mut sc, false)?;
    Ok(produced.into_tuples(db.pool()))
}

// ---------------------------------------------------------------------
// The interned (id-currency) join pipeline.
// ---------------------------------------------------------------------

/// Rows produced by one rule application, in the currency the head was
/// instantiated in.
pub(crate) enum ProducedRows {
    /// Skolem-free heads: flat interned rows with their combined hashes.
    Rows {
        /// Head arity (row stride in `ids`).
        arity: usize,
        /// Flattened rows: row `i` is `ids[i*arity .. (i+1)*arity]`.
        ids: Vec<ValueId>,
        /// Combined pool hash per row.
        hashes: Vec<u64>,
    },
    /// Heads with Skolem terms: materialised tuples (interned on insert).
    Tuples(Vec<Tuple>),
}

impl ProducedRows {
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        match self {
            ProducedRows::Rows { hashes, .. } => hashes.len(),
            ProducedRows::Tuples(ts) => ts.len(),
        }
    }

    /// Materialise the rows as tuples, in production order (callers that
    /// return derivations instead of inserting them).
    fn into_tuples(self, pool: &ValuePool) -> Vec<Tuple> {
        match self {
            ProducedRows::Rows { arity, ids, hashes } => hashes
                .iter()
                .enumerate()
                .map(|(i, &hash)| {
                    let row = &ids[i * arity..(i + 1) * arity];
                    let values = row.iter().map(|&id| pool.value(id).clone()).collect();
                    Tuple::from_prehashed(values, hash)
                })
                .collect(),
            ProducedRows::Tuples(ts) => ts,
        }
    }
}

/// The rows a delta occurrence ranges over: tuple ids of `rel` — the stored
/// relation itself between semi-naive rounds, or a scratch relation the
/// caller staged (and thereby interned) unstored tuples into. The ids must
/// be live.
#[derive(Clone, Copy)]
pub(crate) struct DeltaRows<'a> {
    /// Body index of the occurrence the rows substitute for.
    pub body_index: usize,
    /// The relation the ids address.
    pub rel: &'a Relation,
    /// The delta's tuple ids.
    pub ids: &'a [TupleId],
}

/// One unit of fixpoint-round work: a rule (base plan) or one body
/// occurrence of a rule fed the previous round's delta (delta-first plan).
/// Tasks of a round are independent — they read the same database — and
/// merge in `Vec` order.
struct RoundTask<'h, 'd> {
    ri: usize,
    /// The rule's head relation, which the task's output merges into.
    head: &'h str,
    /// `(body_index, occurrence relation, delta ids)`; `None` evaluates the
    /// base plan.
    delta: Option<(usize, &'d str, &'d [TupleId])>,
}

/// A round's delta: the tuple ids each relation gained, one entry per
/// relation.
type Delta<'h> = Vec<(&'h str, Vec<TupleId>)>;

/// Compile and prepare the delta-first plan of every occurrence (of a rule
/// `in_scope` admits) that can consume a relation of `delta`, and return
/// one task per occurrence, in (rule, occurrence) order.
fn delta_round_tasks<'h, 'd>(
    cache: &mut PlanCache,
    program: &'h Program,
    prepared: &'d PreparedProgram,
    db: &mut Database,
    delta: &'d Delta<'_>,
    in_scope: impl Fn(usize) -> bool,
) -> Result<Vec<RoundTask<'h, 'd>>> {
    let mut occurrences: Vec<(usize, usize, &str, &[TupleId])> = Vec::new();
    for (relation, ids) in delta {
        let Some(occs) = prepared.occurrences.get(*relation) else {
            continue;
        };
        for &(ri, body_index) in occs.iter().filter(|(ri, _)| in_scope(*ri)) {
            occurrences.push((ri, body_index, relation, ids));
        }
    }
    occurrences.sort_unstable_by_key(|&(ri, body_index, _, _)| (ri, body_index));
    let mut tasks = Vec::with_capacity(occurrences.len());
    for (ri, body_index, relation, ids) in occurrences {
        let plan = cache.delta(program, ri, body_index, db.pool_mut())?;
        prepare_rule_access(plan, db, Some(body_index))?;
        tasks.push(RoundTask {
            ri,
            head: program.rules()[ri].head.relation.as_str(),
            delta: Some((body_index, relation, ids)),
        });
    }
    Ok(tasks)
}

/// Evaluate one fixpoint round's tasks against the database as it stood
/// when the round began, then merge every task's head derivations in task
/// order. Returns the genuinely new tuple ids per head relation (the next
/// delta).
///
/// Every plan a task references must have been compiled
/// ([`PlanCache::base`] / [`PlanCache::delta`]) and its access paths
/// prepared ([`prepare_rule_access`]) before the call.
fn run_round<'h>(
    cache: &PlanCache,
    db: &mut Database,
    tasks: &[RoundTask<'h, '_>],
    filter: Option<&DerivationFilter<'_>>,
    stats: &mut EvalStats,
    sc: &mut EvalScratch,
) -> Result<Delta<'h>> {
    let db_ref: &Database = db;
    let mut outs: Vec<(&str, Option<ProducedRows>)> = Vec::with_capacity(tasks.len());
    for t in tasks {
        let (plan, delta) = match t.delta {
            Some((body_index, relation, ids)) => (
                cache.delta_ref(t.ri, body_index),
                Some(DeltaRows {
                    body_index,
                    rel: db_ref.relation(relation)?,
                    ids,
                }),
            ),
            None => (cache.base_ref(t.ri), None),
        };
        let produced = eval_rule_ids_prepared(plan, db_ref, delta, filter, stats, sc, true)?;
        if !produced.is_empty() {
            outs.push((t.head, Some(produced)));
        }
    }
    merge_round_outputs(db, outs, stats)
}

/// Merge the round's task outputs into their head relations — heads in
/// order of first appearance, each head's batches in task order — and
/// return the genuinely new tuple ids per head.
fn merge_round_outputs<'h>(
    db: &mut Database,
    mut outs: Vec<(&'h str, Option<ProducedRows>)>,
    stats: &mut EvalStats,
) -> Result<Delta<'h>> {
    let mut fresh_by_head: Delta<'h> = Vec::new();
    for i in 0..outs.len() {
        let head = outs[i].0;
        let mut batches = outs[i..]
            .iter_mut()
            .filter(|(h, _)| *h == head)
            .filter_map(|(_, produced)| produced.take())
            .peekable();
        if batches.peek().is_none() {
            continue; // merged with an earlier task of the same head
        }
        let (rel, vpool) = db.relation_and_pool_mut(head)?;
        let mut fresh = Vec::new();
        for batch in batches {
            match batch {
                ProducedRows::Rows { arity, ids, hashes } => {
                    for (r, &hash) in hashes.iter().enumerate() {
                        let row = &ids[r * arity..(r + 1) * arity];
                        let (tid, new) = rel.insert_row(vpool, row, hash)?;
                        if new {
                            stats.tuples_inserted += 1;
                            fresh.push(tid);
                        }
                    }
                }
                ProducedRows::Tuples(tuples) => {
                    for t in tuples {
                        let (tid, new) = rel.insert_full(vpool, t)?;
                        if new {
                            stats.tuples_inserted += 1;
                            fresh.push(tid);
                        }
                    }
                }
            }
        }
        if !fresh.is_empty() {
            fresh_by_head.push((head, fresh));
        }
    }
    Ok(fresh_by_head)
}

/// How a positive literal accesses its relation during the interned join.
/// All variants yield **borrowed** `&[ValueId]` rows; nothing is copied.
enum AccessIds<'a> {
    /// Linear scan of a delta id set.
    DeltaScan {
        /// The relation the ids address.
        rel: &'a Relation,
        /// The delta's tuple ids.
        ids: &'a [TupleId],
    },
    /// Probe a throwaway index over a delta id set (built when the delta is
    /// large enough to amortise hashing).
    DeltaIndex {
        /// The relation the index's ids address.
        rel: &'a Relation,
        /// Hash index over the bound columns.
        index: HashIndex,
    },
    /// Probe a persistent index stored on the relation.
    Persistent {
        /// The indexed relation.
        rel: &'a Relation,
        /// The relation-owned index over the bound columns.
        index: &'a HashIndex,
    },
    /// Scan the stored relation's rows.
    FullScan(&'a Relation),
}

/// Borrowed row stream for one join level. `'a` is the data lifetime
/// (database / delta ids / plan), `'b` the (shorter) borrow of the
/// access-path list the probed id buckets live in.
enum RowCandidates<'a, 'b> {
    Ids {
        rel: &'a Relation,
        ids: std::slice::Iter<'b, TupleId>,
    },
    Scan(RowIter<'a>),
}

impl<'a, 'b> RowCandidates<'a, 'b> {
    /// Probe / open the access path for one interned key. The key is only
    /// used for the probe; the returned stream does not retain it.
    fn open(
        access: &'b AccessIds<'a>,
        key: &[ValueId],
        pool: &ValuePool,
        stats: &mut EvalStats,
    ) -> Self {
        match access {
            AccessIds::DeltaScan { rel, ids } => RowCandidates::Ids {
                rel,
                ids: ids.iter(),
            },
            AccessIds::DeltaIndex { rel, index } => RowCandidates::Ids {
                rel,
                ids: index.probe_row(key, pool).iter(),
            },
            AccessIds::Persistent { rel, index } => {
                stats.index_probes += 1;
                RowCandidates::Ids {
                    rel,
                    ids: index.probe_row(key, pool).iter(),
                }
            }
            AccessIds::FullScan(rel) => RowCandidates::Scan(rel.iter_rows()),
        }
    }
}

impl<'a, 'b> Iterator for RowCandidates<'a, 'b> {
    type Item = &'a [ValueId];

    #[inline]
    fn next(&mut self) -> Option<&'a [ValueId]> {
        match self {
            RowCandidates::Ids { rel, ids } => ids.next().map(|&id| rel.row(id)),
            RowCandidates::Scan(it) => it.next().map(|(_, row)| row),
        }
    }
}

/// Reusable join scratch, retained across rule applications within one
/// evaluator call, so the interned pipeline performs no per-application
/// buffer allocations (and, via [`insert_rows`] recycling the output
/// buffers, no per-application output allocations either).
#[derive(Default)]
struct EvalScratch {
    /// Variable bindings as value ids; [`ValueId::NONE`] marks unbound.
    bindings: Vec<ValueId>,
    /// Reusable probe-key buffers, one in flight per recursion level.
    key_pool: Vec<Vec<ValueId>>,
    /// Scratch for instantiating negated literals.
    neg_scratch: Vec<ValueId>,
    /// Scratch for instantiating id heads — duplicate derivations are
    /// detected against the head relation from here, before anything
    /// allocates.
    head_scratch: Vec<ValueId>,
    /// Scratch for instantiating value (Skolem) heads.
    head_vals: Vec<Value>,
    out_ids: Vec<ValueId>,
    out_hashes: Vec<u64>,
    out_tuples: Vec<Tuple>,
}

/// Mutable join state threaded through the interned recursion.
struct JoinStateIds<'a, 's> {
    sc: &'s mut EvalScratch,
    /// When set, head instantiations already present in this relation are
    /// dropped without materialising anything (monotone fixpoint paths).
    head_rel: Option<&'a Relation>,
    /// Pre-resolved relations of the negated literals, in rule order.
    neg_rels: Vec<&'a Relation>,
}

/// Instantiate a compiled head term under id bindings, resolving pooled
/// values and constructing labeled nulls for Skolem terms.
fn eval_head_term_pooled(term: &CompiledHeadTerm, bindings: &[ValueId], pool: &ValuePool) -> Value {
    match term {
        CompiledHeadTerm::Var(s) => pool.value(bindings[*s]).clone(),
        CompiledHeadTerm::Const(v) => v.clone(),
        CompiledHeadTerm::Skolem(f, args) => Value::labeled_null(
            *f,
            args.iter()
                .map(|a| eval_head_term_pooled(a, bindings, pool))
                .collect(),
        ),
    }
}

/// The mutable half of a rule application: validate the plan's relations
/// and make sure the persistent index behind every probing access path
/// exists, so [`eval_rule_ids_prepared`] can run against `&Database`. Must
/// be called for every plan of a round before the round's tasks run;
/// relations do not change between the two (inserts happen only at the
/// round's merge).
///
/// `delta_body` names the body occurrence a delta will be supplied for, if
/// any; that occurrence needs no stored-relation index.
fn prepare_rule_access(
    plan: &CompiledPlan,
    db: &mut Database,
    delta_body: Option<usize>,
) -> Result<()> {
    for pos in &plan.rule.positives {
        if !db.has_relation(&pos.relation) {
            return Err(DatalogError::MissingRelation(pos.relation.clone()));
        }
        if delta_body == Some(pos.body_index) {
            continue;
        }
        let bound_cols = pos.bound_columns();
        if !bound_cols.is_empty() {
            db.relation_mut(&pos.relation)?.ensure_index(&bound_cols)?;
        }
    }
    Ok(())
}

/// Evaluate one compiled plan on the interned pipeline and return the head
/// rows it produces. The read-only half of a rule application: the caller
/// ran [`prepare_rule_access`] for this plan first, so the database is
/// borrowed immutably (every task of a round borrows the same one).
///
/// `delta` optionally restricts one body occurrence to the supplied rows
/// (semi-naive evaluation / insertion and deletion delta rules).
///
/// With `skip_existing`, head instantiations already present in the head
/// relation are dropped inside the join (before any allocation) — correct
/// only for monotone insertion paths, where the caller would discard them
/// as duplicates anyway; deletion delta rules and ad-hoc rule evaluation
/// must pass `false` because they expect previously derived tuples back.
fn eval_rule_ids_prepared(
    plan: &CompiledPlan,
    db_ref: &Database,
    delta: Option<DeltaRows<'_>>,
    filter: Option<&DerivationFilter<'_>>,
    stats: &mut EvalStats,
    sc: &mut EvalScratch,
    skip_existing: bool,
) -> Result<ProducedRows> {
    stats.rule_applications += 1;
    if plan.rule.reordered {
        stats.reorders_applied += 1;
    }
    let c = &plan.rule;

    // Pick a borrowed access path per positive literal and pre-resolve the
    // negated literals' relations.
    let pool = db_ref.pool();
    let mut neg_rels: Vec<&Relation> = Vec::with_capacity(c.negatives.len());
    for neg in &c.negatives {
        neg_rels.push(db_ref.relation(&neg.relation)?);
    }
    let mut accesses: Vec<AccessIds<'_>> = Vec::with_capacity(c.positives.len());
    for pos in &c.positives {
        let bound_cols = pos.bound_columns();
        if let Some(d) = delta.filter(|d| d.body_index == pos.body_index) {
            let (rel, ids) = (d.rel, d.ids);
            if !bound_cols.is_empty() && ids.len() >= DELTA_INDEX_MIN {
                let index = HashIndex::build_from_rows(
                    bound_cols,
                    ids.len(),
                    ids.iter().map(|&tid| (tid, rel.row(tid))),
                    pool,
                );
                stats.delta_indexes_built += 1;
                accesses.push(AccessIds::DeltaIndex { rel, index });
            } else {
                accesses.push(AccessIds::DeltaScan { rel, ids });
            }
            continue;
        }
        let rel = db_ref.relation(&pos.relation)?;
        let index = if bound_cols.is_empty() {
            None
        } else {
            rel.index(&bound_cols)
        };
        accesses.push(match index {
            Some(index) => AccessIds::Persistent { rel, index },
            // Nothing to probe on — or, unreachable after
            // `prepare_rule_access`, no index: scan.
            None => AccessIds::FullScan(rel),
        });
    }

    // Interned nested-loop join over the chosen access paths.
    let head_rel = if skip_existing {
        Some(db_ref.relation(&c.head_relation)?)
    } else {
        None
    };
    sc.bindings.clear();
    sc.bindings.resize(c.var_count, ValueId::NONE);
    debug_assert!(sc.out_ids.is_empty() && sc.out_hashes.is_empty() && sc.out_tuples.is_empty());
    let mut state = JoinStateIds {
        sc,
        head_rel,
        neg_rels,
    };
    join_literal_ids(plan, pool, &accesses, 0, &mut state, filter, stats)?;
    Ok(if plan.ids.head.is_some() {
        ProducedRows::Rows {
            arity: c.head_arity,
            ids: std::mem::take(&mut sc.out_ids),
            hashes: std::mem::take(&mut sc.out_hashes),
        }
    } else {
        ProducedRows::Tuples(std::mem::take(&mut sc.out_tuples))
    })
}

fn join_literal_ids<'a>(
    plan: &'a CompiledPlan,
    pool: &'a ValuePool,
    accesses: &[AccessIds<'a>],
    idx: usize,
    st: &mut JoinStateIds<'a, '_>,
    filter: Option<&DerivationFilter<'_>>,
    stats: &mut EvalStats,
) -> Result<()> {
    let c = &plan.rule;
    if idx == c.positives.len() {
        // All positive literals satisfied; check negated literals from the
        // id scratch buffer (integer probes against cached hashes).
        for (ni, neg_srcs) in plan.ids.negatives.iter().enumerate() {
            st.sc.neg_scratch.clear();
            for s in neg_srcs {
                st.sc.neg_scratch.push(s.resolve(&st.sc.bindings));
            }
            let h = pool.row_hash(&st.sc.neg_scratch);
            if st.neg_rels[ni].contains_row_hashed(h, &st.sc.neg_scratch) {
                return Ok(());
            }
        }
        match &plan.ids.head {
            Some(srcs) => {
                // Id head: instantiate into the id scratch — copying u32s,
                // no value is touched.
                st.sc.head_scratch.clear();
                for s in srcs {
                    st.sc.head_scratch.push(s.resolve(&st.sc.bindings));
                }
                stats.tuples_derived += 1;
                let hash = pool.row_hash(&st.sc.head_scratch);
                if let Some(hr) = st.head_rel {
                    // Duplicate derivations die here: an integer hash probe
                    // plus id-row compare, zero allocations.
                    if hr.contains_row_hashed(hash, &st.sc.head_scratch) {
                        return Ok(());
                    }
                }
                if let Some(f) = filter {
                    let values: Vec<Value> = st
                        .sc
                        .head_scratch
                        .iter()
                        .map(|&id| pool.value(id).clone())
                        .collect();
                    let tuple = Tuple::from_prehashed(values, hash);
                    if !f(&c.head_relation, &tuple) {
                        stats.filtered_out += 1;
                        return Ok(());
                    }
                }
                st.sc.out_ids.extend_from_slice(&st.sc.head_scratch);
                st.sc.out_hashes.push(hash);
            }
            None => {
                // Value head (Skolem terms): construct the labeled nulls,
                // still deduplicating before any tuple is allocated.
                st.sc.head_vals.clear();
                for t in &c.head {
                    st.sc
                        .head_vals
                        .push(eval_head_term_pooled(t, &st.sc.bindings, pool));
                }
                stats.tuples_derived += 1;
                let hash = orchestra_storage::tuple::values_hash(&st.sc.head_vals);
                if let Some(hr) = st.head_rel {
                    if hr.contains_values_hashed(hash, &st.sc.head_vals) {
                        return Ok(());
                    }
                }
                let tuple = Tuple::from_prehashed(std::mem::take(&mut st.sc.head_vals), hash);
                if let Some(f) = filter {
                    if !f(&c.head_relation, &tuple) {
                        stats.filtered_out += 1;
                        return Ok(());
                    }
                }
                st.sc.out_tuples.push(tuple);
            }
        }
        return Ok(());
    }

    let pos = &c.positives[idx];
    let srcs = &plan.ids.bound[idx];

    // Assemble the interned probe key in a pooled buffer.
    let mut key = st.sc.key_pool.pop().unwrap_or_default();
    for s in srcs {
        key.push(s.resolve(&st.sc.bindings));
    }

    let candidates = RowCandidates::open(&accesses[idx], &key, pool, stats);
    for row in candidates {
        stats.candidates_scanned += 1;
        // Verify the bound columns — integer compares (index probes return
        // hash-bucket candidates; scans are unfiltered).
        if !pos
            .bound
            .iter()
            .zip(key.iter())
            .all(|((col, _), &kid)| row[*col] == kid)
        {
            continue;
        }
        // Bind the free columns by id.
        for (col, slot) in &pos.free {
            st.sc.bindings[*slot] = row[*col];
        }
        // Enforce repeated variables within this same atom (e.g. R(x, x)).
        let intra_ok = pos
            .intra
            .iter()
            .all(|(col, slot)| st.sc.bindings[*slot] == row[*col]);
        if !intra_ok {
            continue;
        }
        join_literal_ids(plan, pool, accesses, idx + 1, st, filter, stats)?;
    }
    // Unbind this literal's free slots and return the key buffer to the
    // pool before handing control back.
    for (_, slot) in &pos.free {
        st.sc.bindings[*slot] = ValueId::NONE;
    }
    key.clear();
    st.sc.key_pool.push(key);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Literal};
    use crate::rule::Rule;
    use crate::term::Term;
    use orchestra_storage::SkolemFnId;
    use orchestra_storage::{tuple::int_tuple, RelationSchema};

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::with_vars(rel, vars)
    }

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("edge", &["s", "d"]))
            .unwrap();
        for (s, d) in edges {
            db.insert("edge", int_tuple(&[*s, *d])).unwrap();
        }
        db
    }

    fn tc_program() -> Program {
        Program::from_rules(vec![
            Rule::positive(atom("path", &["x", "y"]), vec![atom("edge", &["x", "y"])]),
            Rule::positive(
                atom("path", &["x", "z"]),
                vec![atom("path", &["x", "y"]), atom("edge", &["y", "z"])],
            ),
        ])
    }

    #[test]
    fn transitive_closure() {
        let mut db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let mut eval = Evaluator::new();
        let stats = eval
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut db,
                Seed::All,
                None,
            )
            .unwrap()
            .stats;
        let path = db.relation("path").unwrap();
        assert_eq!(path.len(), 6);
        assert!(path.contains(&int_tuple(&[1, 4])));
        assert!(stats.tuples_inserted >= 6);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn naive_and_seminaive_agree_on_cycles() {
        let mut db1 = edge_db(&[(1, 2), (2, 3), (3, 1)]);
        let mut db2 = db1.snapshot();
        Evaluator::new()
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut db1,
                Seed::All,
                None,
            )
            .unwrap();
        Evaluator::new().run_naive(&tc_program(), &mut db2).unwrap();
        assert_eq!(
            db1.relation("path").unwrap().sorted_tuples(),
            db2.relation("path").unwrap().sorted_tuples()
        );
        assert_eq!(db1.relation("path").unwrap().len(), 9);
    }

    #[test]
    fn negation_filters_results() {
        // visible(x) :- node(x), not hidden(x).
        let program = Program::from_rules(vec![Rule::new(
            atom("visible", &["x"]),
            vec![
                Literal::positive(atom("node", &["x"])),
                Literal::negative(atom("hidden", &["x"])),
            ],
        )]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("node", &["x"]))
            .unwrap();
        db.create_relation(RelationSchema::new("hidden", &["x"]))
            .unwrap();
        for i in 0..5 {
            db.insert("node", int_tuple(&[i])).unwrap();
        }
        db.insert("hidden", int_tuple(&[2])).unwrap();
        db.insert("hidden", int_tuple(&[4])).unwrap();

        let mut eval = Evaluator::new();
        eval.fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None)
            .unwrap();
        let visible = db.relation("visible").unwrap();
        assert_eq!(visible.len(), 3);
        assert!(!visible.contains(&int_tuple(&[2])));
    }

    #[test]
    fn skolem_heads_produce_labeled_nulls() {
        // u(n, #f0(n)) :- b(i, n).
        let program = Program::from_rules(vec![Rule::positive(
            Atom::new(
                "u",
                vec![
                    Term::var("n"),
                    Term::skolem(SkolemFnId(0), vec![Term::var("n")]),
                ],
            ),
            vec![atom("b", &["i", "n"])],
        )]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("b", &["i", "n"]))
            .unwrap();
        db.insert("b", int_tuple(&[3, 5])).unwrap();
        db.insert("b", int_tuple(&[4, 5])).unwrap();
        db.insert("b", int_tuple(&[3, 2])).unwrap();

        let mut eval = Evaluator::new();
        eval.fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None)
            .unwrap();
        let u = db.relation("u").unwrap();
        // Both (3,5) and (4,5) produce the same placeholder f0(5): set
        // semantics collapses them, so u has exactly 2 tuples.
        assert_eq!(u.len(), 2);
        assert!(u.contains(&Tuple::new(vec![
            Value::int(5),
            Value::labeled_null(SkolemFnId(0), vec![Value::int(5)]),
        ])));
    }

    #[test]
    fn filter_rejects_derivations_and_blocks_downstream() {
        // chain: a -> b -> c; filter rejects b tuples with value > 1, so the
        // corresponding c tuples are never derived either.
        let program = Program::from_rules(vec![
            Rule::positive(atom("b", &["x"]), vec![atom("a", &["x"])]),
            Rule::positive(atom("c", &["x"]), vec![atom("b", &["x"])]),
        ]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("a", &["x"]))
            .unwrap();
        db.insert("a", int_tuple(&[1])).unwrap();
        db.insert("a", int_tuple(&[5])).unwrap();

        let filter =
            |rel: &str, t: &Tuple| -> bool { !(rel == "b" && t[0].as_int().unwrap_or(0) > 1) };
        let mut eval = Evaluator::new();
        let stats = eval
            .fixpoint(
                &mut PlanCache::new(),
                &program,
                &mut db,
                Seed::All,
                Some(&filter),
            )
            .unwrap()
            .stats;
        assert_eq!(db.relation("b").unwrap().len(), 1);
        assert_eq!(db.relation("c").unwrap().len(), 1);
        assert_eq!(stats.filtered_out, 1);
    }

    #[test]
    fn incremental_insertions_match_full_recomputation() {
        // Full computation over all edges at once...
        let mut full = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        Evaluator::new()
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut full,
                Seed::All,
                None,
            )
            .unwrap();

        // ...must equal base computation plus incremental propagation.
        let mut incr = edge_db(&[(1, 2), (2, 3)]);
        let mut eval = Evaluator::new();
        eval.fixpoint(
            &mut PlanCache::new(),
            &tc_program(),
            &mut incr,
            Seed::All,
            None,
        )
        .unwrap();
        let mut deltas = HashMap::new();
        deltas.insert(
            "edge".to_string(),
            vec![int_tuple(&[3, 4]), int_tuple(&[4, 5])],
        );
        let new = eval
            .fixpoint(
                &mut PlanCache::new(),
                &tc_program(),
                &mut incr,
                Seed::Insert(&deltas),
                None,
            )
            .unwrap();
        assert_eq!(
            full.relation("path").unwrap().sorted_tuples(),
            incr.relation("path").unwrap().sorted_tuples()
        );
        let path = incr.relation("path").unwrap();
        assert!(new.fresh.contains_key("path"));
        assert!(new.fresh["path"]
            .iter()
            .any(|&id| path.tuple_by_id(id) == &int_tuple(&[1, 5])));
    }

    #[test]
    fn cached_plans_reproduce_uncached_results() {
        // Reusing one PlanCache across many incremental propagations (the
        // CDSS exchange pattern) must agree with fresh compilation, and the
        // reuse must show up in the stats.
        let program = tc_program();
        let mut cached_db = edge_db(&[(1, 2), (2, 3)]);
        let mut fresh_db = edge_db(&[(1, 2), (2, 3)]);
        let mut cache = PlanCache::new();
        let mut cached_eval = Evaluator::new();
        let mut fresh_eval = Evaluator::new();
        cached_eval
            .fixpoint(&mut cache, &program, &mut cached_db, Seed::All, None)
            .unwrap();
        fresh_eval
            .fixpoint(
                &mut PlanCache::new(),
                &program,
                &mut fresh_db,
                Seed::All,
                None,
            )
            .unwrap();
        for step in 0..4i64 {
            let mut deltas = HashMap::new();
            deltas.insert(
                "edge".to_string(),
                vec![int_tuple(&[3 + step, 4 + step]), int_tuple(&[step, 7])],
            );
            cached_eval
                .fixpoint(
                    &mut cache,
                    &program,
                    &mut cached_db,
                    Seed::Insert(&deltas),
                    None,
                )
                .unwrap();
            fresh_eval
                .fixpoint(
                    &mut PlanCache::new(),
                    &program,
                    &mut fresh_db,
                    Seed::Insert(&deltas),
                    None,
                )
                .unwrap();
        }
        assert_eq!(
            cached_db.relation("path").unwrap().sorted_tuples(),
            fresh_db.relation("path").unwrap().sorted_tuples()
        );
        let stats = cached_eval.take_stats();
        assert!(stats.plan_cache_hits > 0, "{stats}");
        assert!(stats.intern_misses > 0);
    }

    #[test]
    fn insertion_delta_on_negated_relation_is_rejected() {
        let program = Program::from_rules(vec![Rule::new(
            atom("out", &["x"]),
            vec![
                Literal::positive(atom("inp", &["x"])),
                Literal::negative(atom("rej", &["x"])),
            ],
        )]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("inp", &["x"]))
            .unwrap();
        db.create_relation(RelationSchema::new("rej", &["x"]))
            .unwrap();
        let mut eval = Evaluator::new();
        let mut deltas = HashMap::new();
        deltas.insert("rej".to_string(), vec![int_tuple(&[1])]);
        assert!(eval
            .fixpoint(
                &mut PlanCache::new(),
                &program,
                &mut db,
                Seed::Insert(&deltas),
                None
            )
            .is_err());
    }

    #[test]
    fn rejected_seed_leaves_the_database_untouched() {
        // out(x) :- inp(x), not rej(x). `out` is not stored yet, so relation
        // preparation would create it; `pair` is stored but not in the
        // program.
        let program = Program::from_rules(vec![Rule::new(
            atom("out", &["x"]),
            vec![
                Literal::positive(atom("inp", &["x"])),
                Literal::negative(atom("rej", &["x"])),
            ],
        )]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("inp", &["x"]))
            .unwrap();
        db.create_relation(RelationSchema::new("rej", &["x"]))
            .unwrap();
        db.create_relation(RelationSchema::new("pair", &["a", "b"]))
            .unwrap();
        db.insert("inp", int_tuple(&[1])).unwrap();
        let canonical = |db: &Database| {
            let mut w = orchestra_persist::codec::Writer::new();
            orchestra_persist::codec::Encode::encode(db, &mut w);
            w.into_bytes()
        };
        let (bytes, names) = (canonical(&db), db.relation_names());

        // Every seed carries valid tuples for other relations too (and, for
        // the arity case, a valid tuple ahead of the bad one), so a partial
        // insertion would show in the bytes.
        let valid = |rel: &str, t: &[i64]| (rel.to_string(), vec![int_tuple(t)]);
        type Expect = fn(&DatalogError) -> bool;
        let seeds: [(HashMap<String, Vec<Tuple>>, Expect); 3] = [
            (
                [
                    valid("inp", &[2]),
                    valid("pair", &[3, 4]),
                    valid("nowhere", &[5]),
                ]
                .into(),
                |e| matches!(e, DatalogError::MissingRelation(r) if r == "nowhere"),
            ),
            (
                [
                    valid("pair", &[3, 4]),
                    ("inp".to_string(), vec![int_tuple(&[2]), int_tuple(&[6, 7])]),
                ]
                .into(),
                |e| matches!(e, DatalogError::Storage(StorageError::ArityMismatch { .. })),
            ),
            (
                [
                    valid("inp", &[2]),
                    valid("pair", &[3, 4]),
                    valid("rej", &[1]),
                ]
                .into(),
                |e| matches!(e, DatalogError::UnsafeRule { .. }),
            ),
        ];
        for (seed, expected) in &seeds {
            let err = Evaluator::new()
                .fixpoint(
                    &mut PlanCache::new(),
                    &program,
                    &mut db,
                    Seed::Insert(seed),
                    None,
                )
                .unwrap_err();
            assert!(expected(&err), "unexpected error {err:?}");
            assert_eq!(canonical(&db), bytes, "{err:?} changed the contents");
            assert_eq!(db.relation_names(), names, "{err:?} changed the relations");
        }
    }

    #[test]
    fn evaluate_rule_returns_present_derivations_without_inserting() {
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        db.create_relation(RelationSchema::new("path", &["s", "d"]))
            .unwrap();
        db.insert("path", int_tuple(&[1, 2])).unwrap();
        db.insert("path", int_tuple(&[1, 3])).unwrap();

        // path(x,z) :- path(x,y), edge(y,z): (1,3) is already stored and
        // must still come back (no dedup against the head relation).
        let rule = Rule::positive(
            atom("path", &["x", "z"]),
            vec![atom("path", &["x", "y"]), atom("edge", &["y", "z"])],
        );
        let mut eval = Evaluator::new();
        let out = eval.evaluate_rule(&rule, &mut db, None).unwrap();
        assert_eq!(out, vec![int_tuple(&[1, 3])]);
        assert_eq!(db.relation("path").unwrap().len(), 2, "nothing inserted");
        assert_eq!(eval.stats().rule_applications, 1);
    }

    #[test]
    fn missing_edb_relations_are_created_empty() {
        let program = tc_program();
        let mut db = Database::new();
        let mut eval = Evaluator::new();
        eval.fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None)
            .unwrap();
        assert!(db.has_relation("edge"));
        assert!(db.has_relation("path"));
        assert_eq!(db.total_tuples(), 0);
    }

    #[test]
    fn arity_conflict_with_existing_relation_is_reported() {
        let program = tc_program();
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("edge", &["only_one"]))
            .unwrap();
        let mut eval = Evaluator::new();
        assert!(matches!(
            eval.fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None)
                .unwrap_err(),
            DatalogError::ArityConflict { .. }
        ));
    }

    #[test]
    fn constants_in_bodies_select() {
        // two(y) :- edge(2, y).
        let program = Program::from_rules(vec![Rule::positive(
            atom("two", &["y"]),
            vec![Atom::new(
                "edge",
                vec![Term::constant(2i64), Term::var("y")],
            )],
        )]);
        let mut db = edge_db(&[(1, 2), (2, 3), (2, 4)]);
        Evaluator::new()
            .fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None)
            .unwrap();
        assert_eq!(db.relation("two").unwrap().len(), 2);
    }

    #[test]
    fn head_constants_and_duplicates_on_id_path() {
        // mark(x, 7) :- edge(x, y): head mixes a slot and an interned
        // constant; many y collapse to one (x, 7) row — the duplicate rows
        // must deduplicate via the id path.
        let program = Program::from_rules(vec![Rule::positive(
            Atom::new("mark", vec![Term::var("x"), Term::constant(7i64)]),
            vec![atom("edge", &["x", "y"])],
        )]);
        let mut db = edge_db(&[(1, 2), (1, 3), (1, 4), (2, 9)]);
        let stats = Evaluator::new()
            .fixpoint(&mut PlanCache::new(), &program, &mut db, Seed::All, None)
            .unwrap()
            .stats;
        let mark = db.relation("mark").unwrap();
        assert_eq!(mark.len(), 2);
        assert!(mark.contains(&int_tuple(&[1, 7])));
        assert!(mark.contains(&int_tuple(&[2, 7])));
        assert!(stats.tuples_derived >= 4);
        assert_eq!(stats.tuples_inserted, 2);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut db = edge_db(&[(1, 2)]);
        let mut eval = Evaluator::new();
        eval.fixpoint(
            &mut PlanCache::new(),
            &tc_program(),
            &mut db,
            Seed::All,
            None,
        )
        .unwrap();
        assert!(eval.stats().rule_applications > 0);
        let taken = eval.take_stats();
        assert!(taken.rule_applications > 0);
        assert_eq!(eval.stats(), EvalStats::new());
    }
}

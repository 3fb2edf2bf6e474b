//! Fixpoint evaluation of datalog programs over a [`Database`].
//!
//! The evaluator implements the recursive datalog-with-Skolems semantics of
//! paper §4.1.1: per-stratum semi-naive fixpoint computation over prepared
//! join plans probing persistent indexes on the stored relations. It also
//! implements the *insertion* half of incremental update exchange (§4.2):
//! externally supplied base-tuple deltas are pushed through the program's
//! delta rules until fixpoint, optionally filtered tuple-by-tuple by a trust
//! predicate.
//!
//! ## The interned join pipeline
//!
//! There is exactly one join implementation ([`join_literal_ids`]), and it
//! runs entirely in **id currency** ([`ValueId`]s from the database's
//! intern pool and [`TupleId`]s from the relations' slabs). The semi-naive
//! fixpoint, insertion propagation, the naive oracle
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

use std::collections::HashMap;

use orchestra_storage::{
    Database, HashIndex, Relation, RelationSchema, RowIter, Tuple, TupleId, Value, ValueId,
    ValuePool,
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

/// Smallest per-worker delta chunk: splitting finer than this costs more in
/// task dispatch than the join work it parallelises.
pub const PAR_MIN_CHUNK: usize = 64;

/// Smallest per-head merge batch worth the sharded parallel liveness pass;
/// below this the sequential insert loop's own dedup is cheaper.
pub const PAR_DEDUP_MIN: usize = 256;

/// Shard count of the parallel dedup merge (fixed so shard assignment —
/// `hash % MERGE_SHARDS` — never depends on the worker count).
pub const MERGE_SHARDS: usize = 16;

/// A predicate consulted before a derived tuple is added to its relation.
///
/// The CDSS layer uses this to enforce trust conditions *during* derivation
/// (paper §4.2: "as we derive tuples via mapping rules from trusted tuples,
/// we simply apply the associated trust conditions"). Returning `false`
/// rejects the tuple: it is neither stored nor used for further derivations.
/// `Send + Sync` because the parallel fixpoint consults it from worker
/// threads.
pub type DerivationFilter<'a> = dyn Fn(&str, &Tuple) -> bool + Send + Sync + 'a;

/// Scan `relation`, keeping tuples whose columns equal the `Some` entries
/// of `binding`, returned sorted. Runs in id currency: each bound constant
/// is resolved against the value pool once — a constant the pool has never
/// seen cannot match any stored row, so the scan short-circuits to an
/// empty answer without touching the relation.
pub fn bound_scan(db: &Database, relation: &str, binding: &[Option<Value>]) -> Result<Vec<Tuple>> {
    let rel = db.relation(relation)?;
    if binding.len() != rel.schema().arity() {
        return Err(DatalogError::ArityConflict {
            relation: relation.to_string(),
            first: rel.schema().arity(),
            second: binding.len(),
        });
    }
    let pool = db.pool();
    let mut bound: Vec<(usize, ValueId)> = Vec::new();
    for (i, b) in binding.iter().enumerate() {
        if let Some(v) = b {
            match pool.lookup(v) {
                Some(id) => bound.push((i, id)),
                None => return Ok(Vec::new()),
            }
        }
    }
    let mut out: Vec<Tuple> = rel
        .iter_rows()
        .filter(|(_, row)| bound.iter().all(|(i, id)| row[*i] == *id))
        .map(|(_, row)| Tuple::new(row.iter().map(|id| pool.value(*id).clone()).collect()))
        .collect();
    out.sort();
    Ok(out)
}

/// The datalog evaluator. Accumulates [`EvalStats`] across calls.
///
/// ## Parallel fixpoint
///
/// When constructed with a thread pool ([`Evaluator::new`] adopts the
/// process-global pool when it has more than one thread), each fixpoint
/// round fans out over the pool: one task per rule in round zero, one task
/// per delta *chunk* per rule occurrence in later rounds. Workers evaluate
/// against a frozen database snapshot; their head derivations are merged in
/// deterministic task order (rule, then occurrence, then chunk), so the
/// final instance, its provenance, and any canonical re-encode are
/// byte-identical at every worker count — including one.
///
/// Determinism rests on the delta-first plan shape: a delta occurrence is
/// always forced to join position 0, so a chunked delta produces exactly
/// the per-chunk slices of the unchunked output stream, and concatenating
/// them in chunk order reproduces it regardless of where the chunk
/// boundaries fall.
#[derive(Debug)]
pub struct Evaluator {
    pool: Option<orchestra_pool::Pool>,
    stats: EvalStats,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new()
    }
}

impl Evaluator {
    /// Create an evaluator running on the process-global thread pool when
    /// it has more than one thread (`ORCHESTRA_THREADS` /
    /// [`orchestra_pool::configure_global`]).
    pub fn new() -> Self {
        Evaluator::with_pool(orchestra_pool::global().clone())
    }

    /// Create a single-threaded evaluator regardless of the global pool.
    pub fn sequential() -> Self {
        Evaluator {
            pool: None,
            stats: EvalStats::new(),
        }
    }

    /// Create an evaluator running fixpoint rounds on the given pool.
    pub fn with_pool(pool: orchestra_pool::Pool) -> Self {
        Evaluator {
            pool: (pool.threads() > 1).then_some(pool),
            stats: EvalStats::new(),
        }
    }

    /// The number of threads fixpoint rounds run on (1 = inline).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, orchestra_pool::Pool::threads)
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
    fn prepare_relations_from(
        arities: &std::collections::BTreeMap<String, usize>,
        db: &mut Database,
    ) -> Result<()> {
        for (name, &arity) in arities {
            if db.has_relation(name) {
                let actual = db.relation(name)?.schema().arity();
                if actual != arity {
                    return Err(DatalogError::ArityConflict {
                        relation: name.clone(),
                        first: actual,
                        second: arity,
                    });
                }
            } else {
                db.create_relation(RelationSchema::anonymous(name, arity))?;
            }
        }
        Ok(())
    }

    /// Run the program to fixpoint, stratum by stratum, adding derived tuples
    /// to the database. Returns the statistics for this run.
    pub fn run(&mut self, program: &Program, db: &mut Database) -> Result<EvalStats> {
        self.run_filtered(program, db, None)
    }

    /// Like [`Evaluator::run`], but every derived tuple is first offered to
    /// `filter`; rejected tuples are discarded.
    pub fn run_filtered(
        &mut self,
        program: &Program,
        db: &mut Database,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<EvalStats> {
        let mut cache = PlanCache::new();
        self.run_filtered_cached(&mut cache, program, db, filter)
    }

    /// Like [`Evaluator::run_filtered`] with an external [`PlanCache`]: the
    /// validated stratification and compiled join plans persist in `cache`
    /// across calls (the CDSS layer keeps one cache per database and reuses
    /// it for every exchange against the same mapping program).
    pub fn run_filtered_cached(
        &mut self,
        cache: &mut PlanCache,
        program: &Program,
        db: &mut Database,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<EvalStats> {
        let _span = orchestra_obs::span("eval", "datalog");
        let prepared = cache.prepare(program)?;
        Self::prepare_relations_from(&*cache.arities(program)?, db)?;
        cache.refresh(program, db);
        let pool_before = db.pool_stats();
        let plan_hits_before = cache.hits;

        let workers = self.threads();
        let steals_before = self.pool.as_ref().map_or(0, |p| p.stats().steals);
        let mut total = EvalStats::new();
        for stratum_rules in &prepared.strata.rule_strata {
            if stratum_rules.is_empty() {
                continue;
            }
            let _stratum = orchestra_obs::span_tagged("stratum", "datalog", workers as u64);
            let s =
                self.run_stratum_seminaive(cache, &prepared, stratum_rules, program, db, filter)?;
            total += s;
        }
        let pool_after = db.pool_stats();
        total.intern_hits += (pool_after.hits - pool_before.hits) as usize;
        total.intern_misses += (pool_after.misses - pool_before.misses) as usize;
        total.plan_cache_hits += (cache.hits - plan_hits_before) as usize;
        if let Some(p) = &self.pool {
            orchestra_obs::counter("eval_pool_steals_total")
                .add(p.stats().steals.saturating_sub(steals_before));
        }
        self.stats += total;
        total.record_to_registry();
        Ok(total)
    }

    /// Demand-driven (magic-sets) point query: answers of `predicate`
    /// matching the per-column constant `binding`, computed by seeding the
    /// bound constants as magic facts and running the cached demand
    /// rewrite to fixpoint — only the relevant derivation cone is explored
    /// (see [`crate::magic`]). The guarantee is differential: the returned
    /// (sorted) tuples equal the full fixpoint's `predicate` contents
    /// restricted to the binding, when the fixpoint starts from the same
    /// base data. Relations defined by rules are recomputed from base
    /// data; their pre-existing stored contents are not consulted.
    ///
    /// The demand fixpoint runs over scratch relations (`p~dmd`, magic
    /// relations), created on first use and left *empty* in `db` between
    /// queries; base relations are read in place. The rewrite and its
    /// compiled plans are cached in `cache` keyed by `(predicate,
    /// adornment)`, so repeated point queries with the same shape only pay
    /// for the (small) fixpoint.
    pub fn run_demand_cached(
        &mut self,
        cache: &mut PlanCache,
        program: &Program,
        db: &mut Database,
        predicate: &str,
        binding: &[Option<Value>],
    ) -> Result<Vec<Tuple>> {
        let _span = orchestra_obs::span("demand", "datalog");
        cache.prepare(program)?;
        let arities = cache.arities(program)?;
        match arities.get(predicate) {
            Some(&arity) if arity != binding.len() => {
                return Err(DatalogError::ArityConflict {
                    relation: predicate.to_string(),
                    first: arity,
                    second: binding.len(),
                });
            }
            Some(_) => {}
            None => {
                // Unknown to the program: an extensional bound scan if the
                // database has it, otherwise a clean error.
                if !db.has_relation(predicate) {
                    return Err(DatalogError::MissingRelation(predicate.to_string()));
                }
                return bound_scan(db, predicate, binding);
            }
        }
        if !program.idb_relations().contains(predicate) {
            // Extensional relation: the binding answers itself.
            if !db.has_relation(predicate) {
                return Ok(Vec::new());
            }
            return bound_scan(db, predicate, binding);
        }

        let adornment = crate::magic::Adornment::from_binding(binding);
        let (entry, entry_hit) = cache.magic_entry(program, predicate, &adornment)?;
        let crate::plan::MagicEntry { rewrite, plans } = entry;
        // Create-or-clear the scratch cone. Clearing (rather than
        // dropping) keeps the scratch relations' index definitions, so
        // repeated queries of one shape do not re-create them.
        for (name, arity) in &rewrite.scratch_relations {
            db.create_relation_if_absent(RelationSchema::anonymous(name.clone(), *arity))
                .clear();
        }
        let mut seeds = 0usize;
        if let Some(seed) = &rewrite.seed_relation {
            let key: Vec<Value> = binding.iter().flatten().cloned().collect();
            db.insert(seed, Tuple::new(key))?;
            seeds = 1;
        }
        let run = self.run_filtered_cached(plans, &rewrite.program, db, None)?;
        let demand = EvalStats {
            magic_seed_facts: seeds,
            demand_rules_fired: run.rule_applications,
            demand_plan_cache_hits: entry_hit as usize,
            ..EvalStats::default()
        };
        self.stats += demand;
        demand.record_to_registry();
        let answers = bound_scan(db, &rewrite.answer_relation, binding)?;
        // Leave only empty scratch relations behind: the caller's database
        // is observably unchanged apart from pool interning growth.
        for (name, _) in &rewrite.scratch_relations {
            if let Ok(rel) = db.relation_mut(name) {
                rel.clear();
            }
        }
        Ok(answers)
    }

    /// Naive (non-semi-naive) evaluation: repeatedly apply every rule of each
    /// stratum, in written body order, until nothing changes. Exponentially
    /// redundant but trivially correct; used as a differential-testing
    /// oracle for the semi-naive engine. Always sequential.
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
                    let outs = vec![(plan.rule.head_relation.as_str(), produced)];
                    changed |= !merge_round_outputs(db, outs, &mut stats, None)?.is_empty();
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

    fn run_stratum_seminaive(
        &mut self,
        cache: &mut PlanCache,
        prepared: &PreparedProgram,
        stratum_rules: &[usize],
        program: &Program,
        db: &mut Database,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<EvalStats> {
        let mut stats = EvalStats::new();
        let stash = ScratchStash::default();
        let pool = self.pool.as_ref();

        // Round 0: evaluate every rule of the stratum against the full
        // database (one task per rule); the newly inserted tuple ids seed
        // the delta. All rules of a round see the same frozen snapshot and
        // their outputs merge afterwards in rule order, so the round
        // decomposes into independent tasks at any worker count.
        let mut tasks: Vec<RoundTask<'_>> = Vec::with_capacity(stratum_rules.len());
        for &ri in stratum_rules {
            let plan = cache.base(program, ri, db.pool_mut())?;
            prepare_rule_access(plan, db, None)?;
            tasks.push(RoundTask { ri, delta: None });
        }
        let mut delta = run_round(pool, cache, db, tasks, filter, &mut stats, &stash)?;
        stats.iterations += 1;

        // Subsequent rounds: only evaluate rule occurrences that can consume
        // something from the previous round's delta, each with its
        // delta-first compiled variant, each delta split into worker-sized
        // chunks. Deltas are id sets into the stored relations — nothing is
        // re-materialised between rounds.
        while !delta.is_empty() {
            let mut tasks: Vec<RoundTask<'_>> = Vec::new();
            for &ri in stratum_rules {
                for (body_index, relation) in &prepared.occurrences[ri] {
                    let Some(d) = delta.get(relation) else {
                        continue;
                    };
                    if d.is_empty() {
                        continue;
                    }
                    let plan = cache.delta(program, ri, *body_index, db.pool_mut())?;
                    prepare_rule_access(plan, db, Some(*body_index))?;
                    for chunk in delta_chunks(d, pool) {
                        tasks.push(RoundTask {
                            ri,
                            delta: Some((*body_index, relation, chunk)),
                        });
                    }
                }
            }
            let next = run_round(pool, cache, db, tasks, filter, &mut stats, &stash)?;
            stats.iterations += 1;
            delta = next;
        }

        Ok(stats)
    }

    /// Incremental insertion propagation (paper §4.2).
    ///
    /// `base_deltas` maps relation names to freshly inserted tuples (they are
    /// inserted into the database by this call if not already present). The
    /// deltas are then pushed through the program's insertion delta rules
    /// until fixpoint. Returns, per relation, every tuple that is newly
    /// present after propagation (including the surviving base insertions).
    ///
    /// Relations that occur *negated* in the program must not receive base
    /// deltas: inserting into a negated relation can only retract previous
    /// derivations, which is deletion propagation's job (handled by the CDSS
    /// layer), so such a call is rejected.
    pub fn propagate_insertions(
        &mut self,
        program: &Program,
        db: &mut Database,
        base_deltas: &HashMap<String, Vec<Tuple>>,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<HashMap<String, Vec<Tuple>>> {
        let mut cache = PlanCache::new();
        self.propagate_insertions_cached(&mut cache, program, db, base_deltas, filter)
    }

    /// Like [`Evaluator::propagate_insertions`] with an external
    /// [`PlanCache`] (see [`Evaluator::run_filtered_cached`]).
    pub fn propagate_insertions_cached(
        &mut self,
        cache: &mut PlanCache,
        program: &Program,
        db: &mut Database,
        base_deltas: &HashMap<String, Vec<Tuple>>,
        filter: Option<&DerivationFilter<'_>>,
    ) -> Result<HashMap<String, Vec<Tuple>>> {
        let prepared = cache.prepare(program)?;
        Self::prepare_relations_from(&*cache.arities(program)?, db)?;
        cache.refresh(program, db);
        let pool_before = db.pool_stats();
        let plan_hits_before = cache.hits;

        // Reject deltas on negated relations.
        for rule in program.rules() {
            for lit in &rule.body {
                if lit.negated && base_deltas.contains_key(lit.relation()) {
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

        let mut stats = EvalStats::new();
        let stash = ScratchStash::default();
        let pool = self.pool.as_ref();
        let steals_before = pool.map_or(0, |p| p.stats().steals);
        let mut all_new: HashMap<String, Vec<TupleId>> = HashMap::new();

        // Apply the base deltas, keeping only genuinely new tuples (as ids).
        let mut delta: HashMap<String, Vec<TupleId>> = HashMap::new();
        for (rel, tuples) in base_deltas {
            if !db.has_relation(rel) {
                return Err(DatalogError::MissingRelation(rel.clone()));
            }
            for t in tuples {
                let (tid, fresh) = db.insert_full(rel, t.clone())?;
                if fresh {
                    stats.tuples_inserted += 1;
                    delta.entry(rel.clone()).or_default().push(tid);
                    all_new.entry(rel.clone()).or_default().push(tid);
                }
            }
        }

        // Push deltas through the rules until fixpoint, each occurrence
        // with its delta-first compiled variant, each delta split into
        // worker-sized chunks. Each round is a span, so a trace timeline
        // shows the fixpoint converging (formerly an `ORCHESTRA_TRACE_EVAL`
        // stderr dump).
        let workers = self.threads() as u64;
        let _fixpoint = orchestra_obs::span("fixpoint-insertions", "datalog");
        while !delta.is_empty() {
            let _round = orchestra_obs::span_tagged("insert-round", "datalog", workers);
            let mut tasks: Vec<RoundTask<'_>> = Vec::new();
            for (ri, rule_occurrences) in prepared.occurrences.iter().enumerate() {
                for (body_index, relation) in rule_occurrences {
                    let Some(d) = delta.get(relation) else {
                        continue;
                    };
                    if d.is_empty() {
                        continue;
                    }
                    let plan = cache.delta(program, ri, *body_index, db.pool_mut())?;
                    prepare_rule_access(plan, db, Some(*body_index))?;
                    for chunk in delta_chunks(d, pool) {
                        tasks.push(RoundTask {
                            ri,
                            delta: Some((*body_index, relation, chunk)),
                        });
                    }
                }
            }
            let next = run_round(pool, cache, db, tasks, filter, &mut stats, &stash)?;
            for (head, fresh) in &next {
                all_new
                    .entry(head.clone())
                    .or_default()
                    .extend(fresh.iter().copied());
            }
            stats.iterations += 1;
            delta = next;
        }
        if let Some(p) = pool {
            orchestra_obs::counter("eval_pool_steals_total")
                .add(p.stats().steals.saturating_sub(steals_before));
        }

        let pool_after = db.pool_stats();
        stats.intern_hits += (pool_after.hits - pool_before.hits) as usize;
        stats.intern_misses += (pool_after.misses - pool_before.misses) as usize;
        stats.plan_cache_hits += (cache.hits - plan_hits_before) as usize;
        self.stats += stats;
        stats.record_to_registry();

        // Materialise the new-tuple ids into tuples (cheap `Arc` clones of
        // the stored rows) for the public API.
        let mut out: HashMap<String, Vec<Tuple>> = HashMap::with_capacity(all_new.len());
        for (name, ids) in all_new {
            let rel = db.relation(&name)?;
            let tuples = ids.iter().map(|&id| rel.tuple_by_id(id).clone()).collect();
            out.insert(name, tuples);
        }
        Ok(out)
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

/// One unit of fixpoint-round work: a rule (base plan) or one chunk of a
/// delta against one body occurrence of a rule (delta-first plan). Tasks of
/// a round are independent — they read the same frozen database — and merge
/// in `Vec` order.
struct RoundTask<'d> {
    ri: usize,
    /// `(body_index, occurrence relation, delta chunk)`; `None` evaluates
    /// the base plan.
    delta: Option<(usize, &'d str, &'d [TupleId])>,
}

/// Shared pool of [`EvalScratch`] buffers: each worker pops one for the
/// duration of a task and pushes it back, so a round allocates at most one
/// scratch per concurrently running worker.
#[derive(Default)]
struct ScratchStash {
    free: std::sync::Mutex<Vec<EvalScratch>>,
}

impl ScratchStash {
    fn pop(&self) -> EvalScratch {
        self.free
            .lock()
            .expect("scratch stash lock")
            .pop()
            .unwrap_or_default()
    }

    fn push(&self, sc: EvalScratch) {
        self.free.lock().expect("scratch stash lock").push(sc);
    }
}

/// Split a round's delta into per-worker chunks. Sequential evaluation (or
/// a small delta) keeps one chunk; the parallel case over-partitions by 4×
/// the worker count so the steal-half scheduler can balance skewed chunks.
/// Chunk boundaries never affect the result: the delta occurrence joins at
/// position 0, so per-chunk outputs are consecutive slices of the unchunked
/// output stream (see [`Evaluator`] docs).
fn delta_chunks<'d>(
    d: &'d [TupleId],
    pool: Option<&orchestra_pool::Pool>,
) -> impl Iterator<Item = &'d [TupleId]> {
    let workers = pool.map_or(1, orchestra_pool::Pool::threads);
    let size = if workers <= 1 {
        d.len().max(1)
    } else {
        d.len().div_ceil(workers * 4).max(PAR_MIN_CHUNK)
    };
    d.chunks(size)
}

/// Evaluate one fixpoint round's tasks — on the pool when it has more than
/// one thread and the round has more than one task, inline otherwise — and
/// merge every task's head derivations into the database in task order.
/// Returns the genuinely new tuple ids per head relation (the next delta).
///
/// Every plan a task references must have been compiled
/// ([`PlanCache::base`] / [`PlanCache::delta`]) and its access paths
/// prepared ([`prepare_rule_access`]) before the call: workers share the
/// database and plan cache read-only.
fn run_round(
    pool: Option<&orchestra_pool::Pool>,
    cache: &PlanCache,
    db: &mut Database,
    tasks: Vec<RoundTask<'_>>,
    filter: Option<&DerivationFilter<'_>>,
    stats: &mut EvalStats,
    stash: &ScratchStash,
) -> Result<HashMap<String, Vec<TupleId>>> {
    if tasks.is_empty() {
        return Ok(HashMap::new());
    }
    let parallel = pool.is_some_and(|p| p.threads() > 1) && tasks.len() > 1;
    let results: Vec<Result<(ProducedRows, EvalStats)>> = {
        let db_ref: &Database = db;
        let eval_task = |t: &RoundTask<'_>| -> Result<(ProducedRows, EvalStats)> {
            let mut task_stats = EvalStats::new();
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
            let mut sc = stash.pop();
            let started = std::time::Instant::now();
            let produced =
                eval_rule_ids_prepared(plan, db_ref, delta, filter, &mut task_stats, &mut sc, true);
            orchestra_obs::histogram("eval_parallel_chunk_seconds").observe(started.elapsed());
            stash.push(sc);
            produced.map(|p| (p, task_stats))
        };
        if parallel {
            stats.parallel_tasks_spawned += tasks.len();
            let boxed: Vec<orchestra_pool::Task<'_, Result<(ProducedRows, EvalStats)>>> = tasks
                .iter()
                .map(|t| {
                    let f = &eval_task;
                    Box::new(move || f(t)) as orchestra_pool::Task<'_, _>
                })
                .collect();
            pool.expect("parallel implies a pool").run(boxed)
        } else {
            tasks.iter().map(eval_task).collect()
        }
    };

    // Fold per-task stats and collect non-empty outputs in task order —
    // the order every thread count merges in.
    let mut outs: Vec<(&str, ProducedRows)> = Vec::with_capacity(tasks.len());
    for (t, r) in tasks.iter().zip(results) {
        let (produced, task_stats) = r?;
        *stats += task_stats;
        if produced.is_empty() {
            continue;
        }
        let head: &str = match t.delta {
            Some((bi, _, _)) => &cache.delta_ref(t.ri, bi).rule.head_relation,
            None => &cache.base_ref(t.ri).rule.head_relation,
        };
        outs.push((head, produced));
    }
    merge_round_outputs(db, outs, stats, pool.filter(|p| p.threads() > 1))
}

/// Merge the round's task outputs into their head relations in task order,
/// returning the genuinely new tuple ids per head. Large merges run a
/// parallel sharded liveness pre-pass ([`sharded_liveness`]); the insert
/// loop itself is sequential and ordered, and [`Relation::insert_row`]'s
/// own duplicate check remains the final authority either way, so the
/// pre-pass is purely an optimisation.
fn merge_round_outputs(
    db: &mut Database,
    outs: Vec<(&str, ProducedRows)>,
    stats: &mut EvalStats,
    pool: Option<&orchestra_pool::Pool>,
) -> Result<HashMap<String, Vec<TupleId>>> {
    let mut order: Vec<&str> = Vec::new();
    let mut by_head: HashMap<&str, Vec<ProducedRows>> = HashMap::new();
    for (head, produced) in outs {
        by_head
            .entry(head)
            .or_insert_with(|| {
                order.push(head);
                Vec::new()
            })
            .push(produced);
    }

    let mut fresh_by_head: HashMap<String, Vec<TupleId>> = HashMap::new();
    for head in order {
        let batches = by_head.remove(head).expect("recorded in order");
        if pool.is_some() {
            stats.parallel_chunks_merged += batches.len();
        }
        let total: usize = batches.iter().map(ProducedRows::len).sum();
        let live: Vec<bool> = match pool {
            Some(p) if total >= PAR_DEDUP_MIN => sharded_liveness(db, head, &batches, p)?,
            _ => vec![true; total],
        };
        let (rel, vpool) = db.relation_and_pool_mut(head)?;
        let mut fresh = Vec::new();
        let mut gi = 0usize;
        for batch in batches {
            match batch {
                ProducedRows::Rows { arity, ids, hashes } => {
                    for (i, &hash) in hashes.iter().enumerate() {
                        if live[gi] {
                            let row = &ids[i * arity..(i + 1) * arity];
                            let (tid, new) = rel.insert_row(vpool, row, hash)?;
                            if new {
                                stats.tuples_inserted += 1;
                                fresh.push(tid);
                            }
                        }
                        gi += 1;
                    }
                }
                ProducedRows::Tuples(tuples) => {
                    for t in tuples {
                        if live[gi] {
                            let (tid, new) = rel.insert_full(vpool, t)?;
                            if new {
                                stats.tuples_inserted += 1;
                                fresh.push(tid);
                            }
                        }
                        gi += 1;
                    }
                }
            }
        }
        if !fresh.is_empty() {
            fresh_by_head.insert(head.to_string(), fresh);
        }
    }
    Ok(fresh_by_head)
}

/// A produced head row viewed in whichever currency its batch carries.
enum RowRef<'a> {
    Ids(&'a [ValueId]),
    Tup(&'a Tuple),
}

/// Content equality across row currencies. Hash equality got the pair into
/// the same bucket; this resolves collisions. Interned ids compare as
/// integers; mixed comparisons resolve ids through the pool.
fn rows_equal(vpool: &ValuePool, a: &RowRef<'_>, b: &RowRef<'_>) -> bool {
    match (a, b) {
        (RowRef::Ids(x), RowRef::Ids(y)) => x == y,
        (RowRef::Tup(x), RowRef::Tup(y)) => x == y,
        (RowRef::Ids(ids), RowRef::Tup(t)) | (RowRef::Tup(t), RowRef::Ids(ids)) => {
            ids.len() == t.arity()
                && ids
                    .iter()
                    .zip(t.values())
                    .all(|(&id, v)| vpool.value(id) == v)
        }
    }
}

/// Parallel dedup pre-pass over one head's merge batches: rows are sharded
/// by `content hash % MERGE_SHARDS` (equal rows always land in the same
/// shard, and shard assignment is independent of the worker count), and
/// each shard marks a row live unless it is already stored in the relation
/// or duplicates an earlier row — in global task order — of its own shard.
/// Exactly the rows the ordered sequential insert would admit stay live.
fn sharded_liveness(
    db: &Database,
    head: &str,
    batches: &[ProducedRows],
    pool: &orchestra_pool::Pool,
) -> Result<Vec<bool>> {
    let rel = db.relation(head)?;
    let vpool = db.pool();
    let mut items: Vec<(u64, RowRef<'_>)> = Vec::new();
    for batch in batches {
        match batch {
            ProducedRows::Rows { arity, ids, hashes } => {
                for (i, &hash) in hashes.iter().enumerate() {
                    items.push((hash, RowRef::Ids(&ids[i * arity..(i + 1) * arity])));
                }
            }
            ProducedRows::Tuples(ts) => {
                for t in ts {
                    items.push((t.content_hash(), RowRef::Tup(t)));
                }
            }
        }
    }

    // Shard buckets hold ascending global indices, so each shard scans its
    // rows in global order.
    let mut shards: Vec<Vec<u32>> = vec![Vec::new(); MERGE_SHARDS];
    for (i, (hash, _)) in items.iter().enumerate() {
        shards[(hash % MERGE_SHARDS as u64) as usize].push(i as u32);
    }

    let items_ref = &items;
    let shard_tasks: Vec<orchestra_pool::Task<'_, Vec<u32>>> = shards
        .iter()
        .filter(|shard| !shard.is_empty())
        .map(|shard| {
            Box::new(move || {
                let mut live_idx = Vec::new();
                let mut seen: HashMap<u64, Vec<u32>> = HashMap::new();
                for &i in shard {
                    let (hash, row) = &items_ref[i as usize];
                    let present = match row {
                        RowRef::Ids(ids) => rel.contains_row_hashed(*hash, ids),
                        RowRef::Tup(t) => rel.contains_values_hashed(*hash, t.values()),
                    };
                    if present {
                        continue;
                    }
                    let bucket = seen.entry(*hash).or_default();
                    if bucket
                        .iter()
                        .any(|&j| rows_equal(vpool, &items_ref[j as usize].1, row))
                    {
                        continue;
                    }
                    bucket.push(i);
                    live_idx.push(i);
                }
                live_idx
            }) as orchestra_pool::Task<'_, Vec<u32>>
        })
        .collect();

    let mut live = vec![false; items.len()];
    for shard_live in pool.run(shard_tasks) {
        for i in shard_live {
            live[i as usize] = true;
        }
    }
    Ok(live)
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
/// exists, so [`eval_rule_ids_prepared`] can run against `&Database` (and so
/// fan out across threads). Must be called — sequentially — for every plan
/// of a round before the round's tasks run; relations do not change between
/// the two (inserts happen only at the round's merge).
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
/// shared immutably (workers of a parallel round all borrow the same one).
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
        let stats = eval.run(&tc_program(), &mut db).unwrap();
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
        Evaluator::new().run(&tc_program(), &mut db1).unwrap();
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
        eval.run(&program, &mut db).unwrap();
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
        eval.run(&program, &mut db).unwrap();
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
        let stats = eval.run_filtered(&program, &mut db, Some(&filter)).unwrap();
        assert_eq!(db.relation("b").unwrap().len(), 1);
        assert_eq!(db.relation("c").unwrap().len(), 1);
        assert_eq!(stats.filtered_out, 1);
    }

    #[test]
    fn incremental_insertions_match_full_recomputation() {
        // Full computation over all edges at once...
        let mut full = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        Evaluator::new().run(&tc_program(), &mut full).unwrap();

        // ...must equal base computation plus incremental propagation.
        let mut incr = edge_db(&[(1, 2), (2, 3)]);
        let mut eval = Evaluator::new();
        eval.run(&tc_program(), &mut incr).unwrap();
        let mut deltas = HashMap::new();
        deltas.insert(
            "edge".to_string(),
            vec![int_tuple(&[3, 4]), int_tuple(&[4, 5])],
        );
        let new = eval
            .propagate_insertions(&tc_program(), &mut incr, &deltas, None)
            .unwrap();
        assert_eq!(
            full.relation("path").unwrap().sorted_tuples(),
            incr.relation("path").unwrap().sorted_tuples()
        );
        assert!(new.contains_key("path"));
        assert!(new["path"].contains(&int_tuple(&[1, 5])));
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
            .run_filtered_cached(&mut cache, &program, &mut cached_db, None)
            .unwrap();
        fresh_eval.run(&program, &mut fresh_db).unwrap();
        for step in 0..4i64 {
            let mut deltas = HashMap::new();
            deltas.insert(
                "edge".to_string(),
                vec![int_tuple(&[3 + step, 4 + step]), int_tuple(&[step, 7])],
            );
            cached_eval
                .propagate_insertions_cached(&mut cache, &program, &mut cached_db, &deltas, None)
                .unwrap();
            fresh_eval
                .propagate_insertions(&program, &mut fresh_db, &deltas, None)
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
            .propagate_insertions(&program, &mut db, &deltas, None)
            .is_err());
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
        eval.run(&program, &mut db).unwrap();
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
            eval.run(&program, &mut db).unwrap_err(),
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
        Evaluator::new().run(&program, &mut db).unwrap();
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
        let stats = Evaluator::new().run(&program, &mut db).unwrap();
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
        eval.run(&tc_program(), &mut db).unwrap();
        assert!(eval.stats().rule_applications > 0);
        let taken = eval.take_stats();
        assert!(taken.rule_applications > 0);
        assert_eq!(eval.stats(), EvalStats::new());
    }
}

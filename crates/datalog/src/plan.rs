//! Compiled join plans and the cross-evaluation [`PlanCache`].
//!
//! PR 3 compiled cost-ordered plans lazily *per evaluator call*
//! (`ProgramPlans`), so every update exchange re-validated the program,
//! re-stratified it, re-walked the rules for positive occurrences, and
//! re-compiled every exercised plan. The mapping program of a CDSS is fixed
//! for its lifetime, so all of that is cacheable: a [`PlanCache`] owns the
//! validated stratification, the occurrence lists, and the compiled
//! base/delta plans, and survives across evaluations (the `Cdss` keeps one
//! per database).
//!
//! **Invalidation rule:** plans are cost-ordered by relation cardinality,
//! so the cache tracks the *cardinality band* (`floor(log2(len + 1))`) of
//! every relation the program references at (re)planning time. A later
//! evaluation whose bands differ anywhere drops the compiled plans (the
//! stratification and occurrence lists never depend on cardinalities and
//! are kept). Within a band, sizes have drifted by less than 2× and the
//! greedy join order would not change meaningfully.
//!
//! Each cached plan carries an [`IdPlan`]: the rule's constants interned
//! into the owning database's value pool, and its head classified as
//! id-constructible or value-constructible (Skolem heads build fresh
//! labeled nulls and must go through values). A `PlanCache` is therefore
//! **bound to one `Database`** — its pool ids are meaningless elsewhere.

use std::collections::HashMap;
use std::sync::Arc;

use orchestra_storage::{Database, Relation, ValueId, ValuePool};

use crate::compile::{BoundSource, CompiledHeadTerm, CompiledRule};
use crate::program::{Program, Stratification};
use crate::Result;

/// Where an id-resolved bound column / negated column / head column gets
/// its [`ValueId`] from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IdSrc {
    /// An already-bound variable slot.
    Slot(usize),
    /// A rule constant, interned at plan-build time.
    Const(ValueId),
}

impl IdSrc {
    /// Resolve against the current bindings.
    #[inline]
    pub(crate) fn resolve(self, bindings: &[ValueId]) -> ValueId {
        match self {
            IdSrc::Slot(s) => bindings[s],
            IdSrc::Const(id) => id,
        }
    }
}

/// The id-resolved side of a [`CompiledRule`]: everything the interned join
/// pipeline compares or emits, as [`ValueId`]s.
#[derive(Debug, Clone)]
pub(crate) struct IdPlan {
    /// Per positive literal (in join order): id sources of its bound
    /// columns, parallel to `CompiledPositive::bound`.
    pub bound: Vec<Vec<IdSrc>>,
    /// Per negated literal: id sources per column, parallel to
    /// `CompiledNegative::columns`.
    pub negatives: Vec<Vec<IdSrc>>,
    /// Head columns as id sources when the head is Skolem-free; `None`
    /// sends head instantiation through the value path (labeled nulls are
    /// constructed, then interned on insert).
    pub head: Option<Vec<IdSrc>>,
}

impl IdPlan {
    fn build(rule: &CompiledRule, pool: &mut ValuePool) -> IdPlan {
        let mut id_src = |src: &BoundSource| match src {
            BoundSource::Var(s) => IdSrc::Slot(*s),
            BoundSource::Const(v) => IdSrc::Const(pool.intern(v)),
        };
        let bound = rule
            .positives
            .iter()
            .map(|p| p.bound.iter().map(|(_, s)| id_src(s)).collect())
            .collect();
        let negatives = rule
            .negatives
            .iter()
            .map(|n| n.columns.iter().map(&mut id_src).collect())
            .collect();
        let head = rule
            .head
            .iter()
            .map(|t| match t {
                CompiledHeadTerm::Var(s) => Some(IdSrc::Slot(*s)),
                CompiledHeadTerm::Const(v) => Some(IdSrc::Const(pool.intern(v))),
                CompiledHeadTerm::Skolem(_, _) => None,
            })
            .collect::<Option<Vec<IdSrc>>>();
        IdPlan {
            bound,
            negatives,
            head,
        }
    }
}

/// One compiled, cost-ordered plan plus its id-resolved side.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// The cost-ordered compiled rule.
    pub rule: CompiledRule,
    pub(crate) ids: IdPlan,
}

impl CompiledPlan {
    /// Attach the id-resolved side to a compiled rule, interning the rule's
    /// constants into `pool` (the pool of the database the plan will run
    /// against).
    pub(crate) fn new(rule: CompiledRule, pool: &mut ValuePool) -> CompiledPlan {
        let ids = IdPlan::build(&rule, pool);
        CompiledPlan { rule, ids }
    }

    fn build(
        rule: &crate::rule::Rule,
        estimate: &dyn Fn(&str) -> usize,
        first: Option<usize>,
        pool: &mut ValuePool,
    ) -> Result<CompiledPlan> {
        // The cache validated the whole program in `prepare`; skip the
        // per-rule safety re-check on every (re)compile.
        let compiled = CompiledRule::compile_ordered_prevalidated(rule, estimate, first)?;
        Ok(CompiledPlan::new(compiled, pool))
    }
}

#[derive(Debug, Default, Clone)]
struct RulePlan {
    base: Option<CompiledPlan>,
    /// Delta-first variants, keyed by the forced occurrence's body index.
    deltas: HashMap<usize, CompiledPlan>,
}

/// Program facts that never depend on the data: the validated
/// stratification and, per relation, the `(rule, body_index)` of every
/// positive body occurrence of it. Cheap to clone (shared).
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// Rule indices per stratum, bottom-up.
    pub strata: Arc<Stratification>,
    /// Per relation, the positive body occurrences a delta on it can
    /// substitute into, in (rule, occurrence) order.
    pub occurrences: Arc<HashMap<String, Vec<(usize, usize)>>>,
}

/// The cardinality band a relation size falls into.
#[inline]
fn band(len: usize) -> u32 {
    usize::BITS - (len + 1).leading_zeros()
}

/// A persistent cache of compiled join plans for one fixed program against
/// one database. See the module docs for the invalidation rule.
#[derive(Debug, Default)]
pub struct PlanCache {
    prepared: Option<PreparedProgram>,
    /// Structural fingerprint of the program the cache was prepared for; a
    /// later call with a different program resets the cache instead of
    /// silently evaluating it under the old stratification and plans.
    fingerprint: u64,
    plans: Vec<RulePlan>,
    /// Every relation the program references, deduplicated once at
    /// `prepare` so `refresh` walks a flat list instead of re-scanning the
    /// rules.
    tracked: Vec<String>,
    /// Relation name → arity, memoised for `Evaluator::prepare_relations`.
    arities: Option<Arc<std::collections::BTreeMap<String, usize>>>,
    /// Relation name → (cardinality band, cardinality) at last replanning.
    cards: HashMap<String, (u32, usize)>,
    /// Compiled-plan reuses since construction.
    pub(crate) hits: u64,
    /// Plans compiled since construction.
    pub(crate) misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of plan-cache hits so far.
    pub fn hit_count(&self) -> u64 {
        self.hits
    }

    /// Drop every compiled plan, keeping the program facts
    /// (stratification, occurrences, arities) and cardinality bands.
    ///
    /// **Required after a [`ValuePool`] compaction** of the bound database:
    /// compiled [`IdPlan`]s hold rule constants interned as pre-compaction
    /// [`ValueId`]s, which after the re-stamp alias *different live values*
    /// (not garbage), so reusing them would silently mis-evaluate. The
    /// stratification and occurrence lists never mention pool ids and
    /// survive; plans lazily recompile (and re-intern their constants into
    /// the compacted pool) on next use.
    pub fn invalidate_plans(&mut self) {
        for p in &mut self.plans {
            *p = RulePlan::default();
        }
    }

    /// A cheap structural fingerprint of a program: rule count plus, per
    /// rule, the head/body relation names, negation flags and term shapes.
    /// Walks borrowed data only — no formatting, no allocation.
    fn fingerprint(program: &Program) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = orchestra_storage::fxhash::FxHasher::default();
        h.write_usize(program.rules().len());
        for rule in program.rules() {
            rule.head.relation.hash(&mut h);
            h.write_usize(rule.head.terms.len());
            for t in &rule.head.terms {
                t.hash(&mut h);
            }
            h.write_usize(rule.body.len());
            for lit in &rule.body {
                lit.negated.hash(&mut h);
                lit.atom.relation.hash(&mut h);
                for t in &lit.atom.terms {
                    t.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Validate and stratify the program once, returning the shared
    /// prepared facts. Subsequent calls with the same program are map
    /// lookups; a *different* program resets the cache and re-prepares, so
    /// stale stratifications or plan slots can never leak across programs.
    pub fn prepare(&mut self, program: &Program) -> Result<PreparedProgram> {
        let fp = Self::fingerprint(program);
        if self.prepared.is_some() && self.fingerprint != fp {
            *self = PlanCache::new();
        }
        if self.prepared.is_none() {
            self.fingerprint = fp;
            program.validate()?;
            let strata = program.stratify()?;
            let mut occurrences: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
            for (ri, rule) in program.rules().iter().enumerate() {
                for (bi, lit) in rule.body.iter().enumerate().filter(|(_, l)| !l.negated) {
                    occurrences
                        .entry(lit.relation().to_string())
                        .or_default()
                        .push((ri, bi));
                }
            }
            self.prepared = Some(PreparedProgram {
                strata: Arc::new(strata),
                occurrences: Arc::new(occurrences),
            });
            self.plans = vec![RulePlan::default(); program.rules().len()];
            let mut seen = std::collections::HashSet::new();
            for rule in program.rules() {
                for name in rule
                    .body
                    .iter()
                    .map(|l| l.relation())
                    .chain(std::iter::once(rule.head.relation.as_str()))
                {
                    if seen.insert(name) {
                        self.tracked.push(name.to_string());
                    }
                }
            }
        }
        Ok(self.prepared.clone().expect("just prepared"))
    }

    /// Re-check the cardinality bands of every relation the program
    /// references; shifts drop the compiled plans (stratification and
    /// occurrences are kept). Call once per evaluation, before fetching
    /// plans.
    pub fn refresh(&mut self, _program: &Program, db: &Database) {
        let mut shifted = false;
        for name in &self.tracked {
            let len = db.relation(name).map(Relation::len).unwrap_or(0);
            match self.cards.get_mut(name) {
                Some((b, stored_len)) => {
                    if band(len) != *b {
                        *b = band(len);
                        *stored_len = len;
                        shifted = true;
                    }
                }
                None => {
                    self.cards.insert(name.clone(), (band(len), len));
                    shifted = true;
                }
            }
        }
        if shifted {
            self.invalidate_plans();
        }
    }

    /// Relation arities of the program, computed once.
    pub fn arities(
        &mut self,
        program: &Program,
    ) -> Result<Arc<std::collections::BTreeMap<String, usize>>> {
        if self.arities.is_none() {
            self.arities = Some(Arc::new(program.relation_arities()?));
        }
        Ok(self.arities.clone().expect("just computed"))
    }

    /// The cost-ordered base plan for rule `ri` (full evaluation).
    pub(crate) fn base(
        &mut self,
        program: &Program,
        ri: usize,
        pool: &mut ValuePool,
    ) -> Result<&CompiledPlan> {
        if self.plans[ri].base.is_none() {
            self.misses += 1;
            let cards = &self.cards;
            let estimate = |name: &str| cards.get(name).map(|(_, len)| *len).unwrap_or(0);
            let plan = CompiledPlan::build(&program.rules()[ri], &estimate, None, pool)?;
            self.plans[ri].base = Some(plan);
        } else {
            self.hits += 1;
        }
        Ok(self.plans[ri].base.as_ref().expect("just compiled"))
    }

    /// The delta-first plan for rule `ri` with the positive occurrence at
    /// `body_index` forced to the front of the join.
    pub(crate) fn delta(
        &mut self,
        program: &Program,
        ri: usize,
        body_index: usize,
        pool: &mut ValuePool,
    ) -> Result<&CompiledPlan> {
        if !self.plans[ri].deltas.contains_key(&body_index) {
            self.misses += 1;
            let cards = &self.cards;
            let estimate = |name: &str| cards.get(name).map(|(_, len)| *len).unwrap_or(0);
            let plan =
                CompiledPlan::build(&program.rules()[ri], &estimate, Some(body_index), pool)?;
            self.plans[ri].deltas.insert(body_index, plan);
        } else {
            self.hits += 1;
        }
        Ok(&self.plans[ri].deltas[&body_index])
    }

    /// The already-compiled base plan for rule `ri`. Panics if [`base`] has
    /// not been called for this rule since the last invalidation; the
    /// evaluator compiles every plan of a round before the round reads the
    /// database through these shared references.
    ///
    /// [`base`]: PlanCache::base
    pub(crate) fn base_ref(&self, ri: usize) -> &CompiledPlan {
        self.plans[ri]
            .base
            .as_ref()
            .expect("base plan pre-compiled before its round")
    }

    /// The already-compiled delta-first plan for rule `ri` / occurrence
    /// `body_index` (see [`base_ref`] for the pre-compilation contract).
    ///
    /// [`base_ref`]: PlanCache::base_ref
    pub(crate) fn delta_ref(&self, ri: usize, body_index: usize) -> &CompiledPlan {
        self.plans[ri]
            .deltas
            .get(&body_index)
            .expect("delta plan pre-compiled before its round")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::rule::Rule;
    use orchestra_storage::{tuple::int_tuple, RelationSchema};

    fn tc_program() -> Program {
        Program::from_rules(vec![
            Rule::positive(
                Atom::with_vars("path", &["x", "y"]),
                vec![Atom::with_vars("edge", &["x", "y"])],
            ),
            Rule::positive(
                Atom::with_vars("path", &["x", "z"]),
                vec![
                    Atom::with_vars("path", &["x", "y"]),
                    Atom::with_vars("edge", &["y", "z"]),
                ],
            ),
        ])
    }

    fn edge_db(n: i64) -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("edge", &["s", "d"]))
            .unwrap();
        db.create_relation(RelationSchema::new("path", &["s", "d"]))
            .unwrap();
        for i in 0..n {
            db.insert("edge", int_tuple(&[i, i + 1])).unwrap();
        }
        db
    }

    #[test]
    fn plans_are_cached_until_bands_shift() {
        let program = tc_program();
        let mut db = edge_db(10);
        let mut cache = PlanCache::new();
        cache.prepare(&program).unwrap();
        cache.refresh(&program, &db);
        cache.base(&program, 0, db.pool_mut()).unwrap();
        cache.base(&program, 1, db.pool_mut()).unwrap();
        assert_eq!((cache.hits, cache.misses), (0, 2));
        // Same sizes: reuse.
        cache.refresh(&program, &db);
        cache.base(&program, 0, db.pool_mut()).unwrap();
        assert_eq!((cache.hits, cache.misses), (1, 2));
        // Growing within the band keeps plans; crossing it drops them.
        for i in 100..104 {
            db.insert("edge", int_tuple(&[i, i + 1])).unwrap();
        }
        cache.refresh(&program, &db);
        cache.base(&program, 0, db.pool_mut()).unwrap();
        assert_eq!((cache.hits, cache.misses), (2, 2));
        for i in 200..300 {
            db.insert("edge", int_tuple(&[i, i + 1])).unwrap();
        }
        cache.refresh(&program, &db);
        cache.base(&program, 0, db.pool_mut()).unwrap();
        assert_eq!((cache.hits, cache.misses), (2, 3));
    }

    #[test]
    fn delta_plans_force_the_occurrence_first() {
        let program = tc_program();
        let mut db = edge_db(4);
        let mut cache = PlanCache::new();
        let prepared = cache.prepare(&program).unwrap();
        cache.refresh(&program, &db);
        assert_eq!(prepared.occurrences["path"], vec![(1, 0)]);
        assert_eq!(prepared.occurrences["edge"], vec![(0, 0), (1, 1)]);
        let plan = cache.delta(&program, 1, 1, db.pool_mut()).unwrap();
        assert_eq!(plan.rule.positives[0].body_index, 1);
        // Id side mirrors the compiled rule's shape.
        assert_eq!(plan.ids.bound.len(), plan.rule.positives.len());
        assert!(plan.ids.head.is_some());
    }

    #[test]
    fn switching_programs_resets_the_cache() {
        let tc = tc_program();
        let other = Program::from_rules(vec![Rule::positive(
            Atom::with_vars("q", &["x", "y"]),
            vec![Atom::with_vars("edge", &["x", "y"])],
        )]);
        let mut db = edge_db(5);
        let mut cache = PlanCache::new();
        let prepared_tc = cache.prepare(&tc).unwrap();
        cache.refresh(&tc, &db);
        cache.base(&tc, 1, db.pool_mut()).unwrap();
        assert_eq!(prepared_tc.occurrences["edge"].len(), 2);
        // A different program must not be evaluated under tc's facts: the
        // cache resets (fewer rules — indexing with tc's rule ids would
        // otherwise panic or silently misplan).
        let prepared_other = cache.prepare(&other).unwrap();
        assert_eq!(prepared_other.occurrences["edge"].len(), 1);
        cache.refresh(&other, &db);
        let plan = cache.base(&other, 0, db.pool_mut()).unwrap();
        assert_eq!(plan.rule.head_relation, "q");
        // Same program again: still cached (no reset).
        let hits_before = cache.hits;
        cache.prepare(&other).unwrap();
        cache.base(&other, 0, db.pool_mut()).unwrap();
        assert_eq!(cache.hits, hits_before + 1);
    }

    #[test]
    fn invalidate_plans_recompiles_but_keeps_program_facts() {
        let program = tc_program();
        let mut db = edge_db(8);
        let mut cache = PlanCache::new();
        cache.prepare(&program).unwrap();
        cache.refresh(&program, &db);
        cache.base(&program, 0, db.pool_mut()).unwrap();
        cache.delta(&program, 1, 1, db.pool_mut()).unwrap();
        let misses_before = cache.misses;

        // Pool compaction re-stamps the database; cached id-plans would
        // alias re-assigned ids, so they must be dropped.
        db.compact_pool();
        cache.invalidate_plans();

        assert!(cache.prepared.is_some(), "stratification survives");
        assert!(cache.plans.iter().all(|p| p.base.is_none()));
        cache.base(&program, 0, db.pool_mut()).unwrap();
        assert_eq!(cache.misses, misses_before + 1, "plan recompiled");
    }

    #[test]
    fn invalidate_plans_drops_stale_plans_after_compaction() {
        use crate::eval::{Evaluator, Seed};
        use orchestra_storage::Value;

        // A rule with a body *constant* makes the compiled plan intern a
        // ValueId: hop(x, y) :- edge(x, y), mark(y, 1).
        let program = Program::from_rules(vec![Rule::new(
            Atom::with_vars("hop", &["x", "y"]),
            vec![
                crate::atom::Literal::positive(Atom::with_vars("edge", &["x", "y"])),
                crate::atom::Literal::positive(Atom::new(
                    "mark",
                    vec![
                        crate::term::Term::var("y"),
                        crate::term::Term::constant(1i64),
                    ],
                )),
            ],
        )]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("edge", &["s", "d"]))
            .unwrap();
        db.create_relation(RelationSchema::new("mark", &["n", "m"]))
            .unwrap();
        // Pad the pool with churn values so compaction re-stamps ids.
        for i in 0..64i64 {
            db.pool_mut().intern(&Value::text(format!("churn-{i}")));
        }
        for t in [[10, 20], [10, 30], [11, 30]] {
            db.insert("edge", int_tuple(&t)).unwrap();
        }
        for t in [[20, 1], [30, 2], [50, 3]] {
            db.insert("mark", int_tuple(&t)).unwrap();
        }

        let mut cache = PlanCache::new();
        let mut eval = Evaluator::new();
        let hop = |db: &Database| db.relation("hop").unwrap().sorted_tuples();
        eval.fixpoint(&mut cache, &program, &mut db, Seed::All, None)
            .unwrap();
        assert_eq!(hop(&db), vec![int_tuple(&[10, 20])]);
        assert!(
            cache.plans.iter().any(|p| p.base.is_some()),
            "plans compiled"
        );

        // Compaction re-stamps the pool: the churn values are garbage, so
        // every live id moves. The IdPlan's interned `1` would now alias a
        // different value (or none) — invalidate_plans must drop it.
        let remapped = db.compact_pool();
        assert!(
            remapped.reclaimed() > 0,
            "compaction should reclaim churn ids"
        );
        cache.invalidate_plans();
        assert!(
            cache.plans.iter().all(|p| p.base.is_none()),
            "plans dropped"
        );

        // New facts within every relation's band, so only the
        // invalidation (not a band shift) forces the recompile.
        db.insert("edge", int_tuple(&[10, 40])).unwrap();
        db.insert("mark", int_tuple(&[40, 1])).unwrap();
        eval.fixpoint(&mut cache, &program, &mut db, Seed::All, None)
            .unwrap();
        let mut fresh = db.clone();
        fresh.relation_mut("hop").unwrap().clear();
        Evaluator::new()
            .fixpoint(&mut PlanCache::new(), &program, &mut fresh, Seed::All, None)
            .unwrap();
        assert_eq!(hop(&db), vec![int_tuple(&[10, 20]), int_tuple(&[10, 40])]);
        assert_eq!(
            hop(&db),
            hop(&fresh),
            "recompiled plans re-intern the constant"
        );

        // Band shifts also drop the plans.
        assert!(cache.plans.iter().any(|p| p.base.is_some()));
        for i in 0..200i64 {
            db.insert("edge", int_tuple(&[i + 1000, i + 2000])).unwrap();
        }
        cache.refresh(&program, &db);
        assert!(cache.plans.iter().all(|p| p.base.is_none()));
    }

    #[test]
    fn bands_group_sizes_logarithmically() {
        assert_eq!(band(0), band(0));
        assert_ne!(band(0), band(1));
        assert_eq!(band(40), band(60));
        assert_ne!(band(60), band(200));
    }
}

//! Magic-sets demand rewriting for point queries.
//!
//! `QueryCertain`-style callers usually want *one key's worth* of answers,
//! yet a fixpoint over the mapping program derives every tuple of every idb
//! relation. The classic fix (Bancilhon/Maier/Sagiv/Ullman; the cozo
//! exemplar in SNIPPETS.md stratifies then magic-rewrites the entry
//! stratum) is a *demand transformation*: given a query predicate and an
//! **adornment** (which argument positions the caller has bound to
//! constants), rewrite the program so that
//!
//! * a fresh **magic relation** `~magic~p~a` per demanded `(predicate,
//!   adornment)` carries the tuples of bound constants whose derivations
//!   are actually needed;
//! * every rule of a demanded predicate is **guarded** by its magic
//!   relation, so the fixpoint only explores the derivation cone reachable
//!   from the seeded demand;
//! * **supplementary rules** propagate demand sideways into the idb body
//!   literals, following the same greedy most-bound-first ordering the
//!   join planner uses (`compile_ordered`), so demand flows the way the
//!   join will actually execute.
//!
//! This implementation keeps a **single, non-adorned copy** of each idb
//! relation (renamed to a scratch `p~dmd` relation so the caller's
//! database is never polluted): guarded rules for different adornments all
//! feed the same scratch relation, which therefore holds a *demanded
//! subset* of the full fixpoint — sound because the final answers are
//! filtered by the query binding, and complete by the standard magic-sets
//! invariant (every fact matching a derived demand is derived).
//!
//! Negation demands complete knowledge of the negated relation, so any
//! relation reachable from a negated literal (and everything it depends
//! on) is computed **in full**: its rules are included unguarded and no
//! magic relation is created for it. Skolem terms in a rule head cannot be
//! matched against a demanded constant, so a bound head position holding a
//! Skolem term contributes a fresh variable to the guard — the demand is
//! over-approximated (still sound) and the labeled null is constructed as
//! usual.
//!
//! The rewrite is **binding-value free**: the bound constants are seeded
//! as facts of the query's magic relation at evaluation time, never baked
//! into the rewritten rules, so one cached rewrite (and its compiled
//! plans, see [`PlanCache::magic`]-keyed entries) serves every point query
//! with the same `(predicate, adornment)` shape.
//!
//! [`PlanCache::magic`]: crate::plan::PlanCache

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;

use orchestra_storage::Value;

use crate::atom::{Atom, Literal};
use crate::error::DatalogError;
use crate::program::Program;
use crate::rule::Rule;
use crate::term::Term;
use crate::Result;

/// The bound/free pattern of a query's argument positions (`true` =
/// bound). Rendered `b`/`f` per column, e.g. `bf` for "first column bound".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment(Vec<bool>);

impl Adornment {
    /// The adornment induced by a per-column constant binding.
    pub fn from_binding(binding: &[Option<Value>]) -> Self {
        Adornment(binding.iter().map(Option::is_some).collect())
    }

    /// The all-free adornment of the given arity.
    pub fn all_free(arity: usize) -> Self {
        Adornment(vec![false; arity])
    }

    /// Construct from explicit bound flags.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Adornment(bits)
    }

    /// Per-column bound flags.
    pub fn bits(&self) -> &[bool] {
        &self.0
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|b| **b).count()
    }

    /// Is every position free (no demand restriction)?
    pub fn is_all_free(&self) -> bool {
        self.0.iter().all(|b| !*b)
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            f.write_str(if *b { "b" } else { "f" })?;
        }
        Ok(())
    }
}

/// The product of [`magic_rewrite`]: a demand-restricted program over
/// scratch relations, plus the bookkeeping the evaluator needs to seed,
/// run and clean up a point query.
#[derive(Debug, Clone)]
pub struct MagicRewrite {
    /// The rewritten program. Idb relations are renamed to `p~dmd`
    /// scratch relations; edb literals keep their original names (base
    /// data is read in place, never copied).
    pub program: Program,
    /// The scratch relation holding the (demanded) answers for the query
    /// predicate.
    pub answer_relation: String,
    /// The magic relation to seed with the bound constants, in bound
    /// position order. `None` when the query predicate is computed in full
    /// (all-free adornment, or the predicate is reachable from a negated
    /// literal).
    pub seed_relation: Option<String>,
    /// Every scratch relation (renamed idb + magic) with its arity, in
    /// deterministic order. The evaluator creates/clears these around each
    /// demand evaluation.
    pub scratch_relations: Vec<(String, usize)>,
    /// Number of supplementary (demand-propagating) magic rules emitted.
    pub magic_rules: usize,
}

/// Scratch name of a demanded idb relation.
fn scratch_name(relation: &str) -> String {
    format!("{relation}~dmd")
}

/// Name of the magic relation for a `(relation, adornment)` demand.
fn magic_name(relation: &str, adornment: &Adornment) -> String {
    format!("~magic~{relation}~{adornment}")
}

/// Rewrite `program` for demand-driven evaluation of `predicate` under
/// `adornment`. See the module docs for the construction; the guarantee is
/// differential: evaluating the rewrite (with the magic relation seeded
/// from the bound constants) and reading `answer_relation` filtered by the
/// binding yields exactly the full fixpoint's `predicate` answers
/// restricted to that binding.
pub fn magic_rewrite(
    program: &Program,
    predicate: &str,
    adornment: &Adornment,
) -> Result<MagicRewrite> {
    program.validate()?;
    // Rejecting non-stratifiable programs up front keeps the failure mode
    // identical to the full-fixpoint path; the rewrite itself only adds
    // positive dependencies and preserves stratifiability.
    program.stratify()?;
    let idb = program.idb_relations();
    if !idb.contains(predicate) {
        return Err(DatalogError::Magic {
            message: format!(
                "query predicate `{predicate}` has no rules; demand it with a bound scan instead"
            ),
        });
    }
    let arities = program.relation_arities()?;
    if let Some(name) = arities.keys().find(|n| n.contains('~')) {
        return Err(DatalogError::Magic {
            message: format!(
                "relation `{name}` uses the reserved scratch marker `~`; demand rewriting would collide"
            ),
        });
    }
    let arity = arities[predicate];
    if arity != adornment.arity() {
        return Err(DatalogError::ArityConflict {
            relation: predicate.to_string(),
            first: arity,
            second: adornment.arity(),
        });
    }

    // Relations that must be computed in full: everything reachable from a
    // negated literal (negation-as-failure needs the complete relation),
    // closed over the dependency graph.
    let deps = program.dependencies();
    let mut full: BTreeSet<String> = BTreeSet::new();
    let mut stack: Vec<String> = program
        .rules()
        .iter()
        .flat_map(|r| r.body.iter())
        .filter(|l| l.negated && idb.contains(l.relation()))
        .map(|l| l.relation().to_string())
        .collect();
    while let Some(r) = stack.pop() {
        if full.insert(r.clone()) {
            if let Some(ds) = deps.get(&r) {
                stack.extend(ds.iter().filter(|d| idb.contains(*d)).cloned());
            }
        }
    }

    let initial = if full.contains(predicate) {
        Adornment::all_free(arity)
    } else {
        adornment.clone()
    };
    let mut queue: VecDeque<(String, Adornment)> = VecDeque::new();
    queue.push_back((predicate.to_string(), initial.clone()));
    let mut processed: HashSet<(String, Adornment)> = HashSet::new();
    let mut rules_out: Vec<Rule> = Vec::new();
    let mut scratch: BTreeMap<String, usize> = BTreeMap::new();
    let mut magic_rules = 0usize;

    while let Some((p, a)) = queue.pop_front() {
        if !processed.insert((p.clone(), a.clone())) {
            continue;
        }
        scratch.insert(scratch_name(&p), arities[&p]);
        let guarded = !a.is_all_free() && !full.contains(&p);
        if guarded {
            scratch.insert(magic_name(&p, &a), a.bound_count());
        }
        for rule in program.rules().iter().filter(|r| r.head.relation == p) {
            emit_demand(
                rule,
                &a,
                guarded,
                &idb,
                &full,
                &mut queue,
                &mut rules_out,
                &mut magic_rules,
            );
        }
    }

    let seed_relation = (!initial.is_all_free()).then(|| magic_name(predicate, &initial));
    Ok(MagicRewrite {
        program: Program::from_rules(rules_out),
        answer_relation: scratch_name(predicate),
        seed_relation,
        scratch_relations: scratch.into_iter().collect(),
        magic_rules,
    })
}

/// Emit the guarded copy of `rule` for adornment `a`, plus the
/// supplementary magic rules that propagate demand into its idb body
/// literals (following the greedy most-bound-first sideways information
/// passing order). Newly demanded `(relation, adornment)` pairs are pushed
/// onto `queue`.
#[allow(clippy::too_many_arguments)]
fn emit_demand(
    rule: &Rule,
    a: &Adornment,
    guarded: bool,
    idb: &BTreeSet<String>,
    full: &BTreeSet<String>,
    queue: &mut VecDeque<(String, Adornment)>,
    rules_out: &mut Vec<Rule>,
    magic_rules: &mut usize,
) {
    let rename = |atom: &Atom| -> Atom {
        let mut renamed = atom.clone();
        if idb.contains(&renamed.relation) {
            renamed.relation = scratch_name(&renamed.relation);
        }
        renamed
    };

    // The demand guard: the magic relation applied to the head terms at
    // bound positions. A Skolem head term cannot be matched against a
    // demanded constant, so it contributes a fresh variable (the demand is
    // over-approximated, which is sound).
    let guard: Option<Atom> = guarded.then(|| {
        let rule_vars: BTreeSet<String> = rule
            .head
            .variables()
            .into_iter()
            .chain(rule.positive_body_variables())
            .map(str::to_string)
            .collect();
        let mut fresh = 0usize;
        let terms = a
            .bits()
            .iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| match &rule.head.terms[i] {
                t @ (Term::Var(_) | Term::Const(_)) => t.clone(),
                Term::Skolem(_, _) => loop {
                    let name = format!("~mv{fresh}");
                    fresh += 1;
                    if !rule_vars.contains(&name) {
                        break Term::var(name);
                    }
                },
            })
            .collect();
        Atom::new(magic_name(&rule.head.relation, a), terms)
    });

    // The guarded rule itself: original body (idb literals renamed to
    // scratch relations), prefixed by the guard.
    let mut body: Vec<Literal> = Vec::new();
    if let Some(g) = &guard {
        body.push(Literal::positive(g.clone()));
    }
    for lit in &rule.body {
        body.push(Literal {
            atom: rename(&lit.atom),
            negated: lit.negated,
        });
    }
    rules_out.push(Rule::new(rename(&rule.head), body));

    // Sideways information passing: walk the positive literals greedily
    // most-bound-first (mirroring the join planner's cost order, so demand
    // flows the way the join executes), emitting one supplementary magic
    // rule per demanded idb occurrence.
    let mut bound_vars: BTreeSet<String> = guard
        .as_ref()
        .map(|g| g.variables().into_iter().map(str::to_string).collect())
        .unwrap_or_default();
    let mut remaining: Vec<(usize, &Atom)> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.negated)
        .map(|(i, l)| (i, &l.atom))
        .collect();
    let mut prefix: Vec<Atom> = Vec::new();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, (bi, atom))| {
                let unbound = atom
                    .variables()
                    .iter()
                    .filter(|v| !bound_vars.contains(**v))
                    .count();
                (unbound, *bi)
            })
            .map(|(slot, _)| slot)
            .expect("remaining is non-empty");
        let (_, atom) = remaining.remove(pick);
        if idb.contains(&atom.relation) {
            if full.contains(&atom.relation) {
                queue.push_back((atom.relation.clone(), Adornment::all_free(atom.arity())));
            } else {
                let bits: Vec<bool> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound_vars.contains(v),
                        // Skolems cannot occur in bodies (validated).
                        Term::Skolem(_, _) => false,
                    })
                    .collect();
                let b = Adornment::from_bits(bits);
                if b.is_all_free() {
                    queue.push_back((atom.relation.clone(), b));
                } else {
                    let head_terms: Vec<Term> = atom
                        .terms
                        .iter()
                        .zip(b.bits())
                        .filter(|(_, bound)| **bound)
                        .map(|(t, _)| t.clone())
                        .collect();
                    let head = Atom::new(magic_name(&atom.relation, &b), head_terms);
                    let mut m_body: Vec<Literal> = Vec::new();
                    if let Some(g) = &guard {
                        m_body.push(Literal::positive(g.clone()));
                    }
                    m_body.extend(prefix.iter().cloned().map(Literal::positive));
                    rules_out.push(Rule::new(head, m_body));
                    *magic_rules += 1;
                    queue.push_back((atom.relation.clone(), b));
                }
            }
        }
        prefix.push(rename(atom));
        for v in atom.variables() {
            bound_vars.insert(v.to_string());
        }
    }
    // Negated idb literals demand the negated relation in full (it is in
    // `full` by construction; the all-free demand routes it there).
    for lit in rule.body.iter().filter(|l| l.negated) {
        if idb.contains(lit.relation()) {
            queue.push_back((
                lit.relation().to_string(),
                Adornment::all_free(lit.atom.arity()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn tc() -> Program {
        parse_program(
            "path(x, y) :- edge(x, y).\n\
             path(x, z) :- path(x, y), edge(y, z).",
        )
        .unwrap()
    }

    #[test]
    fn adornment_shapes() {
        let a = Adornment::from_binding(&[Some(Value::int(1)), None]);
        assert_eq!(a.to_string(), "bf");
        assert_eq!(a.bound_count(), 1);
        assert!(!a.is_all_free());
        assert!(Adornment::all_free(3).is_all_free());
    }

    #[test]
    fn tc_bf_rewrite_guards_and_propagates() {
        let rw = magic_rewrite(&tc(), "path", &Adornment::from_bits(vec![true, false])).unwrap();
        assert_eq!(rw.answer_relation, "path~dmd");
        assert_eq!(rw.seed_relation.as_deref(), Some("~magic~path~bf"));
        // Both original rules appear guarded; the recursive rule's `path`
        // occurrence re-demands `path^bf` (the left column stays bound),
        // giving one supplementary rule.
        assert_eq!(rw.magic_rules, 1);
        let text = rw.program.to_string();
        assert!(
            text.contains("path~dmd(x, y) :- ~magic~path~bf(x), edge(x, y)."),
            "guarded base rule missing in:\n{text}"
        );
        assert!(
            text.contains("~magic~path~bf(x) :- ~magic~path~bf(x)."),
            "supplementary demand rule missing in:\n{text}"
        );
        // Scratch inventory: answer relation + one magic relation.
        assert_eq!(
            rw.scratch_relations,
            vec![
                ("path~dmd".to_string(), 2),
                ("~magic~path~bf".to_string(), 1)
            ]
        );
        rw.program.validate().unwrap();
        rw.program.stratify().unwrap();
    }

    #[test]
    fn tc_fb_rewrite_demands_through_the_cheap_side() {
        // Binding the *second* column still produces a guarded rewrite: the
        // greedy SIPS starts from the bound `z` side.
        let rw = magic_rewrite(&tc(), "path", &Adornment::from_bits(vec![false, true])).unwrap();
        assert_eq!(rw.seed_relation.as_deref(), Some("~magic~path~fb"));
        rw.program.validate().unwrap();
        rw.program.stratify().unwrap();
        // The recursive occurrence of `path` is demanded (with some
        // adornment) rather than computed in full.
        assert!(rw.magic_rules >= 1, "expected demand propagation");
    }

    #[test]
    fn all_free_adornment_computes_in_full_without_seeds() {
        let rw = magic_rewrite(&tc(), "path", &Adornment::all_free(2)).unwrap();
        assert!(rw.seed_relation.is_none());
        assert_eq!(rw.magic_rules, 0);
        // Unguarded rules, renamed only.
        let text = rw.program.to_string();
        assert!(text.contains("path~dmd(x, y) :- edge(x, y)."));
        assert!(text.contains("path~dmd(x, z) :- path~dmd(x, y), edge(y, z)."));
    }

    #[test]
    fn negated_relations_are_computed_in_full() {
        let p = parse_program(
            "good(x) :- node(x), not bad(x).\n\
             bad(x) :- evil(x).\n\
             bad(x) :- bad(y), blames(y, x).",
        )
        .unwrap();
        let rw = magic_rewrite(&p, "good", &Adornment::from_bits(vec![true])).unwrap();
        // `good` is guarded, but `bad` (negated) keeps unguarded rules and
        // gets no magic relation.
        let text = rw.program.to_string();
        assert!(text.contains("~magic~good~b(x)"));
        assert!(text.contains("bad~dmd(x) :- evil(x)."));
        assert!(!text.contains("~magic~bad"));
        rw.program.validate().unwrap();
        rw.program.stratify().unwrap();
    }

    #[test]
    fn edb_query_predicate_is_rejected() {
        let err =
            magic_rewrite(&tc(), "edge", &Adornment::from_bits(vec![true, false])).unwrap_err();
        assert!(matches!(err, DatalogError::Magic { .. }));
    }

    #[test]
    fn reserved_marker_collision_is_rejected() {
        let p = Program::from_rules(vec![Rule::positive(
            Atom::with_vars("p~dmd", &["x"]),
            vec![Atom::with_vars("e", &["x"])],
        )]);
        let err = magic_rewrite(&p, "p~dmd", &Adornment::from_bits(vec![true])).unwrap_err();
        assert!(matches!(err, DatalogError::Magic { .. }));
    }

    #[test]
    fn demand_answers_match_filtered_full_fixpoint() {
        use crate::eval::{bound_scan, Evaluator};
        use crate::plan::PlanCache;
        use orchestra_storage::{tuple::int_tuple, Database, RelationSchema};

        let chain_db = || {
            let mut db = Database::new();
            db.create_relation(RelationSchema::new("edge", &["s", "d"]))
                .unwrap();
            for i in 0..50i64 {
                db.insert("edge", int_tuple(&[i, i + 1])).unwrap();
            }
            db
        };
        let program = tc();
        let binding = vec![Some(Value::int(40)), None];

        let mut full_db = chain_db();
        let mut eval = Evaluator::new();
        eval.run(&program, &mut full_db).unwrap();
        let full_apps = eval.take_stats().rule_applications;
        let expected = bound_scan(&full_db, "path", &binding).unwrap();
        assert_eq!(expected.len(), 10, "path(40, 41..=50)");

        let mut db = chain_db();
        let mut cache = PlanCache::new();
        let got = eval
            .run_demand_cached(&mut cache, &program, &mut db, "path", &binding)
            .unwrap();
        assert_eq!(got, expected);
        let stats = eval.stats();
        assert_eq!(stats.magic_seed_facts, 1);
        assert!(stats.demand_rules_fired > 0);
        assert!(
            stats.demand_rules_fired < full_apps,
            "demand fired {} rule applications, full fixpoint {full_apps}",
            stats.demand_rules_fired
        );
        // The cone was far smaller than the full closure, and the scratch
        // relations are left empty.
        assert_eq!(db.relation("path~dmd").unwrap().len(), 0);
        assert!(!db.has_relation("path"), "demand never materialises `path`");

        // Same shape again: the adorned rewrite is served from the cache.
        let again = eval
            .run_demand_cached(&mut cache, &program, &mut db, "path", &binding)
            .unwrap();
        assert_eq!(again, expected);
        assert_eq!(eval.stats().demand_plan_cache_hits, 1);
        assert_eq!(cache.magic_entry_count(), 1);

        // A different binding value reuses the same entry.
        let other = eval
            .run_demand_cached(
                &mut cache,
                &program,
                &mut db,
                "path",
                &[Some(Value::int(49)), None],
            )
            .unwrap();
        assert_eq!(
            other,
            bound_scan(&full_db, "path", &[Some(Value::int(49)), None]).unwrap()
        );
        assert_eq!(cache.magic_entry_count(), 1);

        // An unpooled constant short-circuits to an empty answer.
        let miss = eval
            .run_demand_cached(
                &mut cache,
                &program,
                &mut db,
                "path",
                &[Some(Value::int(9999)), None],
            )
            .unwrap();
        assert!(miss.is_empty());

        // Extensional predicates answer with a plain bound scan.
        let edges = eval
            .run_demand_cached(
                &mut cache,
                &program,
                &mut db,
                "edge",
                &[Some(Value::int(7)), None],
            )
            .unwrap();
        assert_eq!(edges, vec![int_tuple(&[7, 8])]);
    }

    #[test]
    fn skolem_bound_head_positions_get_fresh_guard_vars() {
        let p = parse_program(
            "u(n, #f0(n)) :- b(n).\n\
             v(x) :- u(x, y).",
        )
        .unwrap();
        // Demand v^b: demands u with the first column bound; u's rule has a
        // plain var there, fine. Now demand u directly with the *second*
        // (Skolem) column bound: the guard must use a fresh variable.
        let rw = magic_rewrite(&p, "u", &Adornment::from_bits(vec![false, true])).unwrap();
        let text = rw.program.to_string();
        assert!(
            text.contains("u~dmd(n, #f0(n)) :- ~magic~u~fb(~mv0), b(n)."),
            "fresh-var guard missing in:\n{text}"
        );
        rw.program.validate().unwrap();
    }
}

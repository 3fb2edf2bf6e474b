//! Rule compilation: turning a [`Rule`] into an executable join plan.
//!
//! A compiled rule assigns every distinct variable a slot, and classifies
//! each column of each body literal as either *bound* (its value is known
//! when the literal is reached during the left-to-right join — because it is
//! a constant, or because the variable was bound by an earlier literal or an
//! earlier column of the same literal) or *free* (its value is bound by this
//! column). The bound columns of a literal are exactly the columns a hash
//! index should be keyed on, which is how the evaluator chooses its access
//! paths.
//!
//! Rule bodies are **cost-ordered** before compilation
//! ([`CompiledRule::compile_ordered`]): positive literals are joined
//! greedily most-bound-first, tie-broken by smallest estimated relation
//! cardinality, instead of in written order. For semi-naive delta rules the
//! delta occurrence can be forced to the front of the join, where its (small)
//! candidate set prunes the search hardest.

use std::collections::{HashMap, HashSet};

use orchestra_storage::{SkolemFnId, Value};

use crate::atom::Literal;
use crate::rule::Rule;
use crate::term::Term;
use crate::Result;

/// Where a bound column gets its comparison value from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundSource {
    /// The value of an already-bound variable slot.
    Var(usize),
    /// A constant from the rule text.
    Const(Value),
}

/// A compiled positive body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPositive {
    /// Relation scanned / probed by this literal.
    pub relation: String,
    /// Index of this literal in the original rule body (used to target delta
    /// substitution at a specific body occurrence).
    pub body_index: usize,
    /// Columns whose value is known before this literal is evaluated,
    /// together with where the value comes from.
    pub bound: Vec<(usize, BoundSource)>,
    /// Columns that bind a fresh variable slot when a tuple matches.
    pub free: Vec<(usize, usize)>,
    /// Columns that must equal a slot bound by an *earlier column of this
    /// same literal* (repeated variable inside one atom, e.g. `R(x, x)`).
    /// They cannot be part of the probe key because the slot is only bound
    /// once a candidate tuple has been picked.
    pub intra: Vec<(usize, usize)>,
}

impl CompiledPositive {
    /// The column positions of the bound columns, in order — the key columns
    /// for an index-based access path.
    pub fn bound_columns(&self) -> Vec<usize> {
        self.bound.iter().map(|(c, _)| *c).collect()
    }
}

/// A compiled negated body literal. Safety guarantees every column is bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNegative {
    /// Relation checked for absence.
    pub relation: String,
    /// Index of this literal in the original rule body.
    pub body_index: usize,
    /// For each column of the atom, where its value comes from.
    pub columns: Vec<BoundSource>,
}

/// A compiled head term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledHeadTerm {
    /// Copy the value of a variable slot.
    Var(usize),
    /// Emit a constant.
    Const(Value),
    /// Apply a Skolem function to compiled argument terms, producing a
    /// labeled null.
    Skolem(SkolemFnId, Vec<CompiledHeadTerm>),
}

/// An executable form of a [`Rule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    /// Relation the rule derives into.
    pub head_relation: String,
    /// Arity of the head relation.
    pub head_arity: usize,
    /// Compiled head terms, one per head column.
    pub head: Vec<CompiledHeadTerm>,
    /// Positive body literals in join order (original body order).
    pub positives: Vec<CompiledPositive>,
    /// Negated body literals, checked after all positives have bound their
    /// variables.
    pub negatives: Vec<CompiledNegative>,
    /// Total number of variable slots.
    pub var_count: usize,
    /// Variable names per slot (diagnostics only).
    pub var_names: Vec<String>,
    /// True when the join order of `positives` differs from the written
    /// body order (i.e. the cost-based reordering changed the plan).
    pub reordered: bool,
}

impl CompiledRule {
    /// Compile a rule in **written body order**. The rule is validated
    /// first, so compilation cannot encounter unsafe variables. This is the
    /// reference plan; [`CompiledRule::compile_ordered`] is the cost-based
    /// one the evaluator uses.
    pub fn compile(rule: &Rule) -> Result<CompiledRule> {
        rule.validate()?;
        let order: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated)
            .map(|(i, _)| i)
            .collect();
        Self::compile_in_order(rule, &order, false)
    }

    /// Compile a rule with its positive body literals **greedily
    /// cost-ordered**: at each step pick the literal with the fewest
    /// still-unbound columns (most-bound-first), tie-broken by the smallest
    /// estimated cardinality of its relation (`estimate`, typically current
    /// relation sizes), then by written position for determinism.
    ///
    /// `first` optionally forces the positive literal with that body index
    /// to the front of the join — semi-naive evaluation uses this to scan
    /// the (small) delta occurrence first and probe everything else.
    pub fn compile_ordered(
        rule: &Rule,
        estimate: &dyn Fn(&str) -> usize,
        first: Option<usize>,
    ) -> Result<CompiledRule> {
        rule.validate()?;
        Self::compile_ordered_prevalidated(rule, estimate, first)
    }

    /// [`CompiledRule::compile_ordered`] for a rule the caller has already
    /// validated (e.g. as part of whole-program validation in the plan
    /// cache) — skips the per-rule safety re-check.
    pub(crate) fn compile_ordered_prevalidated(
        rule: &Rule,
        estimate: &dyn Fn(&str) -> usize,
        first: Option<usize>,
    ) -> Result<CompiledRule> {
        let mut remaining: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated)
            .map(|(i, _)| i)
            .collect();
        let written = remaining.clone();
        let mut order: Vec<usize> = Vec::with_capacity(remaining.len());
        let mut bound_vars: HashSet<&str> = HashSet::new();

        fn take<'r>(
            rule: &'r Rule,
            bi: usize,
            remaining: &mut Vec<usize>,
            bound_vars: &mut HashSet<&'r str>,
        ) -> usize {
            let p = remaining
                .iter()
                .position(|&b| b == bi)
                .expect("chosen literal is still pending");
            remaining.remove(p);
            for term in &rule.body[bi].atom.terms {
                if let Term::Var(name) = term {
                    bound_vars.insert(name.as_str());
                }
            }
            bi
        }

        if let Some(fbi) = first {
            if remaining.contains(&fbi) {
                order.push(take(rule, fbi, &mut remaining, &mut bound_vars));
            }
        }
        while !remaining.is_empty() {
            let &best = remaining
                .iter()
                .min_by_key(|&&bi| {
                    let lit = &rule.body[bi];
                    let unbound = lit
                        .atom
                        .terms
                        .iter()
                        .filter(|t| match t {
                            Term::Const(_) => false,
                            Term::Var(name) => !bound_vars.contains(name.as_str()),
                            Term::Skolem(_, _) => false,
                        })
                        .count();
                    (unbound, estimate(lit.relation()), bi)
                })
                .expect("remaining is non-empty");
            order.push(take(rule, best, &mut remaining, &mut bound_vars));
        }

        let reordered = order != written;
        Self::compile_in_order(rule, &order, reordered)
    }

    /// Compile with an explicit join order over the positive body indices.
    fn compile_in_order(rule: &Rule, order: &[usize], reordered: bool) -> Result<CompiledRule> {
        let mut slots: HashMap<String, usize> = HashMap::new();
        let mut var_names: Vec<String> = Vec::new();
        let slot_of = |name: &str,
                       var_names: &mut Vec<String>,
                       slots: &mut HashMap<String, usize>|
         -> usize {
            if let Some(&s) = slots.get(name) {
                s
            } else {
                let s = var_names.len();
                var_names.push(name.to_string());
                slots.insert(name.to_string(), s);
                s
            }
        };

        let mut positives = Vec::new();
        let negatives_src: Vec<(usize, &Literal)> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| l.negated)
            .collect();

        for &body_index in order {
            let lit = &rule.body[body_index];
            let mut bound = Vec::new();
            let mut free = Vec::new();
            let mut intra = Vec::new();
            let mut fresh_this_literal: Vec<usize> = Vec::new();
            for (col, term) in lit.atom.terms.iter().enumerate() {
                match term {
                    Term::Const(v) => bound.push((col, BoundSource::Const(v.clone()))),
                    Term::Var(name) => {
                        if let Some(&s) = slots.get(name.as_str()) {
                            if fresh_this_literal.contains(&s) {
                                intra.push((col, s));
                            } else {
                                bound.push((col, BoundSource::Var(s)));
                            }
                        } else {
                            let s = slot_of(name, &mut var_names, &mut slots);
                            fresh_this_literal.push(s);
                            free.push((col, s));
                        }
                    }
                    Term::Skolem(_, _) => unreachable!("validated: no skolems in body"),
                }
            }
            positives.push(CompiledPositive {
                relation: lit.atom.relation.clone(),
                body_index,
                bound,
                free,
                intra,
            });
        }

        let mut negatives = Vec::new();
        for (body_index, lit) in negatives_src {
            let mut columns = Vec::new();
            for term in &lit.atom.terms {
                match term {
                    Term::Const(v) => columns.push(BoundSource::Const(v.clone())),
                    Term::Var(name) => {
                        let s = *slots
                            .get(name.as_str())
                            .expect("validated: negated variables are bound");
                        columns.push(BoundSource::Var(s));
                    }
                    Term::Skolem(_, _) => unreachable!("validated: no skolems in body"),
                }
            }
            negatives.push(CompiledNegative {
                relation: lit.atom.relation.clone(),
                body_index,
                columns,
            });
        }

        fn compile_head_term(term: &Term, slots: &HashMap<String, usize>) -> CompiledHeadTerm {
            match term {
                Term::Var(name) => CompiledHeadTerm::Var(
                    *slots
                        .get(name.as_str())
                        .expect("validated: head variables are bound"),
                ),
                Term::Const(v) => CompiledHeadTerm::Const(v.clone()),
                Term::Skolem(f, args) => CompiledHeadTerm::Skolem(
                    *f,
                    args.iter().map(|a| compile_head_term(a, slots)).collect(),
                ),
            }
        }

        let head: Vec<CompiledHeadTerm> = rule
            .head
            .terms
            .iter()
            .map(|t| compile_head_term(t, &slots))
            .collect();

        Ok(CompiledRule {
            head_relation: rule.head.relation.clone(),
            head_arity: rule.head.arity(),
            head,
            positives,
            negatives,
            var_count: var_names.len(),
            var_names,
            reordered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::with_vars(rel, vars)
    }

    #[test]
    fn join_variables_become_bound_columns() {
        // B(i, n) :- B(i, c), U(n, c).
        let rule = Rule::positive(
            atom("B", &["i", "n"]),
            vec![atom("B", &["i", "c"]), atom("U", &["n", "c"])],
        );
        let c = CompiledRule::compile(&rule).unwrap();
        assert_eq!(c.var_count, 3);
        // First literal binds i (slot 0) and c (slot 1): all free.
        assert!(c.positives[0].bound.is_empty());
        assert_eq!(c.positives[0].free.len(), 2);
        // Second literal: n is fresh (free), c is bound.
        assert_eq!(c.positives[1].free.len(), 1);
        assert_eq!(c.positives[1].bound.len(), 1);
        assert_eq!(c.positives[1].bound_columns(), vec![1]);
        // Head copies slots for i and n.
        assert_eq!(c.head.len(), 2);
    }

    #[test]
    fn repeated_variable_within_one_atom() {
        // same(x) :- R(x, x).
        let rule = Rule::positive(atom("same", &["x"]), vec![atom("R", &["x", "x"])]);
        let c = CompiledRule::compile(&rule).unwrap();
        assert_eq!(c.var_count, 1);
        assert_eq!(c.positives[0].free.len(), 1);
        // The second occurrence is an intra-literal equality check, not a
        // probe key column (the slot is only bound per candidate tuple).
        assert!(c.positives[0].bound.is_empty());
        assert_eq!(c.positives[0].intra, vec![(1, 0)]);
    }

    #[test]
    fn repeated_variable_across_literals_is_bound() {
        // q(x) :- R(x, y), S(y, x).
        let rule = Rule::positive(
            atom("q", &["x"]),
            vec![atom("R", &["x", "y"]), atom("S", &["y", "x"])],
        );
        let c = CompiledRule::compile(&rule).unwrap();
        assert!(c.positives[1].intra.is_empty());
        assert_eq!(c.positives[1].bound.len(), 2);
        assert!(c.positives[1].free.is_empty());
    }

    #[test]
    fn constants_are_bound_columns() {
        let rule = Rule::positive(
            atom("out", &["x"]),
            vec![Atom::new("R", vec![Term::var("x"), Term::constant(7i64)])],
        );
        let c = CompiledRule::compile(&rule).unwrap();
        assert_eq!(c.positives[0].bound.len(), 1);
        assert!(matches!(
            c.positives[0].bound[0],
            (1, BoundSource::Const(Value::Int(7)))
        ));
    }

    #[test]
    fn negated_literals_compile_to_column_sources() {
        let rule = Rule::new(
            atom("Ro", &["x"]),
            vec![
                Literal::positive(atom("Ri", &["x"])),
                Literal::negative(atom("Rr", &["x"])),
            ],
        );
        let c = CompiledRule::compile(&rule).unwrap();
        assert_eq!(c.negatives.len(), 1);
        assert_eq!(c.negatives[0].relation, "Rr");
        assert!(matches!(c.negatives[0].columns[0], BoundSource::Var(0)));
    }

    #[test]
    fn head_skolems_compile_to_skolem_terms() {
        // U(n, #f0(n)) :- B(i, n).
        let rule = Rule::positive(
            Atom::new(
                "U",
                vec![
                    Term::var("n"),
                    Term::skolem(SkolemFnId(0), vec![Term::var("n")]),
                ],
            ),
            vec![atom("B", &["i", "n"])],
        );
        let c = CompiledRule::compile(&rule).unwrap();
        // Slot order: i=0, n=1.
        assert_eq!(c.head[0], CompiledHeadTerm::Var(1));
        assert_eq!(
            c.head[1],
            CompiledHeadTerm::Skolem(SkolemFnId(0), vec![CompiledHeadTerm::Var(1)])
        );
    }

    #[test]
    fn unsafe_rules_do_not_compile() {
        let rule = Rule::positive(atom("p", &["x", "y"]), vec![atom("q", &["x"])]);
        assert!(CompiledRule::compile(&rule).is_err());
    }

    #[test]
    fn cost_ordering_puts_constant_bound_literal_first() {
        // q(x, y) :- R(x, y), S(x, 7): S has a bound constant column, so the
        // greedy order starts with S (1 unbound column) over R (2 unbound).
        let rule = Rule::positive(
            atom("q", &["x", "y"]),
            vec![
                atom("R", &["x", "y"]),
                Atom::new("S", vec![Term::var("x"), Term::constant(7i64)]),
            ],
        );
        let est = |_: &str| 100usize;
        let c = CompiledRule::compile_ordered(&rule, &est, None).unwrap();
        assert_eq!(c.positives[0].relation, "S");
        assert_eq!(c.positives[1].relation, "R");
        assert!(c.reordered);
        // The later literal is now fully bound by the earlier one.
        assert_eq!(c.positives[1].bound.len(), 1);
        // Written order keeps reordered = false.
        let plain = CompiledRule::compile(&rule).unwrap();
        assert!(!plain.reordered);
        assert_eq!(plain.positives[0].relation, "R");
    }

    #[test]
    fn cost_ordering_breaks_ties_by_cardinality() {
        // Both literals start with 2 unbound columns; the smaller relation
        // goes first.
        let rule = Rule::positive(
            atom("q", &["x", "y", "z"]),
            vec![atom("Big", &["x", "y"]), atom("Small", &["y", "z"])],
        );
        let est = |rel: &str| if rel == "Small" { 5 } else { 5000 };
        let c = CompiledRule::compile_ordered(&rule, &est, None).unwrap();
        assert_eq!(c.positives[0].relation, "Small");
        assert!(c.reordered);
    }

    #[test]
    fn forced_first_literal_leads_the_join() {
        // Delta-first: force the second body occurrence to the front.
        let rule = Rule::positive(
            atom("path", &["x", "z"]),
            vec![atom("path", &["x", "y"]), atom("edge", &["y", "z"])],
        );
        let est = |_: &str| 100usize;
        let c = CompiledRule::compile_ordered(&rule, &est, Some(1)).unwrap();
        assert_eq!(c.positives[0].relation, "edge");
        assert_eq!(c.positives[0].body_index, 1);
        assert_eq!(c.positives[1].relation, "path");
        // The delta's y binds path's second column.
        assert_eq!(c.positives[1].bound.len(), 1);
        // A bogus forced index (e.g. a negated position) is ignored.
        let c = CompiledRule::compile_ordered(&rule, &est, Some(9)).unwrap();
        assert_eq!(c.positives.len(), 2);
    }

    #[test]
    fn ordering_preserves_body_indices() {
        let rule = Rule::positive(
            atom("q", &["x", "y"]),
            vec![
                atom("R", &["x", "y"]),
                Atom::new("S", vec![Term::var("x"), Term::constant(1i64)]),
            ],
        );
        let est = |_: &str| 10usize;
        let c = CompiledRule::compile_ordered(&rule, &est, None).unwrap();
        // S was written second: its body_index survives the reorder, so
        // delta substitution still targets the right occurrence.
        assert_eq!(c.positives[0].relation, "S");
        assert_eq!(c.positives[0].body_index, 1);
        assert_eq!(c.positives[1].body_index, 0);
    }
}

//! Programs: sets of rules, their dependency structure and stratification.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::error::DatalogError;
use crate::rule::Rule;
use crate::Result;

/// A datalog program: an ordered list of rules.
///
/// Relations that appear in some rule head are *intensional* (idb); all other
/// relations mentioned by the program are *extensional* (edb). The CDSS
/// compiles its internal schema mappings `M'` into one such program
/// (paper §4.1.1): edbs are the local-contribution and rejection tables,
/// idbs are the input, trusted, output and provenance tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Create a program from rules (they are validated lazily by
    /// [`Program::validate`]).
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        Program { rules }
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules, in order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Merge another program's rules after this one's.
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
    }

    /// Names of intensional relations (appear in some head).
    pub fn idb_relations(&self) -> BTreeSet<String> {
        self.rules.iter().map(|r| r.head.relation.clone()).collect()
    }

    /// Names of extensional relations (appear only in bodies).
    pub fn edb_relations(&self) -> BTreeSet<String> {
        let idb = self.idb_relations();
        let mut out = BTreeSet::new();
        for r in &self.rules {
            for lit in &r.body {
                if !idb.contains(lit.relation()) {
                    out.insert(lit.relation().to_string());
                }
            }
        }
        out
    }

    /// All relations mentioned anywhere in the program, with their arity.
    ///
    /// Fails with [`DatalogError::ArityConflict`] if a relation is used with
    /// two different arities.
    pub fn relation_arities(&self) -> Result<BTreeMap<String, usize>> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        let mut record = |name: &str, arity: usize| -> Result<()> {
            match out.get(name) {
                Some(&a) if a != arity => Err(DatalogError::ArityConflict {
                    relation: name.to_string(),
                    first: a,
                    second: arity,
                }),
                Some(_) => Ok(()),
                None => {
                    out.insert(name.to_string(), arity);
                    Ok(())
                }
            }
        };
        for r in &self.rules {
            record(&r.head.relation, r.head.arity())?;
            for lit in &r.body {
                record(lit.relation(), lit.atom.arity())?;
            }
        }
        Ok(out)
    }

    /// Validate every rule (safety, Skolem positions) and check arities.
    pub fn validate(&self) -> Result<()> {
        for r in &self.rules {
            r.validate()?;
        }
        self.relation_arities()?;
        Ok(())
    }

    /// Compute a stratification of the program.
    ///
    /// Every idb relation is assigned a stratum number such that:
    /// * if `p` depends positively on `q`, then `stratum(p) >= stratum(q)`;
    /// * if `p` depends negatively on `q`, then `stratum(p) > stratum(q)`.
    ///
    /// Programs that negate through recursion are rejected with
    /// [`DatalogError::NotStratifiable`]. Edb relations are placed in
    /// stratum 0.
    pub fn stratify(&self) -> Result<Stratification> {
        self.stratify_detailed()
            .map_err(|failure| DatalogError::NotStratifiable {
                relation: failure.relation,
            })
    }

    /// Like [`Program::stratify`], but on failure return the actual negative
    /// cycle instead of a bare relation name.
    ///
    /// The static analyzer renders the cycle in its `E006` diagnostic; the
    /// evaluator path goes through [`Program::stratify`], which collapses the
    /// failure back into [`DatalogError::NotStratifiable`].
    pub fn stratify_detailed(&self) -> std::result::Result<Stratification, StratifyFailure> {
        let idb = self.idb_relations();
        let mut strata: HashMap<String, usize> = HashMap::new();
        for rel in &idb {
            strata.insert(rel.clone(), 0);
        }

        // Iteratively raise strata; a legal stratification never needs a
        // stratum higher than the number of idb relations, so exceeding that
        // bound means there is a negative cycle.
        let max_stratum = idb.len() + 1;
        let mut changed = true;
        while changed {
            changed = false;
            for rule in &self.rules {
                let head = &rule.head.relation;
                let head_stratum = strata[head];
                let mut required = head_stratum;
                for lit in &rule.body {
                    if let Some(&body_stratum) = strata.get(lit.relation()) {
                        let needed = if lit.negated {
                            body_stratum + 1
                        } else {
                            body_stratum
                        };
                        required = required.max(needed);
                    }
                }
                if required > head_stratum {
                    if required > max_stratum {
                        return Err(self.stratify_failure(head));
                    }
                    strata.insert(head.clone(), required);
                    changed = true;
                }
            }
        }

        // Group rules by the stratum of their head relation.
        let num_strata = strata.values().copied().max().map_or(1, |m| m + 1);
        let mut rule_strata: Vec<Vec<usize>> = vec![Vec::new(); num_strata];
        for (i, rule) in self.rules.iter().enumerate() {
            let s = strata[&rule.head.relation];
            rule_strata[s].push(i);
        }

        Ok(Stratification {
            relation_strata: strata.into_iter().collect(),
            rule_strata,
        })
    }

    /// Reconstruct the negative cycle that made stratification fail.
    ///
    /// The iterative algorithm only diverges when some idb relation negates
    /// through recursion, i.e. the predicate dependency graph has a cycle
    /// containing a negative idb→idb edge. Find one such edge `p -¬-> q` with
    /// `p` reachable from `q`, then a shortest dependency path `q →* p`; the
    /// cycle is `p, q, …, p`.
    fn stratify_failure(&self, hint: &str) -> StratifyFailure {
        let idb = self.idb_relations();
        // Dependency edges head → body-relation, restricted to idb relations.
        let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut negative: Vec<(&str, &str)> = Vec::new();
        for rule in &self.rules {
            let head = rule.head.relation.as_str();
            for lit in &rule.body {
                let dep = lit.relation();
                if !idb.contains(dep) {
                    continue;
                }
                edges.entry(head).or_default().insert(dep);
                if lit.negated {
                    negative.push((head, dep));
                }
            }
        }
        for (p, q) in negative {
            // BFS from q along dependency edges, looking for p.
            let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::from([q]);
            let mut seen: BTreeSet<&str> = BTreeSet::from([q]);
            while let Some(node) = queue.pop_front() {
                if node == p {
                    // Walk parents back from p to q (yields p, …, q), then
                    // reverse and prepend p to close the cycle through the
                    // negative edge: p -¬-> q -> … -> p.
                    let mut back = vec![p];
                    let mut cur = p;
                    while cur != q {
                        cur = parent[cur];
                        back.push(cur);
                    }
                    back.reverse();
                    let mut cycle = vec![p.to_string()];
                    cycle.extend(back.iter().map(|s| s.to_string()));
                    return StratifyFailure {
                        relation: p.to_string(),
                        cycle,
                    };
                }
                for next in edges.get(node).map(|m| m.iter()).into_iter().flatten() {
                    if seen.insert(next) {
                        parent.insert(next, node);
                        queue.push_back(next);
                    }
                }
            }
        }
        // Unreachable in practice; keep the error well-formed regardless.
        StratifyFailure {
            relation: hint.to_string(),
            cycle: vec![hint.to_string()],
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        Program::from_rules(iter.into_iter().collect())
    }
}

/// Why a program could not be stratified: the relation whose stratum
/// diverged plus the negative dependency cycle that caused it.
///
/// Returned by [`Program::stratify_detailed`]. The cycle starts and ends at
/// the same relation; the first hop is the negated dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifyFailure {
    /// The relation whose stratum could not stabilise.
    pub relation: String,
    /// The offending cycle, e.g. `["p", "q", "p"]` for `p -¬-> q -> p`.
    pub cycle: Vec<String>,
}

impl fmt::Display for StratifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relation `{}` negates through recursion: {}",
            self.relation,
            self.cycle.join(" -> ")
        )
    }
}

/// The result of stratifying a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    /// Stratum assigned to each idb relation.
    pub relation_strata: BTreeMap<String, usize>,
    /// For each stratum (in evaluation order), the indexes of the program's
    /// rules whose head belongs to that stratum.
    pub rule_strata: Vec<Vec<usize>>,
}

impl Stratification {
    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.rule_strata.len()
    }

    /// Stratum of a relation (0 for edbs / unknown relations).
    pub fn stratum_of(&self, relation: &str) -> usize {
        self.relation_strata.get(relation).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Literal};

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::with_vars(rel, vars)
    }

    fn simple_program() -> Program {
        // B(i,n) :- G(i,c,n).      (m1)
        // U(n,c) :- G(i,c,n).      (m2)
        // B(i,n) :- B(i,c), U(n,c) (m4)
        Program::from_rules(vec![
            Rule::positive(atom("B", &["i", "n"]), vec![atom("G", &["i", "c", "n"])]),
            Rule::positive(atom("U", &["n", "c"]), vec![atom("G", &["i", "c", "n"])]),
            Rule::positive(
                atom("B", &["i", "n"]),
                vec![atom("B", &["i", "c"]), atom("U", &["n", "c"])],
            ),
        ])
    }

    #[test]
    fn idb_and_edb_classification() {
        let p = simple_program();
        let idb = p.idb_relations();
        assert!(idb.contains("B") && idb.contains("U"));
        let edb = p.edb_relations();
        assert_eq!(edb.into_iter().collect::<Vec<_>>(), vec!["G".to_string()]);
    }

    #[test]
    fn arity_map_and_conflicts() {
        let p = simple_program();
        let arities = p.relation_arities().unwrap();
        assert_eq!(arities["G"], 3);
        assert_eq!(arities["B"], 2);

        let mut bad = simple_program();
        bad.push(Rule::positive(
            atom("B", &["x"]),
            vec![atom("G", &["x", "y", "z"])],
        ));
        assert!(matches!(
            bad.relation_arities().unwrap_err(),
            DatalogError::ArityConflict { .. }
        ));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn positive_program_is_single_stratum() {
        let p = simple_program();
        let s = p.stratify().unwrap();
        assert_eq!(s.num_strata(), 1);
        assert_eq!(s.stratum_of("B"), 0);
        assert_eq!(s.stratum_of("G"), 0);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        // Rt(x) :- Ri(x).
        // Ro(x) :- Rt(x), not Rr(x).
        // S(x)  :- Ro(x).
        let p = Program::from_rules(vec![
            Rule::positive(atom("Rt", &["x"]), vec![atom("Ri", &["x"])]),
            Rule::new(
                atom("Ro", &["x"]),
                vec![
                    Literal::positive(atom("Rt", &["x"])),
                    Literal::negative(atom("Rr", &["x"])),
                ],
            ),
            Rule::positive(atom("S", &["x"]), vec![atom("Ro", &["x"])]),
        ]);
        p.validate().unwrap();
        let s = p.stratify().unwrap();
        // Rr is edb (stratum 0); negation over an edb does not force extra
        // strata beyond the default.
        assert!(s.stratum_of("Ro") >= s.stratum_of("Rt"));
        assert!(s.stratum_of("S") >= s.stratum_of("Ro"));
    }

    #[test]
    fn negation_over_idb_is_strictly_higher() {
        // q(x) :- base(x).
        // p(x) :- base(x), not q(x).
        let p = Program::from_rules(vec![
            Rule::positive(atom("q", &["x"]), vec![atom("base", &["x"])]),
            Rule::new(
                atom("p", &["x"]),
                vec![
                    Literal::positive(atom("base", &["x"])),
                    Literal::negative(atom("q", &["x"])),
                ],
            ),
        ]);
        let s = p.stratify().unwrap();
        assert!(s.stratum_of("p") > s.stratum_of("q"));
        assert_eq!(s.num_strata(), 2);
        // Rules grouped correctly: rule 0 (head q) before rule 1 (head p).
        assert_eq!(s.rule_strata[s.stratum_of("q")], vec![0]);
        assert_eq!(s.rule_strata[s.stratum_of("p")], vec![1]);
    }

    #[test]
    fn negative_cycle_is_rejected() {
        // p(x) :- base(x), not q(x).
        // q(x) :- base(x), not p(x).
        let p = Program::from_rules(vec![
            Rule::new(
                atom("p", &["x"]),
                vec![
                    Literal::positive(atom("base", &["x"])),
                    Literal::negative(atom("q", &["x"])),
                ],
            ),
            Rule::new(
                atom("q", &["x"]),
                vec![
                    Literal::positive(atom("base", &["x"])),
                    Literal::negative(atom("p", &["x"])),
                ],
            ),
        ]);
        assert!(matches!(
            p.stratify().unwrap_err(),
            DatalogError::NotStratifiable { .. }
        ));
    }

    #[test]
    fn detailed_stratify_names_the_negative_cycle() {
        // p(x) :- base(x), not q(x).
        // q(x) :- r(x).
        // r(x) :- p(x).
        let p = Program::from_rules(vec![
            Rule::new(
                atom("p", &["x"]),
                vec![
                    Literal::positive(atom("base", &["x"])),
                    Literal::negative(atom("q", &["x"])),
                ],
            ),
            Rule::positive(atom("q", &["x"]), vec![atom("r", &["x"])]),
            Rule::positive(atom("r", &["x"]), vec![atom("p", &["x"])]),
        ]);
        let failure = p.stratify_detailed().unwrap_err();
        assert_eq!(failure.cycle.first(), failure.cycle.last());
        assert_eq!(
            failure.cycle,
            vec![
                "p".to_string(),
                "q".to_string(),
                "r".to_string(),
                "p".into()
            ]
        );
        assert!(failure.to_string().contains("p -> q -> r -> p"));
        // The coarse API still reports the same class of error.
        assert!(matches!(
            p.stratify().unwrap_err(),
            DatalogError::NotStratifiable { .. }
        ));
    }

    #[test]
    fn detailed_stratify_self_negation() {
        // p(x) :- base(x), not p(x).
        let p = Program::from_rules(vec![Rule::new(
            atom("p", &["x"]),
            vec![
                Literal::positive(atom("base", &["x"])),
                Literal::negative(atom("p", &["x"])),
            ],
        )]);
        let failure = p.stratify_detailed().unwrap_err();
        assert_eq!(failure.cycle, vec!["p".to_string(), "p".into()]);
    }

    #[test]
    fn program_collection_helpers() {
        let mut p = Program::new();
        assert!(p.is_empty());
        p.push(Rule::positive(atom("A", &["x"]), vec![atom("B", &["x"])]));
        assert_eq!(p.len(), 1);
        let q: Program = vec![Rule::positive(atom("C", &["x"]), vec![atom("A", &["x"])])]
            .into_iter()
            .collect();
        p.extend(q);
        assert_eq!(p.len(), 2);
        assert!(p.to_string().contains("A(x) :- B(x)."));
    }
}

//! Compilation of tgds into datalog rules with Skolem functions and a
//! relational provenance encoding (paper §4.1.1–4.1.2 and §5).
//!
//! A tgd `φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)` named `m` compiles to:
//!
//! 1. a **provenance relation** `P_m(x̄,ȳ)` with one attribute per distinct
//!    LHS variable, and the rule `P_m(x̄,ȳ) :- φ(x̄,ȳ)` (rule *m′*);
//! 2. for each RHS atom `T(…)`, a projection rule
//!    `T(x̄,f̄(x̄)) :- P_m(x̄,ȳ)` (rules *m″*), where every existential
//!    variable is replaced by a Skolem function applied to the tgd's
//!    frontier variables.
//!
//! With the **composite mapping table** encoding (§5) there is a single
//! provenance relation per tgd even when the RHS has several atoms; with the
//! per-head-atom encoding (the initial scheme of §4.1.2) each RHS atom gets
//! its own provenance relation.
//!
//! The compiled artifact also keeps *templates* for the source and target
//! atoms: given a stored provenance row, [`AtomTemplate::instantiate`]
//! reconstructs the exact source/target tuples of that rule instantiation,
//! which is how `orchestra-core` materialises the provenance graph of §3.2.

use std::collections::BTreeMap;

use orchestra_datalog::atom::Atom;
use orchestra_datalog::rule::Rule;
use orchestra_datalog::term::Term;
use orchestra_storage::schema::{internal_name, InternalRole};
use orchestra_storage::{RelationSchema, SkolemFnId, Tuple, Value};

use crate::error::MappingError;
use crate::tgd::Tgd;
use crate::Result;

/// How provenance relations are laid out (paper §5, "Provenance storage").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProvenanceEncoding {
    /// One provenance relation per tgd, shared by all of its RHS atoms
    /// (the "composite mapping table" the paper found faster in practice).
    #[default]
    CompositePerTgd,
    /// One provenance relation per (tgd, RHS atom) pair — the layout
    /// initially described in §4.1.2.
    PerHeadAtom,
}

/// A term of an [`AtomTemplate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateTerm {
    /// Copy the value of the given provenance-relation column.
    Col(usize),
    /// A constant from the tgd text.
    Const(Value),
    /// A Skolem function applied to provenance-relation columns; evaluates to
    /// a labeled null.
    Skolem(SkolemFnId, Vec<usize>),
}

/// A template for reconstructing a source or target atom's tuple from a
/// provenance-relation row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomTemplate {
    /// The (internal) relation the atom refers to, e.g. `B_o` or `B_i`.
    pub relation: String,
    /// One template term per attribute.
    pub terms: Vec<TemplateTerm>,
}

impl AtomTemplate {
    /// Arity of the template.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Build the concrete tuple this template denotes for the given
    /// provenance row.
    pub fn instantiate(&self, row: &Tuple) -> Tuple {
        let values: Vec<Value> = self
            .terms
            .iter()
            .map(|t| match t {
                TemplateTerm::Col(i) => row[*i].clone(),
                TemplateTerm::Const(v) => v.clone(),
                TemplateTerm::Skolem(f, cols) => {
                    Value::labeled_null(*f, cols.iter().map(|&i| row[i].clone()).collect())
                }
            })
            .collect();
        Tuple::new(values)
    }
}

/// One provenance relation of a compiled mapping, together with the target
/// atoms it derives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceTable {
    /// Name of the provenance relation, e.g. `P_m1`.
    pub relation: String,
    /// Indexes into [`CompiledMapping::targets`] of the RHS atoms this table
    /// derives.
    pub target_indexes: Vec<usize>,
}

/// The result of compiling one tgd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledMapping {
    /// The mapping's name (`m1`, `m2`, …).
    pub name: String,
    /// The original (user-level) tgd.
    pub tgd: Tgd,
    /// Column names of the provenance relation(s): the distinct LHS
    /// variables in order of first occurrence.
    pub columns: Vec<String>,
    /// The provenance relation(s) and which targets each derives.
    pub provenance: Vec<ProvenanceTable>,
    /// Templates for the LHS atoms (over the source peers' output tables).
    pub sources: Vec<AtomTemplate>,
    /// Templates for the RHS atoms (over the target peers' input tables),
    /// with Skolem terms for existential variables.
    pub targets: Vec<AtomTemplate>,
    /// The datalog rules implementing this mapping (the *m′* and *m″* rules).
    pub rules: Vec<Rule>,
    /// The Skolem function allocated for each existential variable.
    pub skolems: BTreeMap<String, SkolemFnId>,
}

impl CompiledMapping {
    /// The schemas of this mapping's provenance relations (attribute names
    /// are the LHS variable names).
    pub fn provenance_schemas(&self) -> Vec<RelationSchema> {
        let attrs: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        self.provenance
            .iter()
            .map(|p| RelationSchema::new(p.relation.clone(), &attrs))
            .collect()
    }

    /// For a stored provenance row of table `table_index`, reconstruct the
    /// source tuples `(relation, tuple)` of the rule instantiation.
    pub fn instantiate_sources(&self, row: &Tuple) -> Vec<(String, Tuple)> {
        self.sources
            .iter()
            .map(|t| (t.relation.clone(), t.instantiate(row)))
            .collect()
    }

    /// For a stored provenance row of the given provenance table,
    /// reconstruct the target tuples `(relation, tuple)`.
    pub fn instantiate_targets(&self, table_index: usize, row: &Tuple) -> Vec<(String, Tuple)> {
        self.provenance[table_index]
            .target_indexes
            .iter()
            .map(|&ti| {
                let t = &self.targets[ti];
                (t.relation.clone(), t.instantiate(row))
            })
            .collect()
    }

    /// Borrowed variant of [`CompiledMapping::instantiate_sources`]: relation
    /// names come back as `&str`, so the caller allocates nothing but the
    /// instantiated tuples themselves. This is the provenance-graph
    /// construction hot path.
    pub fn sources_iter<'a>(&'a self, row: &'a Tuple) -> impl Iterator<Item = (&'a str, Tuple)> {
        self.sources
            .iter()
            .map(move |t| (t.relation.as_str(), t.instantiate(row)))
    }

    /// Borrowed variant of [`CompiledMapping::instantiate_targets`].
    pub fn targets_iter<'a>(
        &'a self,
        table_index: usize,
        row: &'a Tuple,
    ) -> impl Iterator<Item = (&'a str, Tuple)> {
        self.provenance[table_index]
            .target_indexes
            .iter()
            .map(move |&ti| {
                let t = &self.targets[ti];
                (t.relation.as_str(), t.instantiate(row))
            })
    }
}

/// Allocates globally unique Skolem function ids across all mappings of a
/// CDSS (a separate function per existential variable per tgd, §4.1.1).
#[derive(Debug, Default, Clone)]
pub struct SkolemAllocator {
    next: u32,
}

impl SkolemAllocator {
    /// A fresh allocator.
    pub fn new() -> Self {
        SkolemAllocator::default()
    }

    /// Allocate the next Skolem function id.
    pub fn fresh(&mut self) -> SkolemFnId {
        let id = SkolemFnId(self.next);
        self.next += 1;
        id
    }
}

/// Compile a tgd into datalog rules and provenance templates.
///
/// If `internalize` is true (the normal CDSS case), LHS relations are renamed
/// to the source peers' output tables (`R_o`) and RHS relations to the target
/// peers' input tables (`R_i`), per §3.1. If false, relation names are used
/// verbatim (useful for plain data-exchange scenarios and unit tests).
pub fn compile_mapping(
    tgd: &Tgd,
    encoding: ProvenanceEncoding,
    skolems: &mut SkolemAllocator,
    internalize: bool,
) -> Result<CompiledMapping> {
    let source_name = |r: &str| -> String {
        if internalize {
            internal_name(r, InternalRole::Output)
        } else {
            r.to_string()
        }
    };
    let target_name = |r: &str| -> String {
        if internalize {
            internal_name(r, InternalRole::Input)
        } else {
            r.to_string()
        }
    };

    // Provenance columns: distinct LHS variables in order of first occurrence.
    let mut columns: Vec<String> = Vec::new();
    let mut column_of: BTreeMap<String, usize> = BTreeMap::new();
    for atom in &tgd.lhs {
        for term in &atom.terms {
            if let Some(v) = term.as_var() {
                if !column_of.contains_key(v) {
                    column_of.insert(v.to_string(), columns.len());
                    columns.push(v.to_string());
                }
            }
        }
    }
    if columns.is_empty() {
        return Err(MappingError::InvalidTgd {
            mapping: tgd.name.clone(),
            message: "the LHS must bind at least one variable".into(),
        });
    }

    // Frontier variables in column order (the Skolem function arguments).
    let frontier = tgd.frontier_variables();
    let frontier_cols: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, v)| frontier.contains(v.as_str()))
        .map(|(i, _)| i)
        .collect();
    let frontier_vars: Vec<String> = frontier_cols.iter().map(|&i| columns[i].clone()).collect();

    // One Skolem function per existential variable.
    let mut skolem_of: BTreeMap<String, SkolemFnId> = BTreeMap::new();
    for v in tgd.existential_variables() {
        skolem_of.insert(v.to_string(), skolems.fresh());
    }

    // Source templates (LHS atoms over R_o).
    let mut sources = Vec::new();
    for atom in &tgd.lhs {
        let terms: Vec<TemplateTerm> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => TemplateTerm::Col(column_of[v]),
                Term::Const(c) => TemplateTerm::Const(c.clone()),
                Term::Skolem(_, _) => unreachable!("tgds are validated to contain no Skolems"),
            })
            .collect();
        sources.push(AtomTemplate {
            relation: source_name(&atom.relation),
            terms,
        });
    }

    // Target templates (RHS atoms over R_i, with Skolems for existentials).
    let mut targets = Vec::new();
    for atom in &tgd.rhs {
        let terms: Vec<TemplateTerm> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => {
                    if let Some(&c) = column_of.get(v.as_str()) {
                        TemplateTerm::Col(c)
                    } else {
                        TemplateTerm::Skolem(skolem_of[v.as_str()], frontier_cols.clone())
                    }
                }
                Term::Const(c) => TemplateTerm::Const(c.clone()),
                Term::Skolem(_, _) => unreachable!("tgds are validated to contain no Skolems"),
            })
            .collect();
        targets.push(AtomTemplate {
            relation: target_name(&atom.relation),
            terms,
        });
    }

    // Provenance tables per encoding.
    let provenance: Vec<ProvenanceTable> = match encoding {
        ProvenanceEncoding::CompositePerTgd => vec![ProvenanceTable {
            relation: format!("P_{}", tgd.name),
            target_indexes: (0..targets.len()).collect(),
        }],
        ProvenanceEncoding::PerHeadAtom => (0..targets.len())
            .map(|i| ProvenanceTable {
                relation: format!("P_{}_{}", tgd.name, i),
                target_indexes: vec![i],
            })
            .collect(),
    };

    // Datalog rules.
    let column_var_terms: Vec<Term> = columns.iter().map(|v| Term::var(v.clone())).collect();
    let lhs_body: Vec<Atom> = tgd
        .lhs
        .iter()
        .map(|a| Atom::new(source_name(&a.relation), a.terms.clone()))
        .collect();

    let mut rules = Vec::new();
    for table in &provenance {
        // (m′) P_m(x̄, ȳ) :- φ(x̄, ȳ)
        rules.push(Rule::positive(
            Atom::new(table.relation.clone(), column_var_terms.clone()),
            lhs_body.clone(),
        ));
        // (m″) T(x̄, f̄(x̄)) :- P_m(x̄, ȳ), for each target of the table
        for &ti in &table.target_indexes {
            let template = &targets[ti];
            let head_terms: Vec<Term> = template
                .terms
                .iter()
                .map(|t| match t {
                    TemplateTerm::Col(c) => Term::var(columns[*c].clone()),
                    TemplateTerm::Const(v) => Term::Const(v.clone()),
                    TemplateTerm::Skolem(f, _) => Term::Skolem(
                        *f,
                        frontier_vars.iter().map(|v| Term::var(v.clone())).collect(),
                    ),
                })
                .collect();
            rules.push(Rule::positive(
                Atom::new(template.relation.clone(), head_terms),
                vec![Atom::new(table.relation.clone(), column_var_terms.clone())],
            ));
        }
    }

    for rule in &rules {
        rule.validate()?;
    }

    Ok(CompiledMapping {
        name: tgd.name.clone(),
        tgd: tgd.clone(),
        columns,
        provenance,
        sources,
        targets,
        rules,
        skolems: skolem_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgd::example2_mappings;
    use orchestra_storage::tuple::int_tuple;

    fn compile(tgd_text: &str, name: &str, internalize: bool) -> CompiledMapping {
        let tgd = Tgd::parse(name, tgd_text).unwrap();
        let mut alloc = SkolemAllocator::new();
        compile_mapping(
            &tgd,
            ProvenanceEncoding::CompositePerTgd,
            &mut alloc,
            internalize,
        )
        .unwrap()
    }

    #[test]
    fn example_9_provenance_relations() {
        // PB1(i, c, n) :- G(i, c, n);  B(i, n) :- PB1(i, c, n)
        let m1 = compile("G(i, c, n) -> B(i, n)", "m1", false);
        assert_eq!(m1.columns, vec!["i", "c", "n"]);
        assert_eq!(m1.provenance.len(), 1);
        assert_eq!(m1.provenance[0].relation, "P_m1");
        assert_eq!(m1.rules.len(), 2);
        assert_eq!(m1.rules[0].to_string(), "P_m1(i, c, n) :- G(i, c, n).");
        assert_eq!(m1.rules[1].to_string(), "B(i, n) :- P_m1(i, c, n).");

        let m4 = compile("B(i, c), U(n, c) -> B(i, n)", "m4", false);
        assert_eq!(m4.columns, vec!["i", "c", "n"]);
        assert_eq!(
            m4.rules[0].to_string(),
            "P_m4(i, c, n) :- B(i, c), U(n, c)."
        );
        assert_eq!(m4.rules[1].to_string(), "B(i, n) :- P_m4(i, c, n).");
    }

    #[test]
    fn internalized_rules_use_output_and_input_tables() {
        let m1 = compile("G(i, c, n) -> B(i, n)", "m1", true);
        assert_eq!(m1.rules[0].to_string(), "P_m1(i, c, n) :- G_o(i, c, n).");
        assert_eq!(m1.rules[1].to_string(), "B_i(i, n) :- P_m1(i, c, n).");
        assert_eq!(m1.sources[0].relation, "G_o");
        assert_eq!(m1.targets[0].relation, "B_i");
    }

    #[test]
    fn example_8_skolemisation() {
        // B_o(i, n) -> ∃c U_i(n, c) becomes U_i(n, f(n)) :- P_m3(i, n) with
        // the Skolem parameterised on the frontier variable n only.
        let m3 = compile("B(i, n) -> U(n, c)", "m3", true);
        assert_eq!(m3.skolems.len(), 1);
        let rule_text = m3.rules[1].to_string();
        assert!(rule_text.starts_with("U_i(n, #f0(n))"), "{rule_text}");
        // The template agrees with the rule.
        let row = int_tuple(&[3, 2]); // columns are [i, n]
        assert_eq!(m3.columns, vec!["i", "n"]);
        let targets = m3.instantiate_targets(0, &row);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].0, "U_i");
        let t = &targets[0].1;
        assert_eq!(t[0], Value::int(2));
        assert_eq!(
            t[1],
            Value::labeled_null(m3.skolems["c"], vec![Value::int(2)])
        );
    }

    #[test]
    fn separate_skolems_per_existential_and_per_tgd() {
        let tgds = [
            Tgd::parse("a", "R(x) -> S(x, z, w)").unwrap(),
            Tgd::parse("b", "R(x) -> T(x, z)").unwrap(),
        ];
        let mut alloc = SkolemAllocator::new();
        let a = compile_mapping(
            &tgds[0],
            ProvenanceEncoding::CompositePerTgd,
            &mut alloc,
            false,
        )
        .unwrap();
        let b = compile_mapping(
            &tgds[1],
            ProvenanceEncoding::CompositePerTgd,
            &mut alloc,
            false,
        )
        .unwrap();
        let mut ids: Vec<SkolemFnId> = a.skolems.values().copied().collect();
        ids.extend(b.skolems.values().copied());
        ids.sort();
        ids.dedup();
        assert_eq!(
            ids.len(),
            3,
            "each existential gets its own Skolem function"
        );
    }

    #[test]
    fn per_head_atom_encoding_splits_tables() {
        let tgd = Tgd::parse("m", "G(i, c, n) -> B(i, n), U(n, c)").unwrap();
        let mut alloc = SkolemAllocator::new();
        let c = compile_mapping(&tgd, ProvenanceEncoding::PerHeadAtom, &mut alloc, false).unwrap();
        assert_eq!(c.provenance.len(), 2);
        assert_eq!(c.provenance[0].relation, "P_m_0");
        assert_eq!(c.provenance[1].relation, "P_m_1");
        // 2 tables × (1 m′ rule + 1 m″ rule)
        assert_eq!(c.rules.len(), 4);
        let composite = compile_mapping(
            &tgd,
            ProvenanceEncoding::CompositePerTgd,
            &mut SkolemAllocator::new(),
            false,
        )
        .unwrap();
        assert_eq!(composite.provenance.len(), 1);
        assert_eq!(composite.rules.len(), 3);
    }

    #[test]
    fn source_and_target_instantiation_roundtrip() {
        let m4 = compile("B(i, c), U(n, c) -> B(i, n)", "m4", true);
        // Provenance row for i=3, c=5, n=2 (the running example's m4
        // instantiation deriving B(3,2) from B(3,5) and U(2,5)).
        let row = int_tuple(&[3, 5, 2]);
        let sources = m4.instantiate_sources(&row);
        assert_eq!(sources[0], ("B_o".to_string(), int_tuple(&[3, 5])));
        assert_eq!(sources[1], ("U_o".to_string(), int_tuple(&[2, 5])));
        let targets = m4.instantiate_targets(0, &row);
        assert_eq!(targets, vec![("B_i".to_string(), int_tuple(&[3, 2]))]);
    }

    #[test]
    fn provenance_schemas_carry_variable_names() {
        let m1 = compile("G(i, c, n) -> B(i, n)", "m1", false);
        let schemas = m1.provenance_schemas();
        assert_eq!(schemas.len(), 1);
        assert_eq!(schemas[0].name(), "P_m1");
        assert_eq!(
            schemas[0].attributes(),
            &["i".to_string(), "c".to_string(), "n".to_string()]
        );
    }

    #[test]
    fn constants_in_tgds_compile() {
        let m = compile("G(i, 5, n) -> B(i, \"x\")", "mc", false);
        assert_eq!(m.columns, vec!["i", "n"]);
        let row = int_tuple(&[7, 9]);
        let sources = m.instantiate_sources(&row);
        assert_eq!(
            sources[0].1,
            Tuple::new(vec![Value::int(7), Value::int(5), Value::int(9)])
        );
        let targets = m.instantiate_targets(0, &row);
        assert_eq!(
            targets[0].1,
            Tuple::new(vec![Value::int(7), Value::text("x")])
        );
    }

    #[test]
    fn all_example_2_mappings_compile() {
        let mut alloc = SkolemAllocator::new();
        for tgd in example2_mappings() {
            let c = compile_mapping(&tgd, ProvenanceEncoding::CompositePerTgd, &mut alloc, true)
                .unwrap();
            for r in &c.rules {
                r.validate().unwrap();
            }
        }
    }
}

//! Symbolic provenance expressions (paper §3.2).
//!
//! `Pv(B(3,2)) = m1(p3) + m4(p1 · p2)` is represented as a
//! [`ProvenanceExpr`] tree. Expressions support algebraic simplification and
//! homomorphic evaluation into any [`Semiring`](crate::semiring::Semiring),
//! given an interpretation of tokens and of the per-mapping unary functions.

use std::fmt;

use crate::semiring::Semiring;
use crate::token::{MappingId, ProvenanceToken};

/// A provenance expression over tokens, `+`, `·`, and mapping applications.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProvenanceExpr {
    /// The additive identity: no derivation.
    Zero,
    /// The multiplicative identity: the empty join.
    One,
    /// The provenance token of a base tuple.
    Token(ProvenanceToken),
    /// Alternative derivations (`+`).
    Sum(Vec<ProvenanceExpr>),
    /// Joint use within one derivation (`·`).
    Product(Vec<ProvenanceExpr>),
    /// Application of a mapping's unary function, `m(e)`.
    Mapping(MappingId, Box<ProvenanceExpr>),
}

impl ProvenanceExpr {
    /// A token leaf.
    pub fn token(t: ProvenanceToken) -> Self {
        ProvenanceExpr::Token(t)
    }

    /// A sum, flattening nested sums and dropping zeros. Returns
    /// [`ProvenanceExpr::Zero`] for an empty sum and the single operand for a
    /// singleton sum.
    pub fn sum(operands: Vec<ProvenanceExpr>) -> Self {
        let mut flat = Vec::new();
        for o in operands {
            match o {
                ProvenanceExpr::Zero => {}
                ProvenanceExpr::Sum(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => ProvenanceExpr::Zero,
            1 => flat.into_iter().next().expect("len checked"),
            _ => ProvenanceExpr::Sum(flat),
        }
    }

    /// A product, flattening nested products, dropping ones, and collapsing
    /// to zero if any factor is zero.
    pub fn product(operands: Vec<ProvenanceExpr>) -> Self {
        let mut flat = Vec::new();
        for o in operands {
            match o {
                ProvenanceExpr::One => {}
                ProvenanceExpr::Zero => return ProvenanceExpr::Zero,
                ProvenanceExpr::Product(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => ProvenanceExpr::One,
            1 => flat.into_iter().next().expect("len checked"),
            _ => ProvenanceExpr::Product(flat),
        }
    }

    /// A mapping application `m(e)`; `m(0)` collapses to `0`.
    pub fn mapping(id: impl Into<MappingId>, inner: ProvenanceExpr) -> Self {
        if matches!(inner, ProvenanceExpr::Zero) {
            ProvenanceExpr::Zero
        } else {
            ProvenanceExpr::Mapping(id.into(), Box::new(inner))
        }
    }

    /// Is this the zero expression?
    pub fn is_zero(&self) -> bool {
        matches!(self, ProvenanceExpr::Zero)
    }

    /// Number of summands, i.e. the number of alternative derivations the
    /// expression records at its top level.
    pub fn num_derivations(&self) -> usize {
        match self {
            ProvenanceExpr::Zero => 0,
            ProvenanceExpr::Sum(v) => v.len(),
            _ => 1,
        }
    }

    /// Recursively sort sum and product operands into a canonical order.
    ///
    /// The provenance graph stores derivations in hash-map order, so two
    /// graphs recording the same derivations can render an expression with
    /// its `+`/`·` operands permuted. Both operations are commutative in
    /// every provenance semiring, so sorting loses nothing — after
    /// canonicalization, semantically equal expressions compare and render
    /// identically. The network layer canonicalizes every `ProvenanceOf`
    /// answer so remote provenance is deterministic.
    pub fn canonicalize(&mut self) {
        match self {
            ProvenanceExpr::Sum(v) | ProvenanceExpr::Product(v) => {
                for e in v.iter_mut() {
                    e.canonicalize();
                }
                v.sort_by_cached_key(|e| e.to_string());
            }
            ProvenanceExpr::Mapping(_, e) => e.canonicalize(),
            ProvenanceExpr::Zero | ProvenanceExpr::One | ProvenanceExpr::Token(_) => {}
        }
    }

    /// [`ProvenanceExpr::canonicalize`], by value.
    pub fn canonical(mut self) -> Self {
        self.canonicalize();
        self
    }

    /// All tokens mentioned anywhere in the expression.
    pub fn tokens(&self) -> Vec<&ProvenanceToken> {
        let mut out = Vec::new();
        self.collect_tokens(&mut out);
        out
    }

    fn collect_tokens<'a>(&'a self, out: &mut Vec<&'a ProvenanceToken>) {
        match self {
            ProvenanceExpr::Zero | ProvenanceExpr::One => {}
            ProvenanceExpr::Token(t) => out.push(t),
            ProvenanceExpr::Sum(v) | ProvenanceExpr::Product(v) => {
                for e in v {
                    e.collect_tokens(out);
                }
            }
            ProvenanceExpr::Mapping(_, e) => e.collect_tokens(out),
        }
    }

    /// All mapping names mentioned anywhere in the expression.
    pub fn mappings(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_mappings(&mut out);
        out
    }

    fn collect_mappings<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ProvenanceExpr::Zero | ProvenanceExpr::One | ProvenanceExpr::Token(_) => {}
            ProvenanceExpr::Sum(v) | ProvenanceExpr::Product(v) => {
                for e in v {
                    e.collect_mappings(out);
                }
            }
            ProvenanceExpr::Mapping(m, e) => {
                out.push(m);
                e.collect_mappings(out);
            }
        }
    }

    /// Evaluate the expression in a semiring `S`.
    ///
    /// `token_value` interprets base tokens; `mapping_fn` interprets the
    /// application of a mapping to an already-evaluated argument (for the
    /// trust semiring of §3.3 this conjoins the mapping's trust condition
    /// with the argument's trust).
    pub fn eval<S, FT, FM>(&self, token_value: &FT, mapping_fn: &FM) -> S
    where
        S: Semiring,
        FT: Fn(&ProvenanceToken) -> S,
        FM: Fn(&str, S) -> S,
    {
        match self {
            ProvenanceExpr::Zero => S::zero(),
            ProvenanceExpr::One => S::one(),
            ProvenanceExpr::Token(t) => token_value(t),
            ProvenanceExpr::Sum(v) => v
                .iter()
                .map(|e| e.eval(token_value, mapping_fn))
                .fold(S::zero(), |acc, x| acc.plus(&x)),
            ProvenanceExpr::Product(v) => v
                .iter()
                .map(|e| e.eval(token_value, mapping_fn))
                .fold(S::one(), |acc, x| acc.times(&x)),
            ProvenanceExpr::Mapping(m, e) => {
                let inner = e.eval(token_value, mapping_fn);
                mapping_fn(m, inner)
            }
        }
    }

    /// Evaluate trust (boolean semiring, §3.3): `trusted_token` says whether
    /// a base tuple is trusted, `trusted_mapping` whether a use of a mapping
    /// is trusted (independent of the data — data-dependent conditions are
    /// evaluated on the provenance *graph*, which knows the derived tuples).
    pub fn evaluate_trust<FT, FM>(&self, trusted_token: &FT, trusted_mapping: &FM) -> bool
    where
        FT: Fn(&ProvenanceToken) -> bool,
        FM: Fn(&str) -> bool,
    {
        self.eval::<bool, _, _>(trusted_token, &|m, inner| trusted_mapping(m) && inner)
    }
}

impl fmt::Display for ProvenanceExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceExpr::Zero => write!(f, "0"),
            ProvenanceExpr::One => write!(f, "1"),
            ProvenanceExpr::Token(t) => write!(f, "{t}"),
            ProvenanceExpr::Sum(v) => {
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            ProvenanceExpr::Product(v) => {
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    match e {
                        ProvenanceExpr::Sum(_) => write!(f, "({e})")?,
                        _ => write!(f, "{e}")?,
                    }
                }
                Ok(())
            }
            ProvenanceExpr::Mapping(m, e) => write!(f, "{m}({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{CountingSemiring, Lineage, TropicalSemiring, WhyProvenance};
    use orchestra_storage::tuple::int_tuple;

    fn tok(name: &str, vals: &[i64]) -> ProvenanceToken {
        ProvenanceToken::new(name, int_tuple(vals))
    }

    /// The running example: Pv(B(3,2)) = m1(p3) + m4(p1·p2).
    fn example_expr() -> ProvenanceExpr {
        let p1 = ProvenanceExpr::token(tok("B_l", &[3, 5]));
        let p2 = ProvenanceExpr::token(tok("U_l", &[2, 5]));
        let p3 = ProvenanceExpr::token(tok("G_l", &[3, 5, 2]));
        ProvenanceExpr::sum(vec![
            ProvenanceExpr::mapping("m1", p3),
            ProvenanceExpr::mapping("m4", ProvenanceExpr::product(vec![p1, p2])),
        ])
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            example_expr().to_string(),
            "m1(G_l(3, 5, 2)) + m4(B_l(3, 5)·U_l(2, 5))"
        );
    }

    #[test]
    fn simplification_rules() {
        let t = ProvenanceExpr::token(tok("R", &[1]));
        assert_eq!(ProvenanceExpr::sum(vec![]), ProvenanceExpr::Zero);
        assert_eq!(
            ProvenanceExpr::sum(vec![ProvenanceExpr::Zero, t.clone()]),
            t
        );
        assert_eq!(ProvenanceExpr::product(vec![]), ProvenanceExpr::One);
        assert_eq!(
            ProvenanceExpr::product(vec![ProvenanceExpr::Zero, t.clone()]),
            ProvenanceExpr::Zero
        );
        assert_eq!(
            ProvenanceExpr::product(vec![ProvenanceExpr::One, t.clone()]),
            t
        );
        assert_eq!(
            ProvenanceExpr::mapping("m1", ProvenanceExpr::Zero),
            ProvenanceExpr::Zero
        );
        // nested sums flatten
        let nested = ProvenanceExpr::sum(vec![
            ProvenanceExpr::sum(vec![t.clone(), t.clone()]),
            t.clone(),
        ]);
        assert_eq!(nested.num_derivations(), 3);
    }

    #[test]
    fn example_7_trust_evaluation() {
        // PBioSQL trusts p3 (from GUS) and p1 (its own), distrusts p2 (uBio's
        // (2,5)); all mappings trivially trusted. T·T + T·T·D = T.
        let expr = example_expr();
        let trusted = expr.evaluate_trust(&|t| t.relation != "U_l", &|_| true);
        assert!(trusted);

        // Distrusting p3 and mapping m4 kills both derivations.
        let trusted = expr.evaluate_trust(&|t| t.relation != "G_l", &|m| m != "m4");
        assert!(!trusted);

        // The paper's observation: distrusting p2 and m1 rejects B(3,2)...
        let trusted = expr.evaluate_trust(&|t| t.relation != "U_l", &|m| m != "m1");
        assert!(!trusted);
        // ...but distrusting p1 and p2 does not (m1(p3) survives).
        let trusted = expr.evaluate_trust(&|t| t.relation == "G_l", &|_| true);
        assert!(trusted);
    }

    #[test]
    fn counting_evaluation_counts_derivations() {
        let expr = example_expr();
        let n: CountingSemiring = expr.eval(&|_| CountingSemiring(1), &|_, x| x);
        assert_eq!(n, CountingSemiring(2));
    }

    #[test]
    fn tropical_evaluation_costs_cheapest_derivation() {
        // Cost 1 per mapping application, 0 per token.
        let expr = example_expr();
        let cost: TropicalSemiring = expr.eval(&|_| TropicalSemiring(0), &|_, x| {
            x.times(&TropicalSemiring(1))
        });
        assert_eq!(cost, TropicalSemiring(1));
    }

    #[test]
    fn lineage_and_why_provenance_evaluation() {
        let expr = example_expr();
        let lin: Lineage = expr.eval(&|t| Lineage::of_token(t.clone()), &|_, x| x);
        assert_eq!(lin.tokens().unwrap().len(), 3);
        let why: WhyProvenance = expr.eval(&|t| WhyProvenance::of_token(t.clone()), &|_, x| x);
        assert_eq!(why.witnesses().len(), 2);
    }

    #[test]
    fn token_and_mapping_collection() {
        let expr = example_expr();
        assert_eq!(expr.tokens().len(), 3);
        let mut ms = expr.mappings();
        ms.sort();
        assert_eq!(ms, vec!["m1", "m4"]);
        assert_eq!(expr.num_derivations(), 2);
        assert!(!expr.is_zero());
        assert!(ProvenanceExpr::Zero.is_zero());
    }

    #[test]
    fn canonicalization_orders_commutative_operands() {
        let t = |name: &str| ProvenanceExpr::token(tok(name, &[1]));
        let a = ProvenanceExpr::sum(vec![ProvenanceExpr::product(vec![t("b"), t("a")]), t("c")]);
        let b = ProvenanceExpr::sum(vec![t("c"), ProvenanceExpr::product(vec![t("a"), t("b")])]);
        assert_ne!(a, b, "permuted operands differ structurally");
        let (a, b) = (a.canonical(), b.canonical());
        assert_eq!(a, b, "canonical forms agree");
        assert_eq!(a.to_string(), b.to_string());
        // Canonicalization preserves the derivation count.
        assert_eq!(a.num_derivations(), 2);
    }
}

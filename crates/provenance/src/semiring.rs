//! Semiring instances for provenance evaluation.
//!
//! The provenance expressions of §3.2 live in the *free* semiring over
//! provenance tokens (with one unary function per mapping). Concrete
//! provenance models are obtained by evaluating those expressions under a
//! homomorphism into a specific commutative semiring — this is how the paper
//! relates its model to trust (the boolean semiring, §3.3), to bag semantics
//! (the counting semiring, §7), and to lineage / why-provenance (§7).

use std::collections::BTreeSet;
use std::fmt::Debug;

use crate::token::ProvenanceToken;

/// A commutative semiring `(K, +, ·, 0, 1)`.
///
/// Implementations must satisfy the usual laws: both operations are
/// associative and commutative, `0` is the identity of `+` and annihilates
/// `·`, `1` is the identity of `·`, and `·` distributes over `+`. The
/// property-based tests in this crate check these laws on every bundled
/// instance.
pub trait Semiring: Clone + Eq + Debug {
    /// The additive identity (provenance of an underivable tuple).
    fn zero() -> Self;
    /// The multiplicative identity (provenance of "no requirement").
    fn one() -> Self;
    /// Alternative derivations.
    fn plus(&self, other: &Self) -> Self;
    /// Joint use in one derivation.
    fn times(&self, other: &Self) -> Self;

    /// Is this the additive identity? Default: equality with `zero()`.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
}

/// The boolean trust semiring `({T, D}, ∨, ∧, D, T)` of §3.3: a tuple is
/// trusted iff at least one of its derivations uses only trusted inputs
/// ([`crate::ProvenanceExpr::evaluate_trust`] evaluates into it).
impl Semiring for bool {
    fn zero() -> Self {
        false
    }
    fn one() -> Self {
        true
    }
    fn plus(&self, other: &Self) -> Self {
        *self || *other
    }
    fn times(&self, other: &Self) -> Self {
        *self && *other
    }
}

/// The counting (natural-number) semiring: evaluates a provenance expression
/// to the number of distinct derivations, generalising bag semantics
/// (paper §7, referencing Mumick–Pirahesh–Ramakrishnan).
///
/// Counts saturate instead of overflowing, since cyclic mapping networks can
/// have astronomically many derivations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountingSemiring(pub u64);

impl Semiring for CountingSemiring {
    fn zero() -> Self {
        CountingSemiring(0)
    }
    fn one() -> Self {
        CountingSemiring(1)
    }
    fn plus(&self, other: &Self) -> Self {
        CountingSemiring(self.0.saturating_add(other.0))
    }
    fn times(&self, other: &Self) -> Self {
        CountingSemiring(self.0.saturating_mul(other.0))
    }
}

/// The tropical semiring `(ℕ ∪ {∞}, min, +, ∞, 0)`: evaluates a provenance
/// expression to the cost of the cheapest derivation, a natural fit for the
/// "ranked trust models" the paper lists as future work (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TropicalSemiring(pub u64);

impl TropicalSemiring {
    /// The infinite cost (additive identity).
    pub const INFINITY: TropicalSemiring = TropicalSemiring(u64::MAX);
}

impl Semiring for TropicalSemiring {
    fn zero() -> Self {
        TropicalSemiring::INFINITY
    }
    fn one() -> Self {
        TropicalSemiring(0)
    }
    fn plus(&self, other: &Self) -> Self {
        TropicalSemiring(self.0.min(other.0))
    }
    fn times(&self, other: &Self) -> Self {
        TropicalSemiring(self.0.saturating_add(other.0))
    }
}

/// Lineage: the set of all base tuples that participate in *some* derivation
/// (Cui-style lineage, paper §7). `None` is the additive identity
/// (underivable); `Some(set)` collects contributing tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage(pub Option<BTreeSet<ProvenanceToken>>);

impl Lineage {
    /// Lineage of a base tuple: the singleton set of its own token.
    pub fn of_token(token: ProvenanceToken) -> Self {
        let mut s = BTreeSet::new();
        s.insert(token);
        Lineage(Some(s))
    }

    /// The contributing tokens, if the tuple is derivable at all.
    pub fn tokens(&self) -> Option<&BTreeSet<ProvenanceToken>> {
        self.0.as_ref()
    }
}

impl Semiring for Lineage {
    fn zero() -> Self {
        Lineage(None)
    }
    fn one() -> Self {
        Lineage(Some(BTreeSet::new()))
    }
    fn plus(&self, other: &Self) -> Self {
        match (&self.0, &other.0) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(b)) => Lineage(Some(a.union(b).cloned().collect())),
        }
    }
    fn times(&self, other: &Self) -> Self {
        match (&self.0, &other.0) {
            (None, _) | (_, None) => Lineage(None),
            (Some(a), Some(b)) => Lineage(Some(a.union(b).cloned().collect())),
        }
    }
}

/// Why-provenance: the set of *witnesses*, each witness being the set of base
/// tuples used by one derivation (Buneman–Khanna–Tan, paper §7). Strictly
/// coarser than the provenance expressions (it forgets which mappings were
/// used and how many times), which is exactly why the paper needs the richer
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhyProvenance(pub BTreeSet<BTreeSet<ProvenanceToken>>);

impl WhyProvenance {
    /// Why-provenance of a base tuple: one witness containing only itself.
    pub fn of_token(token: ProvenanceToken) -> Self {
        let mut w = BTreeSet::new();
        w.insert(token);
        let mut s = BTreeSet::new();
        s.insert(w);
        WhyProvenance(s)
    }

    /// The set of witnesses.
    pub fn witnesses(&self) -> &BTreeSet<BTreeSet<ProvenanceToken>> {
        &self.0
    }
}

impl Semiring for WhyProvenance {
    fn zero() -> Self {
        WhyProvenance(BTreeSet::new())
    }
    fn one() -> Self {
        let mut s = BTreeSet::new();
        s.insert(BTreeSet::new());
        WhyProvenance(s)
    }
    fn plus(&self, other: &Self) -> Self {
        WhyProvenance(self.0.union(&other.0).cloned().collect())
    }
    fn times(&self, other: &Self) -> Self {
        let mut out = BTreeSet::new();
        for a in &self.0 {
            for b in &other.0 {
                out.insert(a.union(b).cloned().collect());
            }
        }
        WhyProvenance(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_storage::tuple::int_tuple;

    fn tok(i: i64) -> ProvenanceToken {
        ProvenanceToken::new("R_l", int_tuple(&[i]))
    }

    #[test]
    fn boolean_semiring_is_or_and() {
        assert!(!bool::zero());
        assert!(bool::one());
        assert!(true.plus(&false));
        assert!(!false.plus(&false));
        assert!(!true.times(&false));
        assert!(true.times(&true));
        assert!(bool::zero().is_zero());
    }

    #[test]
    fn counting_semiring_counts_and_saturates() {
        let two = CountingSemiring(2);
        let three = CountingSemiring(3);
        assert_eq!(two.plus(&three), CountingSemiring(5));
        assert_eq!(two.times(&three), CountingSemiring(6));
        assert_eq!(CountingSemiring::zero().times(&three), CountingSemiring(0));
        assert_eq!(CountingSemiring::one().times(&three), three);
        let big = CountingSemiring(u64::MAX);
        assert_eq!(big.plus(&big), big);
        assert_eq!(big.times(&big), big);
    }

    #[test]
    fn tropical_semiring_is_shortest_derivation() {
        let a = TropicalSemiring(4);
        let b = TropicalSemiring(7);
        assert_eq!(a.plus(&b), a);
        assert_eq!(a.times(&b), TropicalSemiring(11));
        assert_eq!(TropicalSemiring::zero(), TropicalSemiring::INFINITY);
        assert_eq!(TropicalSemiring::zero().plus(&b), b);
        assert_eq!(TropicalSemiring::one().times(&b), b);
        // zero annihilates (saturating add with infinity stays infinity)
        assert_eq!(
            TropicalSemiring::zero().times(&b),
            TropicalSemiring::INFINITY
        );
    }

    #[test]
    fn lineage_unions_contributing_tokens() {
        let a = Lineage::of_token(tok(1));
        let b = Lineage::of_token(tok(2));
        let joined = a.times(&b);
        assert_eq!(joined.tokens().unwrap().len(), 2);
        let alt = a.plus(&b);
        assert_eq!(alt.tokens().unwrap().len(), 2);
        // zero is absorbing for times, identity for plus
        assert_eq!(Lineage::zero().times(&a), Lineage::zero());
        assert_eq!(Lineage::zero().plus(&a), a);
        assert_eq!(Lineage::one().times(&a), a);
        assert!(Lineage::zero().is_zero());
    }

    #[test]
    fn why_provenance_tracks_witnesses_separately() {
        // Pv = p1·p2 + p3 : two witnesses {p1,p2} and {p3}.
        let p1p2 = WhyProvenance::of_token(tok(1)).times(&WhyProvenance::of_token(tok(2)));
        let p3 = WhyProvenance::of_token(tok(3));
        let total = p1p2.plus(&p3);
        assert_eq!(total.witnesses().len(), 2);
        // Lineage of the same expression loses the distinction: one flat set.
        let lineage = Lineage::of_token(tok(1))
            .times(&Lineage::of_token(tok(2)))
            .plus(&Lineage::of_token(tok(3)));
        assert_eq!(lineage.tokens().unwrap().len(), 3);
    }

    #[test]
    fn why_provenance_identities() {
        let a = WhyProvenance::of_token(tok(1));
        assert_eq!(WhyProvenance::one().times(&a), a);
        assert_eq!(WhyProvenance::zero().plus(&a), a);
        assert_eq!(WhyProvenance::zero().times(&a), WhyProvenance::zero());
    }
}

//! Trust policies and data predicates (paper §2.2 and §3.3).
//!
//! Each peer annotates every schema mapping that can bring data *into* its
//! schema with a trust condition Θ. A condition is a [`Predicate`] over the
//! derived tuple's values; a mapping can also be distrusted outright. As
//! tuples are derived during update exchange, those that derive only from
//! trusted data and satisfy the conditions along every mapping are accepted;
//! everything else is rejected (it never enters the peer's input/output
//! tables, and therefore never propagates further — the composition of trust
//! along mapping paths described in §3.3 falls out of this automatically).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use orchestra_storage::{Tuple, Value};

/// Comparison operators usable in trust conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        };
        write!(f, "{s}")
    }
}

/// A boolean predicate over a tuple's values, used as a trust condition on a
/// mapping ("distrust B(i, n) if n ≥ 3", Example 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (the trivial trust condition).
    True,
    /// Always false (blanket distrust).
    False,
    /// Compare the value at a column with a constant.
    Cmp {
        /// Column position within the derived tuple.
        column: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare with.
        value: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Shorthand for a column/constant comparison.
    pub fn cmp(column: usize, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column,
            op,
            value: value.into(),
        }
    }

    /// Evaluate the predicate on a tuple. Columns outside the tuple's arity
    /// evaluate to `false` (a malformed condition never grants trust).
    pub fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Cmp { column, op, value } => match tuple.get(*column) {
                Some(v) => op.eval(v, value),
                None => false,
            },
            Predicate::And(ps) => ps.iter().all(|p| p.eval(tuple)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(tuple)),
            Predicate::Not(p) => !p.eval(tuple),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp { column, op, value } => write!(f, "$%{column} {op} {value}"),
            Predicate::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Not(p) => write!(f, "¬{p}"),
        }
    }
}

/// A peer's trust policy: per-mapping conditions plus blanket distrust.
///
/// The default policy trusts everything (the "trivial trust conditions" of
/// Example 7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrustPolicy {
    /// Mappings this peer distrusts entirely: any data derived through them
    /// into this peer is rejected.
    pub distrusted_mappings: BTreeSet<String>,
    /// Conditions per mapping: data derived through the mapping is accepted
    /// only if the predicate holds on the derived tuple.
    pub conditions: BTreeMap<String, Predicate>,
}

impl TrustPolicy {
    /// The policy that trusts everything.
    pub fn trust_all() -> Self {
        TrustPolicy::default()
    }

    /// Add a condition for a mapping (builder style).
    pub fn with_condition(mut self, mapping: impl Into<String>, predicate: Predicate) -> Self {
        self.conditions.insert(mapping.into(), predicate);
        self
    }

    /// Distrust a mapping entirely (builder style).
    pub fn distrusting(mut self, mapping: impl Into<String>) -> Self {
        self.distrusted_mappings.insert(mapping.into());
        self
    }

    /// Does this policy accept a tuple derived through `mapping`?
    pub fn accepts(&self, mapping: &str, derived: &Tuple) -> bool {
        if self.distrusted_mappings.contains(mapping) {
            return false;
        }
        match self.conditions.get(mapping) {
            Some(p) => p.eval(derived),
            None => true,
        }
    }

    /// Is this the trust-everything policy?
    pub fn is_trust_all(&self) -> bool {
        self.distrusted_mappings.is_empty() && self.conditions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_storage::tuple::int_tuple;

    #[test]
    fn comparison_predicates() {
        let t = int_tuple(&[1, 3]);
        assert!(Predicate::cmp(1, CmpOp::Ge, 3i64).eval(&t));
        assert!(!Predicate::cmp(1, CmpOp::Lt, 3i64).eval(&t));
        assert!(Predicate::cmp(0, CmpOp::Eq, 1i64).eval(&t));
        assert!(Predicate::cmp(0, CmpOp::Ne, 2i64).eval(&t));
        assert!(Predicate::cmp(1, CmpOp::Le, 3i64).eval(&t));
        assert!(Predicate::cmp(1, CmpOp::Gt, 2i64).eval(&t));
        // out-of-range column is never trusted
        assert!(!Predicate::cmp(9, CmpOp::Eq, 1i64).eval(&t));
    }

    #[test]
    fn boolean_connectives() {
        let t = int_tuple(&[1, 3]);
        let p = Predicate::And(vec![
            Predicate::cmp(0, CmpOp::Eq, 1i64),
            Predicate::Not(Box::new(Predicate::cmp(1, CmpOp::Eq, 9i64))),
        ]);
        assert!(p.eval(&t));
        let q = Predicate::Or(vec![Predicate::False, Predicate::True]);
        assert!(q.eval(&t));
        assert!(!Predicate::False.eval(&t));
        assert!(Predicate::True.eval(&t));
        assert!(p.to_string().contains('∧'));
        assert!(q.to_string().contains('∨'));
    }

    #[test]
    fn example_4_conditions() {
        // PBioSQL distrusts any tuple B(i, n) from PGUS (mapping m1) with n ≥ 3.
        let policy = TrustPolicy::trust_all().with_condition(
            "m1",
            Predicate::Not(Box::new(Predicate::cmp(1, CmpOp::Ge, 3i64))),
        );
        // B(1,3) arrives via m1 with n=3: rejected.
        assert!(!policy.accepts("m1", &int_tuple(&[1, 3])));
        // B(3,2) via m1 with n=2: accepted.
        assert!(policy.accepts("m1", &int_tuple(&[3, 2])));
        // Data via other mappings is unaffected.
        assert!(policy.accepts("m4", &int_tuple(&[1, 3])));

        // Second condition: distrust B(i, n) from mapping m4 if n != 2.
        let policy = policy.with_condition("m4", Predicate::cmp(1, CmpOp::Eq, 2i64));
        assert!(!policy.accepts("m4", &int_tuple(&[3, 3])));
        assert!(policy.accepts("m4", &int_tuple(&[3, 2])));
    }

    #[test]
    fn blanket_distrust_and_defaults() {
        let policy = TrustPolicy::trust_all().distrusting("m2");
        assert!(!policy.accepts("m2", &int_tuple(&[1])));
        assert!(policy.accepts("m1", &int_tuple(&[1])));
        assert!(!policy.is_trust_all());
        assert!(TrustPolicy::trust_all().is_trust_all());
        assert!(TrustPolicy::default().accepts("anything", &int_tuple(&[])));
    }
}

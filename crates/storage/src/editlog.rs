//! Edit logs: the "source data" of a CDSS.
//!
//! Each peer's users edit their local instance offline; those edits are
//! recorded in an ordered edit log per relation (`ΔR` in the paper, §3.1).
//! An entry is either an insertion (`+`) or a deletion (`−`) of a tuple.
//! When the peer publishes, the log is *normalised* into its net effect on
//! the local-contributions and rejections tables: an insertion followed by a
//! deletion of the same tuple cancels out, a deletion of a tuple the peer
//! never inserted becomes a rejection of imported data, and so on.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::tuple::Tuple;

/// The kind of an edit-log entry: `+` or `−` in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditOpKind {
    /// `+`: the user inserted the tuple locally.
    Insert,
    /// `−`: the user deleted the tuple (a curation deletion if the tuple was
    /// imported rather than locally inserted).
    Delete,
}

impl fmt::Display for EditOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditOpKind::Insert => write!(f, "+"),
            EditOpKind::Delete => write!(f, "-"),
        }
    }
}

/// A single edit-log entry: an insertion or deletion of a tuple of one
/// relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EditOp {
    /// Whether this is an insertion or a deletion.
    pub kind: EditOpKind,
    /// The affected tuple.
    pub tuple: Tuple,
}

impl EditOp {
    /// An insertion entry.
    pub fn insert(tuple: Tuple) -> Self {
        EditOp {
            kind: EditOpKind::Insert,
            tuple,
        }
    }

    /// A deletion entry.
    pub fn delete(tuple: Tuple) -> Self {
        EditOp {
            kind: EditOpKind::Delete,
            tuple,
        }
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.tuple)
    }
}

/// The net effect of an edit log once replayed in order (see
/// [`EditLog::normalize`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NormalizedEdits {
    /// Tuples the peer contributes locally (net insertions).
    pub contributions: Vec<Tuple>,
    /// Tuples the peer rejects: deletions of data it did not itself insert,
    /// which therefore must have arrived via update exchange (paper §2,
    /// "manual curation").
    pub rejections: Vec<Tuple>,
    /// Tuples whose local contribution was retracted by a later deletion
    /// (they simply disappear from `R_l`; they are *not* rejections).
    pub retracted_contributions: Vec<Tuple>,
}

/// An ordered edit log for one relation (`ΔR`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditLog {
    relation: String,
    ops: Vec<EditOp>,
}

impl EditLog {
    /// Create an empty edit log for the named (logical) relation.
    pub fn new(relation: impl Into<String>) -> Self {
        EditLog {
            relation: relation.into(),
            ops: Vec::new(),
        }
    }

    /// Reassemble a log from previously recorded entries (used by the
    /// persistence layer when decoding WAL epochs and snapshots).
    pub fn from_ops(relation: impl Into<String>, ops: Vec<EditOp>) -> Self {
        EditLog {
            relation: relation.into(),
            ops,
        }
    }

    /// The logical relation this log belongs to.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Append an insertion.
    pub fn push_insert(&mut self, tuple: Tuple) {
        self.ops.push(EditOp::insert(tuple));
    }

    /// Append a deletion.
    pub fn push_delete(&mut self, tuple: Tuple) {
        self.ops.push(EditOp::delete(tuple));
    }

    /// Append an arbitrary entry.
    pub fn push(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// Number of entries in the log.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The raw entries, in order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Iterate over the entries in order.
    pub fn iter(&self) -> std::slice::Iter<'_, EditOp> {
        self.ops.iter()
    }

    /// Remove all entries (used after a successful publish).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Replay the log in order and compute its net effect.
    ///
    /// `previously_contributed` is the set of tuples already present in the
    /// peer's local-contributions table from earlier publishes; deleting one
    /// of those retracts the contribution rather than creating a rejection.
    pub fn normalize(&self, previously_contributed: &HashSet<Tuple>) -> NormalizedEdits {
        self.normalize_with(|t| previously_contributed.contains(t))
    }

    /// Like [`EditLog::normalize`], but with membership in the prior
    /// contributions answered by a predicate — callers holding a
    /// [`crate::Relation`] can pass `|t| rel.contains(t)` directly instead
    /// of materialising its tuples into a set first.
    ///
    /// The replay itself is **id-based**: the log's distinct tuples are
    /// dense-interned once up front, and all the set algebra below (the
    /// cancel / reject / retract transitions) moves `u32` ids instead of
    /// re-hashing and re-comparing tuples per transition. The
    /// `previously_contributed` predicate is consulted at most once per
    /// distinct tuple.
    pub fn normalize_with(
        &self,
        previously_contributed: impl Fn(&Tuple) -> bool,
    ) -> NormalizedEdits {
        // Dense-intern the log's distinct tuples: local id = first-seen order.
        let mut local: HashMap<&Tuple, u32> = HashMap::with_capacity(self.ops.len());
        let mut distinct: Vec<&Tuple> = Vec::new();
        let op_ids: Vec<u32> = self
            .ops
            .iter()
            .map(|op| {
                *local.entry(&op.tuple).or_insert_with(|| {
                    distinct.push(&op.tuple);
                    u32::try_from(distinct.len() - 1).expect("edit log fits u32 ids")
                })
            })
            .collect();

        // Memoized prior-contribution membership, one probe per distinct id.
        let mut prior: Vec<Option<bool>> = vec![None; distinct.len()];

        // Per-id membership flags replace the old HashSet<Tuple> triple;
        // the Vec<u32> orderings preserve the original output order.
        let mut in_inserted = vec![false; distinct.len()];
        let mut in_rejected = vec![false; distinct.len()];
        let mut in_retracted = vec![false; distinct.len()];
        let mut inserted: Vec<u32> = Vec::new();
        let mut rejections: Vec<u32> = Vec::new();
        let mut retracted: Vec<u32> = Vec::new();

        for (op, &id) in self.ops.iter().zip(&op_ids) {
            let i = id as usize;
            match op.kind {
                EditOpKind::Insert => {
                    // Re-inserting a tuple cancels a pending rejection or
                    // retraction of that same tuple.
                    if in_rejected[i] {
                        in_rejected[i] = false;
                        rejections.retain(|&t| t != id);
                    }
                    if in_retracted[i] {
                        in_retracted[i] = false;
                        retracted.retain(|&t| t != id);
                    }
                    if !in_inserted[i] {
                        in_inserted[i] = true;
                        inserted.push(id);
                    }
                }
                EditOpKind::Delete => {
                    if in_inserted[i] {
                        // Deleting something inserted earlier in this same log:
                        // the insertion simply never happened.
                        in_inserted[i] = false;
                        inserted.retain(|&t| t != id);
                    } else if *prior[i].get_or_insert_with(|| previously_contributed(distinct[i])) {
                        // Deleting one of the peer's own earlier contributions:
                        // remove it from R_l (a retraction), not a rejection.
                        if !in_retracted[i] {
                            in_retracted[i] = true;
                            retracted.push(id);
                        }
                    } else {
                        // Deleting data the peer did not insert: it must have
                        // arrived via update exchange, so it is a rejection
                        // that persists in future exchanges (paper §2).
                        if !in_rejected[i] {
                            in_rejected[i] = true;
                            rejections.push(id);
                        }
                    }
                }
            }
        }

        let resolve = |ids: Vec<u32>| -> Vec<Tuple> {
            ids.into_iter()
                .map(|id| distinct[id as usize].clone())
                .collect()
        };
        NormalizedEdits {
            contributions: resolve(inserted),
            rejections: resolve(rejections),
            retracted_contributions: resolve(retracted),
        }
    }
}

impl fmt::Display for EditLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Δ{}", self.relation)?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::int_tuple;

    #[test]
    fn simple_insertions_become_contributions() {
        let mut log = EditLog::new("G");
        log.push_insert(int_tuple(&[1, 2, 3]));
        log.push_insert(int_tuple(&[3, 5, 2]));
        let n = log.normalize(&HashSet::new());
        assert_eq!(
            n.contributions,
            vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])]
        );
        assert!(n.rejections.is_empty());
        assert!(n.retracted_contributions.is_empty());
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut log = EditLog::new("G");
        log.push_insert(int_tuple(&[1, 2, 3]));
        log.push_delete(int_tuple(&[1, 2, 3]));
        let n = log.normalize(&HashSet::new());
        assert!(n.contributions.is_empty());
        assert!(n.rejections.is_empty());
    }

    #[test]
    fn delete_of_foreign_tuple_is_a_rejection() {
        // Example 3 of the paper: a curation deletion of (3,2) in B, which B's
        // users never inserted, becomes a rejection.
        let mut log = EditLog::new("B");
        log.push_delete(int_tuple(&[3, 2]));
        let n = log.normalize(&HashSet::new());
        assert_eq!(n.rejections, vec![int_tuple(&[3, 2])]);
        assert!(n.contributions.is_empty());
    }

    #[test]
    fn delete_of_prior_contribution_is_a_retraction() {
        let mut log = EditLog::new("B");
        log.push_delete(int_tuple(&[3, 5]));
        let mut prior = HashSet::new();
        prior.insert(int_tuple(&[3, 5]));
        let n = log.normalize(&prior);
        assert!(n.rejections.is_empty());
        assert_eq!(n.retracted_contributions, vec![int_tuple(&[3, 5])]);
    }

    #[test]
    fn reinsert_cancels_rejection_and_retraction() {
        let mut log = EditLog::new("B");
        log.push_delete(int_tuple(&[3, 2]));
        log.push_insert(int_tuple(&[3, 2]));
        let n = log.normalize(&HashSet::new());
        assert!(n.rejections.is_empty());
        assert_eq!(n.contributions, vec![int_tuple(&[3, 2])]);

        let mut log = EditLog::new("B");
        log.push_delete(int_tuple(&[3, 5]));
        log.push_insert(int_tuple(&[3, 5]));
        let mut prior = HashSet::new();
        prior.insert(int_tuple(&[3, 5]));
        let n = log.normalize(&prior);
        assert!(n.retracted_contributions.is_empty());
        assert_eq!(n.contributions, vec![int_tuple(&[3, 5])]);
    }

    #[test]
    fn duplicate_operations_are_idempotent() {
        let mut log = EditLog::new("B");
        log.push_insert(int_tuple(&[1, 1]));
        log.push_insert(int_tuple(&[1, 1]));
        log.push_delete(int_tuple(&[9, 9]));
        log.push_delete(int_tuple(&[9, 9]));
        let n = log.normalize(&HashSet::new());
        assert_eq!(n.contributions.len(), 1);
        assert_eq!(n.rejections.len(), 1);
    }

    #[test]
    fn log_bookkeeping() {
        let mut log = EditLog::new("B");
        assert!(log.is_empty());
        log.push(EditOp::insert(int_tuple(&[1, 1])));
        assert_eq!(log.len(), 1);
        assert_eq!(log.relation(), "B");
        assert_eq!(log.ops()[0].kind, EditOpKind::Insert);
        assert_eq!(log.iter().count(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn display_uses_paper_notation() {
        let mut log = EditLog::new("G");
        log.push_insert(int_tuple(&[1, 2, 3]));
        log.push_delete(int_tuple(&[3, 2, 1]));
        let s = log.to_string();
        assert!(s.contains("ΔG"));
        assert!(s.contains("+ (1, 2, 3)"));
        assert!(s.contains("- (3, 2, 1)"));
    }
}

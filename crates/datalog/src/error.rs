//! Error type for the datalog engine.

use std::fmt;

use orchestra_storage::StorageError;

/// Errors raised while validating or evaluating datalog programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A rule is unsafe: a head or negated-body variable does not occur in
    /// any positive body atom.
    UnsafeRule {
        /// Human-readable rendering of the offending rule.
        rule: String,
        /// The unsafe variable.
        variable: String,
    },
    /// Skolem terms may only appear in rule heads.
    SkolemInBody {
        /// Human-readable rendering of the offending rule.
        rule: String,
    },
    /// The program uses negation through recursion and cannot be stratified.
    NotStratifiable {
        /// A relation involved in the negative cycle.
        relation: String,
    },
    /// A relation mentioned by the program does not exist in the database.
    MissingRelation(String),
    /// The same relation is used with two different arities.
    ArityConflict {
        /// The relation name.
        relation: String,
        /// One of the observed arities.
        first: usize,
        /// The other observed arity.
        second: usize,
    },
    /// Error bubbled up from the storage layer.
    Storage(StorageError),
    /// A parse error with position information.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset in the input where the error was detected.
        offset: usize,
    },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::UnsafeRule { rule, variable } => {
                write!(f, "unsafe rule `{rule}`: variable `{variable}` does not occur in a positive body atom")
            }
            DatalogError::SkolemInBody { rule } => {
                write!(f, "rule `{rule}` uses a Skolem term in its body; Skolem terms are only allowed in heads")
            }
            DatalogError::NotStratifiable { relation } => {
                write!(f, "program is not stratifiable: relation `{relation}` depends negatively on itself through recursion")
            }
            DatalogError::MissingRelation(r) => {
                write!(f, "relation `{r}` is not present in the database")
            }
            DatalogError::ArityConflict {
                relation,
                first,
                second,
            } => {
                write!(
                    f,
                    "relation `{relation}` used with conflicting arities {first} and {second}"
                )
            }
            DatalogError::Storage(e) => write!(f, "storage error: {e}"),
            DatalogError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

impl From<StorageError> for DatalogError {
    fn from(e: StorageError) -> Self {
        DatalogError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DatalogError::UnsafeRule {
            rule: "p(x) :- q(y)".into(),
            variable: "x".into(),
        };
        assert!(e.to_string().contains("unsafe"));
        assert!(e.to_string().contains('x'));

        let e = DatalogError::NotStratifiable {
            relation: "p".into(),
        };
        assert!(e.to_string().contains("stratifiable"));

        let e = DatalogError::Parse {
            message: "expected atom".into(),
            offset: 12,
        };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn storage_errors_convert() {
        let e: DatalogError = StorageError::UnknownRelation("B".into()).into();
        assert!(matches!(e, DatalogError::Storage(_)));
        assert!(e.to_string().contains('B'));
    }
}

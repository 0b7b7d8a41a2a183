//! Error type for model construction and validation.

use std::error::Error;
use std::fmt;

use crate::op::OpId;

/// Errors produced while building or validating the model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// An operation identifier does not belong to the graph under
    /// construction.
    UnknownOperation(OpId),
    /// Adding the requested dependency would create a cycle in the
    /// sequencing graph.
    CycleDetected {
        /// Source of the offending edge.
        from: OpId,
        /// Destination of the offending edge.
        to: OpId,
    },
    /// A dependency edge connects an operation to itself.
    SelfDependency(OpId),
    /// The same dependency edge was added twice.
    DuplicateDependency {
        /// Source of the duplicate edge.
        from: OpId,
        /// Destination of the duplicate edge.
        to: OpId,
    },
    /// A wordlength of zero bits was supplied.
    ZeroWordlength,
    /// A wordlength larger than `MAX_WORDLENGTH` (1024 bits) was supplied.
    WordlengthTooLarge(u32),
    /// The graph has no operations.
    EmptyGraph,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownOperation(id) => {
                write!(f, "unknown operation {id}")
            }
            ModelError::CycleDetected { from, to } => {
                write!(f, "adding dependency {from} -> {to} would create a cycle")
            }
            ModelError::SelfDependency(id) => {
                write!(f, "operation {id} cannot depend on itself")
            }
            ModelError::DuplicateDependency { from, to } => {
                write!(f, "dependency {from} -> {to} added twice")
            }
            ModelError::ZeroWordlength => write!(f, "wordlength must be at least one bit"),
            ModelError::WordlengthTooLarge(w) => {
                write!(f, "wordlength {w} exceeds the supported maximum")
            }
            ModelError::EmptyGraph => write!(f, "sequencing graph contains no operations"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            ModelError::UnknownOperation(OpId::new(3)),
            ModelError::CycleDetected {
                from: OpId::new(0),
                to: OpId::new(1),
            },
            ModelError::SelfDependency(OpId::new(2)),
            ModelError::DuplicateDependency {
                from: OpId::new(4),
                to: OpId::new(5),
            },
            ModelError::ZeroWordlength,
            ModelError::WordlengthTooLarge(4096),
            ModelError::EmptyGraph,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}

//! Operations of a multiple-wordlength sequencing graph.
//!
//! The paper's central premise (Section 1) is that after wordlength
//! optimisation every operation carries its *own* operand widths — an
//! [`OpShape`] — so operations of the same kind are generally not
//! interchangeable, and resource sharing must reason about coverage
//! between shapes rather than mere operation counts.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Largest supported wordlength in bits.
///
/// The limit is generous for fixed-point DSP designs (the paper's examples use
/// widths up to 25 bits) while keeping `width_a * width_b` products far away
/// from integer overflow in any cost model.
pub const MAX_WORDLENGTH: u32 = 1024;

/// Identifier of an operation inside one [`crate::SequencingGraph`].
///
/// Identifiers are dense indices assigned in insertion order by
/// [`crate::SequencingGraphBuilder::add_operation`], which makes them directly
/// usable as `Vec` indices throughout the workspace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct OpId(u32);

impl OpId {
    /// Creates an identifier from a raw index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        OpId(index)
    }

    /// Returns the raw dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<OpId> for usize {
    fn from(id: OpId) -> usize {
        id.index()
    }
}

/// The functional class an operation belongs to.
///
/// Operations of the same kind compete for the same class of resources:
/// additions and subtractions are executed by adders, multiplications by
/// multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction (shares adder resources).
    Sub,
    /// Fixed-point multiplication.
    Mul,
}

impl OpKind {
    /// All supported operation kinds.
    pub const ALL: [OpKind; 3] = [OpKind::Add, OpKind::Sub, OpKind::Mul];

    /// Returns `true` if the kind is executed by adder resources.
    #[must_use]
    pub fn is_additive(self) -> bool {
        matches!(self, OpKind::Add | OpKind::Sub)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
        };
        f.write_str(s)
    }
}

/// The wordlength signature of an operation.
///
/// * An additive operation is characterised by a single output wordlength.
/// * A multiplication is characterised by the wordlengths of its two operands
///   (an `n×m` multiplier in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpShape {
    /// Additive operation of the given width in bits.
    Additive {
        /// Operation kind; must satisfy [`OpKind::is_additive`].
        kind: OpKind,
        /// Width of the addition in bits.
        width: u32,
    },
    /// Multiplication with operand widths `a` and `b` bits.
    Multiplicative {
        /// Width of the first operand in bits.
        a: u32,
        /// Width of the second operand in bits.
        b: u32,
    },
}

impl OpShape {
    /// Creates an addition of the given width.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwl_model::{OpShape, OpKind};
    /// let s = OpShape::adder(12);
    /// assert_eq!(s.kind(), OpKind::Add);
    /// assert_eq!(s.widths(), (12, 12));
    /// ```
    #[must_use]
    pub fn adder(width: u32) -> Self {
        OpShape::Additive {
            kind: OpKind::Add,
            width,
        }
    }

    /// Creates a subtraction of the given width.
    #[must_use]
    pub fn subtractor(width: u32) -> Self {
        OpShape::Additive {
            kind: OpKind::Sub,
            width,
        }
    }

    /// Creates an `a × b`-bit multiplication.
    ///
    /// The operand order is normalised so that `a >= b`; an `8×12` and a
    /// `12×8` multiplication are the same shape and can run on the same
    /// resource.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwl_model::OpShape;
    /// assert_eq!(OpShape::multiplier(8, 12), OpShape::multiplier(12, 8));
    /// ```
    #[must_use]
    pub fn multiplier(a: u32, b: u32) -> Self {
        let (a, b) = if a >= b { (a, b) } else { (b, a) };
        OpShape::Multiplicative { a, b }
    }

    /// Returns the operation kind of the shape.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            OpShape::Additive { kind, .. } => *kind,
            OpShape::Multiplicative { .. } => OpKind::Mul,
        }
    }

    /// Returns the operand widths `(a, b)`; additive shapes report their
    /// single width twice.
    #[must_use]
    pub fn widths(&self) -> (u32, u32) {
        match self {
            OpShape::Additive { width, .. } => (*width, *width),
            OpShape::Multiplicative { a, b } => (*a, *b),
        }
    }

    /// Sum of the operand widths, used by the SONIC latency formula.
    #[must_use]
    pub fn total_width(&self) -> u32 {
        let (a, b) = self.widths();
        a + b
    }

    /// Validates that the wordlengths are in the supported range.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroWordlength`] if any operand width is zero
    /// and [`ModelError::WordlengthTooLarge`] if any operand width exceeds
    /// `MAX_WORDLENGTH`.
    pub fn validate(&self) -> Result<(), ModelError> {
        let (a, b) = self.widths();
        for w in [a, b] {
            if w == 0 {
                return Err(ModelError::ZeroWordlength);
            }
            if w > MAX_WORDLENGTH {
                return Err(ModelError::WordlengthTooLarge(w));
            }
        }
        Ok(())
    }
}

impl fmt::Display for OpShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpShape::Additive { kind, width } => write!(f, "{kind}[{width}]"),
            OpShape::Multiplicative { a, b } => write!(f, "mul[{a}x{b}]"),
        }
    }
}

/// A single operation of the sequencing graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    id: OpId,
    shape: OpShape,
    name: Option<String>,
}

impl Operation {
    /// Creates a new operation.  Usually called through
    /// [`crate::SequencingGraphBuilder::add_operation`].
    #[must_use]
    pub fn new(id: OpId, shape: OpShape) -> Self {
        Operation {
            id,
            shape,
            name: None,
        }
    }

    /// Creates a named operation (names are used only for display purposes).
    #[must_use]
    pub fn with_name(id: OpId, shape: OpShape, name: impl Into<String>) -> Self {
        Operation {
            id,
            shape,
            name: Some(name.into()),
        }
    }

    /// Identifier within the owning graph.
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }

    /// Wordlength signature.
    #[must_use]
    pub fn shape(&self) -> OpShape {
        self.shape
    }

    /// Functional class of the operation.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.shape.kind()
    }

    /// Optional human-readable name.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{n}({}: {})", self.id, self.shape),
            None => write!(f, "{}: {}", self.id, self.shape),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_roundtrip() {
        let id = OpId::new(17);
        assert_eq!(id.index(), 17);
        assert_eq!(usize::from(id), 17);
        assert_eq!(id.to_string(), "o17");
    }

    #[test]
    fn multiplier_shape_is_normalised() {
        let a = OpShape::multiplier(8, 16);
        let b = OpShape::multiplier(16, 8);
        assert_eq!(a, b);
        assert_eq!(a.widths(), (16, 8));
        assert_eq!(a.total_width(), 24);
    }

    #[test]
    fn additive_shape_widths() {
        let s = OpShape::adder(12);
        assert_eq!(s.widths(), (12, 12));
        assert_eq!(s.total_width(), 24);
        assert!(s.kind().is_additive());
        let s = OpShape::subtractor(9);
        assert_eq!(s.kind(), OpKind::Sub);
        assert!(s.kind().is_additive());
    }

    #[test]
    fn mul_kind_is_not_additive() {
        assert!(!OpKind::Mul.is_additive());
    }

    #[test]
    fn shape_validation() {
        assert_eq!(
            OpShape::adder(0).validate(),
            Err(ModelError::ZeroWordlength)
        );
        assert_eq!(
            OpShape::multiplier(4, 0).validate(),
            Err(ModelError::ZeroWordlength)
        );
        assert_eq!(
            OpShape::multiplier(4, MAX_WORDLENGTH + 1).validate(),
            Err(ModelError::WordlengthTooLarge(MAX_WORDLENGTH + 1))
        );
        assert!(OpShape::multiplier(16, 16).validate().is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(OpShape::adder(10).to_string(), "add[10]");
        assert_eq!(OpShape::subtractor(6).to_string(), "sub[6]");
        assert_eq!(OpShape::multiplier(4, 9).to_string(), "mul[9x4]");
        let op = Operation::with_name(OpId::new(2), OpShape::adder(8), "acc");
        assert_eq!(op.to_string(), "acc(o2: add[8])");
        let op = Operation::new(OpId::new(3), OpShape::multiplier(8, 8));
        assert_eq!(op.to_string(), "o3: mul[8x8]");
    }

    #[test]
    fn operation_accessors() {
        let op = Operation::with_name(OpId::new(1), OpShape::multiplier(10, 12), "p");
        assert_eq!(op.id(), OpId::new(1));
        assert_eq!(op.kind(), OpKind::Mul);
        assert_eq!(op.shape(), OpShape::multiplier(12, 10));
        assert_eq!(op.name(), Some("p"));
    }
}

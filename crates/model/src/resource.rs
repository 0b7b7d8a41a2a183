//! Resource-wordlength types and resource-set extraction.
//!
//! Section 2.1's resource model: a [`ResourceType`] is a *(class,
//! wordlengths)* pair such as "16×12-bit multiplier", and it `covers` every
//! operation of its class whose operand widths fit — the relation that
//! seeds the wordlength compatibility graph's `H` edges.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::op::{OpKind, OpShape, Operation};

/// The class of a functional unit.
///
/// Every operation kind maps to exactly one resource class
/// ([`ResourceClass::for_kind`]); additions and subtractions share adders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceClass {
    /// Ripple-carry style adder/subtractor unit.
    Adder,
    /// Parallel array multiplier.
    Multiplier,
}

impl ResourceClass {
    /// All supported resource classes.
    pub const ALL: [ResourceClass; 2] = [ResourceClass::Adder, ResourceClass::Multiplier];

    /// Number of resource classes — the size of dense class-indexed tables
    /// (see [`index`](Self::index)).
    pub const COUNT: usize = Self::ALL.len();

    /// Returns the resource class executing the given operation kind.
    #[must_use]
    pub fn for_kind(kind: OpKind) -> Self {
        match kind {
            OpKind::Add | OpKind::Sub => ResourceClass::Adder,
            OpKind::Mul => ResourceClass::Multiplier,
        }
    }

    /// Dense index of the class in `0..`[`COUNT`](Self::COUNT), consistent
    /// with the position in [`ALL`](Self::ALL) and with the `Ord` order.
    /// Allows hot paths to replace `BTreeMap<ResourceClass, _>` lookups with
    /// array indexing.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ResourceClass::Adder => 0,
            ResourceClass::Multiplier => 1,
        }
    }
}

impl fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceClass::Adder => "adder",
            ResourceClass::Multiplier => "multiplier",
        };
        f.write_str(s)
    }
}

/// A *resource-wordlength type*: a functional unit class together with the
/// wordlengths it is built for, such as "16×16-bit multiplier" or
/// "12-bit adder".
///
/// A resource type can execute every operation of its class whose operand
/// wordlengths it covers, even when the operation is smaller than the
/// resource; this is precisely the flexibility exploited by the paper's
/// combined binding and wordlength selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceType {
    class: ResourceClass,
    /// Primary (larger) operand width in bits.
    width_a: u32,
    /// Secondary operand width in bits (equals `width_a` for adders).
    width_b: u32,
}

impl ResourceType {
    /// Creates an adder resource type of the given width.
    #[must_use]
    pub fn adder(width: u32) -> Self {
        ResourceType {
            class: ResourceClass::Adder,
            width_a: width,
            width_b: width,
        }
    }

    /// Creates an `a × b`-bit multiplier resource type (operand order is
    /// normalised so that `a >= b`).
    #[must_use]
    pub fn multiplier(a: u32, b: u32) -> Self {
        let (a, b) = if a >= b { (a, b) } else { (b, a) };
        ResourceType {
            class: ResourceClass::Multiplier,
            width_a: a,
            width_b: b,
        }
    }

    /// Creates the smallest resource type able to execute the given shape.
    #[must_use]
    pub fn for_shape(shape: OpShape) -> Self {
        match shape {
            OpShape::Additive { width, .. } => ResourceType::adder(width),
            OpShape::Multiplicative { a, b } => ResourceType::multiplier(a, b),
        }
    }

    /// Resource class of the unit.
    #[must_use]
    pub fn class(&self) -> ResourceClass {
        self.class
    }

    /// Operand widths `(a, b)` with `a >= b`.
    #[must_use]
    pub fn widths(&self) -> (u32, u32) {
        (self.width_a, self.width_b)
    }

    /// Sum of the operand widths (drives the SONIC multiplier latency).
    #[must_use]
    pub fn total_width(&self) -> u32 {
        match self.class {
            ResourceClass::Adder => self.width_a,
            ResourceClass::Multiplier => self.width_a + self.width_b,
        }
    }

    /// Returns `true` if this resource can execute an operation of the given
    /// shape: the classes must match and each operand width of the resource
    /// must be at least the corresponding operand width of the operation.
    ///
    /// Multiplier operands may be swapped (an `18×12` multiplier covers a
    /// `10×16` multiplication because both normalise to descending order).
    ///
    /// # Examples
    ///
    /// ```
    /// use mwl_model::{ResourceType, OpShape};
    /// let big = ResourceType::multiplier(16, 16);
    /// assert!(big.covers(OpShape::multiplier(8, 12)));
    /// assert!(!big.covers(OpShape::multiplier(20, 4)));
    /// assert!(!big.covers(OpShape::adder(8)));
    /// ```
    #[must_use]
    pub fn covers(&self, shape: OpShape) -> bool {
        if self.class != ResourceClass::for_kind(shape.kind()) {
            return false;
        }
        let (oa, ob) = shape.widths();
        match self.class {
            ResourceClass::Adder => self.width_a >= oa.max(ob),
            ResourceClass::Multiplier => {
                // Both pairs are normalised to descending order.
                self.width_a >= oa && self.width_b >= ob
            }
        }
    }

    /// Returns `true` if this resource covers every shape the other resource
    /// covers (i.e. it dominates it functionally; it may still be slower).
    #[must_use]
    pub fn dominates(&self, other: &ResourceType) -> bool {
        self.class == other.class && self.width_a >= other.width_a && self.width_b >= other.width_b
    }

    /// The component-wise maximum of two resource types of the same class:
    /// the smallest resource type that dominates both, i.e. can execute every
    /// operation either input can execute.
    ///
    /// Returns `None` when the classes differ (an adder and a multiplier have
    /// no common widening).
    ///
    /// # Examples
    ///
    /// ```
    /// use mwl_model::ResourceType;
    /// let a = ResourceType::multiplier(16, 8);
    /// let b = ResourceType::multiplier(12, 10);
    /// let m = a.component_max(&b).unwrap();
    /// assert_eq!(m, ResourceType::multiplier(16, 10));
    /// assert!(m.dominates(&a) && m.dominates(&b));
    /// assert!(a.component_max(&ResourceType::adder(8)).is_none());
    /// ```
    #[must_use]
    pub fn component_max(&self, other: &ResourceType) -> Option<ResourceType> {
        if self.class != other.class {
            return None;
        }
        Some(ResourceType {
            class: self.class,
            width_a: self.width_a.max(other.width_a),
            width_b: self.width_b.max(other.width_b),
        })
    }
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            ResourceClass::Adder => write!(f, "{}-bit adder", self.width_a),
            ResourceClass::Multiplier => {
                write!(f, "{}x{}-bit multiplier", self.width_a, self.width_b)
            }
        }
    }
}

/// Extracts the set of candidate resource-wordlength types `R` from a set of
/// operations.
///
/// Following the construction referenced by the paper (the algorithm of
/// reference \[5\]), the candidates per class are generated from the operand
/// widths observed in the operations of that class:
///
/// * adders: one candidate per distinct additive width;
/// * multipliers: the cross product of observed primary and secondary operand
///   widths, filtered to combinations that cover at least one operation.
///
/// The result is sorted and duplicate-free.  The resource set is polynomial
/// in the number of operations (at most `|O|` adder types and `|O|²`
/// multiplier types); the coverage filter is an O(1) lookup per candidate.
///
/// # Examples
///
/// ```
/// use mwl_model::{extract_resource_types, Operation, OpId, OpShape, ResourceType};
/// let ops = vec![
///     Operation::new(OpId::new(0), OpShape::multiplier(8, 6)),
///     Operation::new(OpId::new(1), OpShape::multiplier(12, 4)),
/// ];
/// let r = extract_resource_types(&ops);
/// assert!(r.contains(&ResourceType::multiplier(8, 6)));
/// assert!(r.contains(&ResourceType::multiplier(12, 6)));
/// assert!(r.contains(&ResourceType::multiplier(12, 4)));
/// ```
#[must_use]
pub fn extract_resource_types(ops: &[Operation]) -> Vec<ResourceType> {
    let mut out = Vec::new();
    extract_resource_types_into(ops, &mut OperandWidths::default(), &mut out);
    out
}

/// [`extract_resource_types`] into caller-owned buffers: the operand-width
/// analysis lands in `widths` and the sorted, duplicate-free resource set
/// replaces the contents of `out`.  Once both buffers have held the result
/// for an operation set at least as large, a call allocates nothing.
///
/// # Examples
///
/// ```
/// use mwl_model::{
///     extract_resource_types, extract_resource_types_into, OpId, OpShape, OperandWidths,
///     Operation,
/// };
/// let ops = vec![
///     Operation::new(OpId::new(0), OpShape::multiplier(8, 6)),
///     Operation::new(OpId::new(1), OpShape::adder(12)),
/// ];
/// let (mut widths, mut out) = (OperandWidths::default(), Vec::new());
/// extract_resource_types_into(&ops, &mut widths, &mut out);
/// assert_eq!(out, extract_resource_types(&ops));
/// ```
pub fn extract_resource_types_into(
    ops: &[Operation],
    widths: &mut OperandWidths,
    out: &mut Vec<ResourceType>,
) {
    widths.analyse(ops);
    out.clear();
    out.extend(widths.adders.iter().map(|&w| ResourceType::adder(w)));
    widths.for_each_multiplier(|a, b| out.push(ResourceType::multiplier(a, b)));
    out.sort_unstable();
    out.dedup();
}

/// The operand widths of a set of operations, analysed for
/// [`extract_resource_types_into`]: distinct adder widths and the multiplier
/// candidates of the primary × secondary cross product that cover at least
/// one operation.  Its contents are private; a caller keeps one only to
/// reuse its buffers.
///
/// The coverage test is an O(1) lookup: a candidate `hi×lo` covers some
/// multiplication `a×b` iff the smallest `b` over operations with `a ≤ hi`
/// is at most `lo`, and that minimum is precomputed for every primary and
/// secondary width.  Each analysis clears the buffers first, so one value
/// can be reused across operation sets.
#[derive(Debug, Clone, Default)]
pub struct OperandWidths {
    /// Distinct adder widths, ascending.
    adders: Vec<u32>,
    /// Distinct primary multiplier widths, ascending.
    primaries: Vec<u32>,
    /// Distinct secondary multiplier widths, ascending.
    secondaries: Vec<u32>,
    /// Multiplier operand pairs sorted by primary width, each secondary
    /// replaced by the running minimum up to that pair.
    min_secondary: Vec<(u32, u32)>,
    /// Per primary width: the smallest secondary of any operation whose
    /// primary is at most that width.
    primary_min: Vec<u32>,
    /// The same lookup for each secondary width.
    secondary_min: Vec<u32>,
}

impl OperandWidths {
    /// Replaces the analysis with that of `ops`.
    fn analyse(&mut self, ops: &[Operation]) {
        self.adders.clear();
        self.primaries.clear();
        self.secondaries.clear();
        self.min_secondary.clear();
        for op in ops {
            match op.shape() {
                OpShape::Additive { width, .. } => self.adders.push(width),
                OpShape::Multiplicative { a, b } => {
                    self.primaries.push(a);
                    self.secondaries.push(b);
                    self.min_secondary.push((a, b));
                }
            }
        }
        for widths in [&mut self.adders, &mut self.primaries, &mut self.secondaries] {
            widths.sort_unstable();
            widths.dedup();
        }
        self.min_secondary.sort_unstable();
        let mut running = u32::MAX;
        for pair in &mut self.min_secondary {
            running = running.min(pair.1);
            pair.1 = running;
        }
        let pairs = &self.min_secondary;
        let lookup = |width: u32| match pairs.partition_point(|&(a, _)| a <= width) {
            0 => u32::MAX,
            n => pairs[n - 1].1,
        };
        self.primary_min.clear();
        self.primary_min
            .extend(self.primaries.iter().map(|&w| lookup(w)));
        self.secondary_min.clear();
        self.secondary_min
            .extend(self.secondaries.iter().map(|&w| lookup(w)));
    }

    /// Calls `f(hi, lo)` (`hi >= lo`) for every primary × secondary
    /// candidate that covers at least one multiplication, in primary-major
    /// order.  A pair may be reported twice when both of its widths occur
    /// as primaries and as secondaries.
    fn for_each_multiplier(&self, mut f: impl FnMut(u32, u32)) {
        for (&p, &p_min) in self.primaries.iter().zip(&self.primary_min) {
            for (&s, &s_min) in self.secondaries.iter().zip(&self.secondary_min) {
                let (hi, lo, min) = if p >= s { (p, s, p_min) } else { (s, p, s_min) };
                if min <= lo {
                    f(hi, lo);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::op::OpId;

    /// The original filter: every primary × secondary candidate scanned
    /// against every multiplication with [`ResourceType::covers`].
    fn extract_by_scan(ops: &[Operation]) -> Vec<ResourceType> {
        let mut adder_widths: BTreeSet<u32> = BTreeSet::new();
        let mut mul_primary: BTreeSet<u32> = BTreeSet::new();
        let mut mul_secondary: BTreeSet<u32> = BTreeSet::new();
        let mut mul_shapes: Vec<OpShape> = Vec::new();
        for op in ops {
            match op.shape() {
                OpShape::Additive { width, .. } => {
                    adder_widths.insert(width);
                }
                s @ OpShape::Multiplicative { a, b } => {
                    mul_primary.insert(a);
                    mul_secondary.insert(b);
                    mul_shapes.push(s);
                }
            }
        }
        let mut out: BTreeSet<ResourceType> =
            adder_widths.into_iter().map(ResourceType::adder).collect();
        for &a in &mul_primary {
            for &b in &mul_secondary {
                let candidate = ResourceType::multiplier(a, b);
                if mul_shapes.iter().any(|&s| candidate.covers(s)) {
                    out.insert(candidate);
                }
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn extraction_matches_the_covers_scan() {
        // A fixed-seed xorshift stream of small shape sets; one in three
        // multiplications keeps its operands in ascending (un-normalised)
        // order, as a directly built `OpShape::Multiplicative` may.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(bound)) as u32
        };
        let (mut widths, mut reused) = (OperandWidths::default(), Vec::new());
        for case in 0..2000 {
            let max_width = if case % 4 == 0 { 80 } else { 24 };
            let n = 1 + next(14);
            let ops: Vec<Operation> = (0..n)
                .map(|i| {
                    let (a, b) = (1 + next(max_width), 1 + next(max_width));
                    let shape = match next(3) {
                        0 => OpShape::adder(a),
                        1 => OpShape::multiplier(a, b),
                        _ => OpShape::Multiplicative {
                            a: a.min(b),
                            b: a.max(b),
                        },
                    };
                    Operation::new(OpId::new(i), shape)
                })
                .collect();
            assert_eq!(
                extract_resource_types(&ops),
                extract_by_scan(&ops),
                "case {case}: {ops:?}"
            );
            // Reused buffers give the same candidates as fresh ones.
            extract_resource_types_into(&ops, &mut widths, &mut reused);
            assert_eq!(
                reused,
                extract_by_scan(&ops),
                "case {case} (reused buffers)"
            );
        }
    }

    #[test]
    fn class_for_kind() {
        assert_eq!(ResourceClass::for_kind(OpKind::Add), ResourceClass::Adder);
        assert_eq!(ResourceClass::for_kind(OpKind::Sub), ResourceClass::Adder);
        assert_eq!(
            ResourceClass::for_kind(OpKind::Mul),
            ResourceClass::Multiplier
        );
    }

    #[test]
    fn adder_covers_smaller_adds_and_subs() {
        let r = ResourceType::adder(16);
        assert!(r.covers(OpShape::adder(16)));
        assert!(r.covers(OpShape::adder(8)));
        assert!(r.covers(OpShape::subtractor(12)));
        assert!(!r.covers(OpShape::adder(17)));
        assert!(!r.covers(OpShape::multiplier(4, 4)));
    }

    #[test]
    fn multiplier_covers_with_operand_swap() {
        let r = ResourceType::multiplier(12, 8);
        assert!(r.covers(OpShape::multiplier(12, 8)));
        assert!(r.covers(OpShape::multiplier(8, 12)));
        assert!(r.covers(OpShape::multiplier(10, 7)));
        // Normalisation: an 8x12 request becomes 12x8 and is covered.
        assert!(r.covers(OpShape::multiplier(8, 8)));
        // A 9x9 multiplication fits within 12x8? Normalised op (9,9): needs b>=9.
        assert!(!r.covers(OpShape::multiplier(9, 9)));
        assert!(!r.covers(OpShape::multiplier(13, 2)));
        assert!(!r.covers(OpShape::adder(4)));
    }

    #[test]
    fn for_shape_is_smallest_cover() {
        let s = OpShape::multiplier(7, 11);
        let r = ResourceType::for_shape(s);
        assert!(r.covers(s));
        assert_eq!(r.widths(), (11, 7));
        let s = OpShape::subtractor(5);
        let r = ResourceType::for_shape(s);
        assert_eq!(r, ResourceType::adder(5));
        assert!(r.covers(s));
    }

    #[test]
    fn dominates_relation() {
        let big = ResourceType::multiplier(16, 12);
        let small = ResourceType::multiplier(12, 8);
        assert!(big.dominates(&small));
        assert!(!small.dominates(&big));
        assert!(big.dominates(&big));
        assert!(!big.dominates(&ResourceType::adder(4)));
    }

    #[test]
    fn component_max_is_least_common_dominator() {
        let a = ResourceType::multiplier(16, 8);
        let b = ResourceType::multiplier(12, 10);
        let m = a.component_max(&b).unwrap();
        assert_eq!(m, ResourceType::multiplier(16, 10));
        assert!(m.dominates(&a));
        assert!(m.dominates(&b));
        assert_eq!(b.component_max(&a), Some(m));
        // The max of a dominating pair is the dominant type itself.
        let small = ResourceType::multiplier(8, 8);
        let big = ResourceType::multiplier(16, 16);
        assert_eq!(small.component_max(&big), Some(big));
        // Adders widen to the larger width; cross-class maxima do not exist.
        assert_eq!(
            ResourceType::adder(8).component_max(&ResourceType::adder(14)),
            Some(ResourceType::adder(14))
        );
        assert!(ResourceType::adder(8)
            .component_max(&ResourceType::multiplier(8, 8))
            .is_none());
    }

    #[test]
    fn total_width() {
        assert_eq!(ResourceType::adder(12).total_width(), 12);
        assert_eq!(ResourceType::multiplier(12, 8).total_width(), 20);
    }

    #[test]
    fn display() {
        assert_eq!(ResourceType::adder(12).to_string(), "12-bit adder");
        assert_eq!(
            ResourceType::multiplier(8, 16).to_string(),
            "16x8-bit multiplier"
        );
    }

    #[test]
    fn extraction_adders_only_distinct_widths() {
        let ops = vec![
            Operation::new(OpId::new(0), OpShape::adder(8)),
            Operation::new(OpId::new(1), OpShape::adder(8)),
            Operation::new(OpId::new(2), OpShape::subtractor(12)),
        ];
        let r = extract_resource_types(&ops);
        assert_eq!(r, vec![ResourceType::adder(8), ResourceType::adder(12)]);
    }

    #[test]
    fn extraction_multiplier_cross_product_filtered() {
        let ops = vec![
            Operation::new(OpId::new(0), OpShape::multiplier(8, 6)),
            Operation::new(OpId::new(1), OpShape::multiplier(12, 4)),
        ];
        let r = extract_resource_types(&ops);
        // Candidates from primaries {8,12} x secondaries {4,6}:
        //   8x4  -> covers nothing (8x6 needs b>=6; 12x4 needs a>=12) -> excluded
        //   8x6  -> covers 8x6 -> included
        //   12x4 -> covers 12x4 -> included
        //   12x6 -> covers both -> included
        assert!(!r.contains(&ResourceType::multiplier(8, 4)));
        assert!(r.contains(&ResourceType::multiplier(8, 6)));
        assert!(r.contains(&ResourceType::multiplier(12, 4)));
        assert!(r.contains(&ResourceType::multiplier(12, 6)));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn extraction_every_op_is_covered_by_some_type() {
        let ops = vec![
            Operation::new(OpId::new(0), OpShape::multiplier(25, 25)),
            Operation::new(OpId::new(1), OpShape::multiplier(20, 18)),
            Operation::new(OpId::new(2), OpShape::adder(19)),
            Operation::new(OpId::new(3), OpShape::adder(30)),
        ];
        let r = extract_resource_types(&ops);
        for op in &ops {
            assert!(
                r.iter().any(|rt| rt.covers(op.shape())),
                "no resource covers {op}"
            );
        }
    }

    #[test]
    fn extraction_empty_input() {
        assert!(extract_resource_types(&[]).is_empty());
    }
}

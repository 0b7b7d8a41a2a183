//! The sequencing graph `P(O, S)`: operations and data-dependence edges.
//!
//! The input of the paper's combined allocation problem (Section 2): a DAG
//! whose nodes are wordlength-annotated operations, as produced by a
//! wordlength-optimising front-end such as the Synoptix flow the paper
//! builds on.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::op::{OpId, OpShape, Operation};
use crate::resource::{extract_resource_types, ResourceType};

/// A directed data-dependence edge `from -> to`: `to` may only start after
/// `from` has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DependencyEdge {
    /// Producer operation.
    pub from: OpId,
    /// Consumer operation.
    pub to: OpId,
}

/// The sequencing graph `P(O, S)` of the paper: a validated DAG of
/// multiple-wordlength operations.
///
/// Construct one with [`SequencingGraphBuilder`].  Operations are stored in
/// insertion order and identified by dense [`OpId`]s, so per-operation data
/// elsewhere in the workspace is stored in plain vectors indexed by
/// [`OpId::index`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequencingGraph {
    ops: Vec<Operation>,
    edges: Vec<DependencyEdge>,
    successors: Vec<Vec<OpId>>,
    predecessors: Vec<Vec<OpId>>,
}

impl SequencingGraph {
    /// Number of operations `|O|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the graph has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All operations in insertion (= id) order.
    #[must_use]
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Looks up one operation.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    #[must_use]
    pub fn operation(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Returns the operation if the id belongs to this graph.
    #[must_use]
    pub fn get(&self, id: OpId) -> Option<&Operation> {
        self.ops.get(id.index())
    }

    /// All data-dependence edges.
    #[must_use]
    pub fn edges(&self) -> &[DependencyEdge] {
        &self.edges
    }

    /// Direct successors of an operation.
    #[must_use]
    pub fn successors(&self, id: OpId) -> &[OpId] {
        &self.successors[id.index()]
    }

    /// Direct predecessors of an operation.
    #[must_use]
    pub fn predecessors(&self, id: OpId) -> &[OpId] {
        &self.predecessors[id.index()]
    }

    /// Iterator over all operation ids in insertion order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(|i| OpId::new(i as u32))
    }

    /// Operations with no successors (primary outputs of the dataflow).
    #[must_use]
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&o| self.successors(o).is_empty())
            .collect()
    }

    /// A topological order of the operations.
    ///
    /// The graph is guaranteed acyclic by construction, so this never fails.
    #[must_use]
    pub fn topological_order(&self) -> Vec<OpId> {
        let n = self.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.predecessors[i].len()).collect();
        let mut queue: Vec<OpId> = self.op_ids().filter(|o| indegree[o.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &s in self.successors(v) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "graph must be acyclic by construction");
        order
    }

    /// Returns `true` if `ancestor` reaches `descendant` through one or more
    /// dependence edges (transitively).
    #[must_use]
    pub fn reaches(&self, ancestor: OpId, descendant: OpId) -> bool {
        if ancestor == descendant {
            return false;
        }
        let mut stack = vec![ancestor];
        let mut seen = vec![false; self.len()];
        while let Some(v) = stack.pop() {
            for &s in self.successors(v) {
                if s == descendant {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// The candidate resource-wordlength set `R` covering the operations of
    /// this graph (see [`extract_resource_types`]).
    #[must_use]
    pub fn extract_resource_types(&self) -> Vec<ResourceType> {
        extract_resource_types(&self.ops)
    }

    /// Length of the longest dependence chain measured in operations
    /// (a quick structural statistic used by generators and tests).
    #[must_use]
    pub fn depth(&self) -> usize {
        let order = self.topological_order();
        let mut depth = vec![1usize; self.len()];
        let mut max = if self.is_empty() { 0 } else { 1 };
        for &v in &order {
            for &s in self.successors(v) {
                if depth[v.index()] + 1 > depth[s.index()] {
                    depth[s.index()] = depth[v.index()] + 1;
                    max = max.max(depth[s.index()]);
                }
            }
        }
        max
    }
}

impl fmt::Display for SequencingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sequencing graph: {} operations", self.len())?;
        for op in &self.ops {
            let succ: Vec<String> = self
                .successors(op.id())
                .iter()
                .map(ToString::to_string)
                .collect();
            writeln!(f, "  {op} -> [{}]", succ.join(", "))?;
        }
        Ok(())
    }
}

/// Incremental, validating builder for [`SequencingGraph`].
///
/// # Examples
///
/// ```
/// use mwl_model::{SequencingGraphBuilder, OpShape};
/// # fn main() -> Result<(), mwl_model::ModelError> {
/// let mut b = SequencingGraphBuilder::new();
/// let a = b.add_operation(OpShape::multiplier(8, 8));
/// let c = b.add_operation(OpShape::adder(16));
/// b.add_dependency(a, c)?;
/// let g = b.build()?;
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.successors(a), &[c]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SequencingGraphBuilder {
    ops: Vec<Operation>,
    edges: Vec<DependencyEdge>,
    edge_set: BTreeSet<(OpId, OpId)>,
}

impl SequencingGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        SequencingGraphBuilder::default()
    }

    /// Number of operations added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no operations were added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Adds an anonymous operation and returns its id.
    pub fn add_operation(&mut self, shape: OpShape) -> OpId {
        let id = OpId::new(self.ops.len() as u32);
        self.ops.push(Operation::new(id, shape));
        id
    }

    /// Adds a named operation and returns its id.
    pub fn add_named_operation(&mut self, shape: OpShape, name: impl Into<String>) -> OpId {
        let id = OpId::new(self.ops.len() as u32);
        self.ops.push(Operation::with_name(id, shape, name));
        id
    }

    /// Adds a data dependence `from -> to`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownOperation`] if either endpoint was not created
    ///   by this builder;
    /// * [`ModelError::SelfDependency`] if `from == to`;
    /// * [`ModelError::DuplicateDependency`] if the edge already exists;
    /// * [`ModelError::CycleDetected`] if the edge would close a cycle.
    pub fn add_dependency(&mut self, from: OpId, to: OpId) -> Result<(), ModelError> {
        if from.index() >= self.ops.len() {
            return Err(ModelError::UnknownOperation(from));
        }
        if to.index() >= self.ops.len() {
            return Err(ModelError::UnknownOperation(to));
        }
        if from == to {
            return Err(ModelError::SelfDependency(from));
        }
        if self.edge_set.contains(&(from, to)) {
            return Err(ModelError::DuplicateDependency { from, to });
        }
        if self.path_exists(to, from) {
            return Err(ModelError::CycleDetected { from, to });
        }
        self.edge_set.insert((from, to));
        self.edges.push(DependencyEdge { from, to });
        Ok(())
    }

    /// DFS reachability over the edges added so far.
    fn path_exists(&self, from: OpId, to: OpId) -> bool {
        if from == to {
            return true;
        }
        let mut adjacency: Vec<Vec<OpId>> = vec![Vec::new(); self.ops.len()];
        for e in &self.edges {
            adjacency[e.from.index()].push(e.to);
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.ops.len()];
        seen[from.index()] = true;
        while let Some(v) = stack.pop() {
            for &s in &adjacency[v.index()] {
                if s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyGraph`] when no operations were added and
    /// propagates wordlength validation errors from the operations.
    pub fn build(self) -> Result<SequencingGraph, ModelError> {
        if self.ops.is_empty() {
            return Err(ModelError::EmptyGraph);
        }
        for op in &self.ops {
            op.shape().validate()?;
        }
        let n = self.ops.len();
        let mut successors: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut predecessors: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for e in &self.edges {
            successors[e.from.index()].push(e.to);
            predecessors[e.to.index()].push(e.from);
        }
        for list in successors.iter_mut().chain(predecessors.iter_mut()) {
            list.sort_unstable();
        }
        Ok(SequencingGraph {
            ops: self.ops,
            edges: self.edges,
            successors,
            predecessors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn diamond() -> SequencingGraph {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = SequencingGraphBuilder::new();
        let a = b.add_operation(OpShape::multiplier(8, 8));
        let x = b.add_operation(OpShape::adder(16));
        let y = b.add_operation(OpShape::adder(12));
        let d = b.add_operation(OpShape::multiplier(12, 10));
        b.add_dependency(a, x).unwrap();
        b.add_dependency(a, y).unwrap();
        b.add_dependency(x, d).unwrap();
        b.add_dependency(y, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_simple_graph() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.edges().len(), 4);
        let sources: Vec<OpId> = g
            .op_ids()
            .filter(|&o| g.predecessors(o).is_empty())
            .collect();
        assert_eq!(sources, vec![OpId::new(0)]);
        assert_eq!(g.sinks(), vec![OpId::new(3)]);
        assert_eq!(g.depth(), 3);
        assert_eq!(g.operation(OpId::new(1)).kind(), OpKind::Add);
        assert!(g.get(OpId::new(9)).is_none());
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            SequencingGraphBuilder::new().build(),
            Err(ModelError::EmptyGraph)
        );
    }

    #[test]
    fn invalid_wordlength_rejected_at_build() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::adder(0));
        assert_eq!(b.build(), Err(ModelError::ZeroWordlength));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let y = b.add_operation(OpShape::adder(8));
        let z = b.add_operation(OpShape::adder(8));
        b.add_dependency(x, y).unwrap();
        b.add_dependency(y, z).unwrap();
        assert_eq!(
            b.add_dependency(z, x),
            Err(ModelError::CycleDetected { from: z, to: x })
        );
    }

    #[test]
    fn self_and_duplicate_edges_rejected() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let y = b.add_operation(OpShape::adder(8));
        assert_eq!(b.add_dependency(x, x), Err(ModelError::SelfDependency(x)));
        b.add_dependency(x, y).unwrap();
        assert_eq!(
            b.add_dependency(x, y),
            Err(ModelError::DuplicateDependency { from: x, to: y })
        );
    }

    #[test]
    fn unknown_operation_rejected() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let ghost = OpId::new(42);
        assert_eq!(
            b.add_dependency(x, ghost),
            Err(ModelError::UnknownOperation(ghost))
        );
        assert_eq!(
            b.add_dependency(ghost, x),
            Err(ModelError::UnknownOperation(ghost))
        );
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        assert_eq!(order.len(), g.len());
        let pos = |id: OpId| order.iter().position(|&o| o == id).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.reaches(OpId::new(0), OpId::new(3)));
        assert!(g.reaches(OpId::new(1), OpId::new(3)));
        assert!(!g.reaches(OpId::new(3), OpId::new(0)));
        assert!(!g.reaches(OpId::new(1), OpId::new(2)));
        assert!(!g.reaches(OpId::new(0), OpId::new(0)));
    }

    #[test]
    fn extracted_resources_cover_every_operation() {
        let g = diamond();
        let r = g.extract_resource_types();
        for op in g.operations() {
            assert!(r.iter().any(|rt| rt.covers(op.shape())));
        }
    }

    #[test]
    fn display_contains_every_operation() {
        let g = diamond();
        let s = g.to_string();
        for op in g.operations() {
            assert!(s.contains(&op.id().to_string()));
        }
    }

    #[test]
    fn single_node_graph() {
        let mut b = SequencingGraphBuilder::new();
        b.add_named_operation(OpShape::multiplier(4, 4), "only");
        let g = b.build().unwrap();
        assert_eq!(g.depth(), 1);
        assert!(g.predecessors(OpId::new(0)).is_empty());
        assert_eq!(g.sinks(), vec![OpId::new(0)]);
        assert_eq!(g.operation(OpId::new(0)).name(), Some("only"));
    }
}

//! Resource-constrained list scheduling.
//!
//! This is the scheduling engine the paper's `DPAlloc` heuristic (Section
//! 2.2) invokes on every refinement iteration: operations are visited in
//! priority order (critical-path based by default) and placed at the
//! earliest control step at which the active [`ResourceConstraint`] — the
//! per-class bound of Eqn (2) or the scheduling-set constraint of Eqn (3) —
//! still admits them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mwl_model::{Cycles, OpId, SequencingGraph};
use serde::{Deserialize, Serialize};

use crate::constraint::ResourceConstraint;
use crate::error::SchedError;
use crate::schedule::{OpLatencies, Schedule};

/// Ready-operation ordering used by the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulePriority {
    /// Order ready operations by decreasing length of their longest path to
    /// a sink (classic critical-path list scheduling).  Ties are broken by
    /// operation id for determinism.
    #[default]
    CriticalPath,
    /// Order ready operations by their id (insertion order).  Mainly useful
    /// for tests and ablations.
    InputOrder,
}

/// Resource-constrained list scheduler.
///
/// The scheduler walks control steps in increasing order; at every step it
/// offers the ready operations (all predecessors finished) to the
/// [`ResourceConstraint`] in priority order and places those that are
/// admitted.  Time then advances to the next completion event.
///
/// The walk is event-driven: each operation counts its unfinished
/// predecessors, and placed operations wait in a min-heap of completion
/// times.  Advancing pops the completions due, and an operation joins the
/// ready list when its count reaches zero — the same ready set a rescan of
/// every operation would find, sorted by the same total key.
///
/// # Examples
///
/// ```
/// use mwl_model::{OpShape, SequencingGraphBuilder, ResourceClass};
/// use mwl_sched::{ListScheduler, OpLatencies, PerClassBound, SchedulePriority};
/// use std::collections::BTreeMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SequencingGraphBuilder::new();
/// let x = b.add_operation(OpShape::multiplier(8, 8));
/// let y = b.add_operation(OpShape::multiplier(8, 8));
/// let g = b.build()?;
/// let lats = OpLatencies::uniform(&g, 2);
///
/// // One multiplier: the two independent multiplications serialise.
/// let classes = g.operations().iter()
///     .map(|o| ResourceClass::for_kind(o.kind()))
///     .collect();
/// let constraint = PerClassBound::new(classes, BTreeMap::from([(ResourceClass::Multiplier, 1)]));
/// let schedule = ListScheduler::new(SchedulePriority::CriticalPath)
///     .schedule(&g, &lats, constraint)?;
/// assert_eq!(schedule.makespan(&lats), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScheduler {
    priority: SchedulePriority,
}

/// Reusable buffers for [`ListScheduler::schedule_with_scratch`], so the
/// allocator's refinement loop can run one full list schedule per iteration
/// without reallocating its working tables.
#[derive(Debug, Default)]
pub struct SchedScratch {
    start: Vec<Cycles>,
    priority: Vec<Cycles>,
    ready: Vec<OpId>,
    /// Unfinished predecessors per operation.
    pending: Vec<u32>,
    /// `(completion, op)` of every placed operation not yet finished.
    events: BinaryHeap<Reverse<(Cycles, OpId)>>,
    dfs_state: Vec<u8>,
    dfs_stack: Vec<OpId>,
}

impl SchedScratch {
    /// Creates an empty scratch; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl ListScheduler {
    /// Creates a list scheduler with the given ready-list priority.
    #[must_use]
    pub fn new(priority: SchedulePriority) -> Self {
        ListScheduler { priority }
    }

    /// The configured priority.
    #[must_use]
    pub fn priority(&self) -> SchedulePriority {
        self.priority
    }

    /// Schedules the graph under the given latencies and resource constraint.
    ///
    /// # Errors
    ///
    /// * [`SchedError::LatencyTableMismatch`] / [`SchedError::ZeroLatency`]
    ///   if the latency table is inconsistent with the graph;
    /// * [`SchedError::InfeasibleResourceBound`] if some operation can never
    ///   be admitted by the constraint.
    pub fn schedule<C: ResourceConstraint>(
        &self,
        graph: &SequencingGraph,
        latencies: &OpLatencies,
        constraint: C,
    ) -> Result<Schedule, SchedError> {
        self.schedule_with_scratch(graph, latencies, constraint, &mut SchedScratch::new())
    }

    /// As [`schedule`](Self::schedule), but reuses the caller's working
    /// buffers — the steady-state form used by the allocator's inner loop.
    /// Produces the identical [`Schedule`] for identical inputs; only the
    /// allocation behaviour differs.  Pass `&mut constraint` to keep the
    /// constraint's own buffers with the caller too.
    ///
    /// # Errors
    ///
    /// Same conditions as [`schedule`](Self::schedule).
    pub fn schedule_with_scratch<C: ResourceConstraint>(
        &self,
        graph: &SequencingGraph,
        latencies: &OpLatencies,
        mut constraint: C,
        scratch: &mut SchedScratch,
    ) -> Result<Schedule, SchedError> {
        latencies.validate(graph)?;
        let n = graph.len();
        let SchedScratch {
            start,
            priority,
            ready,
            pending,
            events,
            dfs_state,
            dfs_stack,
        } = scratch;
        self.priority_values_into(graph, latencies, priority, dfs_state, dfs_stack);
        start.clear();
        start.resize(n, 0);
        pending.clear();
        pending.extend(graph.op_ids().map(|o| graph.predecessors(o).len() as u32));
        ready.clear();
        ready.extend(graph.op_ids().filter(|o| pending[o.index()] == 0));
        events.clear();

        let mut scheduled = 0usize;
        let mut step: Cycles = 0;

        while scheduled < n {
            // Offer the ready operations in priority order; the ones not
            // admitted stay ready, in order.
            self.sort_ready(ready, priority);
            let mut kept = 0;
            for i in 0..ready.len() {
                let op = ready[i];
                let lat = latencies.get(op);
                if constraint.admits(op, step, lat) {
                    constraint.commit(op, step, lat);
                    start[op.index()] = step;
                    events.push(Reverse((step + lat, op)));
                    scheduled += 1;
                } else {
                    ready[kept] = op;
                    kept += 1;
                }
            }
            ready.truncate(kept);

            if scheduled == n {
                break;
            }

            // Advance to the next event: the earliest completion strictly
            // after `step` (latencies are positive, so every placement
            // queued one).  With none queued, nothing can ever finish to
            // unblock the ready operations.
            let Some(&Reverse((next, _))) = events.peek() else {
                let blocked = ready
                    .iter()
                    .copied()
                    .find(|&o| !constraint.admissible_at_all(o, latencies.get(o)))
                    .or_else(|| ready.first().copied())
                    .expect("an unscheduled operation is ready when no completion is queued");
                return Err(SchedError::InfeasibleResourceBound { op: blocked });
            };
            step = next;
            while let Some(&Reverse((end, op))) = events.peek() {
                if end > step {
                    break;
                }
                events.pop();
                for &succ in graph.successors(op) {
                    pending[succ.index()] -= 1;
                    if pending[succ.index()] == 0 {
                        ready.push(succ);
                    }
                }
            }
        }

        Ok(Schedule::from_vec(start.clone()))
    }

    /// Longest path from each operation to any sink, including the
    /// operation's own latency (classic list-scheduling urgency metric).
    ///
    /// Computed by an iterative post-order walk over the successor lists so
    /// the per-iteration scheduling loop never materialises a topological
    /// order.  In a DAG a gray (expanded, unfinished) node can never be a
    /// successor of the node being finished — that would close a cycle — so
    /// every successor's value is final when read.
    fn priority_values_into(
        &self,
        graph: &SequencingGraph,
        latencies: &OpLatencies,
        value: &mut Vec<Cycles>,
        state: &mut Vec<u8>,
        stack: &mut Vec<OpId>,
    ) {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        value.clear();
        value.resize(graph.len(), 0);
        state.clear();
        state.resize(graph.len(), WHITE);
        for root in graph.op_ids() {
            if state[root.index()] != WHITE {
                continue;
            }
            stack.push(root);
            while let Some(&v) = stack.last() {
                match state[v.index()] {
                    WHITE => {
                        state[v.index()] = GRAY;
                        stack.extend(
                            graph
                                .successors(v)
                                .iter()
                                .copied()
                                .filter(|&s| state[s.index()] == WHITE),
                        );
                    }
                    GRAY => {
                        stack.pop();
                        let tail = graph
                            .successors(v)
                            .iter()
                            .map(|&s| value[s.index()])
                            .max()
                            .unwrap_or(0);
                        value[v.index()] = tail + latencies.get(v);
                        state[v.index()] = 2; // black: finished
                    }
                    _ => {
                        // A duplicate of an already-finished node (pushed
                        // white by two parents before its first expansion).
                        stack.pop();
                    }
                }
            }
        }
    }

    fn sort_ready(&self, ready: &mut [OpId], priority: &[Cycles]) {
        match self.priority {
            // The key ends in the operation id, so it is unique and an
            // unstable sort yields the one order a stable sort would.
            SchedulePriority::CriticalPath => {
                ready.sort_unstable_by_key(|&o| (Reverse(priority[o.index()]), o));
            }
            SchedulePriority::InputOrder => ready.sort_unstable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{PerClassBound, SchedulingSetBound, Unbounded};
    use crate::timing::asap;
    use mwl_model::{OpShape, ResourceClass, SequencingGraphBuilder};
    use std::collections::BTreeMap;

    fn classes_of(graph: &SequencingGraph) -> Vec<ResourceClass> {
        graph
            .operations()
            .iter()
            .map(|o| ResourceClass::for_kind(o.kind()))
            .collect()
    }

    fn parallel_muls(n: usize) -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        for _ in 0..n {
            b.add_operation(OpShape::multiplier(8, 8));
        }
        b.build().unwrap()
    }

    #[test]
    fn unbounded_equals_asap() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::adder(8));
        let z = b.add_operation(OpShape::adder(8));
        b.add_dependency(x, y).unwrap();
        b.add_dependency(x, z).unwrap();
        let g = b.build().unwrap();
        let lat = OpLatencies::from_vec(vec![2, 2, 2]);
        let s = ListScheduler::default()
            .schedule(&g, &lat, Unbounded::new())
            .unwrap();
        assert_eq!(s, asap(&g, &lat));
    }

    #[test]
    fn single_resource_serialises_independent_ops() {
        let g = parallel_muls(4);
        let lat = OpLatencies::uniform(&g, 3);
        let constraint = PerClassBound::new(
            classes_of(&g),
            BTreeMap::from([(ResourceClass::Multiplier, 1)]),
        );
        let s = ListScheduler::default()
            .schedule(&g, &lat, constraint)
            .unwrap();
        assert!(s.is_valid(&g, &lat));
        assert_eq!(s.makespan(&lat), 12);
        // No two operations overlap.
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                assert!(!s.overlaps(OpId::new(i), OpId::new(j), &lat));
            }
        }
    }

    #[test]
    fn two_resources_halve_the_makespan() {
        let g = parallel_muls(4);
        let lat = OpLatencies::uniform(&g, 3);
        let constraint = PerClassBound::new(
            classes_of(&g),
            BTreeMap::from([(ResourceClass::Multiplier, 2)]),
        );
        let s = ListScheduler::default()
            .schedule(&g, &lat, constraint)
            .unwrap();
        assert_eq!(s.makespan(&lat), 6);
    }

    #[test]
    fn zero_bound_is_reported_infeasible() {
        let g = parallel_muls(2);
        let lat = OpLatencies::uniform(&g, 1);
        let constraint = PerClassBound::new(
            classes_of(&g),
            BTreeMap::from([(ResourceClass::Multiplier, 0)]),
        );
        let err = ListScheduler::default()
            .schedule(&g, &lat, constraint)
            .unwrap_err();
        assert!(matches!(err, SchedError::InfeasibleResourceBound { .. }));
    }

    #[test]
    fn priority_respects_critical_path() {
        // Two chains: a long chain (a -> b) and a single short op c; with one
        // adder the long chain's head should be scheduled first.
        let mut b = SequencingGraphBuilder::new();
        let a = b.add_operation(OpShape::adder(8));
        let b2 = b.add_operation(OpShape::adder(8));
        let c = b.add_operation(OpShape::adder(8));
        b.add_dependency(a, b2).unwrap();
        let g = b.build().unwrap();
        let lat = OpLatencies::uniform(&g, 2);
        let constraint =
            PerClassBound::new(classes_of(&g), BTreeMap::from([(ResourceClass::Adder, 1)]));
        let s = ListScheduler::new(SchedulePriority::CriticalPath)
            .schedule(&g, &lat, constraint)
            .unwrap();
        assert_eq!(s.start(a), 0);
        assert!(s.start(c) >= 2);
        assert_eq!(s.makespan(&lat), 6);
    }

    #[test]
    fn input_order_priority_is_deterministic() {
        let g = parallel_muls(3);
        let lat = OpLatencies::uniform(&g, 2);
        let mk = || {
            PerClassBound::new(
                classes_of(&g),
                BTreeMap::from([(ResourceClass::Multiplier, 1)]),
            )
        };
        let s1 = ListScheduler::new(SchedulePriority::InputOrder)
            .schedule(&g, &lat, mk())
            .unwrap();
        let s2 = ListScheduler::new(SchedulePriority::InputOrder)
            .schedule(&g, &lat, mk())
            .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.start(OpId::new(0)), 0);
        assert_eq!(s1.start(OpId::new(1)), 2);
        assert_eq!(s1.start(OpId::new(2)), 4);
    }

    #[test]
    fn mixed_classes_are_constrained_independently() {
        let mut b = SequencingGraphBuilder::new();
        let m1 = b.add_operation(OpShape::multiplier(8, 8));
        let m2 = b.add_operation(OpShape::multiplier(8, 8));
        let a1 = b.add_operation(OpShape::adder(8));
        let a2 = b.add_operation(OpShape::adder(8));
        let g = b.build().unwrap();
        let lat = OpLatencies::from_vec(vec![2, 2, 2, 2]);
        let constraint = PerClassBound::new(
            classes_of(&g),
            BTreeMap::from([(ResourceClass::Multiplier, 1), (ResourceClass::Adder, 1)]),
        );
        let s = ListScheduler::default()
            .schedule(&g, &lat, constraint)
            .unwrap();
        // Multipliers serialise among themselves, adders among themselves,
        // but a multiplier and an adder may overlap.
        assert!(!s.overlaps(m1, m2, &lat));
        assert!(!s.overlaps(a1, a2, &lat));
        assert_eq!(s.makespan(&lat), 4);
    }

    #[test]
    fn eqn3_constraint_schedules_under_wordlength_splits() {
        // Three multiplications; o0 can only use the small member, o1 only
        // the large one, o2 either.  With a bound of 2 multipliers this is
        // schedulable; with 1 it is not.
        let g = parallel_muls(3);
        let lat = OpLatencies::uniform(&g, 2);
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![1], vec![0, 1]];
        let mk = |bound: usize| {
            SchedulingSetBound::new(
                classes_of(&g),
                op_members.clone(),
                member_classes.clone(),
                BTreeMap::from([(ResourceClass::Multiplier, bound)]),
            )
        };
        let ok = ListScheduler::default().schedule(&g, &lat, mk(2)).unwrap();
        assert!(ok.is_valid(&g, &lat));
        let err = ListScheduler::default()
            .schedule(&g, &lat, mk(1))
            .unwrap_err();
        assert!(matches!(err, SchedError::InfeasibleResourceBound { .. }));
    }

    /// The scratch variant must reproduce `schedule` exactly, including
    /// across reuses of the same scratch.
    #[test]
    fn scratch_variant_is_identical_to_schedule() {
        use mwl_tgff::{TgffConfig, TgffGenerator};
        let mut scratch = SchedScratch::new();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(12), 9);
        for i in 0..10 {
            let g = generator.generate();
            let lat = OpLatencies::from_fn(&g, |op| 1 + (op.id().index() as Cycles % 3));
            let bounds = BTreeMap::from([
                (ResourceClass::Multiplier, 1 + i % 2),
                (ResourceClass::Adder, 1),
            ]);
            let mk = || PerClassBound::new(classes_of(&g), bounds.clone());
            for priority in [SchedulePriority::CriticalPath, SchedulePriority::InputOrder] {
                let scheduler = ListScheduler::new(priority);
                let plain = scheduler.schedule(&g, &lat, mk());
                let reused = scheduler.schedule_with_scratch(&g, &lat, mk(), &mut scratch);
                match (plain, reused) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                    (a, b) => panic!("scratch variant diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_invalid_latency_table() {
        let g = parallel_muls(2);
        let lat = OpLatencies::from_vec(vec![1]);
        let err = ListScheduler::default()
            .schedule(&g, &lat, Unbounded::new())
            .unwrap_err();
        assert!(matches!(err, SchedError::LatencyTableMismatch { .. }));
    }

    #[test]
    fn dependent_chain_with_shared_resource() {
        // Chain x -> y plus independent z, one multiplier; the scheduler must
        // interleave without violating precedence.
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::multiplier(8, 8));
        let z = b.add_operation(OpShape::multiplier(8, 8));
        b.add_dependency(x, y).unwrap();
        let g = b.build().unwrap();
        let lat = OpLatencies::uniform(&g, 2);
        let constraint = PerClassBound::new(
            classes_of(&g),
            BTreeMap::from([(ResourceClass::Multiplier, 1)]),
        );
        let s = ListScheduler::default()
            .schedule(&g, &lat, constraint)
            .unwrap();
        assert!(s.is_valid(&g, &lat));
        assert_eq!(s.makespan(&lat), 6);
        assert!(!s.overlaps(x, z, &lat));
        assert!(!s.overlaps(y, z, &lat));
    }
}

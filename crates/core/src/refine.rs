//! Wordlength-information refinement (Section 2.4).
//!
//! When the scheduled and bound solution violates the user's latency
//! constraint, the allocator must lower some operation's latency upper bound
//! `L_o` by deleting its slowest compatible resource types from the
//! wordlength compatibility graph.  The operation is chosen from the
//! **bound critical path** `Q_b`: the critical path of the sequencing graph
//! augmented with *binding* edges `S_b` that serialise operations sharing a
//! resource instance back-to-back.  Among the candidates that can still
//! finish before the constraint, the one losing the smallest proportion of
//! wordlength edges is refined, with ties broken in favour of operations
//! already bound to a resource faster than their upper bound.

use mwl_model::{Cycles, OpId, SequencingGraph};
use mwl_sched::{OpLatencies, Schedule};
use mwl_wcg::WordlengthCompatibilityGraph;

/// Reusable buffers of the refinement rule: the topological order, the
/// open-operation lists that yield the binding edges, the ASAP/ALAP tables
/// of the bound critical path, and the candidate list of the selection
/// rule.  One lives in each [`crate::AllocScratch`], so the
/// once-per-iteration refinement selection is allocation-free in the steady
/// state.
#[derive(Debug, Default)]
pub(crate) struct RefineScratch {
    /// All operations sorted by `(start, id)`, packed as `start << 32 |
    /// id`: a topological order of the augmented graph.
    order: Vec<u64>,
    /// Per instance slot, the head of its list of open operations.
    open: Vec<u32>,
    /// Per operation, the next operation of its slot's open list.
    next: Vec<u32>,
    /// Per operation, the junctions it ends at and starts from (`NONE` for
    /// neither).
    junctions: Vec<(u32, u32)>,
    /// Per junction, the latest end its followers allow its members.  This
    /// table and the ASAP/ALAP ones count in `u64`, as do the ends found
    /// while pairing, so a start near `Cycles::MAX` cannot overflow.
    junction_end: Vec<u64>,
    asap: Vec<u64>,
    alap_end: Vec<u64>,
    critical: Vec<OpId>,
    candidates: Vec<OpId>,
}

/// No operation, no junction: the end of an open list.
const NONE: u32 = u32::MAX;

/// Computes the bound critical path `Q_b`.
///
/// The sequencing edges are augmented with `S_b = {(o1, o2) : start(o1) +
/// ℓ(o1) = start(o2) and o1, o2 bound to the same instance}`; the returned
/// operations are those with equal ASAP and ALAP times on the augmented graph
/// under the bound latencies `ℓ(o)` — i.e. the operations whose latency
/// directly determines the achieved overall latency.
///
/// `binding[i]` is the resource-instance index of operation `i`
/// (`usize::MAX` for an unbound operation).  Bindings whose operations
/// overlap in time are accepted: every same-instance pair meeting the `S_b`
/// condition gets its edge.
///
/// The schedule must start every operation after each of its predecessors
/// (`start(v) > start(u)` for every dependence `u → v`), and every `ℓ(o)`
/// must be at least 1.  Any schedule valid under latencies of at least 1
/// meets the first condition; the allocator's schedules are valid under the
/// upper bounds `L_o ≥ ℓ(o) ≥ 1`, which [`OpLatencies::validate`] and the
/// cost model's latency contract guarantee.  An operation may end past
/// `Cycles::MAX`: ends are counted in 64 bits.  Memory is linear in the
/// operation count, whatever the starts and instance indices.  Time is a
/// sort of the operations by start plus a pass linear in the operations
/// and edges for the allocator's bindings, whose instance indices are
/// below the operation count and whose instances run one operation at a
/// time.  Other bindings add, per operation, a walk over the operations
/// still open on its instance and on instances congruent to it modulo the
/// operation count.
#[must_use]
pub fn bound_critical_path(
    graph: &SequencingGraph,
    schedule: &Schedule,
    bound_latencies: &OpLatencies,
    binding: &[usize],
) -> Vec<OpId> {
    let mut scratch = RefineScratch::default();
    bound_critical_path_into(graph, schedule, bound_latencies, binding, &mut scratch);
    scratch.critical
}

/// Scratch-reusing core of [`bound_critical_path`]: the result lands in
/// `scratch.critical`.
///
/// Both edge kinds point strictly forward in start time: a dependence by
/// the precondition, and an `S_b` edge because `start(o2) = start(o1) +
/// ℓ(o1)` with `ℓ(o1) ≥ 1`.  So the operations in `(start, id)` order are
/// a topological order of the augmented graph, with no indegree pass.
///
/// The `S_b` edges are found during the ASAP pass.  Each instance keeps a
/// list of its *open* operations, those whose bound end is at or after the
/// current start; the lists live in `n` slots, instance `b` in slot `b mod
/// n`, and a list skips the entries of other instances sharing its slot.
/// An operation starting at `t` pairs with the open operations of its
/// instance that end exactly at `t`.  Those all pair with every operation
/// of the instance starting at `t`, so the edges between the two groups are
/// complete, and routing them through one *junction* — named by the first
/// such operation met — gives the same ASAP and ALAP times in linear
/// memory.  The forward pass pulls each operation's ASAP time from its
/// predecessors and its junction's members; the backward pass pulls its
/// ALAP end from its successors and its junction's followers.  A pair
/// joined by both kinds of edge counts twice, which `max`/`min` does not
/// notice.
fn bound_critical_path_into(
    graph: &SequencingGraph,
    schedule: &Schedule,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    scratch: &mut RefineScratch,
) {
    let n = graph.len();
    let start = schedule.as_slice();
    let latency = bound_latencies.as_slice();
    let RefineScratch {
        order,
        open,
        next,
        junctions,
        junction_end,
        asap,
        alap_end,
        critical,
        ..
    } = scratch;

    order.clear();
    order.extend((0..n).map(|i| u64::from(start[i]) << 32 | i as u64));
    order.sort_unstable();
    let latency = |i: usize| u64::from(latency[i]);

    // ASAP on the augmented graph, pulled forward along the order.
    open.clear();
    open.resize(n, NONE);
    next.clear();
    next.resize(n, NONE);
    junctions.clear();
    junctions.resize(n, (NONE, NONE));
    asap.clear();
    asap.resize(n, 0);
    for &v in order.iter() {
        let v = v as u32 as usize;
        let mut earliest = graph
            .predecessors(OpId::new(v as u32))
            .iter()
            .map(|p| {
                let p = p.index();
                debug_assert!(start[v] > start[p], "edges must point forward in time");
                asap[p] + latency(p)
            })
            .max()
            .unwrap_or(0);
        let instance = binding[v];
        if instance != usize::MAX {
            let slot = instance % n;
            let (mut prev, mut u) = (NONE, open[slot]);
            let mut junction = NONE;
            while u != NONE {
                let ui = u as usize;
                let end = u64::from(start[ui]) + latency(ui);
                if end < u64::from(start[v]) {
                    // Closed for good: every later operation starts later.
                    match prev {
                        NONE => open[slot] = next[ui],
                        p => next[p as usize] = next[ui],
                    }
                } else {
                    if end == u64::from(start[v]) && binding[ui] == instance {
                        if junction == NONE {
                            junction = u;
                        }
                        junctions[ui].0 = junction;
                        earliest = earliest.max(asap[ui] + latency(ui));
                    }
                    prev = u;
                }
                u = next[ui];
            }
            junctions[v].1 = junction;
            next[v] = open[slot];
            open[slot] = v as u32;
        }
        asap[v] = earliest;
    }
    let deadline = (0..n).map(|i| asap[i] + latency(i)).max().unwrap_or(0);

    // ALAP (end times) against that deadline, pulled backward.
    alap_end.clear();
    alap_end.resize(n, deadline);
    junction_end.clear();
    junction_end.resize(n, deadline);
    for &v in order.iter().rev() {
        let v = v as u32 as usize;
        let mut latest_end = graph
            .successors(OpId::new(v as u32))
            .iter()
            .map(|s| alap_end[s.index()] - latency(s.index()))
            .fold(deadline, u64::min);
        let (ends_at, starts_from) = junctions[v];
        if ends_at != NONE {
            latest_end = latest_end.min(junction_end[ends_at as usize]);
        }
        alap_end[v] = latest_end;
        if starts_from != NONE {
            let end = &mut junction_end[starts_from as usize];
            *end = (*end).min(latest_end - latency(v));
        }
    }

    critical.clear();
    critical.extend(
        (0..n)
            .filter(|&i| asap[i] == alap_end[i] - latency(i))
            .map(|i| OpId::new(i as u32)),
    );
}

/// Selects the operation whose latency upper bound should be refined next,
/// following the paper's candidate-selection rule, or `None` when no
/// candidate can be refined any further.
///
/// * `upper_bounds` — the latency upper bounds `L_o` used in the violated
///   schedule;
/// * `bound_latencies` — the latencies `ℓ(o)` of the resources each operation
///   is currently bound to;
/// * `binding` — instance index per operation;
/// * `constraint` — the user's overall latency constraint `λ`.
#[must_use]
pub fn select_refinement_op(
    graph: &SequencingGraph,
    wcg: &WordlengthCompatibilityGraph,
    schedule: &Schedule,
    upper_bounds: &OpLatencies,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    constraint: Cycles,
) -> Option<OpId> {
    select_refinement_op_with_scratch(
        graph,
        wcg,
        schedule,
        upper_bounds,
        bound_latencies,
        binding,
        constraint,
        &mut RefineScratch::default(),
    )
}

/// The scratch-reusing form of [`select_refinement_op`] used by the
/// allocator's inner loop; decisions are identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_refinement_op_with_scratch(
    graph: &SequencingGraph,
    wcg: &WordlengthCompatibilityGraph,
    schedule: &Schedule,
    upper_bounds: &OpLatencies,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    constraint: Cycles,
    scratch: &mut RefineScratch,
) -> Option<OpId> {
    bound_critical_path_into(graph, schedule, bound_latencies, binding, scratch);
    let critical = &scratch.critical;

    // Candidate subset W: critical operations finishing before the
    // constraint even at their upper-bound latency.  Tier 1: critical,
    // refinable and inside the window; tier 2: critical and refinable;
    // tier 3: any refinable operation.
    let in_window = |o: &OpId| {
        u64::from(schedule.start(*o)) + u64::from(upper_bounds.get(*o)) <= u64::from(constraint)
    };
    let refinable = |o: &OpId| wcg.refinable(*o);

    let candidates = &mut scratch.candidates;
    candidates.clear();
    candidates.extend(
        critical
            .iter()
            .copied()
            .filter(|o| in_window(o) && refinable(o)),
    );
    if candidates.is_empty() {
        candidates.extend(critical.iter().copied().filter(refinable));
    }
    if candidates.is_empty() {
        candidates.extend(graph.op_ids().filter(|o| wcg.refinable(*o)));
    }
    if candidates.is_empty() {
        return None;
    }

    // Choose the candidate losing the smallest proportion of edges in
    // {{o1, r} ∈ H : ∃{o, r} ∈ H}; tie-break toward operations currently
    // bound to a resource faster than their upper bound, then by id.  Each
    // candidate's key is computed once.
    candidates
        .iter()
        .map(|&o| {
            let faster = bound_latencies.get(o) < upper_bounds.get(o);
            (deletion_proportion(wcg, o), faster, o)
        })
        .min_by(|a, b| {
            let ((deleted_a, pool_a), (deleted_b, pool_b)) = (a.0, b.0);
            (deleted_a as u128 * pool_b as u128)
                .cmp(&(deleted_b as u128 * pool_a as u128))
                .then(b.1.cmp(&a.1)) // prefer "already bound faster" (true first)
                .then(a.2.cmp(&b.2))
        })
        .map(|(_, _, o)| o)
}

/// Proportion of wordlength edges incident to resources compatible with `op`
/// that would be lost by refining `op`'s upper bound.
///
/// Both numerator and denominator count *edges* of the pool
/// `{{o1, r} ∈ H : ∃{o, r} ∈ H}`: the denominator sums the edge counts of
/// every resource compatible with `op`, the numerator sums the edge counts of
/// the resources that refinement would delete (those at the operation's
/// current latency upper bound).  Returns `(deleted, pool)`.
///
/// Only refinable operations are asked, and a refinable operation keeps at
/// least two compatible types, each with an edge to it, so `pool ≥ 2`.  The
/// caller compares proportions exactly, as `u128` cross products.  The
/// frozen [`crate::reference`] compares `f64` quotients instead; the two
/// orders agree while both cross products stay below 2^52, which every pool
/// under 2^26 edges guarantees.  Two distinct proportions then differ by at
/// least `1 / (pool_a·pool_b)`, more than the two quotients' half-ulp
/// rounding errors together, and equal proportions round to the same
/// double.  A WCG with 2^26 edges is far beyond any graph the allocator is
/// run on.
fn deletion_proportion(wcg: &WordlengthCompatibilityGraph, op: OpId) -> (usize, usize) {
    let bound = wcg.upper_bound_latency(op);
    let mut pool = 0usize;
    let mut deleted = 0usize;
    for r in wcg.candidates(op) {
        let edges = wcg.resource_edge_count(r);
        pool += edges;
        if wcg.resource_latency(r) == bound {
            deleted += edges;
        }
    }
    (deleted, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
    use mwl_sched::asap;

    /// Two independent multiplications bound to one shared instance, followed
    /// by an addition that depends on the first multiplication only.
    fn setup() -> (
        SequencingGraph,
        WordlengthCompatibilityGraph,
        Schedule,
        OpLatencies,
        OpLatencies,
        Vec<usize>,
    ) {
        let mut b = SequencingGraphBuilder::new();
        let m0 = b.add_operation(OpShape::multiplier(8, 8));
        let m1 = b.add_operation(OpShape::multiplier(16, 16));
        let a = b.add_operation(OpShape::adder(20));
        b.add_dependency(m0, a).unwrap();
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&g, &cost);
        let upper = wcg.upper_bound_latencies();
        // Serial schedule: m0 then m1 on the same instance, a after m0.
        let schedule = Schedule::from_vec(vec![0, 4, 4]);
        wcg.attach_schedule(&schedule, &upper);
        // Bind both multiplications to instance 0 (16x16) and the adder to 1.
        let binding = vec![0, 0, 1];
        let bound = OpLatencies::from_vec(vec![4, 4, 2]);
        let _ = m1;
        (g, wcg, schedule, upper, bound, binding)
    }

    #[test]
    fn bound_critical_path_includes_serialised_chain() {
        let (g, _wcg, schedule, _upper, bound, binding) = setup();
        let qb = bound_critical_path(&g, &schedule, &bound, &binding);
        // The chain m0 (0..4) then m1 (4..8) on the same instance is the
        // longest path (length 8); the adder (4..6) is not critical.
        assert!(qb.contains(&OpId::new(0)));
        assert!(qb.contains(&OpId::new(1)));
        assert!(!qb.contains(&OpId::new(2)));
    }

    #[test]
    fn bound_critical_path_without_binding_edges_is_plain_critical_path() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::adder(16));
        let z = b.add_operation(OpShape::adder(4));
        b.add_dependency(x, y).unwrap();
        let g = b.build().unwrap();
        let lat = OpLatencies::from_vec(vec![2, 2, 2]);
        let schedule = asap(&g, &lat);
        // Distinct instances everywhere: no S_b edges.
        let binding = vec![0, 1, 2];
        let qb = bound_critical_path(&g, &schedule, &lat, &binding);
        assert!(qb.contains(&x));
        assert!(qb.contains(&y));
        assert!(!qb.contains(&z));
    }

    #[test]
    fn selects_a_critical_refinable_op_within_window() {
        let (g, wcg, schedule, upper, bound, binding) = setup();
        // Constraint of 8: both critical multiplications finish within 8 at
        // their upper bounds, so both are tier-1 candidates; the small one
        // (o0) loses a smaller proportion of edges.
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 8).unwrap();
        assert_eq!(chosen, OpId::new(0));
    }

    #[test]
    fn falls_back_to_critical_ops_outside_window() {
        let (g, wcg, schedule, upper, bound, binding) = setup();
        // An impossible constraint of 1: no candidate finishes in time, so
        // the rule falls back to any refinable critical operation.
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 1).unwrap();
        assert!(chosen == OpId::new(0) || chosen == OpId::new(1));
    }

    #[test]
    fn returns_none_when_nothing_is_refinable() {
        let (g, mut wcg, schedule, upper, bound, binding) = setup();
        // Exhaust refinement on every operation.
        for op in g.op_ids() {
            while wcg.refinable(op) {
                assert!(wcg.refine_op(op) > 0);
            }
        }
        assert_eq!(
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 8),
            None
        );
    }

    #[test]
    fn refinement_loop_reduces_upper_bound() {
        let (g, mut wcg, schedule, upper, bound, binding) = setup();
        let before = wcg.upper_bound_latency(OpId::new(0));
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 8).unwrap();
        assert!(wcg.refine_op(chosen) > 0);
        assert!(wcg.upper_bound_latency(chosen) < before.max(2));
        let _ = g;
    }

    /// Regression for the edge-count bug in the deletion-proportion rule:
    /// the numerator must sum the *edges* of the resources that refinement
    /// deletes, not merely count those resources.  This instance is built so
    /// the two readings disagree on which operation to refine.
    #[test]
    fn deletion_proportion_counts_edges_not_resources() {
        use mwl_model::{LinearCostModel, ResourceType};

        // o0 (mul 8x8) -> o1 (add 8), plus four independent 12x12
        // multiplications padding the big multiplier's edge count.
        let mut b = SequencingGraphBuilder::new();
        let o0 = b.add_operation(OpShape::multiplier(8, 8));
        let o1 = b.add_operation(OpShape::adder(8));
        for _ in 0..4 {
            b.add_operation(OpShape::multiplier(12, 12));
        }
        b.add_dependency(o0, o1).unwrap();
        let g = b.build().unwrap();

        // Explicit resource set under the linear cost model (latency
        // ceil(total/8) + 1): m0/m1 cover o0, a0/a1/a2 cover o1, and only m1
        // covers the fillers.
        let cost = LinearCostModel::default();
        let resources = vec![
            ResourceType::multiplier(8, 8),   // m0: latency 3, edges {o0}
            ResourceType::multiplier(16, 16), // m1: latency 5, edges {o0, fillers}
            ResourceType::adder(8),           // a0: latency 2, edges {o1}
            ResourceType::adder(9),           // a1: latency 3, edges {o1}
            ResourceType::adder(10),          // a2: latency 3, edges {o1}
        ];
        let wcg = WordlengthCompatibilityGraph::with_resources(&g, resources, &cost);

        // o0 and o1 are serialised back-to-back by the dependency and form
        // the bound critical path (length 5); the fillers end at 4.
        let schedule = Schedule::from_vec(vec![0, 3, 0, 0, 0, 0]);
        let bound = OpLatencies::from_vec(vec![3, 2, 4, 4, 4, 4]);
        let binding = vec![0, 1, 2, 3, 4, 5];
        let upper = wcg.upper_bound_latencies();
        assert_eq!(upper.as_slice(), &[5, 3, 5, 5, 5, 5]);

        // Proportions under the two readings, with pool(o) the summed edge
        // counts of o's compatible resources:
        //   o0: pool = |O(m0)| + |O(m1)| = 1 + 5 = 6; at-bound resources
        //       {m1}: 1 resource carrying 5 edges -> edges 5/6, resources 1/6.
        //   o1: pool = |O(a0)| + |O(a1)| + |O(a2)| = 3; at-bound {a1, a2}:
        //       2 resources carrying 2 edges -> 2/3 under both readings.
        // Counting resources prefers o0 (1/6 < 2/3); the paper's edge-count
        // rule must pick o1 (2/3 < 5/6).
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 6).unwrap();
        assert_eq!(chosen, o1);
    }

    /// o0 loses 1 of 2 edges and o1 loses 2 of 4: an exact tie, which the
    /// tie-break settles toward o1, already bound faster than its upper
    /// bound.  Comparing either count alone would pick o0.
    #[test]
    fn deletion_proportion_tie_falls_to_the_tie_break() {
        use mwl_model::{LinearCostModel, ResourceType};

        // o1 -> o0; o2 only doubles the adders' edge counts.
        let mut b = SequencingGraphBuilder::new();
        let o0 = b.add_operation(OpShape::multiplier(8, 8));
        let o1 = b.add_operation(OpShape::adder(8));
        b.add_operation(OpShape::adder(8));
        b.add_dependency(o1, o0).unwrap();
        let g = b.build().unwrap();

        // Linear cost model latency: ceil(total/8) + 1.
        let resources = vec![
            ResourceType::multiplier(8, 8),   // latency 3, edges {o0}
            ResourceType::multiplier(16, 16), // latency 5, edges {o0}
            ResourceType::adder(8),           // latency 2, edges {o1, o2}
            ResourceType::adder(16),          // latency 3, edges {o1, o2}
        ];
        let wcg = WordlengthCompatibilityGraph::with_resources(
            &g,
            resources,
            &LinearCostModel::default(),
        );
        assert_eq!(deletion_proportion(&wcg, o0), (1, 2));
        assert_eq!(deletion_proportion(&wcg, o1), (2, 4));

        // o1 runs 0..2 on its fast adder, then o0 runs 2..7 at its upper
        // bound: both are critical and inside the window.
        let upper = wcg.upper_bound_latencies();
        assert_eq!(upper.as_slice(), &[5, 3, 3]);
        let schedule = Schedule::from_vec(vec![2, 0, 0]);
        let bound = OpLatencies::from_vec(vec![5, 2, 3]);
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &[0, 1, 2], 8).unwrap();
        assert_eq!(chosen, o1);
    }

    #[test]
    fn single_op_graph_critical_path() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let g = b.build().unwrap();
        let lat = OpLatencies::uniform(&g, 2);
        let schedule = Schedule::from_vec(vec![0]);
        let qb = bound_critical_path(&g, &schedule, &lat, &[0]);
        assert_eq!(qb, vec![x]);
    }

    /// Independent adders, one per start time, and that schedule.
    fn independent(starts: &[Cycles]) -> (SequencingGraph, Schedule) {
        let mut b = SequencingGraphBuilder::new();
        for _ in starts {
            b.add_operation(OpShape::adder(8));
        }
        (b.build().unwrap(), Schedule::from_vec(starts.to_vec()))
    }

    /// Instance indices far past the operation count cost no memory: the
    /// open lists have one slot per operation, whatever the indices.
    #[test]
    fn huge_instance_indices_pair_in_linear_memory() {
        let (g, schedule) = independent(&[0, 2]);
        let lat = OpLatencies::from_vec(vec![2, 2]);
        for instance in [1 << 20, usize::MAX - 1] {
            let qb = bound_critical_path(&g, &schedule, &lat, &[instance, instance]);
            assert_eq!(qb, vec![OpId::new(0), OpId::new(1)], "instance {instance}");
        }
    }

    /// Distinct instances that share a slot get no binding edge between
    /// them; equal ones do.  o0 (0..2) and o1 (2..4) form the critical path
    /// only when serialised, against the unbound o2 (0..3).
    #[test]
    fn instances_sharing_a_slot_stay_apart() {
        let (g, schedule) = independent(&[0, 2, 0]);
        let lat = OpLatencies::from_vec(vec![2, 2, 3]);
        let qb = |binding: &[usize]| bound_critical_path(&g, &schedule, &lat, binding);
        let (o0, o1, o2) = (OpId::new(0), OpId::new(1), OpId::new(2));
        assert_eq!(qb(&[1, 4, usize::MAX]), vec![o2]);
        assert_eq!(qb(&[4, 4, usize::MAX]), vec![o0, o1]);
        assert_eq!(qb(&[usize::MAX; 3]), vec![o2]);
    }

    /// On an instance whose operations overlap, o0 (0..2) has two `S_b`
    /// successors starting where it ends: o1 (2..3) and o2 (2..5).  Only the
    /// second, later in the `(start, id)` order, makes o0 critical, so a
    /// rule keeping one open operation per instance misses it.  The unbound
    /// o3 (0..4) has slack 1.
    #[test]
    fn every_successor_on_an_overlapping_instance_counts() {
        let (g, schedule) = independent(&[0, 2, 2, 0]);
        let lat = OpLatencies::from_vec(vec![2, 1, 3, 4]);
        let qb = bound_critical_path(&g, &schedule, &lat, &[0, 0, 0, usize::MAX]);
        assert_eq!(qb, vec![OpId::new(0), OpId::new(2)]);
    }
}

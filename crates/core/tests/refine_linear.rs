//! Property test pinning the linear-time refinement rule to a naive
//! quadratic copy.
//!
//! [`bound_critical_path`] finds the binding edges `S_b` during its ASAP
//! pass, from per-instance lists of the operations still open, and walks
//! flat buffers; the copy below tests every same-instance pair and builds
//! adjacency lists, as the rule reads in the paper.  On random graphs, refinement states, schedules and
//! bindings — overlapping and unbound ones included — both must return the
//! same critical path and [`select_refinement_op`] the same operation.

use proptest::prelude::*;

use mwl_core::{bound_critical_path, select_refinement_op};
use mwl_model::{Cycles, OpId, OpShape, SequencingGraph, SequencingGraphBuilder, SonicCostModel};
use mwl_sched::{OpLatencies, Schedule};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};
use mwl_wcg::WordlengthCompatibilityGraph;

/// `Q_b` by the definition: every pair `(i, j)` bound to one instance with
/// `start(i) + ℓ(i) = start(j)` adds an edge, then ASAP and ALAP over the
/// augmented graph in a topological order.
fn naive_critical_path(
    graph: &SequencingGraph,
    schedule: &Schedule,
    latency: &OpLatencies,
    binding: &[usize],
) -> Vec<OpId> {
    let n = graph.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in graph.edges() {
        succ[e.from.index()].push(e.to.index());
        pred[e.to.index()].push(e.from.index());
    }
    let op = |i: usize| OpId::new(i as u32);
    for i in 0..n {
        for j in 0..n {
            if i != j
                && binding[i] != usize::MAX
                && binding[i] == binding[j]
                && schedule.start(op(i)) + latency.get(op(i)) == schedule.start(op(j))
                && !succ[i].contains(&j)
            {
                succ[i].push(j);
                pred[j].push(i);
            }
        }
    }
    let mut indegree: Vec<usize> = pred.iter().map(Vec::len).collect();
    let mut order: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &s in &succ[v] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                order.push(s);
            }
        }
    }
    assert_eq!(order.len(), n, "generated inputs are acyclic");
    let mut asap: Vec<Cycles> = vec![0; n];
    for &v in &order {
        for &p in &pred[v] {
            asap[v] = asap[v].max(asap[p] + latency.get(op(p)));
        }
    }
    let deadline = (0..n)
        .map(|i| asap[i] + latency.get(op(i)))
        .max()
        .unwrap_or(0);
    let mut alap_end: Vec<Cycles> = vec![deadline; n];
    for &v in order.iter().rev() {
        for &s in &succ[v] {
            alap_end[v] = alap_end[v].min(alap_end[s] - latency.get(op(s)));
        }
    }
    (0..n)
        .filter(|&i| asap[i] == alap_end[i] - latency.get(op(i)))
        .map(op)
        .collect()
}

/// The selection rule with its key recomputed inside every comparison.
fn naive_select(
    graph: &SequencingGraph,
    wcg: &WordlengthCompatibilityGraph,
    schedule: &Schedule,
    upper: &OpLatencies,
    bound: &OpLatencies,
    binding: &[usize],
    constraint: Cycles,
) -> Option<OpId> {
    let critical = naive_critical_path(graph, schedule, bound, binding);
    let in_window = |o: &OpId| schedule.start(*o) + upper.get(*o) <= constraint;
    let refinable = |o: &OpId| wcg.refinable(*o);
    let mut candidates: Vec<OpId> = critical
        .iter()
        .copied()
        .filter(|o| in_window(o) && refinable(o))
        .collect();
    if candidates.is_empty() {
        candidates = critical.iter().copied().filter(refinable).collect();
    }
    if candidates.is_empty() {
        candidates = graph.op_ids().filter(refinable).collect();
    }
    let proportion = |o: OpId| {
        let at_bound = wcg.upper_bound_latency(o);
        let (mut pool, mut deleted) = (0usize, 0usize);
        for r in wcg.candidates(o) {
            let edges = wcg.resource_edge_count(r);
            pool += edges;
            if wcg.resource_latency(r) == at_bound {
                deleted += edges;
            }
        }
        if pool == 0 {
            f64::INFINITY
        } else {
            deleted as f64 / pool as f64
        }
    };
    candidates.into_iter().min_by(|&a, &b| {
        proportion(a)
            .partial_cmp(&proportion(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let fa = bound.get(a) < upper.get(a);
                let fb = bound.get(b) < upper.get(b);
                fb.cmp(&fa)
            })
            .then(a.cmp(&b))
    })
}

/// Deterministic bit source for the generated inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn linear_rule_matches_the_quadratic_definition(
        shape in prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        widths in 0u8..3,
        ops in 1usize..=48,
        seed in 0u64..5000,
        knobs in any::<u64>(),
    ) {
        let config = TgffConfig::with_ops(ops).shape(shape);
        // Narrow widths repeat operation shapes, so equal deletion
        // proportions (and the tie-breaks) are common.
        let config = match widths {
            0 => config,
            1 => config.width_profile(WidthProfile::Mixed { high_fraction: 0.5 }),
            _ => config.width_range(8, 9),
        };
        let graph = TgffGenerator::new(config, seed).generate();
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let mut state = knobs;
        let mut draw = |n: u64| splitmix(&mut state) % n;

        // Some refinement history, so deletion proportions and the
        // refinable set vary.
        for _ in 0..draw(2 * ops as u64 + 1) {
            let op = OpId::new(draw(ops as u64) as u32);
            wcg.refine_op(op);
        }
        let upper = wcg.upper_bound_latencies();
        // Bound latencies at or below the upper bounds, often equal.
        let bound: OpLatencies = graph
            .op_ids()
            .map(|o| {
                let u = upper.get(o);
                if draw(2) == 0 { u } else { 1 + draw(u64::from(u)) as Cycles }
            })
            .collect();
        // A schedule respecting the dependencies under the upper bounds,
        // mostly back to back so binding edges are common.
        let mut start: Vec<Cycles> = vec![0; graph.len()];
        for o in graph.topological_order() {
            let ready = graph
                .predecessors(o)
                .iter()
                .map(|&p| start[p.index()] + upper.get(p))
                .max()
                .unwrap_or(0);
            start[o.index()] = ready + if draw(3) == 0 { draw(4) as Cycles } else { 0 };
        }
        let schedule = Schedule::from_vec(start);
        // Few instances, so same-instance operations overlap; some unbound.
        let instances = 1 + draw(4);
        let binding: Vec<usize> = graph
            .op_ids()
            .map(|_| if draw(10) == 0 { usize::MAX } else { draw(instances) as usize })
            .collect();
        let makespan = schedule.makespan(&upper);
        let lambda = (makespan as u64 * (50 + draw(60)) / 100) as Cycles;

        prop_assert_eq!(
            bound_critical_path(&graph, &schedule, &bound, &binding),
            naive_critical_path(&graph, &schedule, &bound, &binding)
        );
        prop_assert_eq!(
            select_refinement_op(&graph, &wcg, &schedule, &upper, &bound, &binding, lambda),
            naive_select(&graph, &wcg, &schedule, &upper, &bound, &binding, lambda)
        );
    }
}

/// Starts spread up to `1 << 30` steps, far sparser than any allocator
/// schedule: the operations are ordered by a comparison sort, not a table
/// of one slot per step (which would take 4 GiB here), and the critical
/// path still matches the definition.  Half the operations start right
/// when their last predecessor ends, so binding edges still form.  Last,
/// operations ending past `Cycles::MAX` (where the definition's own sums
/// overflow, so the expected paths are written out) still pair and rank.
#[test]
fn huge_starts_order_in_linear_memory() {
    let cost = SonicCostModel::default();
    let mut state = 0x5eed_1e57;
    let mut draw = |n: u64| splitmix(&mut state) % n;
    for case in 0..32u64 {
        let ops = 1 + draw(48) as usize;
        let graph = TgffGenerator::new(TgffConfig::with_ops(ops), case).generate();
        let wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let upper = wcg.upper_bound_latencies();
        let mut start: Vec<Cycles> = vec![0; ops];
        for o in graph.topological_order() {
            let ready = graph
                .predecessors(o)
                .iter()
                .map(|&p| start[p.index()] + upper.get(p))
                .max()
                .unwrap_or(0);
            let gap = if draw(2) == 0 { 0 } else { draw(1 << 24) };
            start[o.index()] = ready + gap as Cycles;
        }
        // One operation as late as the spread allows, if nothing depends on
        // it.
        let last = OpId::new(ops as u32 - 1);
        if graph.successors(last).is_empty() {
            start[last.index()] = start[last.index()].max(1 << 30);
        }
        let schedule = Schedule::from_vec(start);
        let instances = 1 + draw(3);
        let binding: Vec<usize> = graph.op_ids().map(|_| draw(instances) as usize).collect();
        assert_eq!(
            bound_critical_path(&graph, &schedule, &upper, &binding),
            naive_critical_path(&graph, &schedule, &upper, &binding),
            "case {case}"
        );
    }

    let mut b = SequencingGraphBuilder::new();
    for _ in 0..3 {
        b.add_operation(OpShape::adder(8));
    }
    let graph = b.build().unwrap();
    let wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
    let end = Cycles::MAX;
    let (o0, o1, o2) = (OpId::new(0), OpId::new(1), OpId::new(2));
    // o0 and o1 (8 cycles each) overlap on instance 0, so no binding edge
    // joins them and the unbound o2 (12 cycles) is critical alone.  Then
    // o0 ends where o1 starts: chained, they outlast o2.
    for (starts, expected) in [
        ([end - 2, end - 1, end - 4], vec![o2]),
        ([end - 9, end - 1, end - 4], vec![o0, o1]),
    ] {
        let schedule = Schedule::from_vec(starts.to_vec());
        let lat = OpLatencies::from_vec(vec![8, 8, 12]);
        let binding = [0, 0, usize::MAX];
        assert_eq!(
            bound_critical_path(&graph, &schedule, &lat, &binding),
            expected,
            "starts {starts:?}"
        );
        // Under their bound latencies as upper bounds, o0 and o1 end past
        // `λ = Cycles::MAX`, as past `λ = 0`: the in-window tier is empty
        // either way.
        let select = |constraint| {
            select_refinement_op(&graph, &wcg, &schedule, &lat, &lat, &binding, constraint)
        };
        assert_eq!(select(end), select(0), "starts {starts:?}");
    }
}

//! Property-based tests of the scheduling substrate.

use std::cell::Cell;
use std::collections::BTreeMap;

use proptest::prelude::*;

use mwl_model::{Cycles, OpId, ResourceClass, SequencingGraph, SonicCostModel};
use mwl_sched::{
    alap, asap, critical_path_length, minimum_cover, mobility, ListScheduler, OpLatencies,
    PerClassBound, PerInstanceExclusive, ResourceConstraint, SchedError, SchedScratch, Schedule,
    SchedulePriority, SchedulingSetBound, Unbounded,
};
use mwl_tgff::{TgffConfig, TgffGenerator};

fn random_graph(ops: usize, seed: u64) -> SequencingGraph {
    TgffGenerator::new(TgffConfig::with_ops(ops.max(1)), seed).generate()
}

fn native(graph: &SequencingGraph) -> OpLatencies {
    let cost = SonicCostModel::default();
    OpLatencies::from_fn(graph, |op| {
        mwl_model::CostModel::native_latency(&cost, op.shape())
    })
}

fn classes(graph: &SequencingGraph) -> Vec<ResourceClass> {
    graph
        .operations()
        .iter()
        .map(|o| ResourceClass::for_kind(o.kind()))
        .collect()
}

/// Deterministic bit source for the generated constraints.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The naive list scheduler: at every control step it rebuilds the ready
/// list by scanning every operation and its predecessors, and finds the next
/// event by scanning every placed operation.
fn rescanning_schedule<C: ResourceConstraint>(
    graph: &SequencingGraph,
    latencies: &OpLatencies,
    mut constraint: C,
    order: SchedulePriority,
) -> Result<Schedule, SchedError> {
    latencies.validate(graph)?;
    let n = graph.len();
    let mut priority = vec![0; n];
    for op in graph.topological_order().into_iter().rev() {
        let tail = graph
            .successors(op)
            .iter()
            .map(|&s| priority[s.index()])
            .max()
            .unwrap_or(0);
        priority[op.index()] = tail + latencies.get(op);
    }
    let mut start: Vec<Option<Cycles>> = vec![None; n];
    let mut scheduled = 0;
    let mut step = 0;
    while scheduled < n {
        let mut ready: Vec<OpId> = graph
            .op_ids()
            .filter(|&o| start[o.index()].is_none())
            .filter(|&o| {
                graph
                    .predecessors(o)
                    .iter()
                    .all(|&p| start[p.index()].is_some_and(|s| s + latencies.get(p) <= step))
            })
            .collect();
        match order {
            SchedulePriority::CriticalPath => {
                ready.sort_by_key(|&o| (std::cmp::Reverse(priority[o.index()]), o));
            }
            SchedulePriority::InputOrder => ready.sort_unstable(),
        }
        for &op in &ready {
            let lat = latencies.get(op);
            if constraint.admits(op, step, lat) {
                constraint.commit(op, step, lat);
                start[op.index()] = Some(step);
                scheduled += 1;
            }
        }
        if scheduled == n {
            break;
        }
        let next = graph
            .op_ids()
            .filter_map(|o| start[o.index()].map(|s| s + latencies.get(o)))
            .filter(|&e| e > step)
            .min();
        match next {
            Some(e) => step = e,
            None => {
                let blocked = ready
                    .iter()
                    .copied()
                    .find(|&o| !constraint.admissible_at_all(o, latencies.get(o)))
                    .or_else(|| ready.first().copied())
                    .expect("some operation is ready");
                return Err(SchedError::InfeasibleResourceBound { op: blocked });
            }
        }
    }
    Ok(Schedule::from_vec(
        start.into_iter().map(Option::unwrap).collect(),
    ))
}

/// A [`SchedulingSetBound`] whose every admission query is audited: asked
/// twice, the answer must repeat, and the rejection mask must grow by the
/// op's class exactly when the bound refused it — never for an admission,
/// never for an operation with an empty `S(o)`.
struct Audited<'a> {
    inner: &'a mut SchedulingSetBound,
    op_classes: &'a [ResourceClass],
    empty_rows: &'a [bool],
    faults: Cell<usize>,
}

impl Audited<'_> {
    fn audit(&self, op: OpId, query: impl Fn(&SchedulingSetBound) -> bool) -> bool {
        let before = self.inner.bound_rejections();
        let answer = query(self.inner);
        let after = self.inner.bound_rejections();
        let expected = if answer || self.empty_rows[op.index()] {
            before
        } else {
            before | (1 << self.op_classes[op.index()].index())
        };
        if after != expected || query(self.inner) != answer {
            self.faults.set(self.faults.get() + 1);
        }
        answer
    }
}

impl ResourceConstraint for Audited<'_> {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        self.audit(op, |c| c.admits(op, step, latency))
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        self.inner.commit(op, step, latency);
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        self.audit(op, |c| c.admissible_at_all(op, latency))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Eqn (3) admission is monotone in `N_y`, so raising any subset of the
    /// classes whose bound never refused an admission repeats the schedule,
    /// or the stall on the same operation.  The refusal recorder never
    /// changes an answer, and `reset_loads` clears it.
    #[test]
    fn raising_unrefused_bounds_repeats_the_schedule(
        ops in 1usize..40,
        seed in any::<u64>(),
        knobs in any::<u64>(),
        raise in any::<u64>(),
    ) {
        let graph = random_graph(ops, seed);
        let mut state = knobs;
        let lat: OpLatencies = graph.op_ids().map(|_| 1 + (splitmix(&mut state) % 4) as Cycles).collect();
        let op_classes = classes(&graph);
        let bounds: BTreeMap<ResourceClass, usize> = ResourceClass::ALL
            .iter()
            .map(|&c| (c, (splitmix(&mut state) % 4) as usize))
            .collect();
        // One to three members a class; an operation uses a non-empty subset
        // of its class's members, or (rarely) none at all.
        let per_class: Vec<usize> = ResourceClass::ALL
            .iter()
            .map(|_| 1 + (splitmix(&mut state) % 3) as usize)
            .collect();
        let member_classes: Vec<ResourceClass> = ResourceClass::ALL
            .iter()
            .zip(&per_class)
            .flat_map(|(&c, &k)| std::iter::repeat_n(c, k))
            .collect();
        let op_members: Vec<Vec<usize>> = op_classes
            .iter()
            .map(|&c| {
                if splitmix(&mut state).is_multiple_of(32) {
                    return Vec::new();
                }
                let first = member_classes.iter().position(|&m| m == c).unwrap();
                let k = per_class[c.index()];
                let pick = splitmix(&mut state) % ((1 << k) - 1) + 1;
                (0..k).filter(|j| pick >> j & 1 == 1).map(|j| first + j).collect()
            })
            .collect();
        let empty_rows: Vec<bool> = op_members.iter().map(Vec::is_empty).collect();
        let eqn3 = |bounds: &BTreeMap<ResourceClass, usize>| SchedulingSetBound::new(
            op_classes.clone(),
            op_members.clone(),
            member_classes.clone(),
            bounds.clone(),
        );

        let scheduler = ListScheduler::new(SchedulePriority::CriticalPath);
        let mut constraint = eqn3(&bounds);
        let mut audited = Audited {
            inner: &mut constraint,
            op_classes: &op_classes,
            empty_rows: &empty_rows,
            faults: Cell::new(0),
        };
        let base = scheduler.schedule(&graph, &lat, &mut audited);
        prop_assert_eq!(audited.faults.get(), 0, "an audited admission misbehaved");
        let refused = constraint.bound_rejections();

        let mut raised = bounds.clone();
        for (&class, bound) in &mut raised {
            let bit = 1 << class.index();
            if refused & bit == 0 && raise & u64::from(bit) != 0 {
                *bound += 1 + (raise >> 16) as usize % 3;
            }
        }
        prop_assert_eq!(&scheduler.schedule(&graph, &lat, eqn3(&raised)), &base);
        constraint.reset_loads();
        prop_assert_eq!(constraint.bound_rejections(), 0);
    }

    /// The event-driven list scheduler places every operation exactly where
    /// the naive rescanning loop does — under every constraint strategy and
    /// both priorities, through a reused scratch — and an infeasible bound
    /// names the same operation.
    #[test]
    fn event_driven_scheduler_matches_rescanning(
        ops in 1usize..40,
        seed in any::<u64>(),
        knobs in any::<u64>(),
    ) {
        let graph = random_graph(ops, seed);
        let mut state = knobs;
        let lat: OpLatencies = graph.op_ids().map(|_| 1 + (splitmix(&mut state) % 4) as Cycles).collect();
        let op_classes = classes(&graph);
        // Per-class bounds of 0..=3: a zero bound makes the class infeasible.
        let bounds: BTreeMap<ResourceClass, usize> = ResourceClass::ALL
            .iter()
            .map(|&c| (c, (splitmix(&mut state) % 4) as usize))
            .collect();
        // Eqn (3): one to three members per class, each operation able to
        // use a non-empty subset of its class's members.
        let per_class: Vec<usize> = ResourceClass::ALL
            .iter()
            .map(|_| 1 + (splitmix(&mut state) % 3) as usize)
            .collect();
        let member_classes: Vec<ResourceClass> = ResourceClass::ALL
            .iter()
            .zip(&per_class)
            .flat_map(|(&c, &k)| std::iter::repeat_n(c, k))
            .collect();
        let op_members: Vec<Vec<usize>> = op_classes
            .iter()
            .map(|&c| {
                let first = member_classes.iter().position(|&m| m == c).unwrap();
                let k = per_class[c.index()];
                let pick = splitmix(&mut state) % ((1 << k) - 1) + 1;
                (0..k).filter(|j| pick >> j & 1 == 1).map(|j| first + j).collect()
            })
            .collect();
        let instances = 1 + (splitmix(&mut state) % 4) as usize;
        let binding: Vec<usize> = graph
            .op_ids()
            .map(|_| (splitmix(&mut state) % instances as u64) as usize)
            .collect();

        let mut scratch = SchedScratch::new();
        for priority in [SchedulePriority::CriticalPath, SchedulePriority::InputOrder] {
            let scheduler = ListScheduler::new(priority);
            prop_assert_eq!(
                scheduler.schedule_with_scratch(&graph, &lat, Unbounded::new(), &mut scratch),
                rescanning_schedule(&graph, &lat, Unbounded::new(), priority)
            );
            let per_class = || PerClassBound::new(op_classes.clone(), bounds.clone());
            prop_assert_eq!(
                scheduler.schedule_with_scratch(&graph, &lat, per_class(), &mut scratch),
                rescanning_schedule(&graph, &lat, per_class(), priority)
            );
            let eqn3 = || SchedulingSetBound::new(
                op_classes.clone(),
                op_members.clone(),
                member_classes.clone(),
                bounds.clone(),
            );
            prop_assert_eq!(
                scheduler.schedule_with_scratch(&graph, &lat, eqn3(), &mut scratch),
                rescanning_schedule(&graph, &lat, eqn3(), priority)
            );
            let exclusive = || PerInstanceExclusive::new(binding.clone(), instances);
            prop_assert_eq!(
                scheduler.schedule_with_scratch(&graph, &lat, exclusive(), &mut scratch),
                rescanning_schedule(&graph, &lat, exclusive(), priority)
            );
        }
    }

    /// ASAP is a valid schedule and no valid schedule starts any operation
    /// earlier; ALAP is valid and no later start is possible within the
    /// deadline.
    #[test]
    fn asap_alap_bracket_all_schedules(ops in 1usize..16, seed in any::<u64>(), slack in 0u32..6) {
        let graph = random_graph(ops, seed);
        let lat = native(&graph);
        let early = asap(&graph, &lat);
        prop_assert!(early.is_valid(&graph, &lat));
        let deadline = critical_path_length(&graph, &lat) + slack;
        let late = alap(&graph, &lat, deadline).unwrap();
        prop_assert!(late.is_valid(&graph, &lat));
        prop_assert!(late.makespan(&lat) <= deadline);
        for op in graph.op_ids() {
            prop_assert!(early.start(op) <= late.start(op));
        }
        // Mobility equals the gap between the two.
        let m = mobility(&graph, &lat, deadline).unwrap();
        for op in graph.op_ids() {
            prop_assert_eq!(m[op.index()], late.start(op) - early.start(op));
        }
    }

    /// List scheduling with unbounded resources equals ASAP; with per-class
    /// bounds it is valid, respects the bounds, and never beats ASAP.
    #[test]
    fn list_schedule_valid_and_bounded(
        ops in 1usize..14,
        seed in any::<u64>(),
        mul_bound in 1usize..4,
        add_bound in 1usize..4,
    ) {
        let graph = random_graph(ops, seed);
        let lat = native(&graph);
        let scheduler = ListScheduler::new(SchedulePriority::CriticalPath);

        let unbounded = scheduler.schedule(&graph, &lat, Unbounded::new()).unwrap();
        prop_assert_eq!(&unbounded, &asap(&graph, &lat));

        let bounds = BTreeMap::from([
            (ResourceClass::Multiplier, mul_bound),
            (ResourceClass::Adder, add_bound),
        ]);
        let constrained = scheduler
            .schedule(&graph, &lat, PerClassBound::new(classes(&graph), bounds.clone()))
            .unwrap();
        prop_assert!(constrained.is_valid(&graph, &lat));
        // Bound check: count concurrent ops per class at every step.
        let makespan = constrained.makespan(&lat);
        for step in 0..makespan {
            let mut counts: BTreeMap<ResourceClass, usize> = BTreeMap::new();
            for op in constrained.active_at(step, &lat) {
                *counts
                    .entry(ResourceClass::for_kind(graph.operation(op).kind()))
                    .or_insert(0) += 1;
            }
            for (class, count) in counts {
                prop_assert!(count <= bounds[&class]);
            }
        }
        // Resource constraints can only delay operations.
        for op in graph.op_ids() {
            prop_assert!(constrained.start(op) >= unbounded.start(op));
        }
    }

    /// The Eqn (3) constraint is at least as strict as Eqn (2): any schedule
    /// it produces also satisfies the per-class concurrency bound.
    #[test]
    fn eqn3_schedules_satisfy_eqn2(ops in 1usize..12, seed in any::<u64>(), bound in 1usize..4) {
        let graph = random_graph(ops, seed);
        let lat = native(&graph);
        let op_classes = classes(&graph);
        // Degenerate scheduling set: one member per class covering all its
        // operations (|S| = |Y|), where the paper states Eqn 3 == Eqn 2.
        let present: Vec<ResourceClass> = {
            let mut v: Vec<ResourceClass> = op_classes.clone();
            v.sort();
            v.dedup();
            v
        };
        let op_members: Vec<Vec<usize>> = op_classes
            .iter()
            .map(|c| vec![present.iter().position(|p| p == c).unwrap()])
            .collect();
        let bounds: BTreeMap<ResourceClass, usize> =
            present.iter().map(|&c| (c, bound)).collect();
        let scheduler = ListScheduler::new(SchedulePriority::CriticalPath);
        let eqn3 = scheduler.schedule(
            &graph,
            &lat,
            SchedulingSetBound::new(op_classes.clone(), op_members, present.clone(), bounds.clone()),
        );
        let eqn2 = scheduler.schedule(
            &graph,
            &lat,
            PerClassBound::new(op_classes.clone(), bounds.clone()),
        );
        // Both must agree on feasibility in the degenerate case, and the
        // Eqn 3 schedule must satisfy the Eqn 2 bound.
        match (eqn3, eqn2) {
            (Ok(s3), Ok(_)) => {
                prop_assert!(s3.is_valid(&graph, &lat));
                let makespan = s3.makespan(&lat);
                for step in 0..makespan {
                    let mut counts: BTreeMap<ResourceClass, usize> = BTreeMap::new();
                    for op in s3.active_at(step, &lat) {
                        *counts
                            .entry(ResourceClass::for_kind(graph.operation(op).kind()))
                            .or_insert(0) += 1;
                    }
                    for (_, count) in counts {
                        prop_assert!(count <= bound);
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "feasibility disagreement: {a:?} vs {b:?}"),
        }
    }

    /// Critical path length is monotone in latencies and invariant to
    /// uniformly scaling slack in ALAP deadlines.
    #[test]
    fn critical_path_monotone(ops in 1usize..14, seed in any::<u64>(), extra in 1u32..4) {
        let graph = random_graph(ops, seed);
        let lat = native(&graph);
        let inflated: OpLatencies = lat.as_slice().iter().map(|&l| l + extra).collect();
        prop_assert!(critical_path_length(&graph, &inflated) >= critical_path_length(&graph, &lat));
    }

    /// The minimum-cover solver always returns a cover of the coverable items
    /// and never more candidates than the greedy bound `H(n) * OPT`; for the
    /// exact regime it is no larger than the number of items.
    #[test]
    fn minimum_cover_is_a_cover(
        items in 1usize..12,
        sets in prop::collection::vec(prop::collection::vec(0usize..12, 0..6), 1..10),
    ) {
        let chosen = minimum_cover(items, &sets);
        for item in 0..items {
            let coverable = sets.iter().any(|s| s.contains(&item));
            if coverable {
                prop_assert!(chosen.iter().any(|&j| sets[j].contains(&item)));
            }
        }
        prop_assert!(chosen.len() <= sets.len());
        // Minimality sanity: removing any chosen set breaks the cover.
        for &skip in &chosen {
            let still_covered = (0..items)
                .filter(|i| sets.iter().any(|s| s.contains(i)))
                .all(|i| {
                    chosen
                        .iter()
                        .filter(|&&j| j != skip)
                        .any(|&j| sets[j].contains(&i))
                });
            prop_assert!(!still_covered || chosen.len() == 1);
        }
    }

    /// Schedule accessors are self-consistent.
    #[test]
    fn schedule_accessors_consistent(ops in 1usize..12, seed in any::<u64>()) {
        let graph = random_graph(ops, seed);
        let lat = native(&graph);
        let schedule = asap(&graph, &lat);
        let makespan = schedule.makespan(&lat);
        for op in graph.op_ids() {
            prop_assert_eq!(schedule.end(op, &lat), schedule.start(op) + lat.get(op));
            prop_assert!(schedule.end(op, &lat) <= makespan);
            // Each op is active exactly during its interval.
            for step in 0..makespan {
                let active = schedule.active_at(step, &lat).contains(&op);
                let inside = schedule.start(op) <= step && step < schedule.end(op, &lat);
                prop_assert_eq!(active, inside);
            }
        }
        let _: Vec<Cycles> = schedule.as_slice().to_vec();
        let _ = OpId::new(0);
    }
}

//! The **frozen pre-optimization allocator**: a self-contained, verbatim
//! copy of the whole `DPAlloc` vertical slice — compatibility graph,
//! scheduling-set cover, the sparse Eqn (3) constraint, the rescanning list
//! scheduler, `BindSelect`, refinement rule and merging pass — exactly as it
//! stood before the hot-path rewrite.  Nothing here is shared with the live
//! crates: the sparse constraint and the list scheduler live only in this
//! module, and so does the cover's mask-free greedy for instances with more
//! than 64 coverable items (the `u64` masks of the exact and small greedy
//! solvers cannot hold them).
//!
//! This module serves two purposes:
//!
//! * **Specification oracle.**  The optimized allocator
//!   ([`crate::DpAllocator`]) is required to be **bit-identical** to this
//!   implementation on every input; `tests/optimization_identity.rs`
//!   property-tests that across all TGFF `GraphShape`×`WidthProfile`
//!   families with merging on and off, and the `perf_gate` harness
//!   re-checks it on every run.
//! * **Performance baseline.**  The committed `BENCH_alloc.json` speedup
//!   trajectory is measured against this code, so it deliberately keeps the
//!   pre-rewrite **cost profile**: `BTreeSet`-backed adjacency with `O(|O|)`
//!   `ops_for` scans, per-iteration rebuilds of the candidate lists and
//!   membership tables, cloned bound maps, the sparse, peak-cloning Eqn (3)
//!   `admits`, a list scheduler that rescans every operation at every
//!   event, a position-scanning set-cover mask builder, and a full
//!   reschedule plus compatibility-graph rebuild per merge candidate.
//!
//! Do **not** optimize or share code out of this module — that would
//! silently move the baseline.

use std::collections::{BTreeMap, BTreeSet};

use mwl_model::{Area, CostModel, Cycles, OpId, ResourceClass, ResourceType, SequencingGraph};
use mwl_sched::{
    critical_path_length, OpLatencies, PerInstanceExclusive, ResourceConstraint, SchedError,
    Schedule, SchedulePriority,
};

use crate::bind::BindSelectOptions;
use crate::datapath::{Datapath, ResourceInstance};
use crate::dpalloc::{AllocConfig, AllocOutcome, RefinementPolicy};
use crate::error::AllocError;
use crate::merge::MergeStats;

// ---------------------------------------------------------------------------
// Frozen wordlength compatibility graph (pre-rewrite data structures).
// ---------------------------------------------------------------------------

/// The pre-rewrite compatibility graph: `BTreeSet` adjacency, no mirror
/// lists, upper bounds and `O(r)` recomputed on every query.
struct FrozenWcg {
    resources: Vec<ResourceType>,
    latencies: Vec<Cycles>,
    areas: Vec<Area>,
    edges: Vec<BTreeSet<usize>>,
    intervals: Option<Vec<(Cycles, Cycles)>>,
}

impl FrozenWcg {
    fn new(graph: &SequencingGraph, cost: &dyn CostModel) -> Self {
        let resources = graph.extract_resource_types();
        Self::with_resources(graph, resources, cost)
    }

    fn with_resources(
        graph: &SequencingGraph,
        resources: Vec<ResourceType>,
        cost: &dyn CostModel,
    ) -> Self {
        let latencies = resources.iter().map(|r| cost.latency(r)).collect();
        let areas = resources.iter().map(|r| cost.area(r)).collect();
        let edges = graph
            .operations()
            .iter()
            .map(|op| {
                resources
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.covers(op.shape()))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        FrozenWcg {
            resources,
            latencies,
            areas,
            edges,
            intervals: None,
        }
    }

    fn num_ops(&self) -> usize {
        self.edges.len()
    }

    fn resource(&self, index: usize) -> &ResourceType {
        &self.resources[index]
    }

    fn resource_latency(&self, index: usize) -> Cycles {
        self.latencies[index]
    }

    fn resource_area(&self, index: usize) -> Area {
        self.areas[index]
    }

    fn resources_for(&self, op: OpId) -> Vec<usize> {
        self.edges[op.index()].iter().copied().collect()
    }

    fn has_edge(&self, op: OpId, resource: usize) -> bool {
        self.edges[op.index()].contains(&resource)
    }

    fn ops_for(&self, resource: usize) -> Vec<OpId> {
        (0..self.num_ops())
            .map(|i| OpId::new(i as u32))
            .filter(|&o| self.has_edge(o, resource))
            .collect()
    }

    fn upper_bound_latency(&self, op: OpId) -> Cycles {
        self.edges[op.index()]
            .iter()
            .map(|&r| self.latencies[r])
            .max()
            .expect("operation retains at least one compatible resource")
    }

    fn upper_bound_latencies(&self) -> OpLatencies {
        (0..self.num_ops())
            .map(|i| self.upper_bound_latency(OpId::new(i as u32)))
            .collect()
    }

    fn refine_op(&mut self, op: OpId) -> usize {
        let bound = self.upper_bound_latency(op);
        let slow: Vec<usize> = self.edges[op.index()]
            .iter()
            .copied()
            .filter(|&r| self.latencies[r] == bound)
            .collect();
        if slow.len() == self.edges[op.index()].len() {
            let distinct: BTreeSet<Cycles> = self.edges[op.index()]
                .iter()
                .map(|&r| self.latencies[r])
                .collect();
            if distinct.len() <= 1 {
                return 0;
            }
        }
        let mut removed = 0;
        for r in slow {
            if self.edges[op.index()].len() == 1 {
                break;
            }
            if self.edges[op.index()].remove(&r) {
                removed += 1;
            }
        }
        removed
    }

    fn refinable(&self, op: OpId) -> bool {
        let distinct: BTreeSet<Cycles> = self.edges[op.index()]
            .iter()
            .map(|&r| self.latencies[r])
            .collect();
        distinct.len() > 1
    }

    fn attach_schedule(&mut self, schedule: &Schedule, latencies: &OpLatencies) {
        let intervals = (0..self.num_ops())
            .map(|i| {
                let op = OpId::new(i as u32);
                (schedule.start(op), schedule.end(op, latencies))
            })
            .collect();
        self.intervals = Some(intervals);
    }

    fn detach_schedule(&mut self) {
        self.intervals = None;
    }

    fn is_chain(&self, ops: &[OpId]) -> bool {
        let mut sorted: Vec<OpId> = ops.to_vec();
        let intervals = self
            .intervals
            .as_ref()
            .expect("attach_schedule must be called before compatibility queries");
        sorted.sort_by_key(|o| intervals[o.index()].0);
        sorted
            .windows(2)
            .all(|w| intervals[w[0].index()].1 <= intervals[w[1].index()].0)
    }

    fn max_chain(&self, resource: usize, covered: &[bool]) -> Vec<OpId> {
        let intervals = self
            .intervals
            .as_ref()
            .expect("attach_schedule must be called before max_chain");
        let mut candidates: Vec<OpId> = self
            .ops_for(resource)
            .into_iter()
            .filter(|o| !covered[o.index()])
            .collect();
        candidates.sort_by_key(|o| (intervals[o.index()].0, intervals[o.index()].1, *o));
        let k = candidates.len();
        if k == 0 {
            return Vec::new();
        }
        let mut best = vec![1usize; k];
        let mut prev: Vec<Option<usize>> = vec![None; k];
        for i in 0..k {
            for j in 0..i {
                let end_j = intervals[candidates[j].index()].1;
                let start_i = intervals[candidates[i].index()].0;
                if end_j <= start_i && best[j] + 1 > best[i] {
                    best[i] = best[j] + 1;
                    prev[i] = Some(j);
                }
            }
        }
        let mut tail = (0..k).max_by_key(|&i| best[i]).expect("k > 0");
        let mut chain = vec![candidates[tail]];
        while let Some(p) = prev[tail] {
            chain.push(candidates[p]);
            tail = p;
        }
        chain.reverse();
        chain
    }

    fn op_candidate_lists(&self) -> Vec<Vec<usize>> {
        (0..self.num_ops())
            .map(|i| self.resources_for(OpId::new(i as u32)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Frozen scheduling-set cover (position-scanning mask builder).
// ---------------------------------------------------------------------------

const EXACT_COVER_ITEM_LIMIT: usize = 64;
const EXACT_COVER_CANDIDATE_LIMIT: usize = 28;

fn minimum_cover(num_items: usize, candidates: &[Vec<usize>]) -> Vec<usize> {
    if num_items == 0 || candidates.is_empty() {
        return Vec::new();
    }
    let mut coverable = vec![false; num_items];
    for set in candidates {
        for &item in set {
            if item < num_items {
                coverable[item] = true;
            }
        }
    }
    let items: Vec<usize> = (0..num_items).filter(|&i| coverable[i]).collect();
    if items.is_empty() {
        return Vec::new();
    }

    if items.len() > EXACT_COVER_ITEM_LIMIT {
        greedy_cover_large(num_items, &items, candidates)
    } else if candidates.len() <= EXACT_COVER_CANDIDATE_LIMIT {
        exact_cover(&items, candidates)
    } else {
        greedy_cover(&items, candidates)
    }
}

/// The greedy cover for more items than a `u64` mask holds: the selection
/// rule of [`greedy_cover`] (most newly covered items wins, ties to the
/// highest-indexed candidate) over per-item flags.
fn greedy_cover_large(num_items: usize, items: &[usize], candidates: &[Vec<usize>]) -> Vec<usize> {
    let mut covered = vec![false; num_items];
    let mut relevant = vec![false; num_items];
    for &item in items {
        relevant[item] = true;
    }
    let new_coverage = |set: &Vec<usize>, covered: &[bool]| {
        set.iter()
            .filter(|&&item| item < num_items && relevant[item] && !covered[item])
            .count()
    };
    let mut remaining = items.len();
    let mut chosen: Vec<usize> = Vec::new();
    while remaining > 0 {
        let best = (0..candidates.len())
            .filter(|j| !chosen.contains(j))
            .max_by_key(|&j| new_coverage(&candidates[j], &covered));
        match best {
            Some(j) if new_coverage(&candidates[j], &covered) > 0 => {
                for &item in &candidates[j] {
                    if item < num_items && relevant[item] && !covered[item] {
                        covered[item] = true;
                        remaining -= 1;
                    }
                }
                chosen.push(j);
            }
            _ => break,
        }
    }
    chosen.sort_unstable();
    chosen
}

fn scheduling_set(op_candidates: &[Vec<usize>]) -> Vec<usize> {
    let num_resources = op_candidates
        .iter()
        .flat_map(|c| c.iter().copied())
        .max()
        .map_or(0, |m| m + 1);
    let mut covers: Vec<Vec<usize>> = vec![Vec::new(); num_resources];
    for (op, cands) in op_candidates.iter().enumerate() {
        for &r in cands {
            covers[r].push(op);
        }
    }
    minimum_cover(op_candidates.len(), &covers)
}

fn item_masks(items: &[usize], candidates: &[Vec<usize>]) -> (u64, Vec<u64>) {
    let index_of = |item: usize| items.iter().position(|&i| i == item);
    let full: u64 = if items.len() == 64 {
        u64::MAX
    } else {
        (1u64 << items.len()) - 1
    };
    let masks = candidates
        .iter()
        .map(|set| {
            let mut m = 0u64;
            for &item in set {
                if let Some(bit) = index_of(item) {
                    m |= 1u64 << bit;
                }
            }
            m
        })
        .collect();
    (full, masks)
}

fn greedy_cover(items: &[usize], candidates: &[Vec<usize>]) -> Vec<usize> {
    let (full, masks) = item_masks(items, candidates);
    let mut covered = 0u64;
    let mut chosen = Vec::new();
    while covered != full {
        let best = (0..masks.len())
            .filter(|&j| !chosen.contains(&j))
            .max_by_key(|&j| (masks[j] & !covered).count_ones());
        match best {
            Some(j) if (masks[j] & !covered) != 0 => {
                covered |= masks[j];
                chosen.push(j);
            }
            _ => break,
        }
    }
    chosen.sort_unstable();
    chosen
}

fn exact_cover(items: &[usize], candidates: &[Vec<usize>]) -> Vec<usize> {
    let (full, masks) = item_masks(items, candidates);
    let mut best = greedy_cover(items, candidates);
    let mut best_len = best.len();

    let mut order: Vec<usize> = (0..masks.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(masks[j].count_ones()));

    struct Search<'a> {
        order: &'a [usize],
        masks: &'a [u64],
        full: u64,
    }

    fn recurse(
        s: &Search<'_>,
        pos: usize,
        covered: u64,
        chosen: &mut Vec<usize>,
        best: &mut Vec<usize>,
        best_len: &mut usize,
    ) {
        let Search { order, masks, full } = *s;
        if covered == full {
            if chosen.len() < *best_len {
                *best_len = chosen.len();
                *best = chosen.clone();
            }
            return;
        }
        if pos >= order.len() {
            return;
        }
        let remaining = (full & !covered).count_ones() as usize;
        let largest = order[pos..]
            .iter()
            .map(|&j| (masks[j] & !covered).count_ones() as usize)
            .max()
            .unwrap_or(0);
        if largest == 0 {
            return;
        }
        let lower = remaining.div_ceil(largest);
        if chosen.len() + lower >= *best_len {
            return;
        }
        let uncovered_bit = (full & !covered).trailing_zeros();
        for &j in &order[pos..] {
            if masks[j] & (1u64 << uncovered_bit) == 0 {
                continue;
            }
            chosen.push(j);
            recurse(s, pos, covered | masks[j], chosen, best, best_len);
            chosen.pop();
        }
    }

    let search = Search {
        order: &order,
        masks: &masks,
        full,
    };
    let mut chosen = Vec::new();
    recurse(&search, 0, 0, &mut chosen, &mut best, &mut best_len);
    best.sort_unstable();
    best
}

// ---------------------------------------------------------------------------
// Frozen Eqn (3) constraint (sparse rows, `BTreeMap` bounds, peak-cloning
// admits).
// ---------------------------------------------------------------------------

/// Numerical slack used when comparing fractional resource usage.
const EPSILON: f64 = 1e-9;

/// The pre-rewrite sparse form of the paper's Eqn (3) constraint.
///
/// Built from the wordlength compatibility graph: every operation `o` has a
/// set `S(o)` of compatible scheduling-set members; every member `s` has a
/// resource class.  The committed usage of a member `s` during step `t` is
/// `Σ_{o ∈ O(s) active at t} 1/|S(o)|`, and the constraint requires, for each
/// class `y`, that the sum over members of class `y` of their *peak* usage
/// stays within the bound `N_y`.
#[derive(Debug, Clone)]
struct SchedulingSetBound {
    /// Class of every operation, indexed by [`OpId`].
    op_classes: Vec<ResourceClass>,
    /// Scheduling-set members compatible with every operation (indices into
    /// `member_classes`), indexed by [`OpId`].
    op_members: Vec<Vec<usize>>,
    /// Resource class of every scheduling-set member.
    member_classes: Vec<ResourceClass>,
    /// Bound per class; classes missing from the map are unbounded.
    bounds: BTreeMap<ResourceClass, usize>,
    /// Per-member load profile over control steps.
    load: Vec<Vec<f64>>,
    /// Per-member peak load so far.
    peak: Vec<f64>,
}

impl SchedulingSetBound {
    /// Creates the policy.
    ///
    /// * `op_classes[i]` — resource class of operation `i`;
    /// * `op_members[i]` — scheduling-set members able to execute operation
    ///   `i` (the paper's `S(o)`), as indices into `member_classes`;
    /// * `member_classes[j]` — class of scheduling-set member `j`;
    /// * `bounds` — `N_y` per class (absent classes are unbounded).
    fn new(
        op_classes: Vec<ResourceClass>,
        op_members: Vec<Vec<usize>>,
        member_classes: Vec<ResourceClass>,
        bounds: BTreeMap<ResourceClass, usize>,
    ) -> Self {
        let members = member_classes.len();
        SchedulingSetBound {
            op_classes,
            op_members,
            member_classes,
            bounds,
            load: vec![Vec::new(); members],
            peak: vec![0.0; members],
        }
    }

    /// The left-hand side of Eqn (3) for one class, given optional tentative
    /// peaks overriding the committed ones.
    fn class_total(&self, class: ResourceClass, tentative: Option<&[f64]>) -> f64 {
        (0..self.member_classes.len())
            .filter(|&j| self.member_classes[j] == class)
            .map(|j| tentative.map_or(self.peak[j], |t| t[j]))
            .sum()
    }

    fn member_load_at(&self, member: usize, step: Cycles) -> f64 {
        self.load[member].get(step as usize).copied().unwrap_or(0.0)
    }
}

impl ResourceConstraint for SchedulingSetBound {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(&bound) = self.bounds.get(&class) else {
            return true;
        };
        let members = &self.op_members[op.index()];
        if members.is_empty() {
            return false;
        }
        let share = 1.0 / members.len() as f64;
        // Tentative peaks with this operation placed.
        let mut tentative = self.peak.clone();
        for &m in members {
            let mut new_peak = self.peak[m];
            for t in step..step + latency {
                new_peak = new_peak.max(self.member_load_at(m, t) + share);
            }
            tentative[m] = new_peak;
        }
        self.class_total(class, Some(&tentative)) <= bound as f64 + EPSILON
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        let members = self.op_members[op.index()].clone();
        if members.is_empty() {
            return;
        }
        let share = 1.0 / members.len() as f64;
        let end = (step + latency) as usize;
        for &m in &members {
            if self.load[m].len() < end {
                self.load[m].resize(end, 0.0);
            }
            for t in step as usize..end {
                self.load[m][t] += share;
                if self.load[m][t] > self.peak[m] {
                    self.peak[m] = self.load[m][t];
                }
            }
        }
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(&bound) = self.bounds.get(&class) else {
            return true;
        };
        let members = &self.op_members[op.index()];
        if members.is_empty() || bound == 0 {
            return false;
        }
        // Placing the op in untouched future steps raises each compatible
        // member's peak to at least 1/|S(o)| (if not already higher); the
        // other members keep their current peaks.
        let share = 1.0 / members.len() as f64;
        let mut tentative = self.peak.clone();
        for &m in members {
            tentative[m] = tentative[m].max(share);
        }
        let _ = latency;
        self.class_total(class, Some(&tentative)) <= bound as f64 + EPSILON
    }
}

// ---------------------------------------------------------------------------
// Frozen BindSelect.
// ---------------------------------------------------------------------------

fn bind_select(
    wcg: &FrozenWcg,
    options: BindSelectOptions,
) -> Result<Vec<ResourceInstance>, AllocError> {
    let n = wcg.num_ops();
    let mut covered = vec![false; n];
    let mut cliques: Vec<(Vec<OpId>, usize)> = Vec::new();

    while covered.iter().any(|&c| !c) {
        let mut best: Option<(Vec<OpId>, usize)> = None;
        let mut best_key = (0.0f64, 0usize, u64::MAX);
        for r in 0..wcg.resources.len() {
            let chain = wcg.max_chain(r, &covered);
            if chain.is_empty() {
                continue;
            }
            let area = wcg.resource_area(r).max(1);
            let ratio = chain.len() as f64 / area as f64;
            let key = (ratio, chain.len(), u64::MAX - area);
            let better = match &best {
                None => true,
                Some(_) => {
                    key.0 > best_key.0 + f64::EPSILON
                        || ((key.0 - best_key.0).abs() <= f64::EPSILON
                            && (key.1 > best_key.1 || (key.1 == best_key.1 && key.2 > best_key.2)))
                }
            };
            if better {
                best_key = key;
                best = Some((chain, r));
            }
        }

        let Some((chain, resource)) = best else {
            let op = (0..n)
                .map(|i| OpId::new(i as u32))
                .find(|o| !covered[o.index()])
                .expect("loop condition guarantees an uncovered operation");
            return Err(AllocError::UncoverableOperation(op));
        };

        for &op in &chain {
            covered[op.index()] = true;
        }
        let mut new_clique = (chain, resource);

        if options.grow_cliques {
            let mut i = 0;
            while i < cliques.len() {
                let union: Vec<OpId> = new_clique
                    .0
                    .iter()
                    .chain(cliques[i].0.iter())
                    .copied()
                    .collect();
                let resource_covers_union = union.iter().all(|&o| wcg.has_edge(o, new_clique.1));
                if resource_covers_union && wcg.is_chain(&union) {
                    new_clique.0 = union;
                    cliques.remove(i);
                } else {
                    i += 1;
                }
            }
        }

        cliques.push(new_clique);
    }

    Ok(cliques
        .into_iter()
        .map(|(ops, r)| ResourceInstance::new(*wcg.resource(r), ops))
        .collect())
}

// ---------------------------------------------------------------------------
// Frozen refinement rule.
// ---------------------------------------------------------------------------

fn bound_critical_path(
    graph: &SequencingGraph,
    schedule: &Schedule,
    bound_latencies: &OpLatencies,
    binding: &[usize],
) -> Vec<OpId> {
    let n = graph.len();
    // Augmented successor lists.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in graph.edges() {
        succ[e.from.index()].push(e.to.index());
        pred[e.to.index()].push(e.from.index());
    }
    for i in 0..n {
        for j in 0..n {
            if i == j || binding[i] != binding[j] || binding[i] == usize::MAX {
                continue;
            }
            let oi = OpId::new(i as u32);
            let oj = OpId::new(j as u32);
            if schedule.start(oi) + bound_latencies.get(oi) == schedule.start(oj)
                && !succ[i].contains(&j)
            {
                succ[i].push(j);
                pred[j].push(i);
            }
        }
    }

    let order = topological_order(&succ, &pred);

    let mut asap = vec![0 as Cycles; n];
    for &v in &order {
        for &p in &pred[v] {
            let op_p = OpId::new(p as u32);
            asap[v] = asap[v].max(asap[p] + bound_latencies.get(op_p));
        }
    }
    let deadline = (0..n)
        .map(|i| asap[i] + bound_latencies.get(OpId::new(i as u32)))
        .max()
        .unwrap_or(0);

    let mut alap_end = vec![deadline; n];
    for &v in order.iter().rev() {
        for &s in &succ[v] {
            let op_s = OpId::new(s as u32);
            let succ_start = alap_end[s] - bound_latencies.get(op_s);
            alap_end[v] = alap_end[v].min(succ_start);
        }
    }

    (0..n)
        .filter(|&i| {
            let op = OpId::new(i as u32);
            let alap_start = alap_end[i] - bound_latencies.get(op);
            asap[i] == alap_start
        })
        .map(|i| OpId::new(i as u32))
        .collect()
}

fn topological_order(succ: &[Vec<usize>], pred: &[Vec<usize>]) -> Vec<usize> {
    let n = succ.len();
    let mut indegree: Vec<usize> = pred.iter().map(Vec::len).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &s in &succ[v] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "augmented graph must stay acyclic");
    order
}

fn select_refinement_op(
    graph: &SequencingGraph,
    wcg: &FrozenWcg,
    schedule: &Schedule,
    upper_bounds: &OpLatencies,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    constraint: Cycles,
) -> Option<OpId> {
    let critical = bound_critical_path(graph, schedule, bound_latencies, binding);

    let in_window = |o: &OpId| schedule.start(*o) + upper_bounds.get(*o) <= constraint;
    let refinable = |o: &OpId| wcg.refinable(*o);

    let tier1: Vec<OpId> = critical
        .iter()
        .copied()
        .filter(|o| in_window(o) && refinable(o))
        .collect();
    let tier2: Vec<OpId> = critical.iter().copied().filter(refinable).collect();
    let tier3: Vec<OpId> = graph.op_ids().filter(|o| wcg.refinable(*o)).collect();

    let candidates = if !tier1.is_empty() {
        tier1
    } else if !tier2.is_empty() {
        tier2
    } else {
        tier3
    };
    if candidates.is_empty() {
        return None;
    }

    candidates.into_iter().min_by(|&a, &b| {
        let pa = deletion_proportion(wcg, a);
        let pb = deletion_proportion(wcg, b);
        pa.partial_cmp(&pb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let fa = bound_latencies.get(a) < upper_bounds.get(a);
                let fb = bound_latencies.get(b) < upper_bounds.get(b);
                fb.cmp(&fa)
            })
            .then(a.cmp(&b))
    })
}

fn deletion_proportion(wcg: &FrozenWcg, op: OpId) -> f64 {
    let bound = wcg.upper_bound_latency(op);
    let resources = wcg.resources_for(op);
    let pool: usize = resources.iter().map(|&r| wcg.ops_for(r).len()).sum();
    let deleted: usize = resources
        .iter()
        .filter(|&&r| wcg.resource_latency(r) == bound)
        .map(|&r| wcg.ops_for(r).len())
        .sum();
    if pool == 0 {
        f64::INFINITY
    } else {
        deleted as f64 / pool as f64
    }
}

// ---------------------------------------------------------------------------
// Frozen DPAlloc loop.
// ---------------------------------------------------------------------------

/// The escalation class as the live allocator chose it before its ratios
/// went exact: `work / bound` compared as `f64`, ties to the later class.
fn most_contended_class(
    graph: &SequencingGraph,
    latencies: &OpLatencies,
    bounds: &BTreeMap<ResourceClass, usize>,
    eligible: impl Fn(ResourceClass) -> bool,
) -> Option<ResourceClass> {
    let mut work: BTreeMap<ResourceClass, u64> = BTreeMap::new();
    for op in graph.op_ids() {
        let class = ResourceClass::for_kind(graph.operation(op).kind());
        *work.entry(class).or_insert(0) += u64::from(latencies.get(op));
    }
    work.into_iter()
        .filter(|&(c, _)| eligible(c))
        .max_by(|a, b| {
            let pa = a.1 as f64 / *bounds.get(&a.0).unwrap_or(&1).max(&1) as f64;
            let pb = b.1 as f64 / *bounds.get(&b.0).unwrap_or(&1).max(&1) as f64;
            pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(c, _)| c)
}

enum InnerFailure {
    NeedMoreResources(ResourceClass),
    Fatal(AllocError),
}

/// Runs the frozen pre-optimization heuristic and reports the same
/// [`AllocOutcome`] the optimized [`crate::DpAllocator`] must reproduce
/// bit for bit.
///
/// # Errors
///
/// Identical conditions to [`crate::DpAllocator::allocate_with_stats`].
pub fn allocate_with_stats(
    cost: &dyn CostModel,
    config: &AllocConfig,
    graph: &SequencingGraph,
) -> Result<AllocOutcome, AllocError> {
    let native = OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    let minimum = critical_path_length(graph, &native);
    if config.latency_constraint < minimum {
        return Err(AllocError::LatencyUnachievable {
            constraint: config.latency_constraint,
            minimum,
        });
    }

    // Per-class operation counts bound the escalation.
    let mut class_ops: BTreeMap<ResourceClass, usize> = BTreeMap::new();
    for op in graph.operations() {
        *class_ops
            .entry(ResourceClass::for_kind(op.kind()))
            .or_insert(0) += 1;
    }

    let user_bounds = config.resource_bounds.clone();
    let mut bounds: BTreeMap<ResourceClass, usize> = match &user_bounds {
        Some(b) => b.clone(),
        None => class_ops.keys().map(|&c| (c, 1)).collect(),
    };

    let mut escalations = 0usize;
    let mut total_refinements = 0usize;
    let max_escalations: usize = class_ops.values().sum::<usize>() + 1;

    for _ in 0..=max_escalations {
        match try_with_bounds(cost, config, graph, &bounds, &mut total_refinements) {
            Ok(datapath) => {
                let (datapath, merges) = if config.instance_merging {
                    let (merged, stats) =
                        merge_instances(&datapath, graph, cost, config.latency_constraint);
                    (merged, stats.merges)
                } else {
                    (datapath, 0)
                };
                return Ok(AllocOutcome {
                    datapath,
                    refinements: total_refinements,
                    bound_escalations: escalations,
                    merges,
                    resource_bounds: bounds,
                });
            }
            Err(InnerFailure::Fatal(e)) => return Err(e),
            Err(InnerFailure::NeedMoreResources(class)) => {
                if user_bounds.is_some() {
                    return Err(AllocError::InfeasibleResourceBounds { class });
                }
                let cap = class_ops.get(&class).copied().unwrap_or(1);
                let current = *bounds.entry(class).or_insert(1);
                if current >= cap {
                    let alternative = most_contended_class(graph, &native, &bounds, |c| {
                        bounds.get(&c).copied().unwrap_or(1)
                            < class_ops.get(&c).copied().unwrap_or(1)
                    });
                    match alternative {
                        Some(c) => {
                            *bounds.get_mut(&c).expect("class present") += 1;
                        }
                        None => {
                            return Err(AllocError::InfeasibleResourceBounds { class });
                        }
                    }
                } else {
                    *bounds.get_mut(&class).expect("class present") += 1;
                }
                escalations += 1;
            }
        }
    }
    Err(AllocError::EscalationBudgetExceeded { escalations })
}

/// The frozen per-bound-vector loop: rebuild candidate lists and membership
/// tables from scratch, clone the bound map into a fresh constraint, run a
/// full list schedule, bind, refine, repeat.
fn try_with_bounds(
    cost: &dyn CostModel,
    config: &AllocConfig,
    graph: &SequencingGraph,
    bounds: &BTreeMap<ResourceClass, usize>,
    refinements: &mut usize,
) -> Result<Datapath, InnerFailure> {
    let mut wcg = FrozenWcg::new(graph, cost);
    for op in graph.op_ids() {
        if wcg.resources_for(op).is_empty() {
            return Err(InnerFailure::Fatal(AllocError::UncoverableOperation(op)));
        }
    }
    let op_classes: Vec<ResourceClass> = graph
        .operations()
        .iter()
        .map(|o| ResourceClass::for_kind(o.kind()))
        .collect();

    for _ in 0..config.max_iterations {
        let upper = wcg.upper_bound_latencies();

        // Scheduling set S and the Eqn (3) constraint, rebuilt per iteration.
        let candidate_lists = wcg.op_candidate_lists();
        let members = scheduling_set(&candidate_lists);
        let member_classes: Vec<ResourceClass> =
            members.iter().map(|&r| wcg.resource(r).class()).collect();
        let op_members: Vec<Vec<usize>> = graph
            .op_ids()
            .map(|o| {
                members
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| wcg.has_edge(o, r))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        let constraint = SchedulingSetBound::new(
            op_classes.clone(),
            op_members,
            member_classes,
            bounds.clone(),
        );

        let schedule = match list_schedule(graph, &upper, constraint, config.priority) {
            Ok(s) => s,
            Err(SchedError::InfeasibleResourceBound { op }) => {
                return Err(InnerFailure::NeedMoreResources(op_classes[op.index()]));
            }
            Err(e) => return Err(InnerFailure::Fatal(e.into())),
        };

        wcg.attach_schedule(&schedule, &upper);
        let instances = bind_select(&wcg, config.bind_options).map_err(InnerFailure::Fatal)?;
        let datapath = Datapath::assemble(schedule.clone(), instances, cost);

        if datapath.latency() <= config.latency_constraint {
            return Ok(datapath);
        }

        // Constraint violated: refine wordlength information.
        let binding: Vec<usize> = graph.op_ids().map(|o| datapath.instance_of(o)).collect();
        let bound_latencies = datapath.bound_latencies(cost);
        let chosen = match config.refinement {
            RefinementPolicy::BoundCriticalPath => select_refinement_op(
                graph,
                &wcg,
                &schedule,
                &upper,
                &bound_latencies,
                &binding,
                config.latency_constraint,
            ),
            RefinementPolicy::FirstRefinable => graph.op_ids().find(|&o| wcg.refinable(o)),
        };
        match chosen {
            Some(op) => {
                *refinements += 1;
                wcg.refine_op(op);
                wcg.detach_schedule();
            }
            None => {
                let class = most_contended_class(graph, &bound_latencies, bounds, |_| true)
                    .unwrap_or(ResourceClass::Adder);
                return Err(InnerFailure::NeedMoreResources(class));
            }
        }
    }
    Err(InnerFailure::Fatal(AllocError::IterationBudgetExceeded {
        budget: config.max_iterations,
    }))
}

// ---------------------------------------------------------------------------
// Frozen merging pass.
// ---------------------------------------------------------------------------

/// One candidate merge of the frozen pass.
struct Candidate {
    members: Vec<usize>,
    merged: ResourceType,
    saving: Area,
}

/// The frozen pre-optimization merging pass: every surviving candidate pays
/// a full reschedule plus a fresh compatibility-graph rebuild for the chain
/// test.  Same accept/reject decisions as [`crate::merge_instances`].
#[must_use]
pub fn merge_instances(
    datapath: &Datapath,
    graph: &SequencingGraph,
    cost: &dyn CostModel,
    latency_constraint: Cycles,
) -> (Datapath, MergeStats) {
    let mut current = datapath.clone();
    let mut stats = MergeStats {
        merges: 0,
        area_before: datapath.area(),
        area_after: datapath.area(),
    };
    if current.latency() > latency_constraint {
        return (current, stats);
    }

    while let Some((next, merged_count)) = best_merge(&current, graph, cost, latency_constraint) {
        stats.merges += merged_count;
        current = next;
    }
    stats.area_after = current.area();
    (current, stats)
}

fn best_merge(
    current: &Datapath,
    graph: &SequencingGraph,
    cost: &dyn CostModel,
    latency_constraint: Cycles,
) -> Option<(Datapath, usize)> {
    let mut candidates = candidates(current.instances(), cost);
    candidates.sort_by_key(|c| std::cmp::Reverse(c.saving));
    candidates.into_iter().find_map(|candidate| {
        apply(current, &candidate, graph, cost, latency_constraint)
            .map(|dp| (dp, candidate.members.len() - 1))
    })
}

fn candidates(instances: &[ResourceInstance], cost: &dyn CostModel) -> Vec<Candidate> {
    let mut out = Vec::new();
    for i in 0..instances.len() {
        for j in (i + 1)..instances.len() {
            let ri = instances[i].resource();
            let rj = instances[j].resource();
            let Some(merged) = ri.component_max(&rj) else {
                continue;
            };
            let before = cost.area(&ri) + cost.area(&rj);
            let after = cost.area(&merged);
            if after < before {
                out.push(Candidate {
                    members: vec![i, j],
                    merged,
                    saving: before - after,
                });
            }
        }
    }
    for class_rep in 0..instances.len() {
        let class = instances[class_rep].resource().class();
        let members: Vec<usize> = (0..instances.len())
            .filter(|&k| instances[k].resource().class() == class)
            .collect();
        if members[0] != class_rep || members.len() <= 2 {
            continue;
        }
        let merged = members
            .iter()
            .map(|&k| instances[k].resource())
            .reduce(|a, b| a.component_max(&b).expect("same class"))
            .expect("members is non-empty");
        let before: Area = members
            .iter()
            .map(|&k| cost.area(&instances[k].resource()))
            .sum();
        let after = cost.area(&merged);
        if after < before {
            out.push(Candidate {
                members,
                merged,
                saving: before - after,
            });
        }
    }
    out
}

fn apply(
    current: &Datapath,
    candidate: &Candidate,
    graph: &SequencingGraph,
    cost: &dyn CostModel,
    latency_constraint: Cycles,
) -> Option<Datapath> {
    let mut merged_ops: Vec<OpId> = Vec::new();
    let mut instances: Vec<ResourceInstance> = Vec::new();
    for (k, inst) in current.instances().iter().enumerate() {
        if candidate.members.contains(&k) {
            merged_ops.extend_from_slice(inst.ops());
        } else {
            instances.push(inst.clone());
        }
    }
    instances.push(ResourceInstance::new(candidate.merged, merged_ops));

    let schedule = reschedule(graph, &instances, cost)?;
    let dp = Datapath::assemble(schedule, instances, cost);
    if dp.latency() > latency_constraint {
        return None;
    }

    // The chain test of the frozen pass: rebuild a compatibility graph over
    // the merged resource set and re-check every clique.
    let mut wcg = FrozenWcg::with_resources(
        graph,
        dp.instances().iter().map(|i| i.resource()).collect(),
        cost,
    );
    wcg.attach_schedule(dp.schedule(), &dp.bound_latencies(cost));
    if dp.instances().iter().any(|inst| !wcg.is_chain(inst.ops())) {
        return None;
    }
    Some(dp)
}

fn reschedule(
    graph: &SequencingGraph,
    instances: &[ResourceInstance],
    cost: &dyn CostModel,
) -> Option<Schedule> {
    let n = graph.len();
    let mut binding = vec![usize::MAX; n];
    for (k, inst) in instances.iter().enumerate() {
        for &op in inst.ops() {
            binding[op.index()] = k;
        }
    }
    if binding.contains(&usize::MAX) {
        return None;
    }
    let latencies = OpLatencies::from_fn(graph, |op| {
        cost.latency(&instances[binding[op.id().index()]].resource())
    });
    let constraint = PerInstanceExclusive::new(binding, instances.len());
    list_schedule(
        graph,
        &latencies,
        constraint,
        SchedulePriority::CriticalPath,
    )
    .ok()
}

// ---------------------------------------------------------------------------
// Frozen list scheduler (rescans every operation at every event).
// ---------------------------------------------------------------------------

/// The pre-rewrite list scheduler: at every control step it rebuilds the
/// ready list by scanning all operations and their predecessors, and finds
/// the next event by scanning all placed operations.  Its buffers are fresh
/// per call, as the live scheduler's were behind `ListScheduler::schedule`.
fn list_schedule<C: ResourceConstraint>(
    graph: &SequencingGraph,
    latencies: &OpLatencies,
    mut constraint: C,
    order: SchedulePriority,
) -> Result<Schedule, SchedError> {
    latencies.validate(graph)?;
    let n = graph.len();
    let mut priority = Vec::new();
    priority_values_into(
        graph,
        latencies,
        &mut priority,
        &mut Vec::new(),
        &mut Vec::new(),
    );
    let mut start: Vec<Option<Cycles>> = vec![None; n];
    let mut ready: Vec<OpId> = Vec::new();

    let mut scheduled = 0usize;
    let mut step: Cycles = 0;

    while scheduled < n {
        // Ready operations: unscheduled, all predecessors finished by `step`.
        ready.clear();
        ready.extend(
            graph
                .op_ids()
                .filter(|&o| start[o.index()].is_none())
                .filter(|&o| {
                    graph.predecessors(o).iter().all(|&p| {
                        start[p.index()]
                            .map(|s| s + latencies.get(p) <= step)
                            .unwrap_or(false)
                    })
                }),
        );
        match order {
            SchedulePriority::CriticalPath => {
                ready.sort_by_key(|&o| (std::cmp::Reverse(priority[o.index()]), o));
            }
            SchedulePriority::InputOrder => ready.sort_unstable(),
        }

        let mut placed_any = false;
        for &op in ready.iter() {
            let lat = latencies.get(op);
            if constraint.admits(op, step, lat) {
                constraint.commit(op, step, lat);
                start[op.index()] = Some(step);
                scheduled += 1;
                placed_any = true;
            }
        }

        if scheduled == n {
            break;
        }

        // Advance to the next event: the earliest completion strictly
        // after `step`, or `step + 1` if something was just placed (its
        // completion is such an event anyway).
        let next_event = graph
            .op_ids()
            .filter_map(|o| start[o.index()].map(|s| s + latencies.get(o)))
            .filter(|&e| e > step)
            .min();

        match next_event {
            Some(e) => step = e,
            None => {
                if placed_any {
                    step += 1;
                    continue;
                }
                let blocked = ready
                    .iter()
                    .copied()
                    .find(|&o| !constraint.admissible_at_all(o, latencies.get(o)))
                    .or_else(|| ready.first().copied())
                    .or_else(|| graph.op_ids().find(|&o| start[o.index()].is_none()))
                    .expect("some operation remains unscheduled");
                return Err(SchedError::InfeasibleResourceBound { op: blocked });
            }
        }
    }

    Ok(Schedule::from_vec(
        start.iter().map(|s| s.unwrap_or(0)).collect(),
    ))
}

/// Longest path from each operation to any sink, including the operation's
/// own latency, by an iterative post-order walk over the successor lists.
/// In a DAG a gray (expanded, unfinished) node can never be a successor of
/// the node being finished, so every successor's value is final when read.
fn priority_values_into(
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
                    // A duplicate of an already-finished node (pushed white
                    // by two parents before its first expansion).
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpalloc::DpAllocator;
    use mwl_model::SonicCostModel;
    use mwl_tgff::{TgffConfig, TgffGenerator};

    /// The oracle agrees with the live allocator on a quick sample (the
    /// exhaustive identity proptest lives in `tests/optimization_identity.rs`).
    #[test]
    fn oracle_matches_live_allocator() {
        let cost = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 2024);
        for i in 0..8 {
            let g = generator.generate();
            let native = OpLatencies::from_fn(&g, |op| cost.native_latency(op.shape()));
            let lambda = critical_path_length(&g, &native) + (i % 4) * 3;
            for merging in [true, false] {
                let config = AllocConfig::new(lambda).with_instance_merging(merging);
                let frozen = allocate_with_stats(&cost, &config, &g);
                let live = DpAllocator::new(&cost, config).allocate_with_stats(&g);
                assert_eq!(frozen, live, "seeded graph {i} merging {merging}");
            }
        }
    }
}

//! Algorithm *DPAlloc*: the top-level iterative-refinement heuristic.
//!
//! The reproduction of the paper's Section 2.2 pseudo-code: starting from
//! the full wordlength compatibility graph, repeatedly (1) list-schedule
//! under the Eqn (3) scheduling-set constraint, (2) bind with `BindSelect`,
//! and (3) refine the compatibility graph by deleting wordlength edges of
//! the operation with the largest latency slack, until refinement can no
//! longer improve the bound area without violating the latency constraint
//! `λ`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::bind::{bind_select_with_scratch, materialize_instances, BindSelectOptions};
use crate::datapath::Datapath;
use crate::error::AllocError;
use crate::merge::merge_instances_with_scratch;
use crate::refine::select_refinement_op_with_scratch;
use crate::replay::{Decision, Lookup};
use crate::scratch::{with_warm_scratch, AllocScratch};
use mwl_model::{CostModel, Cycles, OpId, ResourceClass, SequencingGraph};
use mwl_obs::Stage;
use mwl_sched::{
    critical_path_length, scheduling_set_with_scratch, ListScheduler, OpLatencies, SchedError,
    SchedulePriority,
};
use mwl_wcg::WordlengthCompatibilityGraph;

/// How the allocator chooses the operation whose wordlength information is
/// refined when the latency constraint is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RefinementPolicy {
    /// The paper's rule: pick from the bound critical path the candidate that
    /// loses the smallest proportion of wordlength edges.
    #[default]
    BoundCriticalPath,
    /// Ablation: refine the first (lowest-id) operation that can still be
    /// refined, ignoring criticality.
    FirstRefinable,
}

/// Configuration of [`DpAllocator`].
#[derive(Debug, Clone)]
pub struct AllocConfig {
    /// The user-specified overall latency constraint `λ` in control steps.
    pub latency_constraint: Cycles,
    /// Optional per-class resource bounds `N_y`.  When `None` (the default)
    /// the allocator searches for minimal bounds itself, starting from one
    /// unit per class and escalating only when necessary.
    pub resource_bounds: Option<BTreeMap<ResourceClass, usize>>,
    /// Ready-list priority used by the list scheduler.
    pub priority: SchedulePriority,
    /// Binding options (clique growth on/off).
    pub bind_options: BindSelectOptions,
    /// Refinement candidate selection policy.
    pub refinement: RefinementPolicy,
    /// Run the post-bind instance-merging pass (see [`crate::merge`]) on the
    /// feasible datapath, coalescing same-class instances onto widened shared
    /// units whenever that strictly reduces area within `λ`.  Defaults to
    /// `true`; disable for ablation against the paper's split-only loop.
    pub instance_merging: bool,
    /// Safety budget on the number of schedule/bind/refine iterations per
    /// resource-bound configuration.
    pub max_iterations: usize,
    /// Tie-break salt for the instance-merging pass.  `0` (the default)
    /// keeps the deterministic enumeration order among equal-saving merge
    /// candidates; any non-zero value deterministically shuffles that tie
    /// order — the "merge-order shuffle" axis of the portfolio search
    /// (see [`crate::portfolio`]).  Candidates with distinct savings are
    /// unaffected, so the pass stays greedy on area either way.
    pub merge_salt: u64,
}

impl AllocConfig {
    /// Creates a configuration with the given latency constraint and the
    /// paper's default behaviour everywhere else.
    #[must_use]
    pub fn new(latency_constraint: Cycles) -> Self {
        AllocConfig {
            latency_constraint,
            resource_bounds: None,
            priority: SchedulePriority::CriticalPath,
            bind_options: BindSelectOptions::default(),
            refinement: RefinementPolicy::default(),
            instance_merging: true,
            max_iterations: 10_000,
            merge_salt: 0,
        }
    }

    /// Sets explicit per-class resource bounds `N_y`.
    #[must_use]
    pub fn with_resource_bounds(mut self, bounds: BTreeMap<ResourceClass, usize>) -> Self {
        self.resource_bounds = Some(bounds);
        self
    }

    /// Sets the list-scheduling priority.
    #[must_use]
    pub fn with_priority(mut self, priority: SchedulePriority) -> Self {
        self.priority = priority;
        self
    }

    /// Enables or disables the BindSelect clique-growth step.
    #[must_use]
    pub fn with_clique_growth(mut self, enabled: bool) -> Self {
        self.bind_options.grow_cliques = enabled;
        self
    }

    /// Sets the refinement policy.
    #[must_use]
    pub fn with_refinement(mut self, policy: RefinementPolicy) -> Self {
        self.refinement = policy;
        self
    }

    /// Enables or disables the post-bind instance-merging pass.
    #[must_use]
    pub fn with_instance_merging(mut self, enabled: bool) -> Self {
        self.instance_merging = enabled;
        self
    }
}

/// Statistics gathered while allocating, returned by
/// [`DpAllocator::allocate_with_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The feasible datapath.
    pub datapath: Datapath,
    /// Number of wordlength-refinement iterations performed.
    pub refinements: usize,
    /// Number of times the per-class resource bounds had to be escalated
    /// (always 0 when bounds were supplied by the user).
    pub bound_escalations: usize,
    /// Number of instance merges accepted by the post-bind merging pass
    /// (always 0 when [`AllocConfig::instance_merging`] is disabled).
    pub merges: usize,
    /// The per-class resource bounds in effect for the returned solution.
    pub resource_bounds: BTreeMap<ResourceClass, usize>,
}

/// The heuristic allocator (`Algorithm DPAlloc` in the paper).
#[derive(Debug)]
pub struct DpAllocator<'a> {
    cost: &'a dyn CostModel,
    config: AllocConfig,
}

enum InnerFailure {
    /// The current bounds admit no feasible solution; escalate the bound of
    /// this class if allowed.
    NeedMoreResources(ResourceClass),
    /// A hard error independent of the bounds.
    Fatal(AllocError),
}

impl<'a> DpAllocator<'a> {
    /// Creates an allocator over the given cost model and configuration.
    #[must_use]
    pub fn new(cost: &'a dyn CostModel, config: AllocConfig) -> Self {
        DpAllocator { cost, config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AllocConfig {
        &self.config
    }

    /// Runs the heuristic and returns the allocated datapath.
    ///
    /// Solves on this thread's warm [`AllocScratch`] ([`with_warm_scratch`]):
    /// the scratch lives as long as the thread, keeps the buffers of the
    /// largest job it has solved, and has its stage recorder reset when the
    /// call returns it.  The result is the one a fresh scratch gives.
    ///
    /// # Errors
    ///
    /// * [`AllocError::LatencyUnachievable`] when `λ` is below the graph's
    ///   critical path even with every operation at its fastest wordlength;
    /// * [`AllocError::InfeasibleResourceBounds`] when user-supplied bounds
    ///   admit no solution;
    /// * [`AllocError::UncoverableOperation`] /
    ///   [`AllocError::Schedule`] for malformed inputs.
    pub fn allocate(&self, graph: &SequencingGraph) -> Result<Datapath, AllocError> {
        self.allocate_with_stats(graph).map(|o| o.datapath)
    }

    /// Runs the heuristic and additionally reports iteration statistics,
    /// on this thread's warm scratch like [`allocate`](Self::allocate).
    ///
    /// # Errors
    ///
    /// Same conditions as [`allocate`](Self::allocate).
    pub fn allocate_with_stats(&self, graph: &SequencingGraph) -> Result<AllocOutcome, AllocError> {
        with_warm_scratch(|scratch| self.allocate_with_scratch(graph, scratch))
    }

    /// Runs the heuristic through a caller-owned [`AllocScratch`], reusing
    /// its buffers across jobs — the steady-state entry point of the batch
    /// driver and the daemon, whose workers each solve on one scratch.  The
    /// result is bit-identical to
    /// [`allocate_with_stats`](Self::allocate_with_stats) regardless of what
    /// the scratch was previously used for.
    ///
    /// # Errors
    ///
    /// Same conditions as [`allocate`](Self::allocate).
    pub fn allocate_with_scratch(
        &self,
        graph: &SequencingGraph,
        scratch: &mut AllocScratch,
    ) -> Result<AllocOutcome, AllocError> {
        scratch.memo.clear();
        let native = OpLatencies::from_fn(graph, |op| self.cost.native_latency(op.shape()));
        let minimum = critical_path_length(graph, &native);
        if self.config.latency_constraint < minimum {
            return Err(AllocError::LatencyUnachievable {
                constraint: self.config.latency_constraint,
                minimum,
            });
        }

        // The compatibility graph depends only on the graph and cost model,
        // not on the resource bounds: build it once per job, snapshot the
        // unrefined tables, and let each escalation round restore the
        // snapshot instead of re-deriving the graph.
        scratch.wcg.rebuild(graph, self.cost);
        scratch.wcg.snapshot_pristine();
        scratch.wcg.prune_bind_candidates();
        for op in graph.op_ids() {
            if scratch.wcg.candidates(op).next().is_none() {
                return Err(AllocError::UncoverableOperation(op));
            }
        }
        scratch.op_classes.clear();
        scratch.op_classes.extend(
            graph
                .operations()
                .iter()
                .map(|o| ResourceClass::for_kind(o.kind())),
        );

        // Per-class operation counts bound the escalation.
        let mut class_ops: BTreeMap<ResourceClass, usize> = BTreeMap::new();
        for op in graph.operations() {
            *class_ops
                .entry(ResourceClass::for_kind(op.kind()))
                .or_insert(0) += 1;
        }

        let user_bounds = self.config.resource_bounds.clone();
        let mut bounds: BTreeMap<ResourceClass, usize> = match &user_bounds {
            Some(b) => b.clone(),
            None => class_ops.keys().map(|&c| (c, 1)).collect(),
        };

        let mut escalations = 0usize;
        let mut total_refinements = 0usize;
        let max_escalations: usize = class_ops.values().sum::<usize>() + 1;

        for _ in 0..=max_escalations {
            match self.try_with_bounds(graph, &bounds, &mut total_refinements, scratch) {
                Ok(datapath) => {
                    let (datapath, merges) = if self.config.instance_merging {
                        let timer = scratch.obs.start();
                        let (merged, stats) = merge_instances_with_scratch(
                            &datapath,
                            graph,
                            self.cost,
                            self.config.latency_constraint,
                            self.config.merge_salt,
                            &mut scratch.merge,
                        );
                        scratch.obs.stop(Stage::Merge, timer);
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
                        // Escalate the most contended other class that is
                        // still below its cap, not the first in map order.
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
        // Unreachable for well-formed inputs: the loop runs one more round
        // than there are possible escalations, so some arm above must return
        // first.  Report the *escalation* budget honestly rather than
        // misattributing the failure to the refinement iteration budget.
        Err(AllocError::EscalationBudgetExceeded { escalations })
    }

    /// One full run of the paper's `while` loop for a fixed resource-bound
    /// vector: schedule with upper bounds, bind, check the constraint,
    /// refine, repeat.
    ///
    /// The loop is engineered around the scratch workspace so that its
    /// steady state performs no allocation work proportional to the
    /// iteration count: upper bounds and per-resource cover rows are read
    /// straight from the compatibility graph's incrementally-maintained
    /// tables, the scheduling-set membership rows are rewritten in place —
    /// and only for the one operation whose edges the previous refinement
    /// deleted, when the scheduling set itself is unchanged — and the
    /// Eqn (3) constraint and list scheduler reuse their buffers across
    /// iterations.  Decisions are bit-identical to the frozen
    /// [`crate::reference`] loop.
    ///
    /// An iteration whose `H` edge set an earlier escalation round of the
    /// same call already solved is replayed from the scratch's memo when the
    /// bounds raised since cannot change its schedule (see
    /// [`crate::replay`]): its refinement or stall is applied without
    /// scheduling, binding or selecting, and its time is charged to
    /// [`Stage::Refine`].  When the bounds do stop a replay, the memo still
    /// supplies that `H`'s scheduling set, which depends on `H` alone.
    fn try_with_bounds(
        &self,
        graph: &SequencingGraph,
        bounds: &BTreeMap<ResourceClass, usize>,
        refinements: &mut usize,
        scratch: &mut AllocScratch,
    ) -> Result<Datapath, InnerFailure> {
        scratch.wcg.restore_pristine();
        let mut dense_bounds = [None; ResourceClass::COUNT];
        for (&class, &bound) in bounds {
            dense_bounds[class.index()] = Some(bound);
        }
        scratch
            .constraint
            .reset_problem(&scratch.op_classes, dense_bounds);
        let mut members_valid = false;
        let mut last_refined: Option<OpId> = None;

        for _ in 0..self.config.max_iterations {
            let sched_timer = scratch.obs.start();
            // Scheduling set S and the Eqn (3) constraint.  The cover comes
            // from the memo when this `H` was seen before, and is otherwise
            // solved from the maintained `O(r)` column bitsets; membership
            // rows are rebuilt only where refinement invalidated them.
            match scratch
                .memo
                .lookup(scratch.wcg.resource_columns(), &dense_bounds)
            {
                Lookup::Replay(Decision::Refine(op)) => {
                    *refinements += 1;
                    scratch.wcg.refine_op(op);
                    // The skipped iteration left the cover and rows behind.
                    members_valid = false;
                    scratch.obs.stop(Stage::Refine, sched_timer);
                    continue;
                }
                Lookup::Replay(Decision::Stall(class)) => {
                    scratch.obs.stop(Stage::Refine, sched_timer);
                    return Err(InnerFailure::NeedMoreResources(class));
                }
                Lookup::Cover(cover) => {
                    scratch.cover.clear();
                    scratch.cover.extend_from_slice(cover);
                }
                Lookup::Miss => scheduling_set_with_scratch(
                    graph.len(),
                    scratch.wcg.resource_columns(),
                    &mut scratch.cover_scratch,
                    &mut scratch.cover,
                ),
            }
            scratch
                .upper
                .copy_from_slice(scratch.wcg.upper_bound_slice());

            if !members_valid || scratch.cover != scratch.prev_cover {
                scratch.constraint.set_members(
                    scratch
                        .cover
                        .iter()
                        .map(|&r| scratch.wcg.resource(r).class()),
                );
                for op in graph.op_ids() {
                    scratch
                        .constraint
                        .set_row(op, member_positions(&scratch.wcg, op, &scratch.cover));
                }
                scratch.prev_cover.clone_from(&scratch.cover);
                members_valid = true;
            } else if let Some(op) = last_refined {
                scratch
                    .constraint
                    .set_row(op, member_positions(&scratch.wcg, op, &scratch.cover));
            }
            scratch.constraint.reset_loads();

            let schedule = match ListScheduler::new(self.config.priority).schedule_with_scratch(
                graph,
                &scratch.upper,
                &mut scratch.constraint,
                &mut scratch.sched,
            ) {
                Ok(s) => s,
                Err(SchedError::InfeasibleResourceBound { op }) => {
                    let class = scratch.op_classes[op.index()];
                    scratch.memo.record(
                        scratch.wcg.resource_columns(),
                        &dense_bounds,
                        scratch.constraint.bound_rejections(),
                        Decision::Stall(class),
                        &scratch.cover,
                    );
                    return Err(InnerFailure::NeedMoreResources(class));
                }
                Err(e) => return Err(InnerFailure::Fatal(e.into())),
            };
            scratch.obs.stop(Stage::Schedule, sched_timer);

            let bind_timer = scratch.obs.start();
            scratch.wcg.attach_schedule(&schedule, &scratch.upper);
            let num_cliques =
                bind_select_with_scratch(&scratch.wcg, self.config.bind_options, &mut scratch.bind)
                    .map_err(InnerFailure::Fatal)?;
            // Binding and bound-latency tables straight from the pooled
            // cliques; `ResourceInstance`s and the full datapath are
            // materialised only for the feasible iteration.  `BindSelect`
            // covers every operation, so both tables are fully overwritten.
            scratch.binding.clear();
            scratch.binding.resize(graph.len(), usize::MAX);
            scratch.bound.copy_from_slice(scratch.upper.as_slice());
            for k in 0..num_cliques {
                // `resource_latency` is the same cost model's answer, cached
                // in the graph's flat table at rebuild.
                let latency = scratch.wcg.resource_latency(scratch.bind.clique_res[k]);
                for &op in &scratch.bind.clique_ops[k] {
                    scratch.binding[op.index()] = k;
                    scratch.bound.set(op, latency);
                }
            }
            let latency = schedule.makespan(&scratch.bound);
            scratch.obs.stop(Stage::Bind, bind_timer);

            if latency <= self.config.latency_constraint {
                let instances = materialize_instances(&scratch.wcg, &scratch.bind);
                return Ok(Datapath::assemble(schedule, instances, self.cost));
            }

            // Constraint violated: refine wordlength information.
            let refine_timer = scratch.obs.start();
            let chosen = match self.config.refinement {
                RefinementPolicy::BoundCriticalPath => select_refinement_op_with_scratch(
                    graph,
                    &scratch.wcg,
                    &schedule,
                    &scratch.upper,
                    &scratch.bound,
                    &scratch.binding,
                    self.config.latency_constraint,
                    &mut scratch.refine,
                ),
                RefinementPolicy::FirstRefinable => {
                    graph.op_ids().find(|&o| scratch.wcg.refinable(o))
                }
            };
            match chosen {
                Some(op) => {
                    scratch.memo.record(
                        scratch.wcg.resource_columns(),
                        &dense_bounds,
                        scratch.constraint.bound_rejections(),
                        Decision::Refine(op),
                        &scratch.cover,
                    );
                    *refinements += 1;
                    scratch.wcg.refine_op(op);
                    scratch.wcg.detach_schedule();
                    last_refined = Some(op);
                    scratch.obs.stop(Stage::Refine, refine_timer);
                }
                None => {
                    // Fully refined and still over the constraint: more
                    // resources are needed.  Escalate the class whose
                    // operations are the most serialised under the current
                    // bounds.
                    let class = most_contended_class(graph, &scratch.bound, bounds, |_| true)
                        .unwrap_or(ResourceClass::Adder);
                    return Err(InnerFailure::NeedMoreResources(class));
                }
            }
        }
        Err(InnerFailure::Fatal(AllocError::IterationBudgetExceeded {
            budget: self.config.max_iterations,
        }))
    }
}

/// Positions `j` within the scheduling set `cover` whose resource keeps an
/// `H` edge to the operation — the membership row `S(o)`, one bit probe of
/// the operation's row per scheduling-set member.
fn member_positions<'a>(
    wcg: &'a WordlengthCompatibilityGraph,
    op: OpId,
    cover: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    cover
        .iter()
        .enumerate()
        .filter(move |&(_, &resource)| wcg.has_edge(op, resource))
        .map(|(j, _)| j)
}

/// The eligible class with the largest total workload per allowed resource —
/// the one whose bound most limits the achievable latency, and therefore the
/// best candidate for a bound escalation.
///
/// `latencies` is the per-operation workload (typically the bound or native
/// latency table) and `bounds` the per-class unit counts currently allowed.
/// Classes for which `eligible` returns `false` (e.g. classes already at
/// their escalation cap) are skipped; returns `None` when no class is
/// eligible.  Of classes tied on workload per resource, the later one wins.
///
/// The ratios `work / bound` are compared exactly, as `u128` cross products.
/// The frozen [`crate::reference`] compares `f64` quotients instead; the two
/// orders agree while both cross products stay below 2^52.  Two distinct
/// ratios then differ by at least `1 / (ba·bb)`, more than the two
/// quotients' half-ulp rounding errors together, and equal ratios round to
/// the same double.  Workloads are sums of per-operation latencies and
/// bounds are unit counts, so that needs, e.g., a workload under 2^32
/// cycles and bounds under 2^20 units, far above any graph the allocator is
/// run on.
pub fn most_contended_class(
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
    let bound = |class| (*bounds.get(&class).unwrap_or(&1)).max(1) as u128;
    work.into_iter()
        .filter(|&(c, _)| eligible(c))
        .max_by(|a, b| (u128::from(a.1) * bound(b.0)).cmp(&(u128::from(b.1) * bound(a.0))))
        .map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
    use mwl_tgff::{TgffConfig, TgffGenerator};

    fn cost() -> SonicCostModel {
        SonicCostModel::default()
    }

    fn lambda_min(graph: &SequencingGraph) -> Cycles {
        let c = cost();
        let native = OpLatencies::from_fn(graph, |op| c.native_latency(op.shape()));
        critical_path_length(graph, &native)
    }

    /// Adders carrying 6 cycles over 2 units tie exactly with a multiplier
    /// carrying 3 over 1; the tie goes to the later class, not to the
    /// larger workload.
    #[test]
    fn most_contended_class_breaks_an_exact_tie_toward_the_later_class() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::adder(8));
        b.add_operation(OpShape::adder(8));
        b.add_operation(OpShape::multiplier(8, 8));
        let g = b.build().unwrap();
        let latencies = OpLatencies::from_vec(vec![3, 3, 3]);
        let bounds = BTreeMap::from([(ResourceClass::Adder, 2), (ResourceClass::Multiplier, 1)]);
        let contended = most_contended_class(&g, &latencies, &bounds, |_| true);
        assert_eq!(contended, Some(ResourceClass::Multiplier));
        let adders_only =
            most_contended_class(&g, &latencies, &bounds, |c| c == ResourceClass::Adder);
        assert_eq!(adders_only, Some(ResourceClass::Adder));
    }

    /// A small graph with sharing opportunities: two independent
    /// multiplications of different sizes feeding an adder.
    fn sample() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m1 = b.add_operation(OpShape::multiplier(8, 8));
        let m2 = b.add_operation(OpShape::multiplier(16, 12));
        let a = b.add_operation(OpShape::adder(24));
        b.add_dependency(m1, a).unwrap();
        b.add_dependency(m2, a).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn allocation_respects_latency_constraint() {
        let g = sample();
        let c = cost();
        let lmin = lambda_min(&g);
        for slack in [0, 2, 5, 10] {
            let dp = DpAllocator::new(&c, AllocConfig::new(lmin + slack))
                .allocate(&g)
                .unwrap();
            assert!(dp.latency() <= lmin + slack);
            dp.validate(&g, &c).unwrap();
        }
    }

    #[test]
    fn unachievable_constraint_is_rejected() {
        let g = sample();
        let c = cost();
        let lmin = lambda_min(&g);
        let err = DpAllocator::new(&c, AllocConfig::new(lmin - 1))
            .allocate(&g)
            .unwrap_err();
        assert_eq!(
            err,
            AllocError::LatencyUnachievable {
                constraint: lmin - 1,
                minimum: lmin
            }
        );
    }

    #[test]
    fn relaxed_constraint_shares_multiplier() {
        // With plenty of slack the two multiplications share one large
        // multiplier; with the minimum latency they need two.
        let g = sample();
        let c = cost();
        let lmin = lambda_min(&g);
        let tight = DpAllocator::new(&c, AllocConfig::new(lmin))
            .allocate(&g)
            .unwrap();
        let relaxed = DpAllocator::new(&c, AllocConfig::new(lmin + 8))
            .allocate(&g)
            .unwrap();
        assert!(relaxed.area() <= tight.area());
        let mul_instances = |dp: &Datapath| {
            dp.instances()
                .iter()
                .filter(|i| i.resource().class() == ResourceClass::Multiplier)
                .count()
        };
        assert_eq!(mul_instances(&relaxed), 1);
        assert!(mul_instances(&tight) >= 1);
    }

    #[test]
    fn stats_report_bounds_and_refinements() {
        let g = sample();
        let c = cost();
        let lmin = lambda_min(&g);
        let outcome = DpAllocator::new(&c, AllocConfig::new(lmin))
            .allocate_with_stats(&g)
            .unwrap();
        assert!(outcome
            .resource_bounds
            .contains_key(&ResourceClass::Multiplier));
        outcome.datapath.validate(&g, &c).unwrap();
        // A tight constraint requires at least one refinement or escalation.
        assert!(outcome.refinements + outcome.bound_escalations > 0);
    }

    #[test]
    fn user_bounds_are_respected_or_rejected() {
        let g = sample();
        let c = cost();
        let lmin = lambda_min(&g);
        // Generous bounds: fine.
        let generous = BTreeMap::from([(ResourceClass::Multiplier, 2), (ResourceClass::Adder, 1)]);
        let dp = DpAllocator::new(
            &c,
            AllocConfig::new(lmin).with_resource_bounds(generous.clone()),
        )
        .allocate(&g)
        .unwrap();
        dp.validate(&g, &c).unwrap();
        assert!(
            dp.instances()
                .iter()
                .filter(|i| i.resource().class() == ResourceClass::Multiplier)
                .count()
                <= 2
        );
        // One multiplier at the minimum latency: infeasible (the two
        // multiplications cannot serialise within λ_min).
        let stingy = BTreeMap::from([(ResourceClass::Multiplier, 1), (ResourceClass::Adder, 1)]);
        let err = DpAllocator::new(&c, AllocConfig::new(lmin).with_resource_bounds(stingy))
            .allocate(&g)
            .unwrap_err();
        assert!(matches!(err, AllocError::InfeasibleResourceBounds { .. }));
    }

    #[test]
    fn single_operation_graph() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::multiplier(25, 25));
        let g = b.build().unwrap();
        let c = cost();
        let dp = DpAllocator::new(&c, AllocConfig::new(7))
            .allocate(&g)
            .unwrap();
        assert_eq!(dp.num_instances(), 1);
        assert_eq!(dp.area(), 625);
        assert_eq!(dp.latency(), 7);
        dp.validate(&g, &c).unwrap();
    }

    #[test]
    fn random_graphs_always_validate_and_meet_constraint() {
        let c = cost();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 2025);
        for i in 0..15 {
            let g = generator.generate();
            let lmin = lambda_min(&g);
            let relax = (i % 4) as u32 * 2;
            let config = AllocConfig::new(lmin + relax);
            let dp = DpAllocator::new(&c, config).allocate(&g).unwrap();
            dp.validate(&g, &c).unwrap();
            assert!(dp.latency() <= lmin + relax);
        }
    }

    #[test]
    fn refinement_policies_both_produce_valid_solutions() {
        let c = cost();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(8), 404);
        for _ in 0..5 {
            let g = generator.generate();
            let lmin = lambda_min(&g);
            for policy in [
                RefinementPolicy::BoundCriticalPath,
                RefinementPolicy::FirstRefinable,
            ] {
                let dp = DpAllocator::new(&c, AllocConfig::new(lmin + 2).with_refinement(policy))
                    .allocate(&g)
                    .unwrap();
                dp.validate(&g, &c).unwrap();
                assert!(dp.latency() <= lmin + 2);
            }
        }
    }

    #[test]
    fn growth_disabled_still_valid() {
        let c = cost();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 91);
        for _ in 0..8 {
            let g = generator.generate();
            let lam = lambda_min(&g) + 3;
            let with = DpAllocator::new(&c, AllocConfig::new(lam))
                .allocate(&g)
                .unwrap();
            let without = DpAllocator::new(&c, AllocConfig::new(lam).with_clique_growth(false))
                .allocate(&g)
                .unwrap();
            with.validate(&g, &c).unwrap();
            without.validate(&g, &c).unwrap();
        }
    }

    #[test]
    fn config_accessors() {
        let c = cost();
        let config = AllocConfig::new(9)
            .with_priority(SchedulePriority::InputOrder)
            .with_clique_growth(false)
            .with_refinement(RefinementPolicy::FirstRefinable)
            .with_instance_merging(false);
        let alloc = DpAllocator::new(&c, config);
        assert_eq!(alloc.config().latency_constraint, 9);
        assert_eq!(alloc.config().priority, SchedulePriority::InputOrder);
        assert!(!alloc.config().bind_options.grow_cliques);
        assert_eq!(alloc.config().refinement, RefinementPolicy::FirstRefinable);
        assert!(!alloc.config().instance_merging);
        assert!(AllocConfig::new(9).instance_merging, "merging defaults on");
    }

    #[test]
    fn instance_merging_never_worse_and_reports_merges() {
        let c = cost();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(12), 606);
        let mut merged_somewhere = false;
        for i in 0..10 {
            let g = generator.generate();
            let lam = lambda_min(&g) + 4 + (i % 3) * 6;
            let on = DpAllocator::new(&c, AllocConfig::new(lam))
                .allocate_with_stats(&g)
                .unwrap();
            let off = DpAllocator::new(&c, AllocConfig::new(lam).with_instance_merging(false))
                .allocate_with_stats(&g)
                .unwrap();
            on.datapath.validate(&g, &c).unwrap();
            off.datapath.validate(&g, &c).unwrap();
            assert!(on.datapath.area() <= off.datapath.area());
            assert!(on.datapath.latency() <= lam);
            assert_eq!(off.merges, 0);
            merged_somewhere |= on.merges > 0;
        }
        assert!(
            merged_somewhere,
            "the pass should fire on at least one loose-budget graph"
        );
    }
}

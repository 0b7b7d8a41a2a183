//! The reusable allocation workspace behind the optimized `DPAlloc` loop.
//!
//! One [`AllocScratch`] holds every growable table the allocator's inner
//! loop needs — dense class tables, the scheduling-set cover and membership
//! rows, the Eqn (3) constraint's load profiles, the list scheduler's
//! working buffers and the merge pass's lower-bound tables — so that the
//! steady state of [`crate::DpAllocator::allocate_with_scratch`] performs no
//! per-iteration allocations.
//!
//! Every thread owns one warm scratch that [`with_warm_scratch`] lends out:
//! [`crate::DpAllocator::allocate`], the inline portfolio race and the
//! batch driver's worker loop solve on it, so a scratch lives as long as
//! its thread and a call starts on the buffers the thread's earlier calls
//! grew.  The buffers keep the size of the largest job the thread has
//! solved; nothing shrinks them.
//!
//! A scratch carries no result state between calls (its iteration memo is
//! cleared at the start of every call): allocating through a
//! fresh scratch and a reused one is guaranteed bit-identical (that is what
//! the determinism of the batch driver rests on, and what
//! `tests/optimization_identity.rs` pins against the frozen
//! [`crate::reference`] implementation).

use std::cell::Cell;

use mwl_model::{Cycles, OpId, ResourceClass};
use mwl_sched::{
    CoverScratch, OpLatencies, PerInstanceExclusive, SchedScratch, SchedulingSetBound,
};
use mwl_wcg::{ChainScratch, WordlengthCompatibilityGraph};

/// Reusable buffers for one allocator worker (see the module docs).
///
/// A caller-owned scratch serves whoever passes it; the one each thread
/// keeps warm is reached through [`with_warm_scratch`].
///
/// # Examples
///
/// ```
/// use mwl_core::{AllocConfig, AllocScratch, DpAllocator};
/// use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SequencingGraphBuilder::new();
/// b.add_operation(OpShape::multiplier(8, 8));
/// let graph = b.build()?;
///
/// let cost = SonicCostModel::default();
/// let mut scratch = AllocScratch::new();
/// // Reuse the same scratch across any number of jobs.
/// for lambda in [2, 4, 8] {
///     let outcome = DpAllocator::new(&cost, AllocConfig::new(lambda))
///         .allocate_with_scratch(&graph, &mut scratch)?;
///     assert!(outcome.datapath.latency() <= lambda);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// Resource class per operation of the current graph.
    pub(crate) op_classes: Vec<ResourceClass>,
    /// Latency upper bounds `L_o` of the current iteration.
    pub(crate) upper: OpLatencies,
    /// Scheduling set of the current iteration (resource indices).
    pub(crate) cover: Vec<usize>,
    /// Scheduling set of the previous iteration — rows are rebuilt only when
    /// the two differ.
    pub(crate) prev_cover: Vec<usize>,
    /// Set-cover working buffers.
    pub(crate) cover_scratch: CoverScratch,
    /// The Eqn (3) constraint with its load profiles and membership rows.
    pub(crate) constraint: SchedulingSetBound,
    /// List-scheduler working buffers.
    pub(crate) sched: SchedScratch,
    /// Instance index per operation (refinement input).
    pub(crate) binding: Vec<usize>,
    /// Bound latency `ℓ(o)` per operation of the current binding — the
    /// latency table the feasibility check and the refinement rule read,
    /// computed straight from the `BindSelect` cliques so the full
    /// [`crate::Datapath`] is assembled only for the feasible iteration.
    pub(crate) bound: OpLatencies,
    /// The compatibility-graph workspace, rebuilt in place per
    /// bound-escalation attempt.
    pub(crate) wcg: WordlengthCompatibilityGraph,
    /// `BindSelect` working buffers.
    pub(crate) bind: BindScratch,
    /// Refinement-rule working buffers (bound critical path, tiers).
    pub(crate) refine: crate::refine::RefineScratch,
    /// Merge-pass tables.
    pub(crate) merge: MergeScratch,
    /// Iterations of the current call, replayed across bound escalations.
    pub(crate) memo: crate::replay::IterationMemo,
    /// Stage-level telemetry recorder.  Off by default; the driving layer
    /// switches it on and drains it *between* jobs — nothing it measures is
    /// ever read back by the allocator, so recording cannot perturb results
    /// (pinned by the observability identity suites).
    pub obs: mwl_obs::StageRecorder,
}

impl AllocScratch {
    /// Creates an empty workspace; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule/bind/refine iterations the most recent
    /// [`crate::DpAllocator::allocate_with_scratch`] call replayed from
    /// earlier escalation rounds of the same call instead of solving them.
    /// Like [`obs`](Self::obs), a count beside the results: replay leaves
    /// every decision unchanged.
    #[must_use]
    pub fn replayed_iterations(&self) -> usize {
        self.memo.replayed()
    }

    /// Iterations of the most recent
    /// [`crate::DpAllocator::allocate_with_scratch`] call that took their
    /// scheduling set from an earlier iteration on the same `H` (one whose
    /// decision could not be replayed) instead of solving the cover.  A
    /// count beside the results, like
    /// [`replayed_iterations`](Self::replayed_iterations).
    #[must_use]
    pub fn reused_covers(&self) -> usize {
        self.memo.reused_covers()
    }

    /// Number of resource types `BindSelect` scans for the graph this
    /// scratch last built — the types no cheaper, no slower type with a
    /// superset column dominates (see
    /// [`WordlengthCompatibilityGraph::prune_bind_candidates`]).  A count
    /// beside the results: the allocator never reads it back.
    #[must_use]
    pub fn bind_candidates(&self) -> usize {
        self.wcg.bind_candidates().len()
    }
}

thread_local! {
    /// This thread's warm scratch; empty while it is lent out.
    static WARM: Cell<Option<AllocScratch>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's warm [`AllocScratch`].
///
/// The scratch is taken out of the thread's slot for the call, so a nested
/// call finds the slot empty and runs on a fresh scratch of its own.  On
/// the way back the scratch's stage recorder is
/// [reset](mwl_obs::StageRecorder::reset) — recording off, no trace
/// context, no stage totals or events — and the scratch returns to the
/// slot, keeping every buffer it grew: a thread holds the buffers of the
/// largest job it has solved until it exits.  If `f` panics the scratch is
/// dropped and the thread's next call starts cold.
///
/// Results never depend on what the scratch solved before (see the module
/// docs), so lending changes speed only.
pub fn with_warm_scratch<R>(f: impl FnOnce(&mut AllocScratch) -> R) -> R {
    let mut scratch = WARM.take().unwrap_or_default();
    let result = f(&mut scratch);
    scratch.obs.reset();
    WARM.set(Some(scratch));
    result
}

/// Reusable buffers of Algorithm `BindSelect`: the covered-operation maps,
/// the winning resource's chain computation and the clique-growth union
/// buffer.
#[derive(Debug, Default)]
pub(crate) struct BindScratch {
    /// Covered flag per operation.
    pub(crate) covered: Vec<bool>,
    /// Longest-chain DP tables of the round winner.
    pub(crate) chain: ChainScratch,
    /// Chain of the current covering round's winner.
    pub(crate) best_chain: Vec<OpId>,
    /// Operation lists of the selected cliques; slots beyond the active
    /// count keep their capacity across rounds and jobs.
    pub(crate) clique_ops: Vec<Vec<OpId>>,
    /// Chosen resource index per selected clique (parallel to `clique_ops`).
    pub(crate) clique_res: Vec<usize>,
    /// Operation bitset per selected clique, `op_mask_words` words each.
    pub(crate) clique_masks: Vec<u64>,
    /// Operation bitset of the clique currently being grown.
    pub(crate) new_mask: Vec<u64>,
    /// Union bitset of the clique-growth step.
    pub(crate) union_mask: Vec<u64>,
    /// Bitset of not-yet-covered operations, maintained across covering
    /// rounds to drive the popcount pre-skip.
    pub(crate) uncovered_mask: Vec<u64>,
    /// `uncovered_mask` in end-rank space
    /// ([`WordlengthCompatibilityGraph::end_rank`]): the input of the
    /// chain-length greedy.
    pub(crate) uncovered_ranks: Vec<u64>,
    /// Number of active cliques in the pooled arrays after the last
    /// [`crate::bind::bind_select_with_scratch`] run.
    pub(crate) clique_count: usize,
}

/// Reusable tables of the post-bind merging pass: the admissible
/// latency-lower-bound precheck that prunes merge candidates before the
/// expensive reschedule.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// Topological order of the current graph (schedule-independent, so
    /// computed once per pass).
    pub(crate) topo: Vec<OpId>,
    /// Instance index per operation under the current datapath.
    pub(crate) binding: Vec<usize>,
    /// Bound latency `ℓ(o)` per operation under the current datapath.
    pub(crate) base_latency: Vec<Cycles>,
    /// Serialised work (sum of bound latencies) per instance.
    pub(crate) inst_work: Vec<Cycles>,
    /// Marker: is this instance part of the candidate under evaluation?
    pub(crate) in_candidate: Vec<bool>,
    /// Per-operation finish times of the critical-path lower bound.
    pub(crate) finish: Vec<Cycles>,
    /// Flattened member-index pool of the candidate enumeration; each
    /// [`crate::merge::CandidateMeta`] addresses a sub-slice.
    pub(crate) cand_members: Vec<usize>,
    /// Candidate headers of the current round, sorted by decreasing saving.
    pub(crate) cands: Vec<crate::merge::CandidateMeta>,
    /// Post-merge instance index per pre-merge instance (`usize::MAX` for
    /// candidate members, which all map to the merged instance).
    pub(crate) new_index: Vec<usize>,
    /// Post-merge instance index per operation (reschedule input).
    pub(crate) resched_binding: Vec<usize>,
    /// Post-merge latency table of the candidate under evaluation.
    pub(crate) resched_latencies: OpLatencies,
    /// The binding-aware exclusivity constraint of the reschedule, rebuilt
    /// in place per candidate.
    pub(crate) exclusive: PerInstanceExclusive,
    /// List-scheduler working buffers of the reschedule.
    pub(crate) sched: SchedScratch,
    /// `(start, end, tie)` intervals of the per-instance chain re-check.
    pub(crate) intervals: Vec<(Cycles, Cycles, usize)>,
}

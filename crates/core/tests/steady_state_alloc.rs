//! The steady-state allocation budget, asserted with a counting allocator.
//!
//! The hot-path rewrite promises that a warm [`AllocScratch`] solves each
//! graph without *growing*: after warm-up, every repeat of the same job
//! performs exactly the same (output-only) allocations — the kernels
//! themselves (a rebuild of the compatibility graph for a graph already
//! seen, the sorted-sweep `attach_schedule` with its rank tables,
//! `max_chain_len`, `max_chain_into`, `is_chain`, the mask primitives,
//! Eqn (3) admission) run allocation-free on warm buffers, and the
//! event-driven list scheduler allocates only the schedule it returns.
//!
//! Everything lives in one `#[test]` so the global counter is never read
//! concurrently by a second libtest thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mwl_core::{AllocConfig, AllocScratch, CachedCostModel, DpAllocator};
use mwl_model::{CostModel, OpId, ResourceClass, SonicCostModel};
use mwl_sched::{
    asap, scheduling_set_with_scratch, CoverScratch, ListScheduler, PerInstanceExclusive,
    ResourceConstraint, SchedScratch, SchedulePriority, SchedulingSetBound,
};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator};
use mwl_wcg::{ChainScratch, WordlengthCompatibilityGraph};

/// Counts every allocation and reallocation; frees are uncounted (releasing
/// memory is always allowed in the steady state).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations performed by `f`, as seen from the calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

fn lambda_min(graph: &mwl_model::SequencingGraph, cost: &SonicCostModel) -> u32 {
    let native = mwl_sched::OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    mwl_sched::critical_path_length(graph, &native)
}

#[test]
fn warm_scratch_allocation_count_is_flat_and_kernels_are_allocation_free() {
    let cost = SonicCostModel::default();
    let graph = TgffGenerator::new(TgffConfig::with_ops(12), 4242).generate();
    // This graph escalates its bounds nine times and replays iterations of
    // earlier rounds, so the iteration memo's tables count too.
    let escalating =
        TgffGenerator::new(TgffConfig::with_ops(40).shape(GraphShape::Layered), 0).generate();
    let escalating_lambda = (f64::from(lambda_min(&escalating, &cost)) * 1.3).ceil() as u32;
    let mut scratch = AllocScratch::new();
    for (job, lambda) in [
        (&graph, lambda_min(&graph, &cost) + 2),
        (&escalating, escalating_lambda),
    ] {
        let config = AllocConfig::new(lambda).with_instance_merging(true);
        let allocator = DpAllocator::new(&cost, config);

        // Warm-up: saturate every scratch buffer's capacity.
        for _ in 0..3 {
            allocator
                .allocate_with_scratch(job, &mut scratch)
                .expect("job solves");
        }

        // Steady state: repeats of the same job must perform the identical
        // (output-only) allocation count — any growth means a buffer is
        // being re-materialised per solve instead of reused.
        let mut deltas = Vec::new();
        for _ in 0..5 {
            let (delta, outcome) =
                allocations_during(|| allocator.allocate_with_scratch(job, &mut scratch));
            outcome.expect("job solves");
            deltas.push(delta);
        }
        assert!(
            deltas.windows(2).all(|w| w[0] == w[1]),
            "steady-state allocation count is not flat: {deltas:?}"
        );
    }
    assert!(
        scratch.replayed_iterations() > 0,
        "the escalating job replays"
    );

    // `allocate` solves on the calling thread's warm scratch, which
    // outlives the call: the first call grows it, and every repeat then
    // pays the same count, below the first.
    let allocator = DpAllocator::new(&cost, AllocConfig::new(escalating_lambda));
    let calls: Vec<u64> = (0..3)
        .map(|_| {
            let (delta, outcome) = allocations_during(|| allocator.allocate(&escalating));
            outcome.expect("job solves");
            delta
        })
        .collect();
    assert!(
        calls[2] == calls[1] && calls[1] < calls[0],
        "allocate does not reuse the thread's scratch: {calls:?}"
    );

    // The batch cost-cache warm gathers widths into bitsets and skips the
    // cells an earlier warm filled: a repeat warm allocates nothing.
    let mut cache = CachedCostModel::new(&cost);
    cache.warm_graph(&graph);
    let (delta, ()) = allocations_during(|| cache.warm_graph(&graph));
    assert_eq!(delta, 0, "a repeat cost-cache warm allocated");

    // Kernel-level budget: on warm buffers the compatibility and admission
    // kernels allocate nothing at all.
    let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
    wcg.snapshot_pristine();

    // A rebuild for a graph already seen reuses every table: the resource
    // set and its extraction buffers, the `H` planes, the fastest-latency
    // and edge-count tables.  So do a snapshot and a restore.
    let (delta, ()) = allocations_during(|| {
        wcg.rebuild(&graph, &cost);
        wcg.snapshot_pristine();
        wcg.restore_pristine();
    });
    assert_eq!(delta, 0, "a warm rebuild, snapshot and restore allocated");

    let upper = wcg.upper_bound_latencies();
    let schedule = asap(&graph, &upper);
    wcg.attach_schedule(&schedule, &upper);

    // A repeat attach reuses the interval, order, rank and sweep tables.
    let (delta, ()) = allocations_during(|| wcg.attach_schedule(&schedule, &upper));
    assert_eq!(delta, 0, "a repeat attach_schedule allocated");

    let covered = vec![false; graph.len()];
    let uncovered_ranks = vec![u64::MAX; wcg.op_mask_words()];
    let (delta, lengths) = allocations_during(|| {
        (0..wcg.resources().len())
            .map(|r| wcg.max_chain_len(r, &uncovered_ranks))
            .sum::<usize>()
    });
    assert!(lengths > 0);
    assert_eq!(delta, 0, "max_chain_len allocated");
    let mut chain_scratch = ChainScratch::default();
    let mut chain = Vec::new();
    for r in 0..wcg.resources().len() {
        wcg.max_chain_into(r, &covered, &mut chain_scratch, &mut chain); // warm
        let (delta, ()) = allocations_during(|| {
            wcg.max_chain_into(r, &covered, &mut chain_scratch, &mut chain);
        });
        assert_eq!(delta, 0, "max_chain_into allocated on warm scratch (r={r})");
    }

    let ids: Vec<OpId> = graph.op_ids().collect();
    let mut mask = vec![0u64; wcg.op_mask_words()];
    for &op in &ids {
        mask[op.index() / 64] |= 1 << (op.index() % 64);
    }
    let (delta, _) = allocations_during(|| {
        let chain_ok = wcg.is_chain(&ids);
        let mask_ok = wcg.mask_is_chain(&mask);
        let mut probes = 0usize;
        for r in 0..wcg.resources().len() {
            probes += usize::from(wcg.mask_covered_by(&mask, r));
            probes += wcg.mask_candidate_count(&mask, r);
        }
        (chain_ok, mask_ok, probes)
    });
    assert_eq!(delta, 0, "bitset chain/mask kernels allocated");

    // The scheduling-set cover keeps every working buffer in its scratch: a
    // warm call allocates nothing, on the exact branch-and-bound path (at
    // most 28 candidate sets) and on the greedy path.  The 12-op graph's
    // pristine columns are under 28 sets, the 40-op graph's well over.
    let mut wide = WordlengthCompatibilityGraph::new(&escalating, &cost);
    let columns = wide.resource_columns().to_vec();
    let exact = wcg.resource_columns();
    assert!(exact.len() / wcg.op_mask_words() <= 28);
    assert!(columns.len() / wide.op_mask_words() > 28);
    let mut cover_scratch = CoverScratch::default();
    let mut cover = Vec::new();
    for (items, sets) in [(graph.len(), exact), (escalating.len(), columns.as_slice())] {
        scheduling_set_with_scratch(items, sets, &mut cover_scratch, &mut cover); // warm
        let expected = cover.clone();
        let (delta, ()) = allocations_during(|| {
            scheduling_set_with_scratch(items, sets, &mut cover_scratch, &mut cover);
        });
        assert_eq!(cover, expected);
        assert_eq!(
            delta, 0,
            "a warm scheduling-set cover allocated ({items} items)"
        );
    }
    wide.snapshot_pristine();
    wide.prune_bind_candidates();
    let (delta, ()) = allocations_during(|| wide.prune_bind_candidates());
    assert_eq!(delta, 0, "a repeat candidate pruning allocated");

    // Eqn (3) admission probes are allocation-free once the rows are set.
    let op_classes: Vec<ResourceClass> = graph
        .operations()
        .iter()
        .map(|o| ResourceClass::for_kind(o.kind()))
        .collect();
    let mut eqn3 = SchedulingSetBound::default();
    let mut bounds = [None; ResourceClass::COUNT];
    bounds[ResourceClass::Adder.index()] = Some(2);
    bounds[ResourceClass::Multiplier.index()] = Some(2);
    eqn3.reset_problem(&op_classes, bounds);
    eqn3.set_members(wcg.resources().iter().map(|r| r.class()));
    for op in graph.op_ids() {
        eqn3.set_row(op, wcg.candidates(op));
    }
    eqn3.reset_loads();
    let (delta, _) = allocations_during(|| {
        let mut admitted = 0usize;
        for op in graph.op_ids() {
            let latency = wcg.upper_bound_latency(op).max(1);
            admitted += usize::from(eqn3.admits(op, 0, latency));
            admitted += usize::from(eqn3.admissible_at_all(op, latency));
        }
        admitted
    });
    assert_eq!(delta, 0, "Eqn (3) admission probes allocated");

    // The event-driven list scheduler keeps its pending counts, ready list
    // and event heap warm: a repeat allocates only the returned schedule.
    // Two exclusive instances serialise the graph, so operations wait.
    let binding: Vec<usize> = graph.op_ids().map(|o| o.index() % 2).collect();
    let mut exclusive = PerInstanceExclusive::new(binding.clone(), 2);
    let scheduler = ListScheduler::new(SchedulePriority::CriticalPath);
    let mut sched_scratch = SchedScratch::new();
    let first = scheduler
        .schedule_with_scratch(&graph, &upper, &mut exclusive, &mut sched_scratch)
        .expect("exclusive instances always admit");
    exclusive.rebuild(&binding, 2);
    let (delta, repeat) = allocations_during(|| {
        scheduler.schedule_with_scratch(&graph, &upper, &mut exclusive, &mut sched_scratch)
    });
    assert_eq!(Ok(first), repeat);
    assert_eq!(delta, 1, "a warm list schedule allocated beyond its output");
}

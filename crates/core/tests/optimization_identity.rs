//! Property tests pinning the optimized allocator to the frozen pre-PR
//! implementation ([`mwl_core::reference`]).
//!
//! The hot-path rewrite (scratch-reused dense tables, incremental
//! compatibility-graph and scheduling-set state, pruned merge candidates) is
//! only allowed to change *how fast* the answer is computed, never the
//! answer: across every TGFF `GraphShape`×`WidthProfile` family, with the
//! instance-merging pass on and off, the full [`AllocOutcome`] — datapath
//! area, schedule, binding, instance list, merge count, refinement and
//! escalation statistics, resource bounds — must be **bit-identical**, and
//! so must every error.  Reusing one `AllocScratch` across jobs must be
//! indistinguishable from using a fresh one per job.

use proptest::prelude::*;

use mwl_core::{reference, AllocConfig, AllocError, AllocOutcome, AllocScratch, DpAllocator};
use mwl_model::{CostModel, SequencingGraph, SonicCostModel};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// One allocation problem drawn from the full scenario space.
#[derive(Debug, Clone)]
struct Problem {
    graph: SequencingGraph,
    lambda_slack: u32,
    merging: bool,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (
        prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        prop_oneof![
            Just(WidthProfile::Uniform),
            Just(WidthProfile::Mixed { high_fraction: 0.3 }),
            Just(WidthProfile::Mixed { high_fraction: 0.7 }),
        ],
        2usize..=16,
        0u64..=2000,
        0u32..=12,
        any::<bool>(),
    )
        .prop_map(|(shape, widths, ops, seed, lambda_slack, merging)| {
            let config = TgffConfig::with_ops(ops).shape(shape).width_profile(widths);
            Problem {
                graph: TgffGenerator::new(config, seed).generate(),
                lambda_slack,
                merging,
            }
        })
}

fn lambda_min(graph: &SequencingGraph, cost: &SonicCostModel) -> u32 {
    let native = mwl_sched::OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    mwl_sched::critical_path_length(graph, &native)
}

fn solve_both(
    problem: &Problem,
    cost: &SonicCostModel,
    scratch: &mut AllocScratch,
) -> (
    Result<AllocOutcome, AllocError>,
    Result<AllocOutcome, AllocError>,
) {
    let lambda = lambda_min(&problem.graph, cost) + problem.lambda_slack;
    let config = AllocConfig::new(lambda).with_instance_merging(problem.merging);
    let optimized =
        DpAllocator::new(cost, config.clone()).allocate_with_scratch(&problem.graph, scratch);
    let frozen = reference::allocate_with_stats(cost, &config, &problem.graph);
    (optimized, frozen)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline guarantee: optimized == frozen on arbitrary problems,
    /// including the full outcome statistics and validation of the result.
    #[test]
    fn optimized_allocator_is_bit_identical_to_reference(problem in problem_strategy()) {
        let cost = SonicCostModel::default();
        let mut scratch = AllocScratch::new();
        let (optimized, frozen) = solve_both(&problem, &cost, &mut scratch);
        prop_assert_eq!(&optimized, &frozen);
        if let Ok(outcome) = &optimized {
            outcome.datapath.validate(&problem.graph, &cost).unwrap();
        }
    }

    /// Scratch reuse across a whole job sequence changes nothing: solving
    /// every problem with one warm scratch equals solving each with a fresh
    /// scratch, and both equal the frozen reference.
    #[test]
    fn scratch_reuse_is_invisible(
        problems in proptest::collection::vec(problem_strategy(), 2..6)
    ) {
        let cost = SonicCostModel::default();
        let mut warm = AllocScratch::new();
        for problem in &problems {
            let (with_warm, frozen) = solve_both(problem, &cost, &mut warm);
            let (with_fresh, _) = solve_both(problem, &cost, &mut AllocScratch::new());
            prop_assert_eq!(&with_warm, &with_fresh);
            prop_assert_eq!(&with_warm, &frozen);
        }
    }
}

/// Infeasible inputs produce identical errors (absolute λ below the critical
/// path, user bounds too tight).
#[test]
fn errors_are_identical_too() {
    let cost = SonicCostModel::default();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 77);
    let mut scratch = AllocScratch::new();
    for _ in 0..6 {
        let graph = generator.generate();
        let lmin = lambda_min(&graph, &cost);
        for config in [
            AllocConfig::new(lmin.saturating_sub(1)),
            AllocConfig::new(lmin).with_resource_bounds(std::collections::BTreeMap::from([(
                mwl_model::ResourceClass::Multiplier,
                1,
            )])),
        ] {
            let optimized =
                DpAllocator::new(&cost, config.clone()).allocate_with_scratch(&graph, &mut scratch);
            let frozen = reference::allocate_with_stats(&cost, &config, &graph);
            assert_eq!(optimized, frozen);
        }
    }
}

/// Solves one generated problem with merging on and off through the live
/// allocator and the reference, asserts the two agree, and returns the
/// merging-on outcome.
fn assert_pinned_case(config: TgffConfig, seed: u64, lambda: impl Fn(u32) -> u32) -> AllocOutcome {
    let cost = SonicCostModel::default();
    let graph = TgffGenerator::new(config, seed).generate();
    let config = AllocConfig::new(lambda(lambda_min(&graph, &cost)));
    let mut merged = None;
    for merging in [true, false] {
        let config = config.clone().with_instance_merging(merging);
        let live = DpAllocator::new(&cost, config.clone()).allocate_with_stats(&graph);
        let frozen = reference::allocate_with_stats(&cost, &config, &graph);
        assert_eq!(live, frozen, "merging {merging}");
        let outcome = live.expect("pinned case solves");
        outcome.datapath.validate(&graph, &cost).unwrap();
        if merging {
            merged = Some(outcome);
        }
    }
    merged.expect("merging-on run recorded")
}

/// A 12-op wide graph whose refinement empties trailing resources: the
/// scheduling-set cover must not count them toward the exact solver's
/// candidate limit, or the live loop falls back to the greedy cover where
/// the reference solves exactly.
#[test]
fn trailing_empty_resources_keep_the_exact_cover() {
    let outcome = assert_pinned_case(
        TgffConfig::with_ops(12).shape(GraphShape::Wide),
        76_521_869_594_075,
        |lmin| lmin + 4,
    );
    assert_eq!(outcome.datapath.area(), 858);
    assert_eq!(outcome.refinements, 21);
    assert_eq!(outcome.bound_escalations, 3);
}

/// A 72-op layered graph: more coverable operations than a `u64` cover
/// mask holds, so both allocators must take the mask-free greedy cover.
#[test]
fn more_than_64_ops_take_the_maskfree_greedy_cover() {
    let outcome = assert_pinned_case(
        TgffConfig::with_ops(72).shape(GraphShape::Layered),
        0x9696_1731_143b_b42f,
        |lmin| (lmin * 13).div_ceil(10),
    );
    assert_eq!(outcome.datapath.area(), 1409);
    assert_eq!(outcome.refinements, 71);
    assert_eq!(outcome.bound_escalations, 5);
}

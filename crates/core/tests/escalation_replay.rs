//! Pins the iteration replay of the bound escalation.
//!
//! Each escalation round of `DPAlloc` restarts refinement from the full
//! compatibility graph; an iteration whose `H` edge set an earlier round of
//! the same call already solved is replayed from the scratch's memo when
//! the raised bounds provably cannot change its schedule.  Replay may only
//! change how fast the answer comes: the outcome stays bit-identical to the
//! frozen [`mwl_core::reference`], user-supplied bounds (one round) never
//! replay, and a scratch reused across configurations or portfolio variants
//! never replays a decision stored by an earlier call.

use std::collections::BTreeMap;

use mwl_core::portfolio::{run_portfolio_with_scratch, variant_specs, VariantStatus};
use mwl_core::{
    datapath_fingerprint, reference, AllocConfig, AllocError, AllocOutcome, AllocScratch,
    DpAllocator, PortfolioSpec, RefinementPolicy,
};
use mwl_model::{CostModel, ResourceClass, SequencingGraph, SonicCostModel};
use mwl_sched::SchedulePriority;
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator};

/// A 40-op Layered graph at ⌈1.3·λ_min⌉: nine escalations, most of whose
/// rounds retrace refinements of the rounds before.
fn escalating() -> (SequencingGraph, AllocConfig) {
    let cost = SonicCostModel::default();
    let graph =
        TgffGenerator::new(TgffConfig::with_ops(40).shape(GraphShape::Layered), 0).generate();
    let native = mwl_sched::OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
    let lambda_min = mwl_sched::critical_path_length(&graph, &native);
    let lambda = (f64::from(lambda_min) * 1.3).ceil() as u32;
    (graph, AllocConfig::new(lambda))
}

/// The outcome and replay count through a fresh scratch.
fn fresh(
    cost: &SonicCostModel,
    config: &AllocConfig,
    graph: &SequencingGraph,
) -> (Result<AllocOutcome, AllocError>, usize) {
    let mut scratch = AllocScratch::new();
    let outcome = DpAllocator::new(cost, config.clone()).allocate_with_scratch(graph, &mut scratch);
    (outcome, scratch.replayed_iterations())
}

#[test]
fn escalating_graph_replays_and_matches_the_reference() {
    let cost = SonicCostModel::default();
    let (graph, config) = escalating();
    let (outcome, replayed) = fresh(&cost, &config, &graph);
    let outcome = outcome.expect("the escalating graph solves");
    assert!(outcome.bound_escalations > 0, "the graph must escalate");
    assert!(replayed > 0, "an escalation round must replay");
    let iterations = outcome.refinements + outcome.bound_escalations + 1;
    assert!(replayed < iterations, "{replayed} of {iterations}");
    assert_eq!(
        Ok(outcome),
        reference::allocate_with_stats(&cost, &config, &graph)
    );
}

#[test]
fn user_supplied_bounds_never_replay() {
    let cost = SonicCostModel::default();
    let (graph, config) = escalating();
    let escalated = fresh(&cost, &config, &graph)
        .0
        .expect("the escalating graph solves")
        .resource_bounds;
    let unit: BTreeMap<ResourceClass, usize> = escalated.keys().map(|&c| (c, 1)).collect();
    // The bounds the search settled on solve in one round; unit bounds fail
    // in one round.
    for bounds in [escalated, unit] {
        let config = config.clone().with_resource_bounds(bounds);
        let (outcome, replayed) = fresh(&cost, &config, &graph);
        assert_eq!(replayed, 0);
        assert_eq!(
            outcome,
            reference::allocate_with_stats(&cost, &config, &graph)
        );
    }
}

#[test]
fn a_reused_scratch_never_replays_from_an_earlier_call() {
    let cost = SonicCostModel::default();
    let (graph, base) = escalating();
    let configs = [
        base.clone(),
        base.clone().with_priority(SchedulePriority::InputOrder),
        base.clone()
            .with_refinement(RefinementPolicy::FirstRefinable),
        base.clone().with_clique_growth(false),
        AllocConfig::new(base.latency_constraint + 3),
        AllocConfig::new(base.latency_constraint - 4),
        base.clone(),
    ];
    let mut scratch = AllocScratch::new();
    for config in &configs {
        let outcome =
            DpAllocator::new(&cost, config.clone()).allocate_with_scratch(&graph, &mut scratch);
        assert_eq!(
            (outcome, scratch.replayed_iterations()),
            fresh(&cost, config, &graph)
        );
    }

    // Sequential portfolio variants share the scratch too: every variant's
    // report is what a fresh run of its configuration produces, and the
    // count left behind is the last variant's own.
    let spec = PortfolioSpec::new(11, 6);
    let variants = variant_specs(&graph, &cost, &base, spec);
    let portfolio = run_portfolio_with_scratch(&cost, &graph, &base, spec, 1, &mut scratch)
        .expect("the baseline variant solves");
    assert_eq!(portfolio.reports.len(), variants.len());
    let mut last_replayed = 0;
    for (variant, report) in variants.iter().zip(&portfolio.reports) {
        let (outcome, replayed) = fresh(&cost, &variant.config, &graph);
        let expected = match outcome {
            Ok(o) => VariantStatus::Solved {
                area: o.datapath.area(),
                latency: o.datapath.latency(),
                fingerprint: datapath_fingerprint(&o.datapath),
            },
            Err(e) => VariantStatus::Failed(e.to_string()),
        };
        assert_eq!(report.status, expected, "variant {}", variant.label);
        last_replayed = replayed;
    }
    assert_eq!(scratch.replayed_iterations(), last_replayed);
}

/// The counters beside the results — replays, reused scheduling sets and
/// the `BindSelect` candidate count — describe the call that just ran: a
/// repeated job reports the same counts and the same outcome, whatever the
/// scratch solved in between.
#[test]
fn a_repeated_job_reports_the_same_counters_and_datapath() {
    let cost = SonicCostModel::default();
    let (graph, config) = escalating();
    let small = TgffGenerator::new(TgffConfig::with_ops(10), 3).generate();
    let allocator = DpAllocator::new(&cost, config);
    let mut scratch = AllocScratch::new();
    let run = |scratch: &mut AllocScratch| {
        let outcome = allocator
            .allocate_with_scratch(&graph, scratch)
            .expect("the escalating graph solves");
        let counters = (
            scratch.replayed_iterations(),
            scratch.reused_covers(),
            scratch.bind_candidates(),
        );
        (outcome, counters)
    };
    let first = run(&mut scratch);
    let (outcome, (replayed, reused, candidates)) = &first;
    assert!(*reused > 0, "an escalation round reuses a scheduling set");
    let iterations = outcome.refinements + outcome.bound_escalations + 1;
    assert!(
        replayed + reused < iterations,
        "{replayed} + {reused} of {iterations}"
    );
    let all = mwl_wcg::WordlengthCompatibilityGraph::new(&graph, &cost)
        .resources()
        .len();
    assert!((1..all).contains(candidates), "{candidates} of {all} types");

    DpAllocator::new(&cost, AllocConfig::new(40))
        .allocate_with_scratch(&small, &mut scratch)
        .expect("the small graph solves");
    assert_eq!(run(&mut scratch), first);
    assert_eq!(run(&mut AllocScratch::new()), first);
}

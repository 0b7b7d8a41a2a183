//! Cross-crate consistency checks between the heuristic, the optimal
//! allocators and the baselines on seeded random graphs.

use std::time::Duration;

use mwl::prelude::*;

fn cost() -> SonicCostModel {
    SonicCostModel::default()
}

fn lambda_min(graph: &SequencingGraph, cost: &SonicCostModel) -> Cycles {
    let native = OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    critical_path_length(graph, &native)
}

#[test]
fn every_allocator_produces_valid_datapaths_within_the_constraint() {
    let cost = cost();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 314);
    for round in 0..8 {
        let graph = generator.generate();
        let lambda = lambda_min(&graph, &cost) + round % 4;

        let heuristic = DpAllocator::new(&cost, AllocConfig::new(lambda))
            .allocate(&graph)
            .unwrap();
        heuristic.validate(&graph, &cost).unwrap();
        assert!(heuristic.latency() <= lambda);

        let two_stage = TwoStageAllocator::new(&cost, lambda)
            .allocate(&graph)
            .unwrap();
        two_stage.validate(&graph, &cost).unwrap();
        assert!(two_stage.latency() <= lambda);
    }
}

#[test]
fn optimum_lower_bounds_every_other_allocator() {
    let cost = cost();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(5), 2718);
    for _ in 0..6 {
        let graph = generator.generate();
        let lambda = lambda_min(&graph, &cost) + 2;
        let optimal = IlpAllocator::new(&cost, lambda)
            .with_time_limit(Duration::from_secs(60))
            .allocate(&graph)
            .unwrap();
        assert!(optimal.stats.proven_optimal);
        let optimum = optimal.datapath.area();

        let heuristic = DpAllocator::new(&cost, AllocConfig::new(lambda))
            .allocate(&graph)
            .unwrap();
        let two_stage = TwoStageAllocator::new(&cost, lambda)
            .allocate(&graph)
            .unwrap();

        assert!(optimum <= heuristic.area());
        assert!(optimum <= two_stage.area());
    }
}

#[test]
fn heuristic_area_is_monotone_in_the_latency_constraint_on_average() {
    // Relaxing the constraint gives the heuristic strictly more freedom; the
    // total area over a batch of graphs must not increase.
    let cost = cost();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 777);
    let graphs: Vec<SequencingGraph> = (0..10).map(|_| generator.generate()).collect();
    let total_area = |relax: u32| -> u64 {
        graphs
            .iter()
            .map(|g| {
                let lambda = lambda_min(g, &cost) + relax;
                DpAllocator::new(&cost, AllocConfig::new(lambda))
                    .allocate(g)
                    .unwrap()
                    .area()
            })
            .sum()
    };
    let tight = total_area(0);
    let medium = total_area(3);
    let loose = total_area(8);
    assert!(medium <= tight);
    assert!(loose <= medium);
}

#[test]
fn heuristic_never_loses_to_the_two_stage_baseline_by_much() {
    // The paper's Figure 3 reports the *baseline* paying a penalty; allow a
    // small tolerance for individual graphs but require the aggregate to
    // favour the heuristic.
    let cost = cost();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(12), 4242);
    let mut heuristic_total = 0u64;
    let mut two_stage_total = 0u64;
    for _ in 0..12 {
        let graph = generator.generate();
        let lambda = lambda_min(&graph, &cost) * 13 / 10; // ~30% slack
        heuristic_total += DpAllocator::new(&cost, AllocConfig::new(lambda))
            .allocate(&graph)
            .unwrap()
            .area();
        two_stage_total += TwoStageAllocator::new(&cost, lambda)
            .allocate(&graph)
            .unwrap()
            .area();
    }
    assert!(
        heuristic_total <= two_stage_total,
        "heuristic total {heuristic_total} should not exceed two-stage total {two_stage_total}"
    );
}

#[test]
fn allocation_is_deterministic() {
    let cost = cost();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(11), 55);
    for _ in 0..4 {
        let graph = generator.generate();
        let lambda = lambda_min(&graph, &cost) + 3;
        let a = DpAllocator::new(&cost, AllocConfig::new(lambda))
            .allocate(&graph)
            .unwrap();
        let b = DpAllocator::new(&cost, AllocConfig::new(lambda))
            .allocate(&graph)
            .unwrap();
        assert_eq!(a, b, "repeated allocation must give identical datapaths");
    }
}

#[test]
fn infeasible_constraints_are_rejected_consistently() {
    let cost = cost();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(7), 88);
    let graph = generator.generate();
    let too_tight = lambda_min(&graph, &cost) - 1;
    assert!(DpAllocator::new(&cost, AllocConfig::new(too_tight))
        .allocate(&graph)
        .is_err());
    assert!(TwoStageAllocator::new(&cost, too_tight)
        .allocate(&graph)
        .is_err());
    assert!(ExhaustiveAllocator::new(&cost, too_tight)
        .allocate(&graph)
        .is_err());
}

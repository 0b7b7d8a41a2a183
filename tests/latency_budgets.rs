//! The loosest latency budget of each `LatencySpec` form.
//!
//! A budget travels as a `u32` cycle count, so every form must resolve its
//! largest value without overflowing, and the allocator must solve the
//! resulting constraint rather than report it as unachievable.

use mwl::prelude::*;
use mwl::workloads::{fir_graph, FIR8_TAPS};

fn fir8() -> SequencingGraph {
    fir_graph(&FIR8_TAPS, 24).expect("valid FIR filter")
}

#[test]
fn relax_steps_saturates_at_the_largest_latency() {
    let graph = fir8();
    let cost = SonicCostModel::default();
    let minimum = LatencySpec::RelaxSteps(0).resolve(&graph, &cost);
    assert!(minimum > 1);
    let resolve = |slack| LatencySpec::RelaxSteps(slack).resolve(&graph, &cost);
    // Slack that fits is added exactly; slack past the top saturates.
    assert_eq!(resolve(u32::MAX - minimum - 1), u32::MAX - 1);
    assert_eq!(resolve(u32::MAX - minimum), u32::MAX);
    assert_eq!(resolve(u32::MAX - minimum + 1), u32::MAX);
    assert_eq!(resolve(u32::MAX), u32::MAX);
}

#[test]
fn every_latency_spec_solves_at_its_loosest_value() {
    let graph = fir8();
    let specs = [
        LatencySpec::Absolute(u32::MAX),
        LatencySpec::RelaxSteps(u32::MAX),
        LatencySpec::RelaxPercent(u32::MAX),
    ];
    let jobs: Vec<BatchJob> = specs
        .iter()
        .map(|&spec| BatchJob::new(format!("{spec:?}"), graph.clone(), spec))
        .collect();
    let cost = SonicCostModel::default();
    let report = run_batch(&jobs, &cost, &BatchOptions::sequential());
    let summary = report.summary();
    assert_eq!((summary.succeeded, summary.failed), (3, 0));
    let stats: Vec<&JobStats> = report
        .outcomes
        .iter()
        .map(|o| o.result.as_ref().expect("loosest budget solves"))
        .collect();
    for (s, spec) in stats.iter().zip(specs) {
        assert_eq!(s.lambda, spec.resolve(&graph, &cost));
        assert!(s.latency <= s.lambda);
    }
    // The absolute and relax-steps forms resolve to the same constraint, so
    // they allocate alike.
    assert_eq!((stats[0].lambda, stats[1].lambda), (u32::MAX, u32::MAX));
    assert_eq!(stats[0].area, stats[1].area);
}

//! History independence of the warm scratch: `run_batch` at one worker
//! solves on the calling thread's scratch, which outlives the call, so
//! every job after the first starts on buffers earlier jobs and calls
//! grew.  Whatever that history, each report equals `solve_job` on a fresh
//! scratch, and a returned scratch records nothing.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mwl_core::{with_warm_scratch, AllocConfig, AllocScratch};
use mwl_driver::{run_batch, run_batch_traced, solve_job, BatchJob, BatchOptions, LatencySpec};
use mwl_model::{ResourceClass, SonicCostModel};
use mwl_obs::{ObsMode, TraceSink};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator};

/// A random job: a graph of 2–48 operations under one of five regimes —
/// a feasible budget, an unachievable one, one adder and one multiplier
/// against a tight budget (usually infeasible bounds), or an iteration
/// budget of 1–3 that stops the loop mid-round.
fn job_strategy() -> impl Strategy<Value = BatchJob> {
    (
        prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        2usize..=48,
        0u64..=1000,
        0u32..5,
        0u32..=8,
    )
        .prop_map(|(shape, ops, seed, regime, knob)| {
            let graph = TgffGenerator::new(TgffConfig::with_ops(ops).shape(shape), seed).generate();
            let label = format!("{shape:?}/{ops}/{seed}/{regime}");
            let mut config = AllocConfig::new(0).with_instance_merging(knob % 2 == 0);
            let latency = match regime {
                0 => LatencySpec::RelaxSteps(knob),
                1 => LatencySpec::RelaxPercent(knob * 5),
                2 => LatencySpec::Absolute(0),
                3 => {
                    let one_each = [ResourceClass::Adder, ResourceClass::Multiplier]
                        .into_iter()
                        .map(|class| (class, 1))
                        .collect::<BTreeMap<_, _>>();
                    config = config.with_resource_bounds(one_each);
                    LatencySpec::RelaxSteps(0)
                }
                _ => {
                    config.max_iterations = 1 + knob as usize % 3;
                    LatencySpec::RelaxSteps(knob % 2)
                }
            };
            BatchJob::new(label, graph, latency).with_config(config)
        })
}

fn obs_strategy() -> impl Strategy<Value = ObsMode> {
    prop_oneof![
        Just(ObsMode::Off),
        Just(ObsMode::Stages),
        Just(ObsMode::Trace)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Repeated sequential `run_batch` calls, each under its own recording
    /// mode, report what a fresh scratch per job reports.
    #[test]
    fn repeated_batches_equal_fresh_scratch_solves(
        calls in proptest::collection::vec(
            (proptest::collection::vec(job_strategy(), 1..5), obs_strategy()),
            1..5,
        ),
    ) {
        let cost = SonicCostModel::default();
        for (jobs, obs) in &calls {
            let options = BatchOptions::sequential().with_obs(*obs);
            let report = run_batch(jobs, &cost, &options);
            for (index, (job, outcome)) in jobs.iter().zip(&report.outcomes).enumerate() {
                let fresh = solve_job(index, job, &cost, options.rtl_vectors, &mut AllocScratch::new());
                prop_assert_eq!(outcome, &fresh, "{}", job.label);
            }
        }
    }
}

/// A traced call, with or without a sink, hands the scratch back with its
/// recorder off and empty, so the untraced call after it records nothing.
#[test]
fn a_traced_call_leaves_no_events_in_the_lent_scratch() {
    let cost = SonicCostModel::default();
    let jobs: Vec<BatchJob> = (0..3)
        .map(|i| {
            let graph = TgffGenerator::new(TgffConfig::with_ops(10 + i), i as u64).generate();
            BatchJob::new(format!("job{i}"), graph, LatencySpec::RelaxSteps(2))
        })
        .collect();
    let traced = BatchOptions::sequential().with_obs(ObsMode::Trace);
    let sink = TraceSink::new();
    let with_sink = run_batch_traced(&jobs, &cost, &traced, Some(&sink));
    assert!(!sink.is_empty(), "the traced call recorded");
    let without_sink = run_batch(&jobs, &cost, &traced);
    let untraced = run_batch(&jobs, &cost, &BatchOptions::sequential());
    assert_eq!(with_sink, untraced);
    assert_eq!(without_sink, untraced);
    with_warm_scratch(|scratch| {
        assert!(scratch.obs.drain_events().is_empty());
        assert!(scratch.obs.take_stages().is_zero());
        let timer = scratch.obs.start();
        scratch.obs.stop(mwl_obs::Stage::Solve, timer);
        assert!(scratch.obs.take_stages().is_zero(), "the recorder is off");
    });
}

//! The batch engine's telemetry invariant: observability is write-only.
//!
//! Reports carry no telemetry, so a run in every mode — off, stage timing
//! and full tracing — must be bit-identical to a default run, at every
//! worker count.

use proptest::prelude::*;

use mwl_core::{AllocConfig, PortfolioSpec};
use mwl_driver::{run_batch, run_batch_traced, BatchJob, BatchOptions, LatencySpec};
use mwl_model::SonicCostModel;
use mwl_obs::{check_chrome_trace, chrome_trace_json, ObsMode, TraceSink};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// A random job: shape family, size, seed, λ budget and optional portfolio.
fn job_strategy() -> impl Strategy<Value = BatchJob> {
    (
        prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        2usize..=12,
        0u64..=1000,
        prop_oneof![
            (0u32..=8).prop_map(LatencySpec::RelaxSteps),
            (0u32..=40).prop_map(LatencySpec::RelaxPercent),
        ],
        any::<bool>(),
        prop_oneof![Just(None), (0u64..=100, 2usize..=5).prop_map(Some),],
    )
        .prop_map(|(shape, ops, seed, latency, mixed, portfolio)| {
            let mut config = TgffConfig::with_ops(ops).shape(shape);
            if mixed {
                config = config.width_profile(WidthProfile::Mixed { high_fraction: 0.5 });
            }
            let graph = TgffGenerator::new(config, seed).generate();
            let mut job = BatchJob::new(format!("{shape:?}/{ops}/{seed}"), graph, latency)
                .with_config(AllocConfig::new(0));
            if let Some((pseed, variants)) = portfolio {
                job = job.with_portfolio(PortfolioSpec::new(pseed, variants));
            }
            job
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The tentpole invariant: for arbitrary job sets (portfolio jobs
    /// included) and every worker count, stage-mode and trace-mode reports
    /// equal the plain report.
    #[test]
    fn obs_on_equals_obs_off_at_every_worker_count(
        jobs in proptest::collection::vec(job_strategy(), 1..6),
    ) {
        let cost = SonicCostModel::default();
        let plain = run_batch(&jobs, &cost, &BatchOptions::sequential());
        for workers in [1usize, 2, 4] {
            let base = BatchOptions::with_workers(workers);
            let off = run_batch(&jobs, &cost, &base);
            prop_assert_eq!(&plain, &off, "obs-off diverged at {} workers", workers);

            let staged = run_batch(&jobs, &cost, &base.clone().with_obs(ObsMode::Stages));
            prop_assert_eq!(&plain, &staged,
                "stage mode perturbed the report at {} workers", workers);

            let sink = TraceSink::new();
            let traced = run_batch_traced(
                &jobs,
                &cost,
                &base.clone().with_obs(ObsMode::Trace),
                Some(&sink),
            );
            prop_assert_eq!(&plain, &traced,
                "trace mode perturbed the report at {} workers", workers);
            // Every job contributed at least its solve span.
            prop_assert!(sink.len() >= jobs.len());
        }
    }
}

/// Trace events are well-formed and render to a Chrome trace document with
/// one complete event per span, worker-lane tids, and stable ordering.
#[test]
fn trace_events_render_to_chrome_json() {
    let cost = SonicCostModel::default();
    let mut jobs = Vec::new();
    for (i, shape) in [GraphShape::Layered, GraphShape::Wide, GraphShape::Deep]
        .into_iter()
        .enumerate()
    {
        let mut generator =
            TgffGenerator::new(TgffConfig::with_ops(8 + i).shape(shape), 300 + i as u64);
        jobs.push(BatchJob::new(
            format!("{shape:?}"),
            generator.generate(),
            LatencySpec::RelaxSteps(2),
        ));
    }
    let sink = TraceSink::new();
    let options = BatchOptions::with_workers(2).with_obs(ObsMode::Trace);
    let report = run_batch_traced(&jobs, &cost, &options, Some(&sink));
    assert_eq!(report.summary().failed, 0);

    let events = sink.snapshot();
    assert!(
        events.len() >= jobs.len(),
        "one solve span per job at least"
    );
    assert!(events
        .iter()
        .all(|e| !e.name.is_empty() && !e.cat.is_empty()));
    let json = chrome_trace_json(&events);
    let violations = check_chrome_trace(&json, 2, &["solve", "schedule"]);
    assert_eq!(violations, Vec::<String>::new());
}

/// The JSON report is byte-identical between a default run and a run in
/// every obs mode.
#[test]
fn json_report_is_stable_under_obs() {
    let cost = SonicCostModel::default();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 41);
    let jobs = vec![BatchJob::new(
        "j",
        generator.generate(),
        LatencySpec::RelaxSteps(2),
    )];
    let plain = run_batch(&jobs, &cost, &BatchOptions::sequential())
        .to_json()
        .encode_pretty();
    for mode in [ObsMode::Off, ObsMode::Stages, ObsMode::Trace] {
        let report = run_batch(&jobs, &cost, &BatchOptions::sequential().with_obs(mode))
            .to_json()
            .encode_pretty();
        assert_eq!(report, plain, "{mode:?} changed the report bytes");
    }
}

//! The batch engine's telemetry invariant: observability is write-only.
//!
//! An obs-off run must be bit-identical to a default run; an obs-on run
//! (stage timing or full tracing) must differ **only** in the purely
//! diagnostic [`JobStats::stages`] blocks — stripping those restores the
//! plain report exactly, for every worker count.

use proptest::prelude::*;

use mwl_core::{AllocConfig, PortfolioSpec};
use mwl_driver::{run_batch, run_batch_traced, BatchJob, BatchOptions, BatchReport, LatencySpec};
use mwl_model::SonicCostModel;
use mwl_obs::{check_chrome_trace, chrome_trace_json, ObsMode, TraceSink};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// Drops the diagnostic stage blocks, leaving the allocation payload.
fn strip_stages(report: &BatchReport) -> BatchReport {
    let mut stripped = report.clone();
    for outcome in &mut stripped.outcomes {
        if let Ok(stats) = &mut outcome.result {
            stats.stages = None;
        }
    }
    stripped
}

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
    /// reduce to the plain report by dropping the stage blocks — and every
    /// succeeded job in an obs-on run actually carries one.
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
            for outcome in &staged.outcomes {
                if let Ok(stats) = &outcome.result {
                    prop_assert!(stats.stages.is_some(), "missing stage block");
                    prop_assert!(!stats.stages.unwrap().is_zero(), "empty stage block");
                }
            }
            prop_assert_eq!(&plain, &strip_stages(&staged),
                "stage mode perturbed the report at {} workers", workers);

            let sink = TraceSink::new();
            let traced = run_batch_traced(
                &jobs,
                &cost,
                &base.clone().with_obs(ObsMode::Trace),
                Some(&sink),
            );
            prop_assert_eq!(&plain, &strip_stages(&traced),
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

/// The JSON report is byte-identical between a default run and an explicit
/// obs-off run, and gains exactly the stage blocks when switched on.
#[test]
fn json_report_is_stable_under_obs() {
    let cost = SonicCostModel::default();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 41);
    let jobs = vec![BatchJob::new(
        "j",
        generator.generate(),
        LatencySpec::RelaxSteps(2),
    )];
    let off = run_batch(&jobs, &cost, &BatchOptions::sequential())
        .to_json()
        .encode_pretty();
    let off_explicit = run_batch(
        &jobs,
        &cost,
        &BatchOptions::sequential().with_obs(ObsMode::Off),
    )
    .to_json()
    .encode_pretty();
    assert_eq!(off, off_explicit);
    assert!(!off.contains("\"stages\""));

    let on = run_batch(
        &jobs,
        &cost,
        &BatchOptions::sequential().with_obs(ObsMode::Stages),
    )
    .to_json()
    .encode_pretty();
    assert!(on.contains("\"stages\""));
    assert!(on.contains("\"schedule_ns\""));
    assert!(on.contains("\"solve_ns\""));
}

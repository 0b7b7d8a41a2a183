//! Property tests of the batch engine's determinism guarantee: the
//! [`BatchReport`] of an N-worker run is identical to the 1-worker run on
//! arbitrary TGFF job sets, for arbitrary N.

use proptest::prelude::*;

use mwl_core::{AllocConfig, AllocScratch};
use mwl_driver::{batch_cache, run_batch, solve_job, BatchJob, BatchOptions, LatencySpec};
use mwl_model::{SonicCostModel, StorageCosts};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// A random job: shape family, size, seed and λ budget.
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
        prop_oneof![Just(true), Just(false)],
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(shape, ops, seed, latency, merging, mixed)| {
            let mut config = TgffConfig::with_ops(ops).shape(shape);
            if mixed {
                config = config.width_profile(WidthProfile::Mixed { high_fraction: 0.5 });
            }
            let graph = TgffGenerator::new(config, seed).generate();
            BatchJob::new(format!("{shape:?}/{ops}/{seed}"), graph, latency)
                .with_config(AllocConfig::new(0).with_instance_merging(merging))
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The core guarantee: any worker count reproduces the sequential report
    /// bit for bit.
    #[test]
    fn n_workers_equal_one_worker(
        jobs in proptest::collection::vec(job_strategy(), 1..10),
        workers in 2usize..=16,
    ) {
        let cost = SonicCostModel::default();
        let sequential = run_batch(&jobs, &cost, &BatchOptions::sequential());
        let parallel = run_batch(&jobs, &cost, &BatchOptions::with_workers(workers));
        prop_assert_eq!(&sequential, &parallel);
    }

    /// The shared cost cache is transparent: under a model that prices
    /// storage, `solve_job` through the batch's cache equals `solve_job`
    /// against the raw model.
    #[test]
    fn batch_cache_is_transparent_under_a_priced_model(
        jobs in proptest::collection::vec(job_strategy(), 1..6),
    ) {
        let cost = SonicCostModel::default().with_storage_costs(StorageCosts::new(2, 1));
        let cache = batch_cache(&cost, &jobs);
        let mut scratch = AllocScratch::new();
        for (index, job) in jobs.iter().enumerate() {
            let raw = solve_job(index, job, &cost, 1, &mut scratch);
            prop_assert_eq!(solve_job(index, job, &cache, 1, &mut scratch), raw);
        }
    }

    /// Every successful outcome respects its resolved budget, and the
    /// summary is consistent with the outcomes.
    #[test]
    fn outcomes_are_well_formed(
        jobs in proptest::collection::vec(job_strategy(), 1..6),
    ) {
        let cost = SonicCostModel::default();
        let report = run_batch(&jobs, &cost, &BatchOptions::default());
        prop_assert_eq!(report.outcomes.len(), jobs.len());
        let summary = report.summary();
        prop_assert_eq!(summary.jobs, jobs.len());
        prop_assert_eq!(summary.succeeded + summary.failed, summary.jobs);
        // Relative budgets are always feasible.
        prop_assert_eq!(summary.failed, 0);
        let mut area = 0u64;
        for (i, o) in report.outcomes.iter().enumerate() {
            prop_assert_eq!(o.index, i);
            let stats = o.result.as_ref().unwrap();
            prop_assert!(stats.latency <= stats.lambda);
            prop_assert!(stats.instances >= 1);
            area += stats.area;
        }
        prop_assert_eq!(summary.total_area, area);
    }
}

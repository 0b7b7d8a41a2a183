//! The shared submission core: solving one job and building shared caches.
//!
//! Both front ends of the engine go through this module — the batch driver
//! ([`crate::run_batch`]) fans a fixed job list across a cursor-fed pool,
//! while the allocation service (`mwl_serve`) feeds a long-lived worker pool
//! from a network queue.  Each worker, in either front end, solves on one
//! persistent [`AllocScratch`] (the batch driver's is its thread's, lent by
//! [`mwl_core::with_warm_scratch`]) and calls [`solve_job`] per job against a
//! shared read-only [`CachedCostModel`]; keeping the execution path in one
//! place is what makes the two front ends bit-identical for the same jobs
//! (regression-tested in `mwl_serve`'s parity suite).

#[cfg(test)]
use mwl_core::run_portfolio;
use mwl_core::{
    run_portfolio_with_scratch, AllocScratch, CachedCostModel, DpAllocator, PortfolioStats,
};
use mwl_model::fixedpoint::MAX_SIM_WORDLENGTH;
use mwl_model::{AreaBreakdown, CostModel, ResourceType};
use mwl_obs::{ArgValue, Stage};

use crate::job::BatchJob;
use crate::report::{JobOutcome, JobStats, RtlCheck};

/// Solves one job, optionally running the RTL equivalence oracle on the
/// resulting datapath.
///
/// This is the whole per-job execution path shared by every front end: the
/// λ budget is resolved against the graph, the allocator runs through the
/// caller's persistent `scratch`, and failures are captured in the returned
/// [`JobOutcome`] rather than propagated.  `index` becomes
/// [`JobOutcome::index`] and seeds the RTL stimulus when
/// [`BatchJob::verify_rtl`] is set, so results depend only on the job and
/// its index — never on which worker ran it.
///
/// When `scratch.obs` is recording, the job's stage time stays in the
/// recorder for the caller to read beside the result
/// ([`StageRecorder::take_stages`](mwl_obs::StageRecorder::take_stages));
/// the returned outcome never carries telemetry.
#[must_use]
pub fn solve_job(
    index: usize,
    job: &BatchJob,
    cost: &(dyn CostModel + Sync),
    rtl_vectors: usize,
    scratch: &mut AllocScratch,
) -> JobOutcome {
    let lambda = job.latency.resolve(&job.graph, cost);
    let mut config = job.config.clone();
    config.latency_constraint = lambda;
    let solve_timer = scratch.obs.start();
    // Portfolio jobs race the variants sequentially here (workers = 1): the
    // batch is already parallel across jobs, and portfolio results are
    // worker-count-invariant by construction, so nothing observable changes.
    // Racing through the caller's scratch credits each variant's wall time
    // to the scratch's stage recorder.
    let solved = match job.portfolio {
        Some(spec) => run_portfolio_with_scratch(cost, &job.graph, &config, spec, 1, scratch).map(
            |portfolio| {
                let stats = PortfolioStats::from_outcome(spec.seed, &portfolio);
                (portfolio.best, Some(stats))
            },
        ),
        None => DpAllocator::new(cost, config)
            .allocate_with_scratch(&job.graph, scratch)
            .map(|outcome| (outcome, None)),
    };
    let result = solved.map(|(outcome, portfolio)| {
        // One register binding serves both the certificate and the
        // breakdown (Datapath::area_breakdown would bind a second time
        // under non-zero storage coefficients).
        let storage_timer = scratch.obs.start();
        let binding = outcome.datapath.register_binding(&job.graph, cost);
        scratch.obs.stop(Stage::Storage, storage_timer);
        let storage = cost.storage_costs();
        let rtl = job.verify_rtl.then(|| {
            let rtl_timer = scratch.obs.start();
            let check = rtl_check(index, job, &outcome.datapath, cost, rtl_vectors);
            scratch.obs.stop(Stage::Rtl, rtl_timer);
            check
        });
        JobStats {
            lambda,
            area: outcome.datapath.area(),
            area_breakdown: AreaBreakdown {
                fu: outcome.datapath.area(),
                register: binding.register_bits() * storage.register_area_per_bit,
                mux: outcome.datapath.mux_input_bits() * storage.mux_area_per_input_bit,
            },
            certificate: binding.certificate,
            latency: outcome.datapath.latency(),
            instances: outcome.datapath.num_instances(),
            refinements: outcome.refinements,
            bound_escalations: outcome.bound_escalations,
            merges: outcome.merges,
            rtl,
            portfolio,
        }
    });
    scratch.obs.stop_with(Stage::Solve, solve_timer, || {
        vec![("job", ArgValue::Int(index as i64))]
    });
    JobOutcome {
        index,
        label: job.label.clone(),
        result,
    }
}

/// Builds the shared read-only cost cache for a fixed job list: every graph
/// is warmed before any worker starts, so lookups never need a lock.
#[must_use]
pub fn batch_cache<'a>(cost: &'a (dyn CostModel + Sync), jobs: &[BatchJob]) -> CachedCostModel<'a> {
    let mut cache = CachedCostModel::new(cost);
    for job in jobs {
        cache.warm_graph(&job.graph);
    }
    cache
}

/// Builds a shared read-only cost cache over the full width *grid* up to
/// `max_width` bits — every adder width and every `a×b` multiplier shape.
///
/// This is the cache for front ends whose graphs arrive *after* the workers
/// start (the allocation service): the table cannot be warmed per graph
/// without locking, but a grid warmed once at startup covers every resource
/// type — including the component-wise-max joins synthesised by the merge
/// pass — for any graph whose operand widths stay within `max_width`.
/// Wider queries safely fall through to the wrapped model and are counted
/// as misses.  The grid stops at the cache's
/// [`MAX_SIM_WORDLENGTH`]-bit ceiling.
#[must_use]
pub fn width_grid_cache(cost: &(dyn CostModel + Sync), max_width: u32) -> CachedCostModel<'_> {
    let mut cache = CachedCostModel::new(cost);
    let max_width = max_width.clamp(1, MAX_SIM_WORDLENGTH);
    cache.warm_types((1..=max_width).map(ResourceType::adder));
    cache.warm_types(
        (1..=max_width).flat_map(|a| (1..=a).map(move |b| ResourceType::multiplier(a, b))),
    );
    cache
}

/// Runs the RTL oracle: lower the datapath, simulate random stimulus and
/// compare bit-exactly against the reference evaluation of the graph.
///
/// The stimulus seed is the job's submission index, so reports stay
/// bit-identical for every worker count.
fn rtl_check(
    index: usize,
    job: &BatchJob,
    datapath: &mwl_core::Datapath,
    cost: &(dyn CostModel + Sync),
    rtl_vectors: usize,
) -> RtlCheck {
    let vectors = mwl_rtl::random_vectors(&job.graph, index as u64, rtl_vectors.max(1));
    match mwl_rtl::check_equivalence(&job.graph, datapath, cost, &vectors) {
        Ok(report) => RtlCheck {
            passed: true,
            vectors: report.vectors,
            registers: report.stats.registers,
            mux_arms: report.stats.mux_arms,
            adapters: report.stats.adapters,
            certificate: Some(report.certificate),
            failure: None,
        },
        Err(e) => RtlCheck {
            passed: false,
            vectors: vectors.len(),
            registers: 0,
            mux_arms: 0,
            adapters: 0,
            certificate: None,
            failure: Some(e.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::LatencySpec;
    use mwl_model::SonicCostModel;
    use mwl_tgff::{TgffConfig, TgffGenerator};

    #[test]
    fn solve_job_matches_direct_allocation() {
        let cost = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 31);
        let job = BatchJob::new("j", generator.generate(), LatencySpec::RelaxSteps(2));
        let mut scratch = AllocScratch::new();
        let outcome = solve_job(5, &job, &cost, 1, &mut scratch);
        assert_eq!(outcome.index, 5);
        assert_eq!(outcome.label, "j");
        let stats = outcome.result.expect("relative budget is feasible");
        assert!(stats.latency <= stats.lambda);
        assert!(stats.rtl.is_none());
        // Reusing the scratch across calls changes nothing.
        let again = solve_job(5, &job, &cost, 1, &mut scratch);
        assert_eq!(again.result.unwrap(), stats);
    }

    #[test]
    fn stage_time_stays_in_the_callers_recorder() {
        let cost = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 31);
        let job = BatchJob::new("j", generator.generate(), LatencySpec::RelaxSteps(2));
        let plain = solve_job(0, &job, &cost, 1, &mut AllocScratch::new());
        let mut scratch = AllocScratch::new();
        scratch.obs.set_mode(mwl_obs::ObsMode::Stages);
        let staged = solve_job(0, &job, &cost, 1, &mut scratch);
        assert_eq!(staged, plain);
        let stages = scratch.obs.take_stages();
        assert!(stages.get(Stage::Solve) > 0);
        assert!(stages.get(Stage::Schedule) > 0);
    }

    #[test]
    fn only_a_traced_solve_carries_the_job_index() {
        let cost = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 31);
        let job = BatchJob::new("j", generator.generate(), LatencySpec::RelaxSteps(2));
        let mut scratch = AllocScratch::new();
        scratch.obs.set_mode(mwl_obs::ObsMode::Stages);
        let _ = solve_job(4, &job, &cost, 1, &mut scratch);
        assert!(scratch.obs.drain_events().is_empty());
        scratch.obs.set_mode(mwl_obs::ObsMode::Trace);
        let _ = solve_job(4, &job, &cost, 1, &mut scratch);
        let events = scratch.obs.drain_events();
        let solve = events.iter().find(|e| e.name == Stage::Solve.name());
        assert_eq!(
            solve.expect("a traced job records its solve").args,
            vec![("job", ArgValue::Int(4))]
        );
    }

    #[test]
    fn portfolio_job_reports_winner_stats() {
        let cost = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 77);
        let graph = generator.generate();
        let spec = mwl_core::PortfolioSpec::new(9, 8);
        let job =
            BatchJob::new("p", graph.clone(), LatencySpec::RelaxSteps(3)).with_portfolio(spec);
        let mut scratch = AllocScratch::new();
        let stats = solve_job(0, &job, &cost, 1, &mut scratch)
            .result
            .expect("relative budget is feasible");

        // The job result is exactly the portfolio winner, and the stats
        // block is the outcome's summary.
        let mut config = job.config.clone();
        config.latency_constraint = job.latency.resolve(&graph, &cost);
        let reference = run_portfolio(&cost, &graph, &config, spec, 1).unwrap();
        assert_eq!(stats.area, reference.best.datapath.area());
        assert_eq!(stats.latency, reference.best.datapath.latency());
        assert_eq!(
            stats.portfolio,
            Some(PortfolioStats::from_outcome(spec.seed, &reference))
        );

        // A plain job on the same graph never beats the portfolio.
        let plain_job = BatchJob::new("q", graph, LatencySpec::RelaxSteps(3));
        let plain = solve_job(0, &plain_job, &cost, 1, &mut scratch)
            .result
            .unwrap();
        assert!(stats.area <= plain.area);
        assert!(plain.portfolio.is_none());
    }

    #[test]
    fn width_grid_cache_covers_in_range_graphs() {
        let cost = SonicCostModel::default();
        let cache = width_grid_cache(&cost, 24);
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 9);
        let graph = generator.generate();
        for r in graph.extract_resource_types() {
            assert!(cache.contains(&r), "grid missing {r:?}");
        }
        // An out-of-range query falls through without poisoning the table.
        let wide = ResourceType::multiplier(40, 30);
        assert_eq!(cache.area(&wide), cost.area(&wide));
        assert!(!cache.contains(&wide));
    }

    #[test]
    fn grid_allocation_is_identical_to_direct() {
        let cost = SonicCostModel::default();
        let cache = width_grid_cache(&cost, 32);
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(11), 44);
        let job = BatchJob::new("g", generator.generate(), LatencySpec::RelaxPercent(20));
        let mut scratch = AllocScratch::new();
        let direct = solve_job(0, &job, &cost, 1, &mut scratch);
        let through_grid = solve_job(0, &job, &cache, 1, &mut scratch);
        assert_eq!(direct, through_grid);
        assert_eq!(cache.misses(), 0, "grid must cover the allocator's probes");
    }
}

//! The scoped-thread worker pool executing a batch of allocation jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use mwl_core::AllocScratch;
use mwl_model::CostModel;
use mwl_obs::{ObsMode, TraceSink};

use crate::exec::{batch_cache, solve_job};
use crate::job::{BatchJob, BatchOptions};
use crate::report::{BatchReport, JobOutcome};

/// Runs every job in the batch and returns the per-job outcomes in
/// submission order.
///
/// Work distribution is dynamic (an atomic cursor over the job list), but
/// each outcome is written to the slot of its submission index, so the
/// returned [`BatchReport`] is **bit-identical for every worker count** —
/// parallelism changes wall-clock time only, never results.  Job failures
/// ([`mwl_core::AllocError`]) are captured per job and never abort the rest
/// of the batch.
///
/// The resource costs of every job graph are pre-computed once into a
/// read-only [`CachedCostModel`](mwl_core::CachedCostModel) that all workers
/// share without locking.  With one effective worker the worker loop runs on
/// the calling thread; more workers each get a scoped thread running the
/// same loop.
pub fn run_batch<C: CostModel + Sync>(
    jobs: &[BatchJob],
    cost: &C,
    options: &BatchOptions,
) -> BatchReport {
    run_batch_traced(jobs, cost, options, None)
}

/// [`run_batch`] with an optional trace collector.
///
/// When [`BatchOptions::obs`] is [`ObsMode::Trace`] and a sink is supplied,
/// every worker drains its per-job trace events into it; all workers share
/// one epoch (timestamp zero) taken before the pool starts, and each worker
/// renders into its own `tid` lane, so [`TraceSink::to_chrome_json`] yields
/// a coherent multi-lane timeline.  The *report* stays bit-identical to an
/// untraced run apart from the purely-diagnostic
/// [`JobStats::stages`](crate::JobStats::stages) blocks — telemetry is
/// write-only for the allocator (pinned by `tests/obs_determinism.rs`).
pub fn run_batch_traced<C: CostModel + Sync>(
    jobs: &[BatchJob],
    cost: &C,
    options: &BatchOptions,
    sink: Option<&TraceSink>,
) -> BatchReport {
    if jobs.is_empty() {
        return BatchReport {
            outcomes: Vec::new(),
        };
    }

    let cache = batch_cache(cost, jobs);

    let workers = options.workers.max(1).min(jobs.len());
    let cursor = AtomicUsize::new(0);
    let epoch = Instant::now();

    // Each worker drains the shared cursor into a private result list; the
    // lists are concatenated and restored to submission order afterwards, so
    // no locks are needed and completion order never leaks into the report.
    let work = |worker: usize| {
        // One allocation workspace per worker, reused across jobs: the
        // allocator's inner loop is allocation-free once the scratch buffers
        // have grown to the largest job.
        let mut scratch = AllocScratch::new();
        if options.obs == ObsMode::Trace {
            scratch.obs.set_trace_context(worker as u64, epoch);
        }
        scratch.obs.set_mode(options.obs);
        let mut local = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(index) else { break };
            local.push((
                index,
                solve_job(index, job, &cache, options.rtl_vectors, &mut scratch),
            ));
            if let Some(sink) = sink {
                sink.append(scratch.obs.drain_events());
            }
        }
        local
    };
    // A single worker runs on the calling thread: no spawn, same loop.
    let mut collected: Vec<(usize, JobOutcome)> = if workers == 1 {
        work(0)
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| scope.spawn(move || work(worker)))
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("batch worker panicked"))
                .collect()
        })
    };

    collected.sort_unstable_by_key(|(index, _)| *index);
    let outcomes = collected.into_iter().map(|(_, outcome)| outcome).collect();
    BatchReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::LatencySpec;
    use mwl_core::AllocError;
    use mwl_model::{SonicCostModel, StorageCosts};
    use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator};

    fn job_set() -> Vec<BatchJob> {
        let mut jobs = Vec::new();
        for (i, shape) in [
            GraphShape::Layered,
            GraphShape::Wide,
            GraphShape::Deep,
            GraphShape::Diamond,
        ]
        .into_iter()
        .enumerate()
        {
            let mut generator =
                TgffGenerator::new(TgffConfig::with_ops(8 + i).shape(shape), 100 + i as u64);
            jobs.push(BatchJob::new(
                format!("{shape:?}/{i}"),
                generator.generate(),
                LatencySpec::RelaxSteps((i % 3) as u32),
            ));
        }
        jobs
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let cost = SonicCostModel::default();
        let report = run_batch(&[], &cost, &BatchOptions::default());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.summary().jobs, 0);
    }

    #[test]
    fn batch_solves_every_job_in_order() {
        let cost = SonicCostModel::default();
        let jobs = job_set();
        let report = run_batch(&jobs, &cost, &BatchOptions::default());
        assert_eq!(report.outcomes.len(), jobs.len());
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.label, jobs[i].label);
            let stats = o.result.as_ref().expect("relative budgets are feasible");
            assert!(stats.latency <= stats.lambda);
            assert!(stats.area > 0);
        }
        assert_eq!(report.summary().failed, 0);
    }

    #[test]
    fn worker_counts_do_not_change_the_report() {
        let cost = SonicCostModel::default();
        let jobs = job_set();
        let reference = run_batch(&jobs, &cost, &BatchOptions::sequential());
        for workers in [2, 3, 8, 64] {
            let parallel = run_batch(&jobs, &cost, &BatchOptions::with_workers(workers));
            assert_eq!(reference, parallel, "{workers} workers diverged");
        }
    }

    /// Records the thread of every `storage_costs` query, which the shared
    /// cost cache forwards and `solve_job` makes once per solved job.  Cost
    /// queries are answered by the cache, warmed on the calling thread, so
    /// they are not recorded.
    #[derive(Debug, Default)]
    struct ThreadRecorder {
        inner: SonicCostModel,
        threads: std::sync::Mutex<Vec<thread::ThreadId>>,
    }

    impl CostModel for ThreadRecorder {
        fn area(&self, resource: &mwl_model::ResourceType) -> mwl_model::Area {
            self.inner.area(resource)
        }

        fn latency(&self, resource: &mwl_model::ResourceType) -> mwl_model::Cycles {
            self.inner.latency(resource)
        }

        fn storage_costs(&self) -> StorageCosts {
            self.threads.lock().unwrap().push(thread::current().id());
            self.inner.storage_costs()
        }
    }

    #[test]
    fn one_worker_solves_on_the_calling_thread() {
        let jobs = job_set();
        let caller = thread::current().id();
        let inline = ThreadRecorder::default();
        assert_eq!(
            run_batch(&jobs, &inline, &BatchOptions::sequential())
                .summary()
                .failed,
            0
        );
        assert_eq!(*inline.threads.lock().unwrap(), vec![caller; jobs.len()]);

        let pooled = ThreadRecorder::default();
        assert_eq!(
            run_batch(&jobs, &pooled, &BatchOptions::with_workers(2))
                .summary()
                .failed,
            0
        );
        let threads = pooled.threads.lock().unwrap();
        assert_eq!(threads.len(), jobs.len());
        assert!(!threads.contains(&caller));
    }

    /// The shared cost cache is transparent, storage prices included: a
    /// batch under a model that prices registers and muxes equals direct
    /// solves against the raw model, and so does `solve_job` through the
    /// batch's cache.
    #[test]
    fn priced_batch_equals_direct_solves_against_the_raw_model() {
        let cost = SonicCostModel::default().with_storage_costs(StorageCosts::new(2, 1));
        let jobs = job_set();
        let vectors = BatchOptions::default().rtl_vectors;
        let cache = batch_cache(&cost, &jobs);
        let mut scratch = AllocScratch::new();
        let mut direct = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            let raw = solve_job(index, job, &cost, vectors, &mut scratch);
            assert_eq!(solve_job(index, job, &cache, vectors, &mut scratch), raw);
            direct.push(raw);
        }
        for workers in [1, 2] {
            let report = run_batch(&jobs, &cost, &BatchOptions::with_workers(workers));
            assert_eq!(report.outcomes, direct, "{workers} workers");
            let breakdown = report.summary().area_breakdown;
            assert!(breakdown.register > 0 && breakdown.mux > 0, "{breakdown:?}");
        }
    }

    #[test]
    fn rtl_check_is_opt_in_and_passes() {
        let cost = SonicCostModel::default();
        let mut jobs = job_set();
        // Opt half the jobs into the RTL oracle.
        for job in jobs.iter_mut().step_by(2) {
            job.verify_rtl = true;
        }
        let report = run_batch(&jobs, &cost, &BatchOptions::default().with_rtl_vectors(3));
        let summary = report.summary();
        assert_eq!(summary.rtl_checked, jobs.len().div_ceil(2));
        assert_eq!(summary.rtl_passed, summary.rtl_checked);
        for (i, o) in report.outcomes.iter().enumerate() {
            let stats = o.result.as_ref().unwrap();
            if i % 2 == 0 {
                let rtl = stats.rtl.as_ref().expect("opted in");
                assert!(rtl.passed, "job {i}: {:?}", rtl.failure);
                assert_eq!(rtl.vectors, 3);
                assert!(rtl.mux_arms > 0);
            } else {
                assert!(stats.rtl.is_none());
            }
        }
    }

    #[test]
    fn rtl_checked_reports_are_worker_count_invariant() {
        let cost = SonicCostModel::default();
        let mut jobs = job_set();
        for job in &mut jobs {
            job.verify_rtl = true;
        }
        let reference = run_batch(&jobs, &cost, &BatchOptions::sequential());
        for workers in [2, 5] {
            let parallel = run_batch(&jobs, &cost, &BatchOptions::with_workers(workers));
            assert_eq!(reference, parallel, "{workers} workers diverged");
        }
    }

    #[test]
    fn unsimulatable_widths_fail_the_rtl_check_not_the_job() {
        // A 40x30-bit multiplication allocates fine but its 70-bit product
        // net exceeds the 64-bit simulation limit: the job succeeds, the
        // oracle reports failure.
        let cost = SonicCostModel::default();
        let mut b = mwl_model::SequencingGraphBuilder::new();
        b.add_operation(mwl_model::OpShape::multiplier(40, 30));
        let graph = b.build().unwrap();
        let jobs =
            vec![BatchJob::new("wide", graph, LatencySpec::RelaxSteps(0)).with_rtl_check(true)];
        let report = run_batch(&jobs, &cost, &BatchOptions::sequential());
        let summary = report.summary();
        assert_eq!(summary.succeeded, 1);
        assert_eq!(summary.rtl_checked, 1);
        assert_eq!(summary.rtl_passed, 0);
        let rtl = report.outcomes[0]
            .result
            .as_ref()
            .unwrap()
            .rtl
            .as_ref()
            .unwrap();
        assert!(!rtl.passed);
        assert!(rtl.failure.as_ref().unwrap().contains("70-bit"));
    }

    #[test]
    fn infeasible_job_fails_without_poisoning_the_batch() {
        let cost = SonicCostModel::default();
        let mut jobs = job_set();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(6), 55);
        jobs.insert(
            1,
            BatchJob::new("doomed", generator.generate(), LatencySpec::Absolute(0)),
        );
        let report = run_batch(&jobs, &cost, &BatchOptions::with_workers(3));
        assert_eq!(report.summary().failed, 1);
        assert_eq!(report.summary().succeeded, jobs.len() - 1);
        assert!(matches!(
            report.outcomes[1].result,
            Err(AllocError::LatencyUnachievable { .. })
        ));
    }
}

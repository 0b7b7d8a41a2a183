//! The end-to-end run of the batch workloads (paper_mix, large_graphs): one
//! client in a closed loop submitting design batches to
//! [`mwl_driver::run_batch`] at one worker.

use std::time::Instant;

use mwl_driver::{batch_cache, run_batch, BatchJob, BatchOptions, BatchReport};
use mwl_model::SonicCostModel;

use crate::check::Checker;
use crate::report::Outcome;
use crate::stats::{lower_decile, peak_rss_mb, percentile, timed};
use crate::workload::SplitMix;

/// Set-up repetitions before the timed loop; `setup_s` is the lower decile
/// of these and one more after each pass.
pub const SETUP_REPS: usize = 9;

/// Fewest passes over the pool; each request's latency is the lower decile
/// of its times over the passes (see [`lower_decile`]).
pub const MIN_PASSES: usize = 3;

/// Which jobs the output checks compare against the frozen reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceCheck {
    /// Every job.
    All,
    /// A seeded sample of this many jobs.
    Sample(usize),
}

impl ReferenceCheck {
    /// The flags for `n` jobs, drawn from `seed`.
    #[must_use]
    pub fn select(self, n: usize, seed: u64) -> Vec<bool> {
        match self {
            ReferenceCheck::All => vec![true; n],
            ReferenceCheck::Sample(k) => {
                let mut pick = vec![false; n];
                let mut rng = SplitMix::new(seed, 5);
                for _ in 0..k.min(n) {
                    let mut i = rng.below(n);
                    while pick[i] {
                        i = (i + 1) % n;
                    }
                    pick[i] = true;
                }
                pick
            }
        }
    }
}

/// Wall times of [`SETUP_REPS`] cost-cache warms (`batch_cache`) over
/// `jobs`, the batch workloads' set-up, after one untimed warm that takes
/// the first table's page faults.
#[must_use]
pub fn cache_warm_times(jobs: &[BatchJob]) -> Vec<f64> {
    let cost = SonicCostModel::default();
    let _ = batch_cache(&cost, jobs);
    (0..SETUP_REPS).map(|_| warm_once(&cost, jobs)).collect()
}

fn warm_once(cost: &SonicCostModel, jobs: &[BatchJob]) -> f64 {
    timed(|| batch_cache(cost, jobs).len()).1
}

/// Runs the closed loop over `pool` (one `run_batch` request each) for at
/// least `seconds` and [`MIN_PASSES`] whole passes, then checks every job's
/// output.  Latencies and throughput use each request's lower-decile
/// time over the passes.
#[must_use]
pub fn run(pool: &[Vec<BatchJob>], seconds: f64, seed: u64, reference: ReferenceCheck) -> Outcome {
    let cost = SonicCostModel::default();
    let options = BatchOptions::sequential();
    let all_jobs: Vec<BatchJob> = pool.iter().flatten().cloned().collect();
    let mut outcome = Outcome::default();

    // Set-up is also repeated once a pass, so its lower decile, like the
    // requests', draws on the whole run.
    let mut setup = cache_warm_times(&all_jobs);

    // Warm-up: page in code and grow allocator buffers before timing.
    for batch in pool.iter().take(4) {
        let _ = run_batch(batch, &cost, &options);
    }

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    let mut first_pass: Vec<BatchReport> = Vec::with_capacity(pool.len());
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        for (batch, t) in pool.iter().zip(&mut times) {
            let (report, dt) = timed(|| run_batch(batch, &cost, &options));
            t.push(dt);
            outcome.attempted += batch.len() as u64;
            outcome.failed += report.summary().failed as u64;
            if first_pass.len() < pool.len() {
                first_pass.push(report);
            }
        }
        passes += 1;
        setup.push(warm_once(&cost, &all_jobs));
    }
    let latencies: Vec<f64> = times.iter().map(|t| lower_decile(t)).collect();
    let busy: f64 = latencies.iter().sum();
    // Memory under the workload itself, before the output checks.
    let peak_rss = peak_rss_mb();

    let total_area: u64 = first_pass.iter().map(|r| r.summary().total_area).sum();
    outcome.push("setup_s", lower_decile(&setup), "s");
    outcome.push("graphs_per_s", all_jobs.len() as f64 / busy, "1/s");
    outcome.push("latency_p50_ms", percentile(&latencies, 50.0) * 1e3, "ms");
    outcome.push("latency_p99_ms", percentile(&latencies, 99.0) * 1e3, "ms");
    outcome.push("total_area", total_area as f64, "area");
    outcome.push("peak_rss_mb", peak_rss, "MiB");
    outcome.notes.push(format!(
        "closed loop, 1 client, 1 worker: {passes} passes over {} run_batch requests ({} jobs), \
         each request's lower-decile time",
        pool.len(),
        all_jobs.len()
    ));

    let reports = first_pass.iter().flat_map(|r| &r.outcomes);
    let with_reference = reference.select(all_jobs.len(), seed);
    let mut checker = Checker::default();
    for (i, (job, reported)) in all_jobs.iter().zip(reports).enumerate() {
        // Failed jobs were already counted by the timed loop.
        if let Ok(stats) = &reported.result {
            if let Err(e) = checker.check_job(i, job, stats, with_reference[i]) {
                outcome.fail(e);
            }
        }
    }
    outcome.notes.push(checker.reference_note());
    outcome
}

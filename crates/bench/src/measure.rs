//! The one measurement harness: every gate in this crate times its code
//! here.  [`interleaved`] times competing **arms** (implementations or modes
//! of the same work) so that all of them share whatever clock, frequency or
//! scheduler drift the machine has; [`worker_sweep`] times the batch driver
//! at several worker counts; [`cores`] counts the usable hardware threads.
//!
//! The paper-figure timers of Figure 5 and Table 2 stay outside this
//! module on purpose: they accumulate one timing per graph, as the paper
//! does.

use std::time::Instant;

use mwl_driver::{run_batch, BatchJob, BatchOptions, BatchReport};
use mwl_model::CostModel;

/// Smallest duration [`Timings::best`] reports, in seconds: a coarse clock
/// can read zero for a tiny arm, and a zero would make a throughput
/// infinite.
pub const MIN_SECONDS: f64 = 1e-9;

/// Hardware threads available to the process (at least 1).
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-repetition wall-clock seconds of each arm of an [`interleaved`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// `seconds[arm][rep]`: each arm's seconds in repetition order.
    pub seconds: Vec<Vec<f64>>,
}

impl Timings {
    /// The repetition in which the arm ran fastest.
    #[must_use]
    pub fn fastest(&self, arm: usize) -> usize {
        let seconds = &self.seconds[arm];
        (0..seconds.len())
            .min_by(|&a, &b| seconds[a].total_cmp(&seconds[b]))
            .unwrap_or(0)
    }

    /// The arm's fastest repetition in seconds, at least [`MIN_SECONDS`].
    #[must_use]
    pub fn best(&self, arm: usize) -> f64 {
        self.seconds[arm][self.fastest(arm)].max(MIN_SECONDS)
    }
}

/// Times `arms` arms over `reps` repetitions (at least one), interleaved.
///
/// Repetition `r` runs every arm once, starting with arm `r % arms` and
/// continuing in cyclic order.  The clock covers `run(arm)` alone; its
/// output then goes to `check(arm, output)` outside the clock, so identity
/// checks and the output's drop are never timed.
pub fn interleaved<T>(
    arms: usize,
    reps: usize,
    mut run: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T),
) -> Timings {
    let reps = reps.max(1);
    let mut seconds = vec![Vec::with_capacity(reps); arms];
    for rep in 0..reps {
        for offset in 0..arms {
            let arm = (rep + offset) % arms;
            let started = Instant::now();
            let output = run(arm);
            seconds[arm].push(started.elapsed().as_secs_f64());
            check(arm, output);
        }
    }
    Timings { seconds }
}

/// One measured worker count of the batch driver.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds of the fastest repetition.
    pub seconds: f64,
    /// Jobs solved per second.
    pub graphs_per_sec: f64,
    /// Whether every report was bit-identical to the 1-worker reference.
    pub identical: bool,
    /// `"ok"`, or `"noise_limited"` when the machine has fewer [`cores`]
    /// than workers — the row's throughput then measures scheduler noise,
    /// not scaling, and must not be read as a regression.
    pub status: &'static str,
}

/// Runs [`run_batch`] over `jobs` at each worker count, best of `reps`
/// interleaved repetitions, checking every report against `reference` (the
/// 1-worker report of the same jobs).
pub fn worker_sweep<C: CostModel + Sync>(
    jobs: &[BatchJob],
    cost: &C,
    worker_counts: &[usize],
    reps: usize,
    reference: &BatchReport,
) -> Vec<WorkerRow> {
    let options: Vec<BatchOptions> = worker_counts
        .iter()
        .map(|&workers| BatchOptions::with_workers(workers))
        .collect();
    let mut identical = vec![true; worker_counts.len()];
    let timings = interleaved(
        options.len(),
        reps,
        |arm| run_batch(jobs, cost, &options[arm]),
        |arm, report| identical[arm] &= report == *reference,
    );
    let cores = cores();
    worker_counts
        .iter()
        .zip(identical)
        .enumerate()
        .map(|(arm, (&workers, identical))| {
            let seconds = timings.best(arm);
            WorkerRow {
                workers,
                seconds,
                graphs_per_sec: jobs.len() as f64 / seconds,
                identical,
                status: if cores < workers {
                    "noise_limited"
                } else {
                    "ok"
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_driver::LatencySpec;
    use mwl_model::SonicCostModel;
    use mwl_tgff::{TgffConfig, TgffGenerator};

    #[test]
    fn every_arm_runs_once_per_repetition() {
        let mut calls = [0usize; 3];
        let mut checked = [0usize; 3];
        let timings = interleaved(
            3,
            5,
            |arm| {
                calls[arm] += 1;
                arm
            },
            |arm, output| {
                assert_eq!(arm, output);
                checked[arm] += 1;
            },
        );
        assert_eq!(calls, [5; 3]);
        assert_eq!(checked, [5; 3]);
        for arm in 0..3 {
            assert_eq!(timings.seconds[arm].len(), 5);
        }
        // Zero repetitions still measure once.
        let once = interleaved(2, 0, |_| (), |_, ()| ());
        assert_eq!(once.seconds[0].len(), 1);
        assert_eq!(once.seconds[1].len(), 1);
    }

    #[test]
    fn the_first_arm_rotates_across_repetitions() {
        let mut order = Vec::new();
        interleaved(3, 6, |arm| order.push(arm), |_, ()| ());
        let reps: Vec<&[usize]> = order.chunks(3).collect();
        assert_eq!(reps.len(), 6);
        for (rep, arms) in reps.iter().enumerate() {
            assert_eq!(arms[0], rep % 3, "repetition {rep} ran {arms:?}");
            let mut sorted = arms.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2], "repetition {rep} ran {arms:?}");
        }
    }

    #[test]
    fn best_is_the_minimum_and_never_zero() {
        let timings = Timings {
            seconds: vec![vec![0.3, 0.1, 0.2], vec![0.0, 0.5]],
        };
        assert_eq!(timings.fastest(0), 1);
        assert_eq!(timings.best(0), 0.1);
        assert_eq!(timings.fastest(1), 0);
        assert_eq!(timings.best(1), MIN_SECONDS);
        let measured = interleaved(1, 3, |_| (), |_, ()| ());
        assert!(measured.best(0) >= MIN_SECONDS);
        assert!(measured.seconds[0]
            .iter()
            .all(|&s| measured.best(0) <= s.max(MIN_SECONDS)));
    }

    #[test]
    fn worker_rows_are_identical_and_noise_limited_beyond_the_cores() {
        let cost = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(6), 7);
        let jobs: Vec<BatchJob> = (0..3)
            .map(|i| {
                BatchJob::new(
                    format!("job/{i}"),
                    generator.generate(),
                    LatencySpec::RelaxSteps(1),
                )
            })
            .collect();
        let reference = run_batch(&jobs, &cost, &BatchOptions::sequential());
        let counts = [1, 2, cores(), cores() + 1];
        let rows = worker_sweep(&jobs, &cost, &counts, 2, &reference);
        assert_eq!(rows.len(), counts.len());
        for (row, &workers) in rows.iter().zip(&counts) {
            assert_eq!(row.workers, workers);
            assert!(row.identical, "{workers} workers diverged");
            assert!(row.seconds >= MIN_SECONDS && row.graphs_per_sec > 0.0);
            assert_eq!(row.status == "noise_limited", cores() < workers, "{row:?}");
            assert!(row.status == "ok" || row.status == "noise_limited");
        }
    }
}

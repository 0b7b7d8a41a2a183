//! The daemon probe's request phases: the serve mix sent open-loop over one
//! connection, the checks of its answers, and the sustained-rate ladder.

use std::collections::HashMap;

use mwl_driver::BatchJob;
use mwl_serve::wire::{WireOutcome, WireStats};

use crate::check::Checker;
use crate::serve::{
    open_loop, rung_passes, sustained_rate, Conn, LoopRun, P99_LIMIT_MS, RUNG_ATTEMPTS,
};
use crate::workload::{MixGen, PlannedRequest, Scale, SplitMix, SERVE_RATE};

/// Plain jobs of a phase compared with the frozen reference.
const REFERENCE_SAMPLE: usize = 200;

/// Portfolio jobs of a phase whose winning datapath is checked in depth
/// (each costs two more races; every answer is still compared).
const PORTFOLIO_SAMPLE: usize = 60;

/// Bisection steps after the ladder's first failing rung.
const LADDER_REFINEMENTS: usize = 3;

/// Runs `plan` against the daemon at `rate`.
///
/// # Errors
///
/// Transport failures.
pub fn run_plan(
    conn: &mut Conn,
    mix: &MixGen,
    plan: &[PlannedRequest],
    rate: f64,
) -> Result<LoopRun, String> {
    let requests: Vec<&BatchJob> = plan.iter().map(|r| &mix.jobs[r.job]).collect();
    open_loop(conn, &requests, rate)
}

/// Checks every answer of a phase (request `i` asked for
/// `jobs[requests[i]]`) against a direct solve of its job.  Each distinct
/// plain job and a seeded sample of the portfolio jobs are also checked in
/// depth once, and a seeded sample of the plain jobs against the frozen
/// reference.  A rejected submission is load, not a wrong output: it is
/// counted by the `serve.rejected` metric instead.  Returns the failures.
pub fn check_phase(
    jobs: &[BatchJob],
    requests: &[usize],
    run: &LoopRun,
    seed: u64,
    checker: &mut Checker,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expected: HashMap<usize, Option<WireStats>> = HashMap::new();
    let mut rng = SplitMix::new(seed, 6);
    let reference_odds = REFERENCE_SAMPLE as f64 / requests.len().max(1) as f64;
    let portfolio_odds = 10.0 * PORTFOLIO_SAMPLE as f64 / requests.len().max(1) as f64;
    for (i, &j) in requests.iter().enumerate() {
        let job = &jobs[j];
        let want = expected.entry(j).or_insert_with(|| {
            // The daemon solves every job as index 0 (its result must not
            // depend on arrival order); so does the expectation.
            match checker.expected(0, job) {
                Ok(stats) => {
                    let draw = rng.unit();
                    let deep = job.portfolio.is_none() || draw < portfolio_odds;
                    if deep {
                        if let Err(e) = checker.check_job(j, job, &stats, draw < reference_odds) {
                            failures.push(e);
                        }
                    }
                    Some(WireStats::from(&stats))
                }
                Err(e) => {
                    failures.push(e);
                    None
                }
            }
        });
        match (&run.outcomes[i], want) {
            (None, _) => {}
            (Some(WireOutcome::Ok(got)), Some(want)) if got == want => {}
            (Some(got), want) => failures.push(format!(
                "request {i} ({}): daemon answered {got:?}, direct solve gives {want:?}",
                job.label
            )),
        }
    }
    failures
}

/// Finds the daemon's sustained rate on the mix stream (see
/// [`sustained_rate`]); returns it with a note listing every rung.
///
/// # Errors
///
/// Transport failures.
pub fn ladder(conn: &mut Conn, mix: &mut MixGen, scale: Scale) -> Result<(f64, String), String> {
    let mut rungs = Vec::new();
    let sustained = sustained_rate(SERVE_RATE, LADDER_REFINEMENTS, |rate| {
        let plan = mix.take(scale.rung_requests(rate));
        let run = run_plan(conn, mix, &plan, rate)?;
        let passed = rung_passes(&run);
        rungs.push(format!(
            "{rate:.0}/s p99 {:.3} ms rejected {} {}",
            run.latency_percentile(99.0),
            run.rejected,
            if passed { "pass" } else { "fail" }
        ));
        Ok(passed)
    })?;
    let note = format!(
        "sustained-rate ladder (p99 from due <= {P99_LIMIT_MS} ms, nothing rejected, up to \
         3000 requests a rung, {RUNG_ATTEMPTS} tries a rate): {sustained:.0}/s; {}",
        rungs.join("; ")
    );
    Ok((sustained, note))
}

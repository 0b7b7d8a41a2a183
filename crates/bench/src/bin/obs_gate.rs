//! The observability gate: telemetry non-perturbation (bit-identity of the
//! allocation reports across obs modes), a statistically-zero disabled
//! path, enabled-mode overhead bounds, and the committed `BENCH_obs.json`
//! trajectory.
//!
//! With `--trace-out PATH` one more fully-traced pass runs at the mix's
//! highest worker count and writes a Chrome trace-event document (load it
//! at `chrome://tracing` or <https://ui.perfetto.dev>) showing per-stage
//! allocator spans on per-worker lanes.
//!
//! Usage: `cargo run -p mwl_bench --release --bin obs_gate [-- --smoke | --quick] [--reps N] [--out PATH] [--trace-out PATH]`
//!
//! Exit codes: 0 success (including a `noisy_skipped` overhead verdict on
//! machines whose off/off noise floor exceeds 5% — identity still gates);
//! 1 the written file fails [`ObsGateResults::check`] or
//! [`check_chrome_trace`], or a traced job failed; 2 usage error.

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_obs_gate, scenario_jobs, ObsGateConfig, ObsGateResults};
use mwl_driver::{run_batch_traced, BatchOptions};
use mwl_model::SonicCostModel;
use mwl_obs::{check_chrome_trace, chrome_trace_json, ObsMode, TraceSink};

fn main() {
    let args = Args::from_env(
        "obs_gate [--smoke | --quick] [--reps N] [--out PATH] [--trace-out PATH]",
        &["--smoke", "--quick"],
        &["--reps", "--out", "--trace-out"],
    );
    let mut config = if args.flag("--quick") {
        ObsGateConfig::quick()
    } else {
        // --smoke is the default (and the CI mode).
        ObsGateConfig::smoke()
    };
    if let Some(n) = args.count("--reps") {
        config.repetitions = n;
    }
    let out_path = args.value("--out").unwrap_or("BENCH_obs.json");
    eprintln!(
        "running obs gate ({}, best of {} interleaved reps)...",
        config.scenario, config.repetitions
    );
    let results = run_obs_gate(&config);
    println!("{}", results.render_text());
    write_checked(out_path, &results.to_json(), ObsGateResults::check);

    if let Some(path) = args.value("--trace-out") {
        let sweep = &config.sweep;
        let workers = sweep.worker_counts.iter().copied().max().unwrap_or(1);
        let jobs = scenario_jobs(sweep);
        let cost = SonicCostModel::default();
        let sink = TraceSink::new();
        let options = BatchOptions::with_workers(workers).with_obs(ObsMode::Trace);
        let failed = run_batch_traced(&jobs, &cost, &options, Some(&sink))
            .summary()
            .failed;
        write_checked(path, &chrome_trace_json(&sink.snapshot()), |doc| {
            let mut violations = check_chrome_trace(doc, workers, &["solve", "schedule", "bind"]);
            if failed > 0 {
                violations.push(format!("traced pass: {failed} jobs failed"));
            }
            violations
        });
        eprintln!("{} trace events across {workers} worker lanes", sink.len());
    }
}

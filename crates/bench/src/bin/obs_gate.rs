//! The observability gate: telemetry non-perturbation (bit-identity of the
//! allocation reports across obs modes), a statistically-zero disabled
//! path, enabled-mode overhead bounds, and the committed `BENCH_obs.json`
//! trajectory.
//!
//! Usage: `cargo run -p mwl_bench --release --bin obs_gate [-- --smoke | --quick] [--reps N] [--out PATH]`
//!
//! Exit codes: 0 success (including a `noisy_skipped` overhead verdict on
//! machines whose off/off noise floor exceeds 5% — identity still gates);
//! 1 a hard gate failed (an obs mode perturbed a report, or a sound
//! measurement put an enabled mode over the overhead limit); 2 usage error.

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{
    run_obs_gate, ObsGateConfig, ObsGateStatus, DISABLED_NOISE_LIMIT, ENABLED_OVERHEAD_LIMIT,
    TRACE_OVERHEAD_LIMIT,
};

fn main() {
    let args = Args::from_env(
        "obs_gate [--smoke | --quick] [--reps N] [--out PATH]",
        &["--smoke", "--quick"],
        &["--reps", "--out"],
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

    write_output(out_path, &results.to_json().encode_pretty());

    let mut failed = false;
    if !results.all_identical() {
        eprintln!("ERROR: an observability mode perturbed the allocation report");
        failed = true;
    }
    match results.status() {
        ObsGateStatus::Ok => {}
        ObsGateStatus::OverLimit => {
            eprintln!(
                "ERROR: enabled overhead (stages {:+.2}% vs {:.0}%, trace {:+.2}% vs {:.0}%) exceeds its limit (+{:.2}% noise allowance)",
                results.stages_overhead() * 100.0,
                ENABLED_OVERHEAD_LIMIT * 100.0,
                results.trace_overhead() * 100.0,
                TRACE_OVERHEAD_LIMIT * 100.0,
                results.disabled_delta() * 100.0,
            );
            failed = true;
        }
        ObsGateStatus::NoisySkipped => {
            eprintln!(
                "WARN: off/off noise floor {:.2}% exceeds {:.0}%; overhead checks skipped, not failed",
                results.disabled_delta() * 100.0,
                DISABLED_NOISE_LIMIT * 100.0,
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}

//! The observability gate: telemetry non-perturbation (bit-identity of the
//! allocation reports across obs modes), a statistically-zero disabled
//! path, enabled-mode overhead bounds, and the committed `BENCH_obs.json`
//! trajectory.
//!
//! Usage: `cargo run -p mwl_bench --release --bin obs_gate [-- --smoke | --quick] [--reps N] [--out PATH]`
//!
//! Exit codes: 0 success (including a `noisy_skipped` overhead verdict on
//! machines whose off/off noise floor exceeds 5% — identity still gates);
//! 1 the written file fails [`ObsGateResults::check`]; 2 usage error.

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_obs_gate, ObsGateConfig, ObsGateResults};

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
    write_checked(out_path, &results.to_json(), ObsGateResults::check);
}

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

use mwl_bench::{
    run_obs_gate, ObsGateConfig, ObsGateStatus, DISABLED_NOISE_LIMIT, ENABLED_OVERHEAD_LIMIT,
    TRACE_OVERHEAD_LIMIT,
};

fn main() {
    let (config, out_path) = configure();
    eprintln!(
        "running obs gate ({}, best of {} interleaved reps)...",
        config.scenario, config.repetitions
    );
    let results = run_obs_gate(&config);
    println!("{}", results.render_text());

    let json = results.to_json().encode_pretty();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("ERROR: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

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

fn configure() -> (ObsGateConfig, String) {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--quick") {
        ObsGateConfig::quick()
    } else {
        // --smoke is the default (and the CI mode).
        ObsGateConfig::smoke()
    };
    if let Some(pos) = args.iter().position(|a| a == "--reps") {
        match args.get(pos + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => config.repetitions = n,
            _ => usage_error("--reps expects a positive integer"),
        }
    }
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => match args.get(pos + 1) {
            Some(path) => path.clone(),
            None => usage_error("--out expects a path"),
        },
        None => "BENCH_obs.json".to_string(),
    };
    (config, out_path)
}

fn usage_error(message: &str) -> ! {
    eprintln!("ERROR: {message}");
    eprintln!("usage: obs_gate [--smoke | --quick] [--reps N] [--out PATH]");
    std::process::exit(2);
}

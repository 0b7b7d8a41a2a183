//! The allocation perf gate: optimized vs frozen-reference hot-path
//! throughput, bit-identity checks, per-worker-count driver throughput, and
//! the committed `BENCH_alloc.json` trajectory.
//!
//! Usage: `cargo run -p mwl_bench --release --bin perf_gate [-- --smoke | --quick] [--reps N] [--enforce] [--out PATH]`
//!
//! Exit codes: 0 success; 1 a hard gate failed (bit-identity broken, or the
//! multi-core ≥2× check failed on a ≥4-core machine, or `--enforce` and the
//! single-thread speedup is below 6×); 2 usage error.

use mwl_bench::{
    run_perf_gate, MultiCoreStatus, PerfGateConfig, MULTI_CORE_TARGET, SINGLE_THREAD_TARGET,
};

fn main() {
    let (config, enforce, out_path) = configure();
    eprintln!(
        "running perf gate ({}, best of {} reps at {:?} workers)...",
        config.scenario, config.repetitions, config.worker_counts
    );
    let results = run_perf_gate(&config);
    println!("{}", results.render_text());

    let json = results.to_json().encode_pretty();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("ERROR: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    let mut failed = false;
    if !results.all_identical() {
        eprintln!("ERROR: optimized allocator diverged from the frozen reference");
        failed = true;
    }
    if results.multi_core_status == MultiCoreStatus::BelowTarget {
        eprintln!(
            "ERROR: {} cores available but 4-worker speedup {:?} is below the {MULTI_CORE_TARGET:.1}x target",
            results.cores, results.multi_core_speedup
        );
        failed = true;
    }
    if enforce && !results.meets_single_thread_target() {
        eprintln!(
            "ERROR: single-thread speedup {:.2}x is below the {SINGLE_THREAD_TARGET:.1}x target",
            results.speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn configure() -> (PerfGateConfig, bool, String) {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--quick") {
        PerfGateConfig::quick()
    } else {
        // --smoke is the default (and the CI mode).
        PerfGateConfig::smoke()
    };
    if let Some(pos) = args.iter().position(|a| a == "--reps") {
        match args.get(pos + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => config.repetitions = n,
            _ => usage_error("--reps expects a positive integer"),
        }
    }
    let enforce = args.iter().any(|a| a == "--enforce");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => match args.get(pos + 1) {
            Some(path) => path.clone(),
            None => usage_error("--out expects a path"),
        },
        None => "BENCH_alloc.json".to_string(),
    };
    (config, enforce, out_path)
}

fn usage_error(message: &str) -> ! {
    eprintln!("ERROR: {message}");
    eprintln!("usage: perf_gate [--smoke | --quick] [--reps N] [--enforce] [--out PATH]");
    std::process::exit(2);
}

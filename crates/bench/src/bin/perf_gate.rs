//! The allocation perf gate: optimized vs frozen-reference hot-path
//! throughput, bit-identity checks, per-worker-count driver throughput, and
//! the committed `BENCH_alloc.json` trajectory.
//!
//! Usage: `cargo run -p mwl_bench --release --bin perf_gate [-- --smoke | --quick] [--reps N] [--enforce] [--out PATH]`
//!
//! Exit codes: 0 success; 1 the written file fails [`PerfGateResults::check`]
//! (e.g. bit-identity broken), or `--enforce` and the single-thread speedup
//! is below 6×; 2 usage error.

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_perf_gate, PerfGateConfig, PerfGateResults, SINGLE_THREAD_TARGET};

fn main() {
    let args = Args::from_env(
        "perf_gate [--smoke | --quick] [--reps N] [--enforce] [--out PATH]",
        &["--smoke", "--quick", "--enforce"],
        &["--reps", "--out"],
    );
    let mut config = if args.flag("--quick") {
        PerfGateConfig::quick()
    } else {
        // --smoke is the default (and the CI mode).
        PerfGateConfig::smoke()
    };
    if let Some(n) = args.count("--reps") {
        config.repetitions = n;
    }
    let out_path = args.value("--out").unwrap_or("BENCH_alloc.json");
    eprintln!(
        "running perf gate ({}, best of {} reps at {:?} workers)...",
        config.scenario, config.repetitions, config.sweep.worker_counts
    );
    let results = run_perf_gate(&config);
    println!("{}", results.render_text());

    write_checked(out_path, &results.to_json(), |doc| {
        PerfGateResults::check(doc, &config.sweep.worker_counts)
    });
    if args.flag("--enforce") && !results.meets_single_thread_target() {
        eprintln!(
            "ERROR: single-thread speedup {:.2}x is below the {SINGLE_THREAD_TARGET:.1}x target",
            results.speedup
        );
        std::process::exit(1);
    }
}

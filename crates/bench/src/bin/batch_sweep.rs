//! Batch-allocation throughput sweep over the TGFF + scenario families.
//!
//! Runs the deterministic scenario job set (layered TGFF, wide, deep,
//! diamond, tight-λ, loose-λ, mixed-wordlength families) through the
//! parallel batch driver at several worker counts, verifies the reports are
//! bit-identical, and writes `results/BENCH_batch.json`.
//!
//! With `--trace-out PATH` an additional fully-traced pass runs at the
//! sweep's highest worker count and writes a Chrome trace-event document
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>) showing
//! per-stage allocator spans on per-worker lanes.
//!
//! Exit codes: 0 success; 1 a written file fails [`BatchSweepResults::check`]
//! or [`check_chrome_trace`], or a traced job failed; 2 usage error.
//!
//! Usage: `cargo run -p mwl_bench --release --bin batch_sweep [-- --smoke | --graphs N | --workers A,B,C | --trace-out PATH]`

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_batch_sweep, scenario_jobs, BatchSweepConfig, BatchSweepResults};
use mwl_driver::{run_batch_traced, BatchOptions};
use mwl_model::SonicCostModel;
use mwl_obs::{check_chrome_trace, chrome_trace_json, ObsMode, TraceSink};

fn main() {
    let args = Args::from_env(
        "batch_sweep [--smoke] [--graphs N] [--workers A,B,C] [--trace-out PATH]  (e.g. --workers 1,2,8)",
        &["--smoke"],
        &["--graphs", "--workers", "--trace-out"],
    );
    let mut config = if args.flag("--smoke") {
        BatchSweepConfig::smoke()
    } else {
        BatchSweepConfig::quick()
    };
    if let Some(n) = args.count("--graphs") {
        config = config.with_graphs(n);
    }
    if let Some(workers) = args.counts("--workers") {
        config = config.with_worker_counts(workers);
    }
    eprintln!(
        "running batch sweep ({} graphs x 7 families at {:?} workers)...",
        config.graphs_per_family, config.worker_counts
    );
    let results = run_batch_sweep(&config);
    println!("{}", results.render_text());
    write_checked("results/BENCH_batch.json", &results.to_json(), |doc| {
        BatchSweepResults::check(doc, &config.worker_counts)
    });

    if let Some(path) = args.value("--trace-out") {
        let workers = config.worker_counts.iter().copied().max().unwrap_or(1);
        let jobs = scenario_jobs(&config);
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

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
//! Usage: `cargo run -p mwl_bench --release --bin batch_sweep [-- --smoke | --graphs N | --workers A,B,C | --trace-out PATH]`

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{run_batch_sweep, scenario_jobs, BatchSweepConfig};
use mwl_driver::{run_batch_traced, BatchOptions};
use mwl_model::SonicCostModel;
use mwl_obs::{ObsMode, TraceSink};

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
    write_output(
        "results/BENCH_batch.json",
        &results.to_json().encode_pretty(),
    );
    if !results.all_identical() {
        eprintln!("ERROR: parallel reports diverged from the sequential reference");
        std::process::exit(1);
    }

    if let Some(path) = args.value("--trace-out") {
        let workers = config.worker_counts.iter().copied().max().unwrap_or(1);
        let jobs = scenario_jobs(&config);
        let cost = SonicCostModel::default();
        let sink = TraceSink::new();
        let options = BatchOptions::with_workers(workers).with_obs(ObsMode::Trace);
        let traced = run_batch_traced(&jobs, &cost, &options, Some(&sink));
        if traced.summary().failed > 0 {
            eprintln!("ERROR: traced pass had failing jobs");
            std::process::exit(1);
        }
        write_output(path, &sink.to_chrome_json());
        eprintln!("{} trace events across {workers} worker lanes", sink.len());
    }
}

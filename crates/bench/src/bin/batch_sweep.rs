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

use mwl_bench::{run_batch_sweep, scenario_jobs, BatchSweepConfig};
use mwl_driver::{run_batch_traced, BatchOptions};
use mwl_model::SonicCostModel;
use mwl_obs::{ObsMode, TraceSink};

fn main() {
    let (config, trace_out) = configure();
    eprintln!(
        "running batch sweep ({} graphs x 7 families at {:?} workers)...",
        config.graphs_per_family, config.worker_counts
    );
    let results = run_batch_sweep(&config);
    println!("{}", results.render_text());
    let json = results.to_json().encode_pretty();
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_batch.json", &json))
    {
        eprintln!("ERROR: could not write results/BENCH_batch.json: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote results/BENCH_batch.json");
    if !results.all_identical() {
        eprintln!("ERROR: parallel reports diverged from the sequential reference");
        std::process::exit(1);
    }

    if let Some(path) = trace_out {
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
        if let Err(e) = std::fs::write(&path, sink.to_chrome_json()) {
            eprintln!("ERROR: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {path} ({} events across {workers} worker lanes)",
            sink.len()
        );
    }
}

fn configure() -> (BatchSweepConfig, Option<String>) {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--smoke") {
        BatchSweepConfig::smoke()
    } else {
        BatchSweepConfig::quick()
    };
    if let Some(pos) = args.iter().position(|a| a == "--graphs") {
        match args.get(pos + 1).map(|s| s.parse()) {
            Some(Ok(n)) => config = config.with_graphs(n),
            _ => usage_error("--graphs expects a positive integer"),
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--workers") {
        let workers = args.get(pos + 1).map(|list| {
            list.split(',')
                .map(|w| w.trim().parse::<usize>())
                .collect::<Result<Vec<usize>, _>>()
        });
        match workers {
            Some(Ok(w)) if !w.is_empty() => config = config.with_worker_counts(w),
            _ => usage_error("--workers expects a comma-separated list of positive integers"),
        }
    }
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(pos) => match args.get(pos + 1) {
            Some(path) => Some(path.clone()),
            None => usage_error("--trace-out expects a path"),
        },
        None => None,
    };
    (config, trace_out)
}

fn usage_error(message: &str) -> ! {
    eprintln!("ERROR: {message}");
    eprintln!(
        "usage: batch_sweep [--smoke] [--graphs N] [--workers A,B,C] [--trace-out PATH]  (e.g. --workers 1,2,8)"
    );
    std::process::exit(2);
}

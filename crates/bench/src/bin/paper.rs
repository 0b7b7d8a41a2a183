//! Runs the paper study — Figures 3–5 and Table 2 of the paper, and the
//! portfolio's gap to proven ILP optima — prints its tables and writes
//! `BENCH_paper.json`.
//!
//! Usage: `cargo run -p mwl_bench --release --bin paper [-- --smoke | --quick | --paper] [--graphs N] [--out PATH]`
//!
//! `--quick` (the default) is the committed run; `--smoke` takes seconds and
//! `--paper` uses the paper's grids and 200 graphs per |O| (slow).  `--graphs`
//! overrides the graphs per |O|.
//!
//! Exit codes: 0 success; 1 the written file fails
//! [`PaperStudyResults::check`] (an area below a proven optimum, ILP counts
//! that do not tile a cell, or two-stage beating the heuristic on average);
//! 2 usage error.

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_paper_study, PaperStudyConfig, PaperStudyResults};

fn main() {
    let args = Args::from_env(
        "paper [--smoke | --quick | --paper] [--graphs N] [--out PATH]",
        &["--smoke", "--quick", "--paper"],
        &["--graphs", "--out"],
    );
    let mut config = if args.flag("--paper") {
        PaperStudyConfig::paper()
    } else if args.flag("--smoke") {
        PaperStudyConfig::smoke()
    } else {
        PaperStudyConfig::quick()
    };
    if let Some(n) = args.count("--graphs") {
        config.graphs = n;
    }
    let out_path = args.value("--out").unwrap_or("BENCH_paper.json");
    eprintln!(
        "running the paper study ({}, {} cells x {} graphs)...",
        config.preset,
        config.cells.len(),
        config.graphs
    );
    let results = run_paper_study(&config);
    println!("{}", results.render_text());
    write_checked(out_path, &results.to_json(), PaperStudyResults::check);
}

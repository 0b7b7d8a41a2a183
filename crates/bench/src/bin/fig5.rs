//! Regenerates Figure 5 of the paper: execution time of the heuristic versus
//! the ILP as the number of operations grows (λ = λ_min).
//!
//! Usage: `cargo run -p mwl_bench --release --bin fig5 [-- --paper | --graphs N]`

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{run_fig5, Fig5Config};

fn main() {
    let args = Args::from_env("fig5 [--paper] [--graphs N]", &["--paper"], &["--graphs"]);
    let mut config = if args.flag("--paper") {
        Fig5Config::paper()
    } else {
        Fig5Config::quick()
    };
    if let Some(n) = args.count("--graphs") {
        config.sweep = config.sweep.with_graphs(n);
    }
    eprintln!(
        "running Figure 5 sweep ({} ILP sizes, {} heuristic-only sizes, {} graphs each)...",
        config.sizes.len(),
        config.heuristic_only_sizes.len(),
        config.sweep.graphs_per_point
    );
    let results = run_fig5(&config);
    println!("{}", results.render_text());
    write_output("results/fig5.csv", &results.to_csv());
}

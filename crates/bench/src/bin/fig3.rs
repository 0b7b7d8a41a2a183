//! Regenerates Figure 3 of the paper: area penalty of the two-stage
//! approach \[4\] over the heuristic, vs problem size and latency slack.
//!
//! Usage: `cargo run -p mwl_bench --release --bin fig3 [-- --paper | --graphs N]`

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{run_fig3, Fig3Config};

fn main() {
    let args = Args::from_env("fig3 [--paper] [--graphs N]", &["--paper"], &["--graphs"]);
    let mut config = if args.flag("--paper") {
        Fig3Config::paper()
    } else {
        Fig3Config::quick()
    };
    if let Some(n) = args.count("--graphs") {
        config.sweep = config.sweep.with_graphs(n);
    }
    eprintln!(
        "running Figure 3 sweep ({} sizes x {} relaxations x {} graphs)...",
        config.sizes.len(),
        config.relaxations.len(),
        config.sweep.graphs_per_point
    );
    let results = run_fig3(&config);
    println!("{}", results.render_text());
    write_output("results/fig3.csv", &results.to_csv());
}

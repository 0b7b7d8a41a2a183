//! Regenerates Figure 4 of the paper: area premium of the heuristic over the
//! ILP optimum \[5\], vs problem size (λ = λ_min).
//!
//! Usage: `cargo run -p mwl_bench --release --bin fig4 [-- --paper | --graphs N]`

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{run_fig4, Fig4Config};

fn main() {
    let args = Args::from_env("fig4 [--paper] [--graphs N]", &["--paper"], &["--graphs"]);
    let mut config = if args.flag("--paper") {
        Fig4Config::paper()
    } else {
        Fig4Config::quick()
    };
    if let Some(n) = args.count("--graphs") {
        config.sweep = config.sweep.with_graphs(n);
    }
    eprintln!(
        "running Figure 4 sweep ({} sizes x {} graphs)...",
        config.sizes.len(),
        config.sweep.graphs_per_point
    );
    let results = run_fig4(&config);
    println!("{}", results.render_text());
    write_output("results/fig4.csv", &results.to_csv());
}

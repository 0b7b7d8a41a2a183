//! Regenerates Table 2 of the paper: execution time of the heuristic versus
//! the ILP as the latency constraint is relaxed (9-operation graphs).
//!
//! Usage: `cargo run -p mwl_bench --release --bin table2 [-- --paper | --graphs N]`

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{run_table2, Table2Config};

fn main() {
    let args = Args::from_env("table2 [--paper] [--graphs N]", &["--paper"], &["--graphs"]);
    let mut config = if args.flag("--paper") {
        Table2Config::paper()
    } else {
        Table2Config::quick()
    };
    if let Some(n) = args.count("--graphs") {
        config.sweep = config.sweep.with_graphs(n);
    }
    eprintln!(
        "running Table 2 sweep ({} relaxations x {} graphs of {} operations)...",
        config.relaxations.len(),
        config.sweep.graphs_per_point,
        config.ops
    );
    let results = run_table2(&config);
    println!("{}", results.render_text());
    write_output("results/table2.csv", &results.to_csv());
}

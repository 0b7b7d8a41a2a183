//! The portfolio gate: races the deterministic variant portfolio over the
//! scenario families, verifies bit-identity across worker counts and
//! reruns, and verifies the winner never loses to the plain allocator and
//! improves on it somewhere.
//!
//! Usage: `cargo run -p mwl_bench --release --bin portfolio_gate [-- --smoke | --quick] [--variants N] [--out PATH]`
//!
//! Exit codes: 0 success; 1 the written file fails
//! [`PortfolioGateResults::check`] (a rerun diverged, a winner lost to
//! variant 0, or no family improved); 2 usage error.

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_portfolio_gate, PortfolioGateConfig, PortfolioGateResults};

fn main() {
    let args = Args::from_env(
        "portfolio_gate [--smoke | --quick] [--variants N] [--out PATH]",
        &["--smoke", "--quick"],
        &["--variants", "--out"],
    );
    let mut config = if args.flag("--quick") {
        PortfolioGateConfig::quick()
    } else {
        // --smoke is the default (and the CI mode).
        PortfolioGateConfig::smoke()
    };
    if let Some(n) = args.count("--variants") {
        config.variants = n;
    }
    let out_path = args.value("--out").unwrap_or("BENCH_portfolio.json");
    eprintln!(
        "running portfolio gate ({}, {} variants, seed {}, determinism at {:?} workers)...",
        config.scenario, config.variants, config.seed, config.sweep.worker_counts
    );
    let results = run_portfolio_gate(&config);
    println!("{}", results.render_text());
    write_checked(out_path, &results.to_json(), |doc| {
        PortfolioGateResults::check(doc, &config.sweep.worker_counts)
    });
}

//! The portfolio gate: races the deterministic variant portfolio over the
//! scenario families, verifies bit-identity across worker counts and
//! reruns, verifies the winner never loses to the plain allocator, and
//! measures the area gap closed towards the ILP optimum on small graphs.
//!
//! Usage: `cargo run -p mwl_bench --release --bin portfolio_gate [-- --smoke | --quick] [--variants N] [--out PATH]`
//!
//! Exit codes: 0 success; 1 a hard gate failed (a rerun diverged, a winner
//! lost to variant 0 or undercut a proven optimum, or no scenario family
//! improved at all); 2 usage error.

use mwl_bench::cli::{write_output, Args};
use mwl_bench::{run_portfolio_gate, PortfolioGateConfig};

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
        config.scenario, config.variants, config.seed, config.worker_counts
    );
    let results = run_portfolio_gate(&config);
    println!("{}", results.render_text());

    write_output(out_path, &results.to_json().encode_pretty());

    let mut failed = false;
    if !results.determinism_ok {
        eprintln!("ERROR: a portfolio rerun diverged from its reference outcome");
        failed = true;
    }
    if !results.never_worse() {
        eprintln!(
            "ERROR: {} job(s) regressed below variant 0 and {} winner(s) undercut a proven optimum",
            results.regressed,
            results.ilp.iter().map(|r| r.unsound).sum::<usize>()
        );
        failed = true;
    }
    if !results.improved_somewhere() {
        eprintln!("ERROR: no scenario family closed a positive area gap — the race is a no-op");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

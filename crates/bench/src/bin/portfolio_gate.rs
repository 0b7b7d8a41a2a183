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

use mwl_bench::{run_portfolio_gate, PortfolioGateConfig};

fn main() {
    let (config, out_path) = configure();
    eprintln!(
        "running portfolio gate ({}, {} variants, seed {}, determinism at {:?} workers)...",
        config.scenario, config.variants, config.seed, config.worker_counts
    );
    let results = run_portfolio_gate(&config);
    println!("{}", results.render_text());

    let json = results.to_json().encode_pretty();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("ERROR: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

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

fn configure() -> (PortfolioGateConfig, String) {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--quick") {
        PortfolioGateConfig::quick()
    } else {
        // --smoke is the default (and the CI mode).
        PortfolioGateConfig::smoke()
    };
    if let Some(pos) = args.iter().position(|a| a == "--variants") {
        match args.get(pos + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => config.variants = n,
            _ => usage_error("--variants expects a positive integer"),
        }
    }
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) => match args.get(pos + 1) {
            Some(path) => path.clone(),
            None => usage_error("--out expects a path"),
        },
        None => "BENCH_portfolio.json".to_string(),
    };
    (config, out_path)
}

fn usage_error(message: &str) -> ! {
    eprintln!("ERROR: {message}");
    eprintln!("usage: portfolio_gate [--smoke | --quick] [--variants N] [--out PATH]");
    std::process::exit(2);
}

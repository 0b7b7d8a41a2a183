//! The load-generator binary: replays scenario mixes against a running
//! daemon and writes `BENCH_serve.json`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--smoke | --quick] [--out PATH]
//! ```
//!
//! `--smoke` is the seconds-scale CI profile; `--quick` (the default) is
//! the committed-benchmark profile.  Exits 1 when the run fails or the
//! written report fails [`LoadReport::check`] (a job failed or a fault
//! check did not trigger), and 2 on a usage error.

use std::net::SocketAddr;

use mwl_bench::cli::{write_checked, Args};
use mwl_serve::{run_loadgen, LoadReport, LoadgenConfig};

fn main() {
    let args = Args::from_env(
        "loadgen --addr HOST:PORT [--smoke | --quick] [--out PATH]",
        &["--smoke", "--quick"],
        &["--addr", "--out"],
    );
    let addr = args
        .value("--addr")
        .and_then(|a| a.parse::<SocketAddr>().ok());
    let addr = addr.unwrap_or_else(|| args.usage_error("--addr HOST:PORT is required"));
    let config = if args.flag("--smoke") {
        LoadgenConfig::smoke(addr)
    } else {
        LoadgenConfig::quick(addr)
    };
    let out = args.value("--out").unwrap_or("BENCH_serve.json");

    let report = run_loadgen(&config).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "loadgen: {} jobs, p50 {:.2} ms, p99 {:.2} ms, {:.1} graphs/sec, dedup hit rate {:.2}, {} rejections",
        report.submitted,
        report.p50_ms,
        report.p99_ms,
        report.graphs_per_sec,
        report.dedup_hit_rate,
        report.rejections,
    );
    write_checked(out, &report.to_json(), LoadReport::check);
}

//! The load-generator binary: replays scenario mixes against a running
//! daemon and writes `BENCH_serve.json`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--smoke | --quick] [--out PATH]
//!         [--repeats N] [--graphs N] [--window N]
//!         [--no-faults] [--no-shutdown]
//! ```
//!
//! `--smoke` is the seconds-scale CI profile; `--quick` (the default) is
//! the committed-benchmark profile.  Exits non-zero when any job failed or
//! a requested fault check did not trigger, so CI can gate on it directly.

use std::net::SocketAddr;
use std::process::ExitCode;

use mwl_serve::{run_loadgen, LoadgenConfig};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--smoke | --quick] [--out PATH] \
         [--repeats N] [--graphs N] [--window N] [--no-faults] [--no-shutdown]"
    );
    std::process::exit(2);
}

fn next_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, name: &str) -> T {
    let raw = args.next().unwrap_or_else(|| usage());
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {name}: {raw}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut addr: Option<SocketAddr> = None;
    let mut smoke = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut repeats: Option<usize> = None;
    let mut graphs: Option<usize> = None;
    let mut window: Option<usize> = None;
    let mut faults = true;
    let mut shutdown = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(next_value(&mut args, "--addr")),
            "--smoke" => smoke = true,
            "--quick" => smoke = false,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--repeats" => repeats = Some(next_value(&mut args, "--repeats")),
            "--graphs" => graphs = Some(next_value(&mut args, "--graphs")),
            "--window" => window = Some(next_value(&mut args, "--window")),
            "--no-faults" => faults = false,
            "--no-shutdown" => shutdown = false,
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let mut config = if smoke {
        LoadgenConfig::smoke(addr)
    } else {
        LoadgenConfig::quick(addr)
    };
    if let Some(n) = repeats {
        config.repeats = n.max(1);
    }
    if let Some(n) = graphs {
        config.graphs_per_family = n.max(1);
    }
    if let Some(n) = window {
        config.window = n.max(1);
    }
    config.exercise_faults = faults;
    config.shutdown = shutdown;

    let report = match run_loadgen(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = report.to_json().encode_pretty();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("loadgen: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!(
        "loadgen: {} jobs, p50 {:.2} ms, p99 {:.2} ms, {:.1} graphs/sec, dedup hit rate {:.2}, {} rejections -> {out}",
        report.submitted,
        report.p50_ms,
        report.p99_ms,
        report.graphs_per_sec,
        report.dedup_hit_rate,
        report.rejections,
    );

    // A queue deeper than the loadgen is willing to flood legitimately
    // leaves queue_full unexercised — but only when the report says so.
    let queue_full_ok = report.faults.queue_full_exercised || report.faults.skipped_large_queue;
    let fault_checks_ok = !config.exercise_faults
        || (queue_full_ok
            && report.faults.cancellation_exercised
            && report.faults.malformed_line_answered);
    if report.failed > 0 {
        eprintln!("loadgen: {} jobs failed", report.failed);
        return ExitCode::FAILURE;
    }
    if !fault_checks_ok {
        eprintln!(
            "loadgen: a requested fault check did not trigger: {:?}",
            report.faults
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

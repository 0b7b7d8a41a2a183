//! The `serve` and `loadgen` binaries parse their arguments through
//! `mwl_bench::cli::Args`: an unknown argument or a zero count exits 2, and
//! a configured queue depth reaches the daemon's statistics.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use mwl_serve::Client;

/// Only `serve` takes counts; `loadgen`'s options are an address, a path
/// and two flags.
#[test]
fn unknown_arguments_and_zero_counts_are_usage_errors() {
    let serve = env!("CARGO_BIN_EXE_serve");
    for (binary, args) in [
        (serve, "--bogus"),
        (env!("CARGO_BIN_EXE_loadgen"), "--bogus"),
        (serve, "--workers 0"),
        (serve, "--queue 0"),
        (serve, "--max-ops 0"),
        (serve, "--grid-width 0"),
    ] {
        let output = Command::new(binary)
            .args(args.split(' '))
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{binary} {args}: {stderr}");
        assert!(stderr.contains("usage: "), "{binary} {args}: {stderr}");
    }
}

#[test]
fn the_daemon_reports_its_configured_queue_depth() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--queue", "8"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("the daemon starts");
    let mut line = String::new();
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut line).expect("the listening line");
    let addr = line.trim().trim_start_matches("listening on ").parse();
    let capacity = Client::connect(addr.expect("an address")).and_then(|mut client| {
        let stats = client.stats()?;
        client.shutdown()?;
        Ok(stats.queue_capacity)
    });
    if capacity.is_err() {
        let _ = daemon.kill();
    }
    assert_eq!(capacity.expect("stats and shutdown"), 8);
    assert!(daemon.wait().expect("the daemon exits").success());
}

//! The `serve` binary parses its arguments through `mwl_bench::cli::Args`:
//! an unknown argument or a zero count exits 2.  Run out of process, a
//! configured queue depth reaches the daemon's statistics, and a graceful
//! shutdown drains a submitted job before the daemon exits 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use mwl_driver::LatencySpec;
use mwl_model::OpShape;
use mwl_serve::wire::{JobConfig, SubmitRequest, WireGraph, WireOutcome};
use mwl_serve::{Client, SubmitAck};

#[test]
fn unknown_arguments_and_zero_counts_are_usage_errors() {
    for args in [
        "--bogus",
        "--workers 0",
        "--queue 0",
        "--max-ops 0",
        "--grid-width 0",
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args.split(' '))
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "serve {args}: {stderr}");
        assert!(stderr.contains("usage: "), "serve {args}: {stderr}");
    }
}

/// The job is submitted just before `shutdown`, so it is answered either
/// before the drain starts or by it: `drained` is 0 or 1, and the result
/// is `Ok` either way.
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
    let job = SubmitRequest {
        id: 1,
        label: None,
        priority: 0,
        graph: WireGraph {
            ops: vec![OpShape::multiplier(8, 8), OpShape::adder(16)],
            edges: vec![(0, 1)],
        },
        latency: LatencySpec::RelaxSteps(2),
        config: JobConfig::default(),
    };
    let session = Client::connect(addr.expect("an address")).and_then(|mut client| {
        let capacity = client.stats()?.queue_capacity;
        let ack = client.submit(job)?;
        let drained = client.shutdown()?;
        Ok((capacity, ack, drained, client.next_result()?))
    });
    if session.is_err() {
        let _ = daemon.kill();
    }
    let (capacity, ack, drained, (id, outcome)) = session.expect("stats, submit and shutdown");
    assert_eq!(capacity, 8);
    assert_eq!(ack, SubmitAck::Accepted);
    assert!(drained <= 1, "one job submitted, {drained} drained");
    assert_eq!(id, 1);
    assert!(matches!(outcome, WireOutcome::Ok(_)), "{outcome:?}");
    assert!(daemon.wait().expect("the daemon exits").success());
}

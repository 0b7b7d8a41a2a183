//! The binaries share one argument parser: a malformed count, a missing
//! value or an unknown argument is a usage error (exit code 2) that names
//! the binary's usage, and no work starts.

use std::process::Command;

fn exit_code(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn malformed_graph_counts_are_usage_errors() {
    for binary in [env!("CARGO_BIN_EXE_fig3"), env!("CARGO_BIN_EXE_rtl_smoke")] {
        for bad in ["x", "0", "-3"] {
            let (code, stderr) = exit_code(binary, &["--graphs", bad]);
            assert_eq!(code, Some(2), "{binary} --graphs {bad}: {stderr}");
            assert!(stderr.contains("usage: "), "{binary}: {stderr}");
        }
    }
}

#[test]
fn missing_values_and_unknown_arguments_are_usage_errors() {
    for (binary, args) in [
        (env!("CARGO_BIN_EXE_batch_sweep"), &["--workers", "1,x"][..]),
        (env!("CARGO_BIN_EXE_perf_gate"), &["--reps"][..]),
        (env!("CARGO_BIN_EXE_obs_gate"), &["--out"][..]),
        (env!("CARGO_BIN_EXE_table2"), &["--graph", "3"][..]),
    ] {
        let (code, stderr) = exit_code(binary, args);
        assert_eq!(code, Some(2), "{binary} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{binary}: {stderr}");
    }
}

//! The benchmark's own tests.
//!
//! * A tiny-config run of every workload prints exactly the metric names
//!   `BENCHMARK.json` lists: its `end_to_end` list untraced, its `per_layer`
//!   list traced, each with a unit.
//! * Two runs on one seed agree on everything that is not a time: the total
//!   area and the allocator's decision counts.

use std::path::PathBuf;
use std::process::Command;

use mwl_serve::json::Json;

const WORKLOADS: [&str; 2] = ["paper_mix", "large_graphs"];

/// Runs the benchmark binary with the tiny inputs and returns the parsed
/// last line of its standard output.
fn run(workload: &str, trace: bool, seed: u64) -> Json {
    let trace_out: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("{workload}-{seed}-{trace}.trace.json"),
    ]
    .iter()
    .collect();
    let output = Command::new(env!("CARGO_BIN_EXE_mwlbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--tiny", "--trace-out"])
        .arg(&trace_out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    if trace {
        let trace_json = std::fs::read_to_string(&trace_out).expect("the trace was written");
        let parsed = Json::parse(&trace_json).expect("the trace is JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_array);
        assert!(events.is_some_and(|e| !e.is_empty()), "empty trace");
    }
    result
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Object(pairs)) => pairs.iter().map(|(name, _)| name.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn metric(result: &Json, name: &str) -> f64 {
    let value = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .unwrap_or_else(|| panic!("no metric {name}"));
    match value {
        Json::Int(i) => *i as f64,
        Json::Float(f) => *f,
        other => panic!("{name} is not a number: {other:?}"),
    }
}

/// The metric names of one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

#[test]
fn every_listed_metric_is_printed() {
    let end_to_end = sorted(listed("end_to_end"));
    let per_layer = sorted(listed("per_layer"));
    for workload in WORKLOADS {
        let plain = run(workload, false, 3);
        assert_eq!(sorted(metric_names(&plain)), end_to_end, "{workload}");
        let traced = run(workload, true, 3);
        assert_eq!(
            sorted(metric_names(&traced)),
            per_layer,
            "{workload} traced"
        );
    }
}

#[test]
fn one_seed_gives_one_area_and_one_set_of_counts() {
    for workload in WORKLOADS {
        let a = run(workload, false, 11);
        let b = run(workload, false, 11);
        assert_eq!(
            metric(&a, "total_area"),
            metric(&b, "total_area"),
            "{workload}"
        );
        assert!(metric(&a, "total_area") > 0.0);
    }
    for workload in WORKLOADS {
        let a = run(workload, true, 11);
        let b = run(workload, true, 11);
        for count in [
            "wcg.edges",
            "core.refinements",
            "core.escalations",
            "core.merges",
            "portfolio.improved_ratio",
        ] {
            assert_eq!(metric(&a, count), metric(&b, count), "{workload} {count}");
        }
    }
}

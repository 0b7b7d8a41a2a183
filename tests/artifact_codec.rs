//! The committed `BENCH_*.json` gate files at the repository root are
//! fixed points of the workspace's JSON codec — parsing one and printing it
//! again with `encode_pretty` reproduces it byte for byte — and each passes
//! the check its `schema` field names, the same check its gate exits on.
//! The gates write these files through the same encoder, so a regenerated
//! artifact differs from its committed copy only where a measurement
//! changed.
//!
//! `BENCHMARK.json` (the benchmark declaration, not a gate output) is not
//! one of them.

use mwl::obs::json::Json;
use mwl_bench::{
    AblationResults, ObsGateResults, PaperStudyResults, PerfGateConfig, PerfGateResults,
    PortfolioGateConfig, PortfolioGateResults,
};

/// The violations of `doc` under the check of its schema version.
fn check(doc: &Json) -> Vec<String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("mwl_perf_gate_v3") => {
            PerfGateResults::check(doc, &PerfGateConfig::smoke().sweep.worker_counts)
        }
        Some("mwl_obs_gate_v1") => ObsGateResults::check(doc),
        Some("mwl_portfolio_gate_v2") => {
            PortfolioGateResults::check(doc, &PortfolioGateConfig::quick().sweep.worker_counts)
        }
        Some("mwl_ablation_gate_v1") => AblationResults::check(doc),
        Some("mwl_paper_study_v1") => PaperStudyResults::check(doc),
        other => vec![format!("schema: no check for {other:?}")],
    }
}

fn artifact(name: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/{name}")).expect("read artifact")
}

#[test]
fn committed_bench_artifacts_are_codec_fixed_points() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("read the repository root")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    // ablation, alloc, obs, paper and portfolio.
    assert!(names.len() >= 5, "{names:?}");
    for name in &names {
        let text = artifact(name);
        let value = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(value.encode_pretty(), text, "{name} is not a fixed point");
        assert_eq!(check(&value), Vec::<String>::new(), "{name}");
    }
}

/// Flipping one field of a committed document, or renaming one key away,
/// makes its check report exactly one violation, at that key.
#[test]
fn each_check_names_a_planted_violation() {
    for (name, from, to) in [
        ("BENCH_alloc.json", r#""merging_off": true"#, "false"),
        ("BENCH_alloc.json", r#""target_speedup""#, "renamed"),
        ("BENCH_obs.json", r#""trace_stripped": true"#, "false"),
        ("BENCH_obs.json", r#""stages_overhead""#, "renamed"),
        ("BENCH_portfolio.json", r#""regressed": 0"#, "1"),
        ("BENCH_paper.json", r#""unsound": 0"#, "1"),
        ("BENCH_paper.json", r#""ilp""#, "renamed"),
        ("BENCH_paper.json", r#""gap_closed_percent""#, "renamed"),
        ("BENCH_ablation.json", r#""area_delta": 0"#, "1"),
    ] {
        let key = from.split('"').nth(1).expect("a quoted key");
        let replacement = match from.split_once(": ") {
            Some((quoted, _)) => format!("{quoted}: {to}"),
            None => format!("\"{to}\""),
        };
        let text = artifact(name);
        let planted = text.replacen(from, &replacement, 1);
        assert_ne!(planted, text, "{name} has no {from}");
        let violations = check(&Json::parse(&planted).unwrap());
        assert_eq!(violations.len(), 1, "{name}: {violations:?}");
        assert!(
            violations[0].contains(&format!("{key}: ")),
            "{name}: {violations:?}"
        );
    }
}

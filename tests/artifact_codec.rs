//! The committed `BENCH_*.json` gate files at the repository root are
//! fixed points of the workspace's JSON codec: parsing one and printing it
//! again with `encode_pretty` reproduces it byte for byte.  The gates write
//! these files through the same encoder, so a regenerated artifact differs
//! from its committed copy only where a measurement changed.
//!
//! `BENCHMARK.json` (the benchmark declaration, not a gate output) is not
//! one of them.

use mwl::obs::json::Json;

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
    // alloc, obs, portfolio and serve.
    assert!(names.len() >= 4, "{names:?}");
    for name in &names {
        let text = std::fs::read_to_string(format!("{root}/{name}")).expect("read artifact");
        let value = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(value.encode_pretty(), text, "{name} is not a fixed point");
    }
}

//! The ablation gate: solves the scenario jobs with BindSelect's clique
//! growth, the bound-critical-path refinement rule and the instance merge
//! each switched off in turn, checks every datapath, and writes each part's
//! area contribution to `BENCH_ablation.json`.
//!
//! Usage: `cargo run -p mwl_bench --release --bin ablation [-- --smoke] [--out PATH]`
//!
//! Exit codes: 0 success; 1 the written file fails [`AblationResults::check`]
//! (a datapath is invalid or misses its λ, or switching merging off lowered
//! a job's area); 2 usage error.

use mwl_bench::cli::{write_checked, Args};
use mwl_bench::{run_ablation, AblationResults, BatchSweepConfig};

fn main() {
    let args = Args::from_env("ablation [--smoke] [--out PATH]", &["--smoke"], &["--out"]);
    let sweep = if args.flag("--smoke") {
        BatchSweepConfig::smoke()
    } else {
        BatchSweepConfig::quick()
    };
    let out_path = args.value("--out").unwrap_or("BENCH_ablation.json");
    let results = run_ablation(&sweep);
    println!("Ablation gate ({} jobs)", results.jobs.len());
    for (arm, result) in results.arms.iter().enumerate() {
        let t = results.totals(arm, None);
        println!(
            "{:<16} area {:>8} ({:+}), {} refinements, {} escalations, {} merges, best {:.6} s",
            result.name,
            t.total_area,
            results.area_delta(arm, None),
            t.refinements,
            t.escalations,
            t.merges,
            result.best_seconds
        );
    }
    write_checked(out_path, &results.to_json(), AblationResults::check);
}

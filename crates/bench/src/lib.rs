//! Experiment harness regenerating every table and figure of the DATE 2001
//! evaluation (Section 3 of the paper).
//!
//! Each experiment is a plain library function returning a typed result
//! table, so the same code backs the command-line binaries
//! (`cargo run -p mwl_bench --release --bin paper` …) and the tests:
//!
//! | Paper item | Function | Binary |
//! |------------|----------|--------|
//! | Figures 3–5 and Table 2 of the paper, and the portfolio's gap to proven ILP optima, as views over one study of `(ops, slack)` cells, committed `BENCH_paper.json` | [`run_paper_study`] | `paper` |
//! | Allocation hot-path perf gate: optimized vs frozen reference, bit-identity, batch throughput per worker count, committed `BENCH_alloc.json` | [`run_perf_gate`] | `perf_gate` |
//! | Portfolio gate: racing-allocator determinism, never-worse and improved-somewhere checks, committed `BENCH_portfolio.json` | [`run_portfolio_gate`] | `portfolio_gate` |
//! | Observability gate: telemetry non-perturbation and overhead bounds, committed `BENCH_obs.json`; `--trace-out` adds a Chrome trace of the mix | [`run_obs_gate`] | `obs_gate` |
//! | Ablation gate: area each part of the heuristic (clique growth, refinement rule, instance merge) is worth, committed `BENCH_ablation.json` | [`run_ablation`] | `ablation` |
//!
//! Every gate runs the deterministic scenario mix of [`scenario_jobs`] and
//! times its code through [`measure`], the crate's one measurement
//! harness; the paper study instead draws TGFF graphs per cell and times
//! each solve once, as the paper does.  Every binary reads its arguments
//! through [`cli::Args`].
//!
//! The paper runs 200 random graphs per data point on a Pentium III 450;
//! [`PaperStudyConfig::paper`] reproduces those counts, while
//! [`PaperStudyConfig::quick`] uses smaller counts so the study runs in
//! minutes on a development machine.  Absolute times differ from the paper;
//! the *shape* (who wins, polynomial vs exponential scaling) is what the
//! harness reproduces — see `docs/ARCHITECTURE.md`, "Notes on modelling
//! choices".
//!
//! *Pipeline position:* the leaf of the workspace, consuming every other
//! crate.  See `docs/ARCHITECTURE.md` for the full map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
mod batch;
pub mod cli;
pub mod measure;
mod obs;
mod paper;
mod perf;
mod portfolio;

pub use ablation::{run_ablation, AblationResults, AblationTotals, ArmResult};
pub use batch::{scenario_families, scenario_jobs, BatchSweepConfig, ScenarioFamily};
pub use obs::{
    run_obs_gate, ObsGateConfig, ObsGateResults, DISABLED_NOISE_LIMIT, ENABLED_OVERHEAD_LIMIT,
    TRACE_OVERHEAD_LIMIT,
};
pub use paper::{
    run_paper_study, CellSpec, IlpCell, PaperCell, PaperStudyConfig, PaperStudyResults,
};
pub use perf::{
    run_perf_gate, PerfGateConfig, PerfGateResults, StageRow, MULTI_CORE_TARGET,
    SINGLE_THREAD_TARGET,
};
pub use portfolio::{run_portfolio_gate, FamilyGateRow, PortfolioGateConfig, PortfolioGateResults};

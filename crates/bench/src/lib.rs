//! Experiment harness regenerating every table and figure of the DATE 2001
//! evaluation (Section 3 of the paper).
//!
//! Each experiment is a plain library function returning a typed result
//! table, so the same code backs the command-line binaries
//! (`cargo run -p mwl_bench --release --bin fig3` …), the Criterion benches
//! and the integration tests:
//!
//! | Paper item | Function | Binary |
//! |------------|----------|--------|
//! | Figure 3 — area penalty of the two-stage approach \[4\] over the heuristic, vs `|O|` and latency slack | [`run_fig3`] | `fig3` |
//! | Figure 4 — area premium of the heuristic over the ILP optimum \[5\], vs `|O|` | [`run_fig4`] | `fig4` |
//! | Figure 5 — execution time vs `|O|` for heuristic and ILP | [`run_fig5`] | `fig5` |
//! | Table 2 — execution time vs `λ/λ_min` for 9-operation graphs | [`run_table2`] | `table2` |
//! | Batch throughput over the TGFF + scenario families (beyond the paper) | [`run_batch_sweep`] | `batch_sweep` |
//! | Allocation hot-path perf gate: optimized vs frozen reference, bit-identity, committed `BENCH_alloc.json` | [`run_perf_gate`] | `perf_gate` |
//! | Portfolio gate: racing-allocator determinism, never-worse and ILP gap-closed checks, committed `BENCH_portfolio.json` | [`run_portfolio_gate`] | `portfolio_gate` |
//! | Observability gate: telemetry non-perturbation and overhead bounds, committed `BENCH_obs.json` | [`run_obs_gate`] | `obs_gate` |
//!
//! The gates and the batch sweep time their code through [`measure`], the
//! crate's one measurement harness, and every binary reads its arguments
//! through [`cli::Args`].
//!
//! The paper runs 200 random graphs per data point on a Pentium III 450;
//! [`SweepConfig::paper`] reproduces those counts, while
//! [`SweepConfig::quick`] uses smaller counts so the whole suite runs in
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

mod batch;
pub mod cli;
mod fig3;
mod fig4;
mod fig5;
pub mod measure;
mod obs;
mod perf;
mod portfolio;
mod sweep;
mod table2;

pub use batch::{
    run_batch_sweep, scenario_families, scenario_jobs, BatchSweepConfig, BatchSweepResults,
    FamilyResult, ScenarioFamily,
};
pub use fig3::{run_fig3, Fig3Cell, Fig3Config, Fig3Results};
pub use fig4::{run_fig4, Fig4Config, Fig4Results, Fig4Row};
pub use fig5::{run_fig5, Fig5Config, Fig5Results, Fig5Row};
pub use obs::{
    run_obs_gate, ObsGateConfig, ObsGateResults, ObsGateStatus, DISABLED_NOISE_LIMIT,
    ENABLED_OVERHEAD_LIMIT, TRACE_OVERHEAD_LIMIT,
};
pub use perf::{
    run_perf_gate, MultiCoreStatus, PerfGateConfig, PerfGateResults, StageRow, MULTI_CORE_TARGET,
    SINGLE_THREAD_TARGET,
};
pub use portfolio::{
    run_portfolio_gate, FamilyGateRow, IlpGapRow, PortfolioGateConfig, PortfolioGateResults,
};
pub use sweep::{lambda_min, relax_constraint, SweepConfig};
pub use table2::{run_table2, Table2Config, Table2Results, Table2Row};

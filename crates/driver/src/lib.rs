//! Parallel batch-allocation driver for the `DPAlloc` heuristic.
//!
//! The allocator in [`mwl_core`] solves one graph at a time; real consumers
//! of fixed-point datapath synthesis (benchmark suites, design-space sweeps,
//! services) solve *many* — one per candidate design point.  This crate fans
//! a set of [`BatchJob`]s (graph, λ budget, [`mwl_core::AllocConfig`])
//! across a [`std::thread::scope`] worker pool and collects one
//! [`JobOutcome`] per job into a [`BatchReport`].
//!
//! Three properties define the engine:
//!
//! * **Determinism** — outcomes are stored by submission index, never by
//!   completion order, so a [`BatchReport`] is bit-identical for every
//!   worker count (including 1).  Parallelism changes wall-clock time only.
//! * **Shared read-only cost cache** — resource costs for every job graph
//!   are pre-computed once into a lock-free [`mwl_core::CachedCostModel`]
//!   shared by all workers.
//! * **Failure isolation** — a job whose budget is infeasible records its
//!   [`mwl_core::AllocError`] in the report; the rest of the batch runs on.
//!
//! No external dependencies are used: the pool is scoped threads (a single
//! worker runs on the calling thread), the queue an atomic cursor, the
//! report a plain vector.
//!
//! *Pipeline position:* sits on top of `mwl_core`; the gates in
//! `mwl_bench` drive it over the scenario families.  See
//! `docs/ARCHITECTURE.md` for the full map and a data-flow diagram of one
//! batch run.
//!
//! # Quick start
//!
//! ```
//! use mwl_core::AllocConfig;
//! use mwl_driver::{run_batch, BatchJob, BatchOptions, LatencySpec};
//! use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two jobs over the same tiny graph: a tight budget and a loose one.
//! let mut b = SequencingGraphBuilder::new();
//! let x = b.add_operation(OpShape::multiplier(8, 8));
//! let y = b.add_operation(OpShape::multiplier(14, 10));
//! let s = b.add_operation(OpShape::adder(24));
//! b.add_dependency(x, s)?;
//! b.add_dependency(y, s)?;
//! let graph = b.build()?;
//!
//! let jobs = vec![
//!     BatchJob::new("tight", graph.clone(), LatencySpec::RelaxSteps(0)),
//!     BatchJob::new("loose", graph, LatencySpec::RelaxPercent(30))
//!         .with_config(AllocConfig::new(0).with_instance_merging(true)),
//! ];
//!
//! let cost = SonicCostModel::default();
//! let report = run_batch(&jobs, &cost, &BatchOptions::default());
//! assert_eq!(report.summary().jobs, 2);
//! assert_eq!(report.summary().failed, 0);
//!
//! // The report is identical at any worker count.
//! let sequential = run_batch(&jobs, &cost, &BatchOptions::sequential());
//! assert_eq!(report, sequential);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod exec;
mod job;
mod report;

pub use engine::{run_batch, run_batch_traced};
pub use exec::{batch_cache, solve_job, width_grid_cache};
pub use job::{BatchJob, BatchOptions, LatencySpec};
pub use report::{area_breakdown_json, BatchReport, BatchSummary, JobOutcome, JobStats, RtlCheck};
